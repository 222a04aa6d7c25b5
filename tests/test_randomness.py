"""The per-node randomness rule: seeds and coins from (run seed, node id).

The numpy columns must equal the pure-int functions on every id the
network accepts (negative, int64, uint64 and past 2^64), and the coins must
behave like the paper's independent biased coins: the sample size follows
Binomial(n, p), and coins at adjacent ids, or adjacent run seeds, are
uncorrelated.  The column relies on uint64 wraparound and on NEP 50 scalar
promotion; CI runs this module with numpy deprecations as errors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.randomness import (
    node_coin,
    node_coin_column,
    node_seed,
    node_seed_column,
)

#: Ids across every range a network accepts.
IDS = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(2**63, 2**64 - 1),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**63) - 1),
)

#: Run seeds: small, negative and huge.
RUN_SEEDS = st.one_of(st.integers(-50, 50), st.integers(-(2**80), 2**80))


class TestColumnEqualsPureInt:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(IDS, max_size=24), RUN_SEEDS)
    def test_sequences_of_any_ids(self, ids, run_seed):
        seeds = node_seed_column(run_seed, ids)
        assert seeds.dtype == np.int64
        assert seeds.tolist() == [node_seed(run_seed, v) for v in ids]
        coins = node_coin_column(seeds)
        assert coins.tolist() == [node_coin(seed) for seed in seeds.tolist()]

    @settings(max_examples=100, deadline=None)
    @given(st.data(), RUN_SEEDS)
    def test_integer_arrays(self, data, run_seed):
        dtype = data.draw(st.sampled_from([np.int64, np.uint64, np.int32]))
        info = np.iinfo(dtype)
        ids = data.draw(st.lists(st.integers(int(info.min), int(info.max)), max_size=24))
        seeds = node_seed_column(run_seed, np.array(ids, dtype=dtype))
        assert seeds.tolist() == [node_seed(run_seed, v) for v in ids]

    def test_seeds_are_63_bit_and_coins_in_the_unit_interval(self):
        seeds = node_seed_column(5, np.arange(-5000, 5000))
        assert seeds.min() >= 0
        coins = node_coin_column(seeds)
        assert 0.0 <= coins.min() and coins.max() < 1.0


class TestKeys:
    @pytest.mark.parametrize(
        "a, b",
        [(-1, 2**64 - 1), (-(2**63), 2**63), (0, 2**64), (5, 5 + 2**64), (-1, -1 - 2**64)],
    )
    def test_ids_equal_modulo_2_64_get_distinct_seeds(self, a, b):
        assert node_seed(7, a) != node_seed(7, b)
        assert node_seed_column(7, [a, b]).tolist() == [node_seed(7, a), node_seed(7, b)]

    def test_large_ids_and_seeds_do_not_raise(self):
        node_seed(2**300, -(2**300))
        node_seed_column(-(2**300), [2**300, -1, 0])

    @pytest.mark.parametrize("run_seed", [1, 3, 2**63, 2**70])
    def test_negated_run_seeds_are_distinct_runs(self, run_seed):
        ids = np.arange(64)
        assert (
            node_seed_column(run_seed, ids).tolist()
            != node_seed_column(-run_seed, ids).tolist()
        )


def _chi_square_critical(df: int, z: float) -> float:
    """Wilson–Hilferty upper quantile of chi-square(df) at normal quantile z."""
    k = 2.0 / (9.0 * df)
    return df * (1.0 - k + z * math.sqrt(k)) ** 3


class TestCoinStatistics:
    def test_sample_size_follows_the_binomial(self):
        # |S| over 2000 run seeds on n=60 nodes at p=0.15, binned so every
        # expected count is >= 5, against Binomial(60, 0.15) at alpha=0.001.
        n, p, runs = 60, 0.15, 2000
        ids = np.arange(n)
        sizes = np.array(
            [int((node_coin_column(node_seed_column(r, ids)) < p).sum()) for r in range(runs)]
        )
        pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        bins, observed, expected = [], [], []
        low = 0
        for k in range(n + 1):
            mass = sum(pmf[low : k + 1])
            if mass * runs >= 5 and sum(pmf[k + 1 :]) * runs >= 5:
                bins.append((low, k))
                low = k + 1
        bins.append((low, n))
        for first, last in bins:
            observed.append(int(((sizes >= first) & (sizes <= last)).sum()))
            expected.append(runs * sum(pmf[first : last + 1]))
        statistic = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        # z = 3.0902 is the standard normal's 0.999 quantile.
        assert statistic < _chi_square_critical(len(bins) - 1, 3.0902), (
            statistic,
            observed,
        )
        assert abs(sizes.mean() - n * p) < 0.2

    def test_coins_at_adjacent_ids_are_uncorrelated(self):
        ids = np.arange(-1000, 1000)
        pairs = []
        for run_seed in range(100):
            coins = node_coin_column(node_seed_column(run_seed, ids))
            pairs.append(np.stack([coins[:-1], coins[1:]]))
        left, right = np.concatenate(pairs, axis=1)
        # ~2e5 pairs: the standard error of r is ~0.0022.
        assert abs(np.corrcoef(left, right)[0, 1]) < 0.01

    def test_coins_at_adjacent_run_seeds_are_uncorrelated(self):
        ids = np.arange(2000)
        columns = [node_coin_column(node_seed_column(r, ids)) for r in range(101)]
        left = np.concatenate(columns[:-1])
        right = np.concatenate(columns[1:])
        assert abs(np.corrcoef(left, right)[0, 1]) < 0.01
