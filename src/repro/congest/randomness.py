"""One randomness rule: a node's seed and coin from (run seed, node id).

The paper's sampler is one independent biased coin per node (Section 3).
A node's seed is a SplitMix64-style counter-based mix (Steele, Lea and
Flood, OOPSLA 2014) of the run seed and its id, so any set of nodes gets
the seeds it has in a full run; its coin is the first SplitMix64 output
of the seed, cut to 53 bits in ``[0, 1)``.  Each is written as pure-int
code and as a numpy ``uint64`` column (wrapping modulo 2^64); they agree.
An integer enters the mix as its 64-bit limbs, then its sign word, so
distinct ids in ``[-2^63, 2^64)`` get distinct keys and larger ids work.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN, _MUL1, _MUL2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U = np.uint64


def _mix64(z: int) -> int:
    """The SplitMix64 finalizer of a word in ``[0, 2^64)``."""
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def _absorb(h: int, value: int) -> int:
    """One SplitMix64 step per 64-bit limb of *value*, low first, then its sign."""
    while True:
        h = _mix64(((h + _GOLDEN) & _MASK) ^ (value & _MASK))
        value >>= 64
        if value in (0, -1):
            return _mix64(((h + _GOLDEN) & _MASK) ^ (value & _MASK))


def node_seed(run_seed: int, node_id: int) -> int:
    """The 63-bit private seed of *node_id* in the run seeded *run_seed*."""
    return _absorb(_absorb(0, run_seed), node_id) >> 1


def node_coin(seed: int) -> float:
    """The node's coin in ``[0, 1)``: 53 bits of the first output of *seed*."""
    return (_mix64((seed + _GOLDEN) & _MASK) >> 11) * 2.0**-53


def _mix64_column(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over a ``uint64`` column, in place."""
    z ^= z >> _U(30)
    z *= _U(_MUL1)
    z ^= z >> _U(27)
    z *= _U(_MUL2)
    z ^= z >> _U(31)
    return z


def node_seed_column(run_seed: int, ids: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """:func:`node_seed` of every id in *ids* (ints, or an int array) as int64.

    Ids that neither int64 nor uint64 holds all of (negative ids next to
    ids past 2^63 - 1, or ids past 2^64 - 1) take the pure-int path.
    """
    if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu":
        column = ids.astype(np.int64 if ids.dtype.kind == "i" else np.uint64)
    elif not len(ids) or (-(1 << 63) <= min(ids) and max(ids) < 1 << 63):
        column = np.array(ids, dtype=np.int64)
    elif min(ids) >= 0 and max(ids) <= _MASK:
        column = np.array(ids, dtype=np.uint64)
    else:
        return np.fromiter((node_seed(run_seed, v) for v in ids), np.int64, len(ids))
    state = _U((_absorb(0, run_seed) + _GOLDEN) & _MASK)
    h = _mix64_column(column.astype(np.uint64) ^ state)
    sign = np.where(column < 0, _U(_MASK), _U(0))
    return (_mix64_column((h + _U(_GOLDEN)) ^ sign) >> _U(1)).astype(np.int64)


def node_coin_column(seeds: np.ndarray) -> np.ndarray:
    """:func:`node_coin` of every seed in an int64 column, as float64."""
    z = _mix64_column(seeds.astype(np.uint64) + _U(_GOLDEN))
    return (z >> _U(11)).astype(np.float64) * 2.0**-53
