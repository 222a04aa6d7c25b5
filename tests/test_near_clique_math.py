"""Unit and property tests for the near-clique mathematics (Definition 1, K, T)."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import near_clique


def small_graphs():
    """Hypothesis strategy: random graphs with up to 12 nodes."""
    return st.builds(
        lambda n, seed: nx.gnp_random_graph(n, 0.4, seed=seed),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10 ** 6),
    )


class TestDensity:
    def test_clique_has_density_one(self):
        graph = nx.complete_graph(6)
        assert near_clique.density(graph, range(6)) == 1.0
        assert near_clique.near_clique_defect(graph, range(6)) == 0.0

    def test_empty_and_singleton_sets(self):
        graph = nx.complete_graph(4)
        assert near_clique.density(graph, []) == 1.0
        assert near_clique.density(graph, [2]) == 1.0

    def test_independent_set_density_zero(self):
        graph = nx.empty_graph(5)
        assert near_clique.density(graph, range(5)) == 0.0

    def test_ordered_pair_count_doubles_edges(self):
        graph = nx.path_graph(4)
        assert near_clique.ordered_pair_edge_count(graph, range(4)) == 6

    def test_density_of_near_clique_with_one_missing_edge(self):
        graph = nx.complete_graph(5)
        graph.remove_edge(0, 1)
        expected = (20 - 2) / 20.0
        assert near_clique.density(graph, range(5)) == pytest.approx(expected)

    def test_is_near_clique_threshold_exact(self):
        graph = nx.complete_graph(5)
        graph.remove_edge(0, 1)
        defect = near_clique.near_clique_defect(graph, range(5))
        assert near_clique.is_near_clique(graph, range(5), defect)
        assert not near_clique.is_near_clique(graph, range(5), defect - 0.01)

    def test_is_near_clique_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            near_clique.is_near_clique(nx.complete_graph(3), range(3), -0.1)

    def test_accepts_adjacency_dict(self):
        graph = nx.complete_graph(4)
        adjacency = near_clique.adjacency_sets(graph)
        assert near_clique.density(adjacency, range(4)) == 1.0

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_density_in_unit_interval(self, graph):
        nodes = list(graph.nodes())
        assert 0.0 <= near_clique.density(graph, nodes) <= 1.0

    @given(small_graphs(), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_zero_near_clique_iff_clique(self, graph, seed):
        rng = random.Random(seed)
        nodes = list(graph.nodes())
        if len(nodes) < 2:
            return
        subset = rng.sample(nodes, rng.randint(2, len(nodes)))
        is_clique = all(
            graph.has_edge(u, v) for u, v in itertools.combinations(subset, 2)
        )
        assert near_clique.is_near_clique(graph, subset, 0.0) == is_clique

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_adding_edges_never_decreases_density(self, graph):
        nodes = list(graph.nodes())
        if len(nodes) < 3:
            return
        before = near_clique.density(graph, nodes)
        dense = graph.copy()
        missing = [
            (u, v)
            for u, v in itertools.combinations(nodes, 2)
            if not graph.has_edge(u, v)
        ]
        if missing:
            dense.add_edge(*missing[0])
        after = near_clique.density(dense, nodes)
        assert after >= before - 1e-12


class TestKEps:
    def test_k_of_clique_contains_clique(self):
        graph = nx.complete_graph(6)
        k = near_clique.k_eps(graph, {0, 1, 2}, epsilon=0.0)
        assert {3, 4, 5} <= k
        # Members of X are not adjacent to themselves, so with epsilon=0 and
        # |X| = 3 a member needs all three neighbours including itself: out.
        assert 0 not in k

    def test_k_with_slack_readmits_members(self):
        graph = nx.complete_graph(6)
        k = near_clique.k_eps(graph, {0, 1, 2}, epsilon=0.4)
        assert {0, 1, 2, 3, 4, 5} == k

    def test_k_of_empty_set_is_everything(self):
        graph = nx.path_graph(4)
        assert near_clique.k_eps(graph, set(), 0.1) == set(range(4))

    def test_k_excludes_poorly_connected(self):
        graph = nx.complete_graph(5)
        graph.add_node(9)
        graph.add_edge(9, 0)
        k = near_clique.k_eps(graph, {0, 1, 2, 3}, epsilon=0.1)
        assert 9 not in k
        assert 4 in k

    def test_k_respects_explicit_universe(self):
        graph = nx.complete_graph(6)
        k = near_clique.k_eps(graph, {0, 1}, epsilon=0.0, universe={2, 3})
        assert k == {2, 3}

    @given(small_graphs(), st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_k_monotone_in_epsilon(self, graph, epsilon):
        nodes = list(graph.nodes())
        if len(nodes) < 2:
            return
        x = set(nodes[: max(1, len(nodes) // 3)])
        smaller = near_clique.k_eps(graph, x, epsilon)
        larger = near_clique.k_eps(graph, x, min(0.99, epsilon + 0.3))
        assert smaller <= larger


class TestTEps:
    def test_t_of_clique_recovers_clique_outside_x(self):
        # With a small epsilon the members of X themselves fail the K test
        # (they are not their own neighbours), but every other clique vertex
        # is recovered; with a larger epsilon the X members are readmitted.
        graph = nx.complete_graph(8)
        t_small = near_clique.t_eps(graph, {0, 1, 2}, epsilon=0.2)
        assert t_small == {3, 4, 5, 6, 7}
        t_large = near_clique.t_eps(graph, {0, 1, 2}, epsilon=0.45)
        assert t_large == set(range(8))

    def test_t_subset_of_inner_k(self):
        graph = nx.gnp_random_graph(20, 0.3, seed=3)
        x = {0, 1, 2, 3}
        t = near_clique.t_eps(graph, x, epsilon=0.25)
        inner = near_clique.k_eps(graph, x, 2 * 0.25 ** 2)
        assert t <= inner

    def test_t_empty_when_x_disconnected_from_graph(self):
        graph = nx.empty_graph(6)
        assert near_clique.t_eps(graph, {0, 1}, 0.2) == set()

    def test_lemma_5_3_holds_on_random_graphs(self):
        # Every T_eps(X) with t members must be an (n/t)*eps-near clique.
        rng = random.Random(5)
        for seed in range(8):
            graph = nx.gnp_random_graph(24, 0.35, seed=seed)
            epsilon = 0.2
            nodes = list(graph.nodes())
            x = set(rng.sample(nodes, 4))
            t = near_clique.t_eps(graph, x, epsilon)
            if len(t) <= 1:
                continue
            bound = near_clique.lemma_5_3_defect_bound(len(nodes), len(t), epsilon)
            assert near_clique.near_clique_defect(graph, t) <= bound + 1e-9

    def test_lemma_5_3_bound_clipping(self):
        assert near_clique.lemma_5_3_defect_bound(100, 1, 0.5) == 0.0
        assert near_clique.lemma_5_3_defect_bound(100, 2, 0.5) == 1.0
        assert near_clique.lemma_5_3_defect_bound(100, 50, 0.1) == pytest.approx(0.2)


class TestCoreSetAndRepresentativeness:
    def test_core_of_clique_is_whole_clique(self):
        # For a strict clique of size d, every member has d-1 internal
        # neighbours, so the core C = K_{eps^2}(D) ∩ D is all of D as soon as
        # eps^2 * d >= 1 (here 0.04 * 40 = 1.6).
        graph = nx.complete_graph(40)
        core = near_clique.core_set(graph, range(40), epsilon=0.2)
        assert core == set(range(40))

    def test_core_empty_for_tiny_clique(self):
        # Below the 1/eps^2 threshold the self-exclusion makes C empty,
        # which is consistent with Lemma 5.4's (then vacuous) lower bound.
        graph = nx.complete_graph(10)
        assert near_clique.core_set(graph, range(10), epsilon=0.2) == set()

    def test_core_lemma_5_4_bound(self):
        # Build a near-clique, check |C| >= (1-eps)|D| - 1/eps^2.
        graph = nx.complete_graph(40)
        rng = random.Random(1)
        pairs = list(itertools.combinations(range(40), 2))
        rng.shuffle(pairs)
        for u, v in pairs[: int(0.008 * len(pairs))]:
            graph.remove_edge(u, v)
        epsilon = 0.2
        assert near_clique.is_near_clique(graph, range(40), epsilon ** 3)
        core = near_clique.core_set(graph, range(40), epsilon)
        bound = near_clique.lemma_5_4_core_lower_bound(40, epsilon)
        assert len(core) >= bound

    def test_representative_for_exact_clique_sample(self):
        graph = nx.complete_graph(30)
        d = set(range(30))
        c = near_clique.core_set(graph, d, 0.2)
        x_star = {0, 5, 10}
        assert near_clique.is_representative(graph, d, c, x_star, 0.2)

    def test_not_representative_for_disjoint_sample(self):
        graph = nx.complete_graph(20)
        graph.add_nodes_from(range(20, 40))
        # X* drawn outside the clique cannot represent it.
        d = set(range(20))
        c = near_clique.core_set(graph, d, 0.2)
        x_star = {25, 30}
        assert not near_clique.is_representative(graph, d, c, x_star, 0.2)


class TestTheoremBoundHelpers:
    def test_size_lower_bound_formula(self):
        # (1 - 13*0.1/2)*1000 - 1/0.01 = 350 - 100.
        assert near_clique.theorem_5_7_size_lower_bound(1000, 0.1) == pytest.approx(250.0)
        # With epsilon -> 0 the bound approaches |D| from below.
        assert near_clique.theorem_5_7_size_lower_bound(1000, 0.0) == 1000.0

    def test_defect_bound_clips_to_one(self):
        assert near_clique.theorem_5_7_defect_bound(0.2, 0.5) == 1.0

    def test_defect_bound_small_epsilon(self):
        value = near_clique.theorem_5_7_defect_bound(0.05, 0.5)
        assert value == pytest.approx((0.05 / 0.5) / (1 - 0.325))
        assert value <= 2 * 0.05 / 0.5

    def test_defect_bound_requires_positive_delta(self):
        with pytest.raises(ValueError):
            near_clique.theorem_5_7_defect_bound(0.1, 0.0)


class TestSubsetIndexing:
    def test_round_trip(self):
        members = (3, 7, 11, 20)
        for index in range(1, 16):
            subset = near_clique.subset_from_index(members, index)
            assert near_clique.index_of_subset(members, subset) == index

    def test_index_zero_is_empty(self):
        assert near_clique.subset_from_index((1, 2), 0) == frozenset()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            near_clique.subset_from_index((1, 2), 4)
        with pytest.raises(ValueError):
            near_clique.subset_from_index((1, 2), -1)

    def test_foreign_member_rejected(self):
        with pytest.raises(ValueError):
            near_clique.index_of_subset((1, 2), {3})

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=8, unique=True))
    def test_canonical_members_sorted(self, members):
        canonical = near_clique.canonical_members(members)
        assert list(canonical) == sorted(set(members))

    @given(
        st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=8, unique=True),
        st.data(),
    )
    def test_round_trip_property(self, members, data):
        members = near_clique.canonical_members(members)
        index = data.draw(st.integers(min_value=0, max_value=(1 << len(members)) - 1))
        subset = near_clique.subset_from_index(members, index)
        assert near_clique.index_of_subset(members, subset) == index


class TestSharedPredicates:
    def test_meets_fraction_exact_boundary(self):
        assert near_clique.meets_fraction(8, 10, 0.2)
        assert not near_clique.meets_fraction(7, 10, 0.2)

    def test_meets_fraction_zero_total(self):
        assert near_clique.meets_fraction(0, 0, 0.3)

    def test_neighbor_mask(self):
        members = (2, 5, 9)
        mask = near_clique.neighbor_mask(members, [5, 9, 100])
        assert mask == 0b110

    @given(
        st.lists(st.integers(min_value=0, max_value=60), max_size=12, unique=True),
        st.sets(st.integers(min_value=0, max_value=60)),
    )
    def test_sorted_neighbor_mask_matches_neighbor_mask(self, members, neighbors):
        members = tuple(sorted(members))
        assert near_clique.sorted_neighbor_mask(
            members, tuple(sorted(neighbors))
        ) == near_clique.neighbor_mask(members, neighbors)


class TestSubsetMembership:
    @staticmethod
    def _scan(masks, member_count, epsilon):
        indices, sizes, columns = [], [], []
        for block_indices, block_sizes, member in near_clique.subset_membership(
            masks, member_count, epsilon
        ):
            assert member.shape == (len(masks), len(block_indices))
            indices += block_indices.tolist()
            sizes += block_sizes.tolist()
            columns += member.T.tolist()
        return indices, sizes, columns

    @staticmethod
    def _double_loop(masks, indices, epsilon):
        return [
            [
                near_clique.meets_fraction(
                    bin(m & x).count("1"), bin(x).count("1"), epsilon
                )
                for m in masks
            ]
            for x in indices
        ]

    @pytest.mark.parametrize("block_rows", [None, 1, 3])
    @pytest.mark.parametrize(
        "epsilon", [0.2, 2 * 0.25 * 0.25, 2 * 0.5 * 0.5, 0.0, 1.0]
    )
    def test_matches_a_double_loop(self, block_rows, epsilon, monkeypatch):
        # 0.2 puts |X| = 10 on its exact boundary (8 of 10), 2ε² for
        # ε = 0.25 and 0.5 are the inner thresholds of Step 4a; 1- and
        # 3-index blocks put a block boundary inside every matrix.
        rng = random.Random(7)
        for member_count in range(11):
            masks = [rng.randrange(1 << member_count) for _ in range(5)]
            masks += [0, (1 << member_count) - 1]
            if block_rows is not None:
                monkeypatch.setattr(
                    near_clique, "_SUBSET_BLOCK_BYTES", 8 * len(masks) * block_rows
                )
            indices, sizes, columns = self._scan(masks, member_count, epsilon)
            assert indices == list(range(1, 1 << member_count))
            assert sizes == [bin(x).count("1") for x in indices]
            assert columns == self._double_loop(masks, indices, epsilon)

    @pytest.mark.parametrize("epsilon", [2 * 0.25 * 0.25, 2 * 0.5 * 0.5])
    def test_matches_a_double_loop_at_k18(self, epsilon):
        # The default max_sample_size: every index, checked at a stride
        # (and the tail) against the same double loop.
        masks = [0b101101110011010110, 0b010010001100101001, (1 << 18) - 1, 0]
        indices, sizes, columns = self._scan(masks, 18, epsilon)
        assert indices == list(range(1, 1 << 18))
        picked = list(range(0, len(indices), 97)) + list(range(len(indices) - 64, len(indices)))
        assert [sizes[i] for i in picked] == [
            bin(indices[i]).count("1") for i in picked
        ]
        assert [columns[i] for i in picked] == self._double_loop(
            masks, [indices[i] for i in picked], epsilon
        )

    def test_blocks_respect_the_budget(self, monkeypatch):
        monkeypatch.setattr(near_clique, "_SUBSET_BLOCK_BYTES", 8 * 2 * 3)
        blocks = list(near_clique.subset_membership([1, 2], 4, 0.1))
        assert [b[0].tolist() for b in blocks] == [
            [1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12], [13, 14, 15]
        ]

    def test_boundary_decisions(self):
        # |X| = 10 at ε = 0.2: 8 common members qualify, 7 do not.
        masks = [0b11111111, 0b1111111]
        (_, _, member), = near_clique.subset_membership(masks, 10, 0.2)
        assert member[:, -1].tolist() == [True, False]

    def test_no_members_yields_nothing(self):
        assert list(near_clique.subset_membership([0, 0], 0, 0.1)) == []
