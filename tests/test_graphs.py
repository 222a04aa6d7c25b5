"""Tests for graph generators, analysis utilities and IO."""

from __future__ import annotations

import itertools
import os

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.core import near_clique
from repro.graphs import analysis, generators, io


class TestPlantedNearClique:
    def test_planted_set_satisfies_promise(self):
        for seed in range(5):
            graph, planted = generators.planted_near_clique(
                n=60, clique_fraction=0.5, epsilon=0.2 ** 3, background_p=0.05, seed=seed
            )
            assert len(planted.members) == 30
            assert generators.verify_promise(graph, planted.members, 0.2 ** 3)

    def test_zero_epsilon_plants_strict_clique(self):
        graph, planted = generators.planted_near_clique(40, 0.4, 0.0, 0.0, seed=1)
        assert near_clique.density(graph, planted.members) == 1.0

    def test_background_probability_zero_gives_isolated_rest(self):
        graph, planted = generators.planted_near_clique(30, 0.3, 0.0, 0.0, seed=2)
        outside = set(graph.nodes()) - planted.members
        assert all(graph.degree(v) == 0 for v in outside)

    def test_node_count_and_labels(self):
        graph, _ = generators.planted_near_clique(45, 0.2, 0.0, 0.05, seed=3)
        assert graph.number_of_nodes() == 45
        assert set(graph.nodes()) == set(range(45))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generators.planted_near_clique(10, 0.0, 0.1)
        with pytest.raises(ValueError):
            generators.planted_near_clique(10, 0.5, 1.0)
        with pytest.raises(ValueError):
            generators.erdos_renyi(0, 0.5)

    def test_planted_clique_helper(self):
        graph, planted = generators.planted_clique(50, 20, background_p=0.02, seed=4)
        assert len(planted.members) == 20
        assert near_clique.density(graph, planted.members) == 1.0

    @given(
        st.integers(min_value=10, max_value=60),
        st.floats(min_value=0.1, max_value=0.6),
        st.floats(min_value=0.0, max_value=0.2),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_planted_defect_never_exceeds_target(self, n, fraction, epsilon, seed):
        graph, planted = generators.planted_near_clique(
            n=n, clique_fraction=fraction, epsilon=epsilon, background_p=0.0, seed=seed
        )
        assert near_clique.near_clique_defect(graph, planted.members) <= epsilon + 1e-9


class TestShinglesCounterexample:
    def test_block_sizes_match_construction(self):
        graph, partition = generators.shingles_counterexample(n=80, delta=0.5)
        assert len(partition["C1"]) == len(partition["C2"]) == 20
        assert len(partition["I1"]) == len(partition["I2"]) == 20
        assert partition["clique"] == partition["C1"] | partition["C2"]

    def test_clique_is_a_clique_and_independent_sets_are_independent(self):
        graph, partition = generators.shingles_counterexample(n=60, delta=0.4)
        assert near_clique.density(graph, partition["clique"]) == 1.0
        for block in ("I1", "I2"):
            assert near_clique.ordered_pair_edge_count(graph, partition[block]) == 0

    def test_bipartite_connections(self):
        graph, partition = generators.shingles_counterexample(n=40, delta=0.5)
        for u in partition["I1"]:
            for v in partition["C1"]:
                assert graph.has_edge(u, v)
        for u in partition["I1"]:
            for v in partition["C2"]:
                assert not graph.has_edge(u, v)
        for u in partition["I1"]:
            for v in partition["I2"]:
                assert not graph.has_edge(u, v)

    def test_case1_candidate_density_formula(self):
        # The density of C1 ∪ C2 ∪ I1 approaches 2δ/(1+δ) as n grows.
        graph, partition = generators.shingles_counterexample(n=200, delta=0.5)
        candidate = partition["C1"] | partition["C2"] | partition["I1"]
        assert near_clique.density(graph, candidate) == pytest.approx(
            2 * 0.5 / 1.5, abs=0.02
        )

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            generators.shingles_counterexample(n=40, delta=1.5)


class TestPathOfCliques:
    def test_structure(self):
        graph, partition = generators.path_of_cliques(32)
        assert len(partition["A"]) == 16
        assert len(partition["B"]) == 8
        assert near_clique.density(graph, partition["A"]) == 1.0
        assert near_clique.density(graph, partition["B"]) == 1.0
        assert nx.is_connected(graph)

    def test_path_length_separates_cliques(self):
        graph, partition = generators.path_of_cliques(40)
        a_node = max(partition["A"])
        b_node = min(partition["B"])
        distance = nx.shortest_path_length(graph, a_node, b_node)
        assert distance >= len(partition["P"])

    def test_delete_clique_edges(self):
        graph, partition = generators.path_of_cliques(24)
        stripped = generators.delete_clique_edges(graph, partition["A"])
        assert near_clique.ordered_pair_edge_count(stripped, partition["A"]) == 0
        # Edges outside A are untouched.
        assert near_clique.density(stripped, partition["B"]) == 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generators.path_of_cliques(4)


class TestOtherGenerators:
    def test_web_community_graph_plants_disjoint_communities(self):
        graph, communities = generators.web_community_graph(100, communities=3, seed=5)
        members = [c.members for c in communities]
        for a, b in itertools.combinations(members, 2):
            assert not (a & b)
        for community in communities:
            assert near_clique.near_clique_defect(graph, community.members) <= 0.1

    def test_web_community_graph_sizes_descending(self):
        _, communities = generators.web_community_graph(90, communities=3, seed=1)
        sizes = [c.size for c in communities]
        assert sizes == sorted(sizes, reverse=True)

    def test_web_community_rejects_overfull(self):
        with pytest.raises(ValueError):
            generators.web_community_graph(50, communities=10, community_fraction=0.2)

    def test_adhoc_radio_network_hotspot_is_dense(self):
        graph, positions = generators.adhoc_radio_network(80, seed=3)
        assert len(positions) == 80
        hotspot = range(int(0.3 * 80))
        assert near_clique.density(graph, hotspot) >= 0.7

    def test_erdos_renyi_edge_count_reasonable(self):
        graph = generators.erdos_renyi(100, 0.1, seed=7)
        expected = 0.1 * 100 * 99 / 2
        assert 0.5 * expected <= graph.number_of_edges() <= 1.5 * expected


class TestAnalysisUtilities:
    def test_density_report(self):
        graph = nx.complete_graph(5)
        graph.remove_edge(0, 1)
        report = analysis.density_report(graph, range(5))
        assert report.size == 5
        assert report.ordered_pairs_present == 18
        assert report.defect == pytest.approx(0.1)
        assert report.is_near_clique(0.1)
        assert not report.is_near_clique(0.05)

    def test_missing_pairs(self):
        graph = nx.complete_graph(4)
        graph.remove_edge(1, 3)
        assert analysis.missing_pairs(graph, range(4)) == [(1, 3)]

    def test_degree_summary(self):
        graph = nx.star_graph(4)
        summary = analysis.degree_summary(graph)
        assert summary["max"] == 4.0
        assert summary["min"] == 1.0
        assert analysis.degree_summary(nx.Graph()) == {"min": 0.0, "mean": 0.0, "max": 0.0}

    def test_component_sizes(self, two_triangles):
        assert analysis.component_sizes(two_triangles) == [3, 3]
        assert analysis.component_sizes(two_triangles, nodes={0, 1, 10}) == [2, 1]

    def test_induced_diameter(self):
        graph = nx.path_graph(6)
        assert analysis.induced_diameter(graph, range(6)) == 5
        assert analysis.induced_diameter(graph, {0, 5}) is None
        assert analysis.induced_diameter(graph, set()) is None

    def test_densest_known_subsets_sorted(self):
        graph = nx.complete_graph(6)
        graph.add_edges_from([(10, 11)])
        reports = analysis.densest_known_subsets(graph, [range(6), {10, 11, 0}])
        assert reports[0].size == 6

    def test_local_view_signature_detects_difference_only_within_radius(self):
        graph, partition = generators.path_of_cliques(32)
        stripped = generators.delete_clique_edges(graph, partition["A"])
        b_node = max(partition["B"])
        short = len(partition["P"]) // 2
        assert analysis.local_view_signature(
            graph, b_node, short
        ) == analysis.local_view_signature(stripped, b_node, short)
        full = graph.number_of_nodes()
        assert analysis.local_view_signature(
            graph, b_node, full
        ) != analysis.local_view_signature(stripped, b_node, full)

    def test_greedy_near_clique_certificate(self):
        graph = nx.complete_graph(4)
        ok, report = analysis.greedy_near_clique_certificate(graph, range(4), 0.0)
        assert ok and report.density == 1.0


class TestIO:
    def test_round_trip(self, tmp_path):
        graph, planted = generators.planted_near_clique(30, 0.4, 0.0, 0.05, seed=2)
        path = os.path.join(str(tmp_path), "workload.edges")
        io.write_edge_list(graph, path, planted=planted.members, comment="test graph")
        loaded, loaded_planted = io.read_edge_list(path)
        assert set(loaded.nodes()) == set(graph.nodes())
        assert set(loaded.edges()) == set(graph.edges())
        assert loaded_planted == planted.members

    def test_round_trip_preserves_isolated_nodes(self, tmp_path):
        graph = nx.Graph()
        graph.add_nodes_from(range(5))
        graph.add_edge(0, 1)
        path = os.path.join(str(tmp_path), "isolated.edges")
        io.write_edge_list(graph, path)
        loaded, planted = io.read_edge_list(path)
        assert loaded.number_of_nodes() == 5
        assert planted is None

    def test_save_workload_writes_metadata(self, tmp_path):
        graph = nx.path_graph(4)
        path = io.save_workload(
            graph, str(tmp_path), "pathy", metadata={"kind": "path"}
        )
        assert os.path.exists(path)
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
        assert "workload: pathy" in content
        assert "kind: path" in content


class TestLoadSnapEdgelist:
    """The looser SNAP corpus format: comments, tabs, dups, self-loops."""

    SNAP_SAMPLE = (
        "# Directed graph (each unordered pair of nodes is saved once)\n"
        "# Nodes: 5 Edges: 4\n"
        "# FromNodeId\tToNodeId\n"
        "0\t3\n"
        "3 0\n"          # duplicate, other orientation, space-separated
        "3\t7\n"
        "7\t7\n"         # self-loop: dropped
        "\n"
        "  12   7  \n"   # leading/trailing whitespace
        "# trailing comment\n"
        "12\t40\n"
    )

    def _write(self, tmp_path, text):
        path = os.path.join(str(tmp_path), "snap.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def test_parses_comments_whitespace_dups_and_self_loops(self, tmp_path):
        pairs = io.load_snap_edgelist(self._write(tmp_path, self.SNAP_SAMPLE))
        # File order, self-loop dropped, the duplicate orientation kept.
        assert pairs.dtype == np.int64 and pairs.shape == (5, 2)
        assert pairs.tolist() == [[0, 3], [3, 0], [3, 7], [12, 7], [12, 40]]

    def test_relabel_densifies_and_keeps_snap_ids(self, tmp_path):
        graph = cli._relabelled_snap_graph(
            io.load_snap_edgelist(self._write(tmp_path, self.SNAP_SAMPLE))
        )
        assert sorted(graph.nodes()) == [0, 1, 2, 3, 4]
        assert [graph.nodes[v]["snap_id"] for v in range(5)] == [0, 3, 7, 12, 40]
        assert graph.has_edge(0, 1) and graph.has_edge(3, 4)

    def test_malformed_line_reports_the_line_number(self, tmp_path):
        path = self._write(tmp_path, "0\t1\n2 3 4\n")
        with pytest.raises(ValueError, match=":2:"):
            io.load_snap_edgelist(path)
        path = self._write(tmp_path, "0\t1\nx y\n")
        with pytest.raises(ValueError, match="non-integer"):
            io.load_snap_edgelist(path)

    # -- the bulk parser against the line loop, which defines the format --
    def _assert_same_as_line_loop(self, path):
        pairs = io.load_snap_edgelist(path)
        reference = io._load_snap_lines(path)
        assert pairs.dtype == reference.dtype
        assert pairs.shape == reference.shape
        assert pairs.tolist() == reference.tolist()
        return pairs

    @pytest.mark.parametrize(
        "text, line_number, message",
        [
            ("0 1\n2 3 # note\n", 2, "expected 'u v'"),
            ("# h\n0 1\n2 3 4\n", 3, "expected 'u v'"),
            ("0 1\n2 3 4 5\n", 2, "expected 'u v'"),
            ("0\t1\n\n5 x\n", 3, "non-integer"),
            ("0 1\n1.5 2\n", 2, "non-integer"),
        ],
        ids=["trailing-comment", "three-columns", "four-columns", "non-integer", "decimal-point"],
    )
    def test_rejects_with_the_line_number(self, tmp_path, text, line_number, message):
        path = self._write(tmp_path, text)
        with pytest.raises(ValueError, match=":%d: %s" % (line_number, message)):
            io.load_snap_edgelist(path)

    @pytest.mark.parametrize(
        "text, rows",
        [
            ("1_000 2\n2 3\n", [[1000, 2], [2, 3]]),
            ("%d 1\n1 %d\n" % (2**63 + 5, 2**64 + 1), [[2**63 + 5, 1], [1, 2**64 + 1]]),
            ("\n0 1\n\n\n1 2\n\n", [[0, 1], [1, 2]]),
            ("# h\r\n0 1\r\n1\t2\r\n", [[0, 1], [1, 2]]),
            ("# a\n  # b\n\n", []),
            ("", []),
            ("5 5\n3 1\n1 3\n2 2\n1 2\n3 1\n", [[3, 1], [1, 3], [1, 2], [3, 1]]),
            ("0 1\n# mid-file comment\n1 2\n", [[0, 1], [1, 2]]),
            ("007 08\n", [[7, 8]]),
        ],
        ids=[
            "underscore",
            "above-2**63",
            "blank-lines",
            "crlf",
            "comment-only",
            "empty",
            "self-loops-and-duplicates",
            "mid-file-comment",
            "leading-zeros",
        ],
    )
    def test_loads_exactly_like_the_line_loop(self, tmp_path, text, rows):
        pairs = self._assert_same_as_line_loop(self._write(tmp_path, text))
        assert pairs.shape == (len(rows), 2)
        assert pairs.tolist() == rows
        # int64 unless an id does not fit; then Python ints in an object array.
        fits = all(-(2**63) <= end < 2**63 for row in rows for end in row)
        assert pairs.dtype == (np.int64 if fits else object)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.integers(0, 10**20),
                    st.sampled_from([" ", "\t", "  ", " \t"]),
                    st.integers(0, 60),
                    st.sampled_from(["", " ", "\t"]),
                ).map(lambda t: "%d%s%d%s" % t),
                st.sampled_from(["", "# comment", "  #x", "1 2 3", "1 2 3 4", "4", "-1 2"]),
            ),
            max_size=12,
        ),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_random_files_load_like_the_line_loop(self, tmp_path_factory, lines, ending):
        path = self._write(tmp_path_factory.mktemp("snap"), ending.join(lines))
        try:
            reference_error = None
            io._load_snap_lines(path)
        except ValueError as error:
            reference_error = str(error)
        if reference_error is not None:
            with pytest.raises(ValueError) as raised:
                io.load_snap_edgelist(path)
            assert str(raised.value) == reference_error
        else:
            self._assert_same_as_line_loop(path)

    # -- the bulk path must actually take common-shape files --
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.integers(0, 10**18 - 1),
                    st.sampled_from([" ", "\t", "  ", "\t "]),
                    st.integers(0, 10**18 - 1),
                    st.sampled_from(["", " ", "\t"]),
                    st.sampled_from(["", " "]),
                ).map(lambda t: "%s%d%s%d%s" % (t[4], t[0], t[1], t[2], t[3])),
                st.sampled_from(["", " ", "\t"]),
            ),
            max_size=12,
        ),
        st.booleans(),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    def test_common_shape_files_take_the_bulk_path(
        self, tmp_path_factory, lines, header, ending, final_newline
    ):
        if header:
            lines = ["# FromNodeId\tToNodeId", "# Nodes: 9"] + lines
        text = ending.join(lines) + (ending if final_newline and lines else "")
        path = self._write(tmp_path_factory.mktemp("snap"), text)
        with open(path, "rb") as handle:
            bulk = io._bulk_edge_pairs(handle.read())
        assert bulk is not None
        reference = io._load_snap_lines(path)
        bulk = bulk[bulk[:, 0] != bulk[:, 1]]
        assert bulk.dtype == reference.dtype == np.int64
        assert bulk.tolist() == reference.tolist()

    @pytest.mark.parametrize(
        "raw",
        [
            b"0 1\n%d 2\n" % 10**18,
            b"0 1\n0000000000000000007 2\n",
            b"0 1\n5\n",
            b"0 1\n2 3 4\n",
            b"0 1\n# mid-file comment\n1 2\n",
            "# n\u00f6des\n0 1\n".encode("utf-8"),
            b"0 1\n-1 2\n",
        ],
        ids=[
            "19-digit-id",
            "19-digit-run",
            "one-token",
            "three-tokens",
            "mid-file-comment",
            "non-ascii",
            "sign",
        ],
    )
    def test_bulk_path_declines_other_shapes(self, raw):
        assert io._bulk_edge_pairs(raw) is None

    def test_bulk_path_reads_18_digit_ids_exactly(self):
        raw = b"# h\n%d\t%d\n" % (10**18 - 1, 10**17)
        assert io._bulk_edge_pairs(raw).tolist() == [[10**18 - 1, 10**17]]

    def test_loaded_graph_feeds_the_network(self, tmp_path):
        from repro.congest.network import Network

        network = Network(
            io.load_snap_edgelist(self._write(tmp_path, self.SNAP_SAMPLE)), seed=0
        )
        assert network.n == 5
        assert network.node_ids == [0, 3, 7, 12, 40]
        assert network.number_of_edges() == 4
        assert network.neighbors(3) == (0, 7)
        assert network.neighbors(7) == (3, 12)
