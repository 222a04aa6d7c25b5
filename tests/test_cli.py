"""Tests for the command-line interface."""

from __future__ import annotations

import os

import pytest

from repro import cli
from repro.core.reference import CentralizedNearCliqueFinder
from repro.graphs import io


def _without_session_report(report):
    """*report* up to the Execution-session report the sharded engine appends."""
    return report.split("Execution-session report")[0].rstrip()


class TestGenerateCommand:
    @pytest.mark.parametrize("family", ["planted", "figure1", "path-of-cliques", "web"])
    def test_generates_every_family(self, tmp_path, family):
        path = os.path.join(str(tmp_path), "%s.edges" % family)
        exit_code = cli.main(
            ["generate", path, "--family", family, "--n", "60", "--seed", "3"]
        )
        assert exit_code == 0
        graph, planted = io.read_edge_list(path)
        assert graph.number_of_nodes() >= 30
        assert planted


class TestFindCommand:
    def test_distributed_engine_on_generated_workload(self, capsys):
        exit_code = cli.main(
            [
                "find",
                "--n",
                "60",
                "--epsilon",
                "0.2",
                "--engine",
                "distributed",
                "--expected-sample",
                "6",
                "--seed",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Discovered near-cliques" in captured.out
        assert "max message bits" in captured.out

    def test_centralized_engine_on_saved_graph(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "workload.edges")
        cli.main(["generate", path, "--family", "planted", "--n", "50", "--seed", "1"])
        exit_code = cli.main(
            ["find", "--graph", path, "--engine", "centralized", "--epsilon", "0.2", "--seed", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "recall of planted set" in captured.out

    @pytest.mark.parametrize("congest_engine", ["reference", "vectorized", "sharded"])
    def test_congest_engine_selection(self, capsys, congest_engine):
        exit_code = cli.main(
            [
                "find",
                "--n",
                "60",
                "--epsilon",
                "0.2",
                "--engine",
                "distributed",
                "--congest-engine",
                congest_engine,
                "--expected-sample",
                "6",
                "--seed",
                "5",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Discovered near-cliques" in captured.out

    def test_congest_engines_print_identical_reports(self, capsys):
        reports = {}
        for congest_engine in ("reference", "vectorized", "sharded"):
            exit_code = cli.main(
                [
                    "find",
                    "--n",
                    "50",
                    "--congest-engine",
                    congest_engine,
                    "--expected-sample",
                    "5",
                    "--seed",
                    "9",
                ]
            )
            assert exit_code == 0
            reports[congest_engine] = _without_session_report(capsys.readouterr().out)
        assert reports["vectorized"] == reports["reference"]
        assert reports["sharded"] == reports["reference"]

    @pytest.mark.parametrize("shards", ["1", "3", "4"])
    def test_sharded_engine_shard_flags(self, capsys, shards):
        # The shard count is report-invariant: the sharded engine is
        # bit-identical for every partition, so the CLI output must not
        # change either.
        reports = {}
        for name, extra in (
            ("vectorized", []),
            ("sharded", ["--shards", shards]),
        ):
            exit_code = cli.main(
                [
                    "find",
                    "--n",
                    "50",
                    "--congest-engine",
                    name,
                    "--expected-sample",
                    "5",
                    "--seed",
                    "9",
                ]
                + extra
            )
            assert exit_code == 0
            reports[name] = _without_session_report(capsys.readouterr().out)
        assert reports["sharded"] == reports["vectorized"]

    def test_process_backend_session_report(self, capsys):
        # The process backend's session must not change the finder's report
        # (engines are bit-identical in session mode) and must append the
        # execution-session totals.
        reports = {}
        for name, extra in (
            ("default", []),
            (
                "session",
                ["--congest-engine", "sharded", "--shards", "2"],
            ),
        ):
            exit_code = cli.main(
                ["find", "--n", "50", "--expected-sample", "5", "--seed", "9"]
                + extra
            )
            assert exit_code == 0
            reports[name] = capsys.readouterr().out
        session_report = reports["session"]
        assert "Execution-session report" in session_report
        assert "shm bytes mapped" in session_report
        assert "setup seconds / phase" in session_report
        # Everything before the session report matches the default run.
        prefix = session_report.split("Execution-session report")[0].rstrip()
        assert prefix == reports["default"].rstrip()
        assert "Execution-session report" not in reports["default"]

    def test_boosted_engine(self, capsys):
        exit_code = cli.main(
            [
                "find",
                "--n",
                "50",
                "--engine",
                "boosted",
                "--repetitions",
                "3",
                "--expected-sample",
                "6",
                "--seed",
                "7",
            ]
        )
        assert exit_code == 0
        assert "Run summary" in capsys.readouterr().out

    def test_abort_reported_as_nonzero_exit(self, capsys):
        exit_code = cli.main(
            [
                "find",
                "--n",
                "40",
                "--expected-sample",
                "40",
                "--max-sample",
                "3",
                "--seed",
                "1",
            ]
        )
        assert exit_code == 1
        assert "aborted" in capsys.readouterr().out.lower()


class TestArgumentValidation:
    """Nonsense flag values exit 2 with a usage message at parse time.

    Exit 1 is reserved for ``find``'s "aborted" and ``verify``'s "not a
    near-clique" verdicts, so an invalid value must never reach them.  The
    bounds are the library's own: ``AlgorithmParameters`` wants epsilon in
    (0, 1) and non-negative sample bounds, ``is_near_clique`` wants epsilon
    >= 0, the planted generator wants its fraction in (0, 1], its defect in
    [0, 1) and a probability as its background, and the boosted runner at
    least one repetition.  The last cases are the removed async engine,
    the folded callback engine, the removed shard-backend flag and the
    mode flags.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["find", "--n", "-3"],
            ["find", "--n", "0"],
            ["generate", "unused.edges", "--n", "-4"],
            ["serve", "--n", "-5"],
            ["find", "--epsilon", "1.5"],
            ["find", "--epsilon", "0"],
            ["serve", "--epsilon", "1.5"],
            ["find", "--expected-sample", "-2"],
            ["serve", "--expected-sample", "-2"],
            ["verify", "unused.edges", "--epsilon", "-1"],
            ["find", "--n", "ten"],
            ["serve", "--n", "0"],
            ["generate", "unused.edges", "--n", "0"],
            ["find", "--epsilon", "1"],
            ["find", "--epsilon", "nan"],
            ["serve", "--epsilon", "0"],
            ["find", "--expected-sample", "nan"],
            ["verify", "unused.edges", "--epsilon", "nan"],
            ["find", "--shards", "0"],
            ["serve", "--shards", "0"],
            ["find", "--round-timeout", "0"],
            ["find", "--round-timeout", "nan"],
            ["serve", "--round-timeout", "-1"],
            ["find", "--delta", "0"],
            ["find", "--delta", "1.01"],
            ["find", "--delta", "nan"],
            ["serve", "--delta", "-0.5"],
            ["generate", "unused.edges", "--delta", "0"],
            ["find", "--background", "-0.5"],
            ["find", "--background", "1.5"],
            ["find", "--background", "nan"],
            ["serve", "--background", "-0.01"],
            ["generate", "unused.edges", "--background", "2"],
            ["find", "--max-sample", "-1"],
            ["serve", "--max-sample", "-1"],
            ["find", "--max-sample", "1.5"],
            ["find", "--repetitions", "0"],
            ["find", "--repetitions", "-2"],
            ["find", "--min-output-size", "-1"],
            ["serve", "--min-output-size", "-1"],
            ["generate", "unused.edges", "--epsilon", "1"],
            ["generate", "unused.edges", "--epsilon", "-0.1"],
            ["generate", "unused.edges", "--epsilon", "nan"],
            ["find", "--congest-engine", "async"],
            ["serve", "--congest-engine", "async"],
            ["find", "--congest-engine", "batched"],
            ["serve", "--congest-engine", "batched"],
            ["find", "--shard-workers", "2"],
            ["find", "--shard-backend", "thread"],
            ["serve", "--shard-backend", "thread"],
            ["find", "--shard-backend", "serial"],
            ["serve", "--shard-backend", "process"],
            ["find", "--session-mode", "persistent"],
            ["find", "--pipeline-mode", "fuse"],
        ],
        ids=" ".join,
    )
    def test_invalid_values_exit_2_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    BOUNDARY_VALUES = [
        (["find", "--n", "1"], "n", 1),
        (["serve", "--n", "1"], "n", 1),
        (["generate", "unused.edges", "--n", "1"], "n", 1),
        (["find", "--epsilon", "0.001"], "epsilon", 0.001),
        (["serve", "--epsilon", "0.999"], "epsilon", 0.999),
        (["verify", "unused.edges", "--epsilon", "0"], "epsilon", 0.0),
        (["find", "--expected-sample", "0"], "expected_sample", 0.0),
        (["serve", "--expected-sample", "1e9"], "expected_sample", 1e9),
        (["find", "--shards", "1"], "shards", 1),
        (["find", "--round-timeout", "0.001"], "round_timeout", 0.001),
        (["find", "--delta", "1"], "delta", 1.0),
        (["serve", "--delta", "1e-9"], "delta", 1e-9),
        (["generate", "unused.edges", "--delta", "1"], "delta", 1.0),
        (["find", "--background", "0"], "background", 0.0),
        (["find", "--background", "1"], "background", 1.0),
        (["generate", "unused.edges", "--background", "0"], "background", 0.0),
        (["find", "--max-sample", "0"], "max_sample", 0),
        (["serve", "--max-sample", "0"], "max_sample", 0),
        (["find", "--repetitions", "1"], "repetitions", 1),
        (["find", "--min-output-size", "0"], "min_output_size", 0),
        (["serve", "--min-output-size", "0"], "min_output_size", 0),
        (["generate", "unused.edges", "--epsilon", "0"], "epsilon", 0.0),
        (["generate", "unused.edges", "--epsilon", "0.999"], "epsilon", 0.999),
        (["find", "--congest-engine", "vectorized"], "congest_engine", "vectorized"),
    ]

    @pytest.mark.parametrize(
        "argv,dest,value",
        BOUNDARY_VALUES,
        ids=[" ".join(argv) for argv, _, _ in BOUNDARY_VALUES],
    )
    def test_boundary_values_parse(self, argv, dest, value):
        # The bounds are tight: each edge value the library accepts parses.
        args = cli._build_parser().parse_args(argv)
        assert getattr(args, dest) == value


def write_snap_toy(path):
    """A 12-node near-clique on gappy ids plus a sparse tail, in SNAP format.

    The tail repeats every edge in both orientations, carries a self-loop
    and ends in an id past int64, so the loader's object-dtype path runs.
    """
    clique = [10 * i + 3 for i in range(12)]
    lines = ["# Undirected graph: toy", "# FromNodeId\tToNodeId"]
    for a in range(12):
        for b in range(a + 1, 12):
            if (a + b) % 7:
                lines.append("%d\t%d" % (clique[a], clique[b]))
    tail = [500 + 2 * i for i in range(7)] + [2**64 + 1]
    lines.append("%d %d" % (clique[0], tail[0]))
    for a, b in zip(tail, tail[1:]):
        lines.append("%d\t%d" % (a, b))
        lines.append("%d\t%d" % (b, a))
    lines.append("%d\t%d" % (tail[3], tail[3]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return sorted(clique + tail)


class TestGraphFileOption:
    #: What ``find`` prints for the toy file under the per-node seed rule
    #: (repro.congest.randomness); the table is checked against the
    #: centralized oracle on the realized sample below.
    CLUSTER_TABLE = (
        "\n"
        "Discovered near-cliques\n"
        "label  size  density\n"
        "-----  ----  -------\n"
        "    4    10   0.8444\n"
        "\n"
    )

    def test_find_relabels_keeps_snap_ids_and_prints_the_pinned_table(
        self, tmp_path, capsys, monkeypatch
    ):
        path = os.path.join(str(tmp_path), "toy.txt")
        snap_ids = write_snap_toy(path)
        argv = ["find", "--graph-file", path, "--epsilon", "0.3", "--expected-sample", "4", "--seed", "2"]
        graph, planted = cli._load_or_generate(cli._build_parser().parse_args(argv))
        assert planted is None
        assert sorted(graph.nodes()) == list(range(len(snap_ids)))
        assert [graph.nodes[v]["snap_id"] for v in range(len(snap_ids))] == snap_ids
        # Clique ids 3, 13 and 73 are dense ids 0, 1 and 7; (0 + 7) % 7 == 0
        # left 3-73 out.
        assert graph.has_edge(0, 1) and not graph.has_edge(0, 7)
        assert graph.has_edge(0, snap_ids.index(500))
        results = []

        class RecordingRunner(cli.DistNearCliqueRunner):
            def run(self, *args, **kwargs):
                results.append(super().run(*args, **kwargs))
                return results[-1]

        monkeypatch.setattr(cli, "DistNearCliqueRunner", RecordingRunner)
        exit_code = cli.main(argv)
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out.split("Run summary")[0] == self.CLUSTER_TABLE
        assert "           nodes     20\n" in out
        # The pinned labels are the oracle's on the sample the run realized.
        (result,) = results
        oracle = CentralizedNearCliqueFinder(graph, 0.3).run_with_sample(result.sample)
        assert result.labels == oracle.labels
        assert {label: len(members) for label, members in oracle.clusters.items()} == {4: 10}


class TestVerifyCommand:
    def test_verify_planted_set_passes(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "workload.edges")
        cli.main(
            ["generate", path, "--family", "planted", "--n", "50", "--epsilon", "0.01", "--seed", "2"]
        )
        exit_code = cli.main(["verify", path, "--epsilon", "0.05"])
        assert exit_code == 0
        assert "yes" in capsys.readouterr().out

    def test_verify_explicit_sparse_set_fails(self, tmp_path, capsys):
        path = os.path.join(str(tmp_path), "workload.edges")
        cli.main(["generate", path, "--family", "planted", "--n", "50", "--seed", "2"])
        exit_code = cli.main(
            ["verify", path, "--epsilon", "0.0", "--nodes", "0,1,2,48,49"]
        )
        assert exit_code == 1

    def test_verify_without_nodes_or_planted_errors(self, tmp_path):
        import networkx as nx

        path = os.path.join(str(tmp_path), "plain.edges")
        io.write_edge_list(nx.path_graph(4), path)
        assert cli.main(["verify", path, "--epsilon", "0.1"]) == 2


class TestServeCommand:
    def _serve(self, monkeypatch, capsys, requests, argv=()):
        import io as _io
        import json
        import sys

        lines = "".join(json.dumps(r) + "\n" for r in requests)
        monkeypatch.setattr(sys, "stdin", _io.StringIO(lines))
        exit_code = cli.main(["serve", "--n", "48", "--seed", "1", *argv])
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        return exit_code, responses, captured.err

    def test_serve_answers_query_delta_query_and_shuts_down(
        self, monkeypatch, capsys
    ):
        exit_code, responses, err = self._serve(
            monkeypatch,
            capsys,
            [
                {"cmd": "query", "seed": 1},
                {"cmd": "delta", "remove": [[0, 1]]},
                {"cmd": "query", "seed": 1},
                {"cmd": "stats"},
                {"cmd": "shutdown"},
            ],
        )
        assert exit_code == 0
        assert [r["ok"] for r in responses] == [True] * 5
        # Only a result that did not abort can be spliced incrementally.
        assert responses[0]["aborted"] is False
        assert responses[0]["query"]["kind"] == "full"
        assert responses[2]["query"]["kind"] == "incremental"
        assert responses[3]["deltas"] == 1
        assert "serving near-clique queries" in err
        assert "served 5 requests" in err

    def test_serve_summary_counts_queries_and_deltas_only(self, monkeypatch, capsys):
        exit_code, responses, err = self._serve(
            monkeypatch,
            capsys,
            [
                {"cmd": "query", "seed": 1},
                {"cmd": "delta", "remove": [[0, 1]]},
                {"cmd": "query", "seed": 1},
                {"cmd": "query", "seed": 1},
            ],
            argv=["--congest-engine", "sharded", "--shards", "2"],
        )
        assert exit_code == 0
        assert [r["query"]["kind"] for r in responses if r["cmd"] == "query"] == [
            "full",
            "incremental",
            "cached",
        ]
        summary = err.strip().splitlines()[-1]
        assert summary == (
            "served 4 requests: 3 queries (1 full / 1 incremental / 1 cached), "
            "1 deltas"
        )

    def test_serve_survives_bad_requests_and_eof(self, monkeypatch, capsys):
        import io as _io
        import sys

        monkeypatch.setattr(
            sys, "stdin", _io.StringIO('garbage\n{"cmd": "stats"}\n')
        )
        exit_code = cli.main(["serve", "--n", "32", "--seed", "1"])
        captured = capsys.readouterr()
        import json

        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert exit_code == 0
        assert responses[0]["error"]["code"] == "bad-request"
        assert responses[1]["ok"] is True
