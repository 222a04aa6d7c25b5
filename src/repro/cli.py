"""Command-line interface for the near-clique reproduction.

Three subcommands cover the common workflows without writing any Python:

``repro-nearclique find``
    Generate (or load) a workload and run the distributed / boosted /
    centralized near-clique finder on it, printing the discovered clusters
    and the CONGEST metrics.

``repro-nearclique generate``
    Write one of the paper's workload families to an edge-list file
    (planted near-clique, Figure 1 counterexample, path-of-cliques).

``repro-nearclique verify``
    Check whether a given set of nodes is an ε-near clique of a saved graph
    (Definition 1), printing the density certificate.

``repro-nearclique serve``
    Start the long-lived query daemon of :mod:`repro.service`: one request
    per line on stdin (JSON: ``query`` / ``delta`` / ``stats`` /
    ``shutdown``), one JSON response per line on stdout.  Topology deltas
    stream in between queries; queries after small deltas are answered
    incrementally (dirty region only) yet bit-identical to a fresh full
    run.

``repro-nearclique lint``
    Run the static protocol-contract analyzer (:mod:`repro.lint`) over a
    source tree: every :class:`~repro.congest.node.Protocol` subclass is
    checked against the engine stack's determinism / pickling /
    wire-vocabulary / bit-budget / hook-discipline invariants before any
    runtime ever executes it.  Also available as ``python -m repro.lint``.

The CLI is intentionally thin: every flag maps one-to-one onto a public API
parameter, so scripts can graduate to the library without translation.
"""

from __future__ import annotations

import argparse
import operator
import random
import sys
from typing import Any, Callable, Optional, Sequence

import networkx as nx

from repro.analysis import tables
from repro.congest.config import CongestConfig
from repro.congest.engine import available_engines
from repro.core import near_clique
from repro.core.boosting import BoostedNearCliqueRunner
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.core.reference import CentralizedNearCliqueFinder
from repro.core.params import AlgorithmParameters
from repro.graphs import generators, io
from repro.lint import cli as lint_cli


def _in_range(interval: str, kind: Callable[[str], Any] = float) -> Callable[[str], Any]:
    """An argparse type: a *kind* value inside *interval*, or a usage error.

    *interval* is written as the error message shows it, e.g. ``"(0, 1]"``
    or ``"[1, inf)"``; NaN lies in none.
    """
    low, high = (float(end) for end in interval[1:-1].split(", "))
    above = operator.lt if interval[0] == "(" else operator.le
    below = operator.lt if interval[-1] == ")" else operator.le

    def parse(text: str) -> Any:
        value = kind(text)
        if not (above(low, value) and below(value, high)):
            raise argparse.ArgumentTypeError("must lie in %s, got %s" % (interval, text))
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


_positive_int = _in_range("[1, inf)", int)
_nonnegative_int = _in_range("[0, inf)", int)
_positive_float = _in_range("(0, inf)")
_nonnegative_float = _in_range("[0, inf)")
#: The bound ``AlgorithmParameters`` puts on epsilon.
_open_unit_float = _in_range("(0, 1)")
#: The planted near-clique's share of the nodes.
_fraction = _in_range("(0, 1]")
#: An edge probability.
_probability = _in_range("[0, 1]")
#: The bound the planted generator puts on its defect.
_defect = _in_range("[0, 1)")


def _add_congest_arguments(parser: argparse.ArgumentParser) -> None:
    """The CONGEST engine-selection flags shared by ``find`` and ``serve``."""
    parser.add_argument(
        "--congest-engine",
        choices=available_engines(),
        default=CongestConfig().engine,
        help="CONGEST execution engine "
        "(bit-identical results; 'vectorized' is the fast path and the "
        "default: it runs kernel-covered phases as whole-phase numpy array "
        "operations and the rest on a CSR callback loop; 'reference' is "
        "the semantics oracle, 'sharded' steps graph partitions in worker "
        "processes — see --shards)",
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=CongestConfig().shards,
        help="shard count for --congest-engine sharded: one worker "
        "process per shard, kept alive across all phases of a run with one "
        "shared-memory CSR mapping; boundary traffic pickled once per "
        "destination shard, session totals added to the run summary",
    )
    parser.add_argument(
        "--round-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="barrier-watchdog deadline for the sharded engine: a "
        "worker that misses a per-round barrier by this many seconds is "
        "declared hung and the phase fails fast with a typed timeout "
        "instead of blocking forever (default: no deadline)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-nearclique",
        description="Distributed discovery of large near-cliques (PODC 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    find = sub.add_parser("find", help="run the near-clique finder on a workload")
    find.add_argument("--graph", help="edge-list file written by 'generate' (default: generate a planted workload)")
    find.add_argument(
        "--graph-file",
        help="SNAP-style edge list (snap.stanford.edu corpus format: '#' "
        "comments, whitespace-separated pairs, duplicate edges and "
        "self-loops tolerated); nodes are relabelled to the dense range "
        "0..n-1.  Mutually exclusive with --graph.",
    )
    find.add_argument("--n", type=_positive_int, default=100, help="nodes of the generated workload")
    find.add_argument("--delta", type=_fraction, default=0.5, help="planted near-clique fraction")
    find.add_argument("--epsilon", type=_open_unit_float, default=0.2, help="the algorithm's epsilon, in (0, 1)")
    find.add_argument("--background", type=_probability, default=0.05, help="background edge probability")
    find.add_argument(
        "--engine",
        choices=("distributed", "boosted", "centralized"),
        default="distributed",
        help="which finder to run (algorithm variant)",
    )
    _add_congest_arguments(find)
    find.add_argument("--expected-sample", type=_nonnegative_float, default=8.0, help="target E[|S|] = p*n")
    find.add_argument("--max-sample", type=_nonnegative_int, default=13, help="Section 4.1 abort threshold on |S|")
    find.add_argument("--repetitions", type=_positive_int, default=4, help="boosting repetitions (boosted engine)")
    find.add_argument("--min-output-size", type=_nonnegative_int, default=0)
    find.add_argument("--seed", type=int, default=0)

    generate = sub.add_parser("generate", help="write a workload to an edge-list file")
    generate.add_argument("output", help="output path (.edges)")
    generate.add_argument(
        "--family",
        choices=("planted", "figure1", "path-of-cliques", "web"),
        default="planted",
    )
    generate.add_argument("--n", type=_positive_int, default=100)
    generate.add_argument("--delta", type=_fraction, default=0.5)
    generate.add_argument("--epsilon", type=_defect, default=0.008, help="planted defect (planted family)")
    generate.add_argument("--background", type=_probability, default=0.05)
    generate.add_argument("--seed", type=int, default=0)

    verify = sub.add_parser("verify", help="check Definition 1 for a node set")
    verify.add_argument("graph", help="edge-list file")
    verify.add_argument("--epsilon", type=_nonnegative_float, required=True)
    verify.add_argument(
        "--nodes",
        help="comma-separated node ids; default: the planted set recorded in the file",
    )

    serve = sub.add_parser(
        "serve",
        help="long-lived query daemon: JSONL requests on stdin, responses on stdout",
    )
    serve.add_argument(
        "--graph",
        help="edge-list file written by 'generate' (default: generate a planted workload)",
    )
    serve.add_argument(
        "--graph-file",
        help="SNAP-style edge list (snap.stanford.edu corpus format); "
        "nodes are relabelled to the dense range 0..n-1.  Mutually "
        "exclusive with --graph.",
    )
    serve.add_argument("--n", type=_positive_int, default=100, help="nodes of the generated workload")
    serve.add_argument("--delta", type=_fraction, default=0.5, help="planted near-clique fraction")
    serve.add_argument("--epsilon", type=_open_unit_float, default=0.2, help="the algorithm's epsilon, in (0, 1)")
    serve.add_argument("--background", type=_probability, default=0.05, help="background edge probability")
    _add_congest_arguments(serve)
    serve.add_argument("--expected-sample", type=_nonnegative_float, default=8.0, help="target E[|S|] = p*n")
    serve.add_argument("--max-sample", type=_nonnegative_int, default=13, help="Section 4.1 abort threshold on |S|")
    serve.add_argument("--min-output-size", type=_nonnegative_int, default=0)
    serve.add_argument("--seed", type=int, default=0, help="workload-generation seed")

    lint = sub.add_parser(
        "lint",
        help="static protocol-contract analyzer (pre-runtime engine invariants)",
    )
    lint_cli.configure_parser(lint)
    return parser


def _relabelled_snap_graph(pairs) -> nx.Graph:
    """The graph of SNAP endpoint pairs on the dense ids ``0..n-1``.

    Ids are assigned in ascending original-id order (what the workload
    generators emit and the report helpers expect); the original id is
    kept as the ``"snap_id"`` node attribute.
    """
    graph = nx.Graph()
    graph.add_edges_from(pairs.tolist())
    mapping = {snap_id: index for index, snap_id in enumerate(sorted(graph.nodes()))}
    graph = nx.relabel_nodes(graph, mapping, copy=True)
    for snap_id, index in mapping.items():
        graph.nodes[index]["snap_id"] = snap_id
    return graph


def _load_or_generate(args) -> tuple:
    graph_file = getattr(args, "graph_file", None)
    if args.graph and graph_file:
        raise SystemExit("--graph and --graph-file are mutually exclusive")
    if graph_file:
        # Real-world corpus input: no planted ground truth to score against.
        return _relabelled_snap_graph(io.load_snap_edgelist(graph_file)), None
    if args.graph:
        graph, planted = io.read_edge_list(args.graph)
        return graph, planted
    graph, planted = generators.planted_near_clique(
        n=args.n,
        clique_fraction=args.delta,
        epsilon=args.epsilon ** 3,
        background_p=args.background,
        seed=args.seed,
    )
    return graph, planted.members


def _cmd_find(args) -> int:
    graph, planted = _load_or_generate(args)
    n = graph.number_of_nodes()
    probability = min(1.0, args.expected_sample / max(1, n))
    rng = random.Random(args.seed)
    parameters = AlgorithmParameters(
        epsilon=args.epsilon,
        sample_probability=probability,
        max_sample_size=args.max_sample,
        min_output_size=args.min_output_size,
    )
    congest_config = CongestConfig(
        engine=args.congest_engine,
        shards=args.shards,
        round_timeout=args.round_timeout,
    ).with_log_budget(max(2, n))
    session_stats = []
    if args.engine == "distributed":
        runner = DistNearCliqueRunner(
            parameters=parameters, rng=rng, config=congest_config
        )
        result = runner.run(graph)
        if runner.last_session_stats is not None:
            session_stats.append(runner.last_session_stats)
    elif args.engine == "boosted":
        boosted = BoostedNearCliqueRunner(
            parameters=parameters,
            repetitions=args.repetitions,
            rng=rng,
            congest_config=congest_config,
        )
        result = boosted.run(graph)
        session_stats.extend(
            stats for stats in boosted.session_stats_by_version if stats is not None
        )
    else:
        result = CentralizedNearCliqueFinder(
            graph, args.epsilon, min_output_size=args.min_output_size
        ).run(parameters, rng=rng)

    if result.aborted:
        print("Run aborted:", result.abort_reason)
        return 1

    rows = []
    for label, members in sorted(result.clusters.items(), key=lambda kv: -len(kv[1])):
        rows.append(
            [label, len(members), near_clique.density(graph, members)]
        )
    if not rows:
        rows.append(["(none)", 0, 0.0])
    tables.print_table(["label", "size", "density"], rows, title="Discovered near-cliques")

    summary = [
        ["nodes", n],
        ["sample size", len(result.sample)],
        ["largest cluster", len(result.largest_cluster())],
    ]
    if planted:
        summary.append(["recall of planted set", result.recall_of(planted)])
    if result.metrics is not None:
        summary.extend(
            [
                ["rounds", result.metrics.rounds],
                ["total messages", result.metrics.total_messages],
                ["max message bits", result.metrics.max_message_bits],
            ]
        )
    tables.print_table(["measure", "value"], summary, title="Run summary")
    _print_session_report(session_stats)
    return 0


def _print_session_report(session_stats) -> None:
    """Session totals across the process sessions a finder opened.

    One row set aggregated over all sessions (the boosted finder opens one
    per version): phases executed, per-phase setup seconds, pickled boundary
    traffic and the shared-memory mapping size.
    """
    session_stats = [stats for stats in session_stats if stats and stats.phases]
    if not session_stats:
        return
    phases = sum(len(stats.phases) for stats in session_stats)
    setup = sum(stats.setup_seconds for stats in session_stats)
    boundary = sum(stats.boundary_bytes for stats in session_stats)
    barriers = sum(stats.barrier_rounds for stats in session_stats)
    messages = sum(stats.protocol_messages for stats in session_stats)
    cross = sum(stats.cross_shard_messages for stats in session_stats)
    rows = [
        ["sessions", len(session_stats)],
        ["phases executed", phases],
        ["setup seconds (total)", round(setup, 4)],
        ["setup seconds / phase", round(setup / max(1, phases), 4)],
        ["boundary bytes", boundary],
        ["barrier rounds", barriers],
        ["bytes / barrier round", round(boundary / max(1, barriers), 1)],
        ["cross-shard msg fraction", round(cross / max(1, messages), 3)],
        ["shm bytes mapped", sum(stats.shm_bytes for stats in session_stats)],
    ]
    rearms = sum(getattr(stats, "rearms", 0) for stats in session_stats)
    fused = sum(getattr(stats, "fused_phases", 0) for stats in session_stats)
    if rearms:
        rows.append(["pool re-arms", rearms])
    if fused:
        rows.append(["re-arms elided by fusion", fused])
    tables.print_table(
        ["measure", "value"], rows, title="Execution-session report"
    )


def _cmd_serve(args) -> int:
    # Imported here so the plain one-shot commands never pay for the
    # service layer (and so ``--help`` stays instant).
    from repro.service import NearCliqueDaemon, NearCliqueService

    graph, _planted = _load_or_generate(args)
    n = graph.number_of_nodes()
    probability = min(1.0, args.expected_sample / max(1, n))
    parameters = AlgorithmParameters(
        epsilon=args.epsilon,
        sample_probability=probability,
        max_sample_size=args.max_sample,
        min_output_size=args.min_output_size,
    )
    congest_config = CongestConfig(
        engine=args.congest_engine,
        shards=args.shards,
        round_timeout=args.round_timeout,
    ).with_log_budget(max(2, n))
    service = NearCliqueService(graph, parameters, config=congest_config)
    print(
        "serving near-clique queries over %d nodes / %d edges "
        "(engine=%s); one JSON request per line on stdin"
        % (n, graph.number_of_edges(), congest_config.engine),
        file=sys.stderr,
    )
    daemon = NearCliqueDaemon(service)
    served = daemon.serve_forever()
    stats = service.stats
    print(
        "served %d requests: %d queries (%d full / %d incremental / %d cached), "
        "%d deltas"
        % (
            served,
            stats.queries,
            stats.full_queries,
            stats.incremental_queries,
            stats.cached_hits,
            stats.deltas,
        ),
        file=sys.stderr,
    )
    return 0


def _cmd_generate(args) -> int:
    if args.family == "planted":
        graph, planted = generators.planted_near_clique(
            n=args.n,
            clique_fraction=args.delta,
            epsilon=args.epsilon,
            background_p=args.background,
            seed=args.seed,
        )
        members = planted.members
    elif args.family == "figure1":
        graph, partition = generators.shingles_counterexample(n=args.n, delta=args.delta)
        members = partition["clique"]
    elif args.family == "path-of-cliques":
        graph, partition = generators.path_of_cliques(args.n)
        members = partition["A"]
    else:
        graph, communities = generators.web_community_graph(args.n, seed=args.seed)
        members = communities[0].members
    io.write_edge_list(
        graph,
        args.output,
        planted=members,
        comment="family: %s" % args.family,
    )
    print(
        "Wrote %s: %d nodes, %d edges, planted set of %d nodes"
        % (args.output, graph.number_of_nodes(), graph.number_of_edges(), len(members))
    )
    return 0


def _cmd_verify(args) -> int:
    graph, planted = io.read_edge_list(args.graph)
    if args.nodes:
        members = {int(part) for part in args.nodes.split(",") if part.strip()}
    elif planted is not None:
        members = set(planted)
    else:
        print("No node set given and the file records no planted set.", file=sys.stderr)
        return 2
    defect = near_clique.near_clique_defect(graph, members)
    verdict = near_clique.is_near_clique(graph, members, args.epsilon)
    tables.print_table(
        ["measure", "value"],
        [
            ["set size", len(members)],
            ["density", 1.0 - defect],
            ["defect", defect],
            ["epsilon", args.epsilon],
            ["is eps-near clique", verdict],
        ],
        title="Definition 1 certificate",
    )
    return 0 if verdict else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (also exposed as the ``repro-nearclique`` console script)."""
    args = _build_parser().parse_args(argv)
    if args.command == "find":
        return _cmd_find(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "lint":
        return lint_cli.run_from_args(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
