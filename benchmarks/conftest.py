"""Shared configuration for the benchmark harness.

Each ``bench_e*.py`` module reproduces one experiment from the DESIGN.md
experiment index (one per theorem / corollary / claim / figure of the
paper).  Every benchmark prints the table recorded in EXPERIMENTS.md and
additionally times one representative kernel through pytest-benchmark, so

    pytest benchmarks/ --benchmark-only

regenerates both the quality tables and the timing figures.

Collection
----------
Plain pytest collects neither ``bench_e*.py`` files nor ``bench_*``
functions, so this conftest collects them itself: the files when pytest
walks this directory, the functions in every bench module, whether the
module was named on the command line or found by the walk.  The hooks are
scoped to this directory, so the tier-1 run (``testpaths = ["tests"]``)
never sees them.

Machine-readable results
------------------------
Benchmarks report their headline measurements through
:func:`record_result`; with ``pytest benchmarks/ --json PATH`` (or the
``REPRO_BENCH_JSON`` environment variable, which also covers direct
``python benchmarks/bench_e*.py`` runs) every record is written to *PATH*
as a JSON list of ``{bench, config, measured, gate, passed}`` objects —
one per recorded gate — so CI trend dashboards consume the numbers
without scraping tables.  Without a path, records accumulate in memory
only and the flag costs nothing.
"""

from __future__ import annotations

import json
import os
import random
from fnmatch import fnmatch
from typing import Any, Dict, List, Optional

import pytest

#: Records accumulated by :func:`record_result` this process, in order.
RESULTS: List[Dict[str, Any]] = []

_json_path: Optional[str] = os.environ.get("REPRO_BENCH_JSON") or None


@pytest.fixture
def bench_rng():
    """Deterministic randomness for benchmark workloads."""
    return random.Random(20090526)  # the paper's arXiv submission date


def set_json_path(path: Optional[str]) -> None:
    """Direct future (and already-recorded) results to *path*."""
    global _json_path
    _json_path = path or None
    _flush()


def record_result(
    bench: str,
    config: Dict[str, Any],
    measured: Dict[str, Any],
    gate: Dict[str, Any],
    passed: bool,
) -> Dict[str, Any]:
    """Record one benchmark measurement (and write through if a path is set).

    Parameters mirror the emitted object: *bench* names the experiment
    (``"e20-pipeline-fusion"``), *config* the workload/backend knobs,
    *measured* the observed numbers, *gate* the acceptance criterion the
    numbers were held to, *passed* whether they met it.  Writing happens
    after every record, so a later hard assertion still leaves the
    failing measurement on disk for the CI artifact.
    """
    record = {
        "bench": bench,
        "config": dict(config),
        "measured": dict(measured),
        "gate": dict(gate),
        "passed": bool(passed),
    }
    RESULTS.append(record)
    _flush()
    return record


def _flush() -> None:
    if _json_path and RESULTS:
        with open(_json_path, "w", encoding="utf-8") as handle:
            json.dump(RESULTS, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _is_bench_module(path) -> bool:
    return fnmatch(path.name, "bench_e*.py")


class BenchModule(pytest.Module):
    """A ``bench_e*.py`` module: its ``bench_*`` functions are the tests."""

    def funcnamefilter(self, name: str) -> bool:
        return name.startswith("bench_")

    def classnamefilter(self, name: str) -> bool:
        return False


def pytest_collect_file(file_path, parent):
    # Files named on the command line, or matching python_files, reach the
    # module hook below through pytest's own collector.
    if (
        _is_bench_module(file_path)
        and not parent.session.isinitpath(file_path)
        and not any(
            fnmatch(file_path.name, pattern)
            for pattern in parent.config.getini("python_files")
        )
    ):
        return BenchModule.from_parent(parent, path=file_path)
    return None


def pytest_pycollect_makemodule(module_path, parent):
    if _is_bench_module(module_path):
        return BenchModule.from_parent(parent, path=module_path)
    return None


def pytest_addoption(parser) -> None:
    group = parser.getgroup("repro-bench")
    group.addoption(
        "--json",
        action="store",
        default=None,
        dest="repro_bench_json",
        metavar="PATH",
        help="write benchmark results as a JSON list of "
        "{bench, config, measured, gate, passed} records",
    )


def pytest_configure(config) -> None:
    path = config.getoption("repro_bench_json", default=None)
    if path:
        set_json_path(path)


def pytest_sessionfinish(session, exitstatus) -> None:
    _flush()
