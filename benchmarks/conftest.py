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
"""

from __future__ import annotations

import random
from fnmatch import fnmatch

import pytest


@pytest.fixture
def bench_rng():
    """Deterministic randomness for benchmark workloads."""
    return random.Random(20090526)  # the paper's arXiv submission date


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
