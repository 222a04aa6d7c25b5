#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny scale.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload it runs ``run.py`` once untraced, once traced and once
with one checked label tampered, all with ``--scale smoke`` (a few hundred
nodes, about a second each), and checks that:

* the untraced and traced runs are correct and emit exactly the
  end-to-end and per-layer metrics ``BENCHMARK.json`` declares, with the
  declared units;
* the tampered run is reported incorrect, with the tampered operation
  counted as failed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, *extra: str) -> Dict:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", "1",
        "--seconds", "1",
        "--scale", "smoke",
    ] + list(extra)
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if done.returncode != 0:
        raise RuntimeError(
            "%s exited %d:\n%s" % (" ".join(extra), done.returncode, done.stderr[-2000:])
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(spec: Dict, key: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = _run(workload, "--trace", trace)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != _declared(spec, key):
                missing = sorted(set(_declared(spec, key)) ^ set(emitted))
                problems.append(
                    "%s --trace %s: metrics differ from BENCHMARK.json (%s)"
                    % (workload, trace, ", ".join(missing) or "units")
                )
            if not result["correct"] or result["failed"]:
                problems.append("%s --trace %s: not correct" % (workload, trace))
        tampered = _run(workload, "--trace", "0", "--tamper")
        if tampered["correct"] or tampered["failed"] < 1:
            problems.append("%s: a tampered label was not counted as failed" % workload)
        print("%-16s ok" % workload if not problems else "%-16s checked" % workload)
    for problem in problems:
        print("FAILED " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
