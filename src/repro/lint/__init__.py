"""``repro lint`` — static analysis of the engine stack's protocol contract.

Every execution engine in this package (vectorized and sharded) leans on
one safety net: a :class:`repro.congest.node.Protocol`
must be *deterministic* (same inputs, same ``ctx.rng`` draws → same traffic),
*picklable* (the sharded engine ships protocol objects and per-node state
across worker pipes), *wire-encodable* (payloads restricted to the vocabulary
of :func:`repro.congest.message.estimate_payload_bits`) and *O(log n)-bounded*
(the CONGEST bit budget).  Those obligations are enforced dynamically — by
the differential suite, by ``ShardWorkerError``, by budget checks at drain
time — but only on the backends and graphs a test happens to run.  This
package turns the contract into *pre-runtime* tooling: an AST-level analyzer
that resolves every protocol class in a source tree and checks each rule of
the contract against it, with stable rule ids, inline suppressions and
``file:line`` reporting.

Usage
-----
Command line (the analyzer parses, never imports, the code under analysis)::

    python -m repro.lint src/repro
    repro-nearclique lint src/repro --format json

Library::

    from repro.lint import run_lint
    findings = run_lint(["src/repro"])

Suppressions
------------
A finding is silenced by a ``# repro-lint: ignore[RULE_ID]`` comment on the
offending line, or on a standalone comment line directly above it::

    chosen = random.choice(peers)  # repro-lint: ignore[DET001] seeded upstream

Multiple ids may be given comma-separated.  Suppressions that silence
nothing are themselves reported (``SUP001``), so stale justifications cannot
accumulate; unknown rule ids in a suppression are reported as ``SUP002``.
"""

from repro.lint.core import (  # noqa: F401
    LintFinding,
    Rule,
    all_rules,
    get_rule,
    run_lint,
)
from repro.lint.report import render_json, render_text  # noqa: F401

__all__ = [
    "LintFinding",
    "Rule",
    "all_rules",
    "get_rule",
    "render_json",
    "render_text",
    "run_lint",
]
