"""Tests for the ``repro.lint`` protocol-contract analyzer.

Three fixture modules under ``tests/lint_fixtures/`` drive the suite:

* ``bad_protocols.py`` — one violation per rule, each offending line marked
  with an ``# expect: RULE_ID`` comment.  The test parses the markers and
  asserts the analyzer reports exactly those (rule id, line) pairs.
* ``clean_protocol.py`` — idiomatic protocol code; zero findings required.
* ``suppressed.py`` — inline and standalone suppressions silencing real
  violations, plus one stale (``SUP001``) and one unknown-id (``SUP002``)
  suppression.

On top of the fixtures: the rule registry is pinned (stable ids and
severities are a public interface), the reporters are exercised, the CLI
entry points return the right exit codes, and — the actual CI gate —
``src/repro`` itself must lint clean.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import all_rules, get_rule, render_json, render_text, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.core import LintFinding, SEVERITY_ERROR, SEVERITY_WARNING

FIXTURES = Path(__file__).parent / "lint_fixtures"
BAD = FIXTURES / "bad_protocols.py"
CLEAN = FIXTURES / "clean_protocol.py"
SUPPRESSED = FIXTURES / "suppressed.py"
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z]+\d+)")


def expected_markers(path: Path):
    """(line, rule_id) pairs declared by ``# expect:`` comments in *path*."""
    pairs = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            pairs.add((lineno, match.group(1)))
    return pairs


class TestFixtureFindings:
    def test_bad_protocols_fire_exactly_the_expected_rules(self):
        expected = expected_markers(BAD)
        assert expected, "fixture must declare # expect: markers"
        findings = run_lint([str(BAD)])
        reported = {(f.line, f.rule_id) for f in findings}
        assert reported == expected

    def test_every_ast_rule_is_covered_by_the_bad_fixture(self):
        # SUP001/SUP002 are driver-owned and covered by the suppression
        # fixture instead; everything else must fire in bad_protocols.py.
        fired = {rule_id for _, rule_id in expected_markers(BAD)}
        ast_rules = {r.rule_id for r in all_rules()} - {"SUP001", "SUP002"}
        assert ast_rules <= fired

    def test_clean_protocol_has_zero_findings(self):
        assert run_lint([str(CLEAN)]) == []

    def test_findings_are_sorted_and_carry_locations(self):
        findings = run_lint([str(BAD)])
        assert findings == sorted(findings)
        for finding in findings:
            assert finding.line >= 1 and finding.col >= 1
            assert finding.location.startswith(str(BAD))


class TestSuppressions:
    def test_suppressed_violations_stay_silent(self):
        findings = run_lint([str(SUPPRESSED)])
        assert {f.rule_id for f in findings} == {"SUP001", "SUP002"}

    def test_unused_suppression_reports_its_own_line(self):
        findings = run_lint([str(SUPPRESSED)])
        (stale,) = [f for f in findings if f.rule_id == "SUP001"]
        assert "HOOK001" in stale.message
        source = SUPPRESSED.read_text().splitlines()
        assert "ignore[HOOK001]" in source[stale.line - 1]

    def test_unknown_rule_id_reports_sup002(self):
        findings = run_lint([str(SUPPRESSED)])
        (unknown,) = [f for f in findings if f.rule_id == "SUP002"]
        assert "NOPE999" in unknown.message

    def test_ignoring_sup_rules_silences_them(self):
        findings = run_lint([str(SUPPRESSED)], ignore=("SUP",))
        assert findings == []

    def test_select_filters_to_matching_rules(self):
        findings = run_lint([str(BAD)], select=("DET",))
        assert findings
        assert all(f.rule_id.startswith("DET") for f in findings)

    def test_ignore_filters_out_matching_rules(self):
        findings = run_lint([str(BAD)], ignore=("DET", "SUP"))
        assert findings
        assert not any(f.rule_id.startswith("DET") for f in findings)


class TestRuleRegistry:
    # Rule ids and severities are a public interface: suppression comments
    # and CI configuration reference them, so changes must be deliberate.
    PINNED = {
        "DET001": SEVERITY_ERROR,
        "DET002": SEVERITY_ERROR,
        "DET003": SEVERITY_ERROR,
        "PROC001": SEVERITY_ERROR,
        "PROC002": SEVERITY_ERROR,
        "WIRE001": SEVERITY_ERROR,
        "BDG001": SEVERITY_WARNING,
        "HOOK001": SEVERITY_ERROR,
        "HOOK002": SEVERITY_ERROR,
        "HOOK003": SEVERITY_ERROR,
        "SUP001": SEVERITY_WARNING,
        "SUP002": SEVERITY_WARNING,
    }

    def test_registry_matches_the_pinned_contract(self):
        rules = {r.rule_id: r.severity for r in all_rules()}
        assert rules == self.PINNED

    def test_at_least_eight_rules(self):
        assert len(all_rules()) >= 8

    def test_every_rule_documents_its_invariant(self):
        for rule in all_rules():
            assert rule.invariant.strip(), rule.rule_id

    def test_get_rule_round_trips(self):
        for rule in all_rules():
            assert get_rule(rule.rule_id) == rule
        with pytest.raises(KeyError):
            get_rule("NOPE999")


class TestReporters:
    def test_text_report_lines_are_clickable(self):
        findings = run_lint([str(BAD)])
        text = render_text(findings)
        for finding in findings:
            assert f"{finding.path}:{finding.line}:{finding.col}" in text
            assert finding.rule_id in text
        assert "findings" in text.splitlines()[-1]

    def test_text_report_clean_message(self):
        assert "clean" in render_text([])

    def test_json_report_parses_and_matches(self):
        findings = run_lint([str(BAD)])
        payload = json.loads(render_json(findings))
        assert len(payload["findings"]) == len(findings)
        assert payload["summary"]["errors"] == sum(
            1 for f in findings if f.severity == SEVERITY_ERROR
        )
        first = payload["findings"][0]
        assert set(first) >= {"path", "line", "col", "rule", "severity", "message"}

    def test_finding_is_immutable(self):
        finding = run_lint([str(BAD)])[0]
        assert isinstance(finding, LintFinding)
        with pytest.raises(Exception):
            finding.line = 0  # type: ignore[misc]


class TestCli:
    def test_exit_one_on_findings(self, capsys):
        assert lint_main([str(BAD)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_exit_zero_on_clean(self, capsys):
        assert lint_main([str(CLEAN)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert lint_main([str(BAD), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] > 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in TestRuleRegistry.PINNED:
            assert rule_id in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(CLEAN)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout

    def test_repro_cli_subcommand(self):
        from repro.cli import main as repro_main

        assert repro_main(["lint", str(CLEAN)]) == 0
        assert repro_main(["lint", str(BAD)]) == 1


class TestSelfApplication:
    def test_src_repro_is_lint_clean(self):
        """The CI gate: the shipped package satisfies its own contract."""
        findings = run_lint([str(SRC_REPRO)])
        assert findings == [], render_text(findings)

    def test_syntax_errors_are_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def on_start(ctx:\n")
        findings = run_lint([str(broken)])
        assert [f.rule_id for f in findings] == ["SYNTAX"]
