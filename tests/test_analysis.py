"""Exact-match tests for the invariant-checker suite (``repro.analysis``).

Every fixture package under ``tests/analysis_fixtures/`` seeds violations
marked with ``# expect: RULE`` / ``# expect-next-line: RULE`` comments;
the analyzer must report exactly those ``(file, line, rule)`` triples —
a missing finding and a surplus finding are both failures.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import RULES, analyze_paths
from repro.analysis.__main__ import main as cli_main
from repro.analysis.findings import RUNTIME_RULES

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

EXPECT_RE = re.compile(r"#\s*expect(-next-line)?:\s*([A-Z0-9 ]+?)\s*(?:--.*)?$")

#: Statically-checked fixture packages. ``racepkg`` is deliberately absent:
#: its ``# expect:`` markers anchor *runtime* findings and are asserted by
#: tests/test_race.py instead.
PACKAGES = ["lockpkg", "lockorderpkg", "counterpkg", "leakpkg", "detpkg",
            "suppresspkg", "evtpkg", "metpkg"]


def expected_findings(pkg: str) -> list[tuple[str, int, str]]:
    out = []
    for path in sorted((FIXTURES / pkg).rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            m = EXPECT_RE.search(line)
            if not m:
                continue
            target = lineno + 1 if m.group(1) else lineno
            for rule in m.group(2).split():
                out.append((str(path), target, rule))
    return sorted(out)


def actual_findings(pkg: str) -> list[tuple[str, int, str]]:
    return sorted((f.path, f.line, f.rule)
                  for f in analyze_paths([FIXTURES / pkg]))


@pytest.mark.parametrize("pkg", PACKAGES)
def test_fixture_findings_exact(pkg):
    expected = expected_findings(pkg)
    assert expected, f"fixture package {pkg} declares no expectations"
    assert actual_findings(pkg) == expected


def test_every_rule_is_exercised():
    """The static fixture corpus covers every statically-checkable rule.

    Runtime rules (the race sanitizer's RACE001/RACE002) are exercised by
    tests/test_race.py against the ``racepkg`` toys instead.
    """
    seen = {rule for pkg in PACKAGES for _, _, rule in expected_findings(pkg)}
    assert seen == set(RULES) - RUNTIME_RULES


def test_runtime_rules_are_exercised_by_racepkg():
    """Every runtime rule has at least one ``# expect:`` anchor in racepkg."""
    seen = {rule for _, _, rule in expected_findings("racepkg")}
    assert seen == RUNTIME_RULES


def test_lock_finding_names_field_lock_and_function():
    finding = next(f for f in analyze_paths([FIXTURES / "lockpkg"])
                   if "bad_read" in f.message)
    assert finding.rule == "LOCK001"
    assert "Guarded._table" in finding.message
    assert "'_lock'" in finding.message


def test_cnt003_names_thread_role_and_root():
    finding = next(f for f in analyze_paths([FIXTURES / "counterpkg"])
                   if f.rule == "CNT003")
    assert "prefetch thread" in finding.message
    assert "Store._pump" in finding.message


def test_findings_format_as_path_line_rule():
    finding = analyze_paths([FIXTURES / "leakpkg"])[0]
    text = finding.format()
    assert text.startswith(f"{finding.path}:{finding.line}: {finding.rule} ")


# -- CLI behaviour -----------------------------------------------------------------


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("X = 1\n")
    assert cli_main([str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().err


def test_cli_findings_exit_one_with_rule_and_location(tmp_path, capsys):
    pkg = tmp_path / "core"
    pkg.mkdir()
    bad = pkg / "bad.py"
    bad.write_text("import random\n\n\ndef roll():\n    return random.random()\n")
    assert cli_main([str(pkg)]) == 1
    captured = capsys.readouterr()
    assert f"{bad}:1: DET001" in captured.out
    assert f"{bad}:5: DET001" in captured.out
    assert "2 finding(s)" in captured.err


def test_cli_missing_path_exits_two(tmp_path, capsys):
    assert cli_main([str(tmp_path / "nope.py")]) == 2
    assert "repro.analysis:" in capsys.readouterr().err


def test_cli_syntax_error_exits_two(tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def broken(:\n")
    assert cli_main([str(tmp_path)]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out
