"""Golden-fixture suite for ``repro lint`` (:mod:`repro.analysis`).

Each REP001–REP005 rule is proven twice against checked-in fixtures
under ``tests/fixtures/analysis/``: the ``bad`` form must produce
exactly the seeded findings, the ``good`` (corrected) form must be
silent. The framework pieces — suppression grammar, REP000
meta-findings, baseline workflow, CLI — are covered directly.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    all_rules,
    apply_baseline,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.analysis.runner import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(root, **kwargs):
    kwargs.setdefault("baseline", False)
    return run_lint(root=root, **kwargs)


def findings_for(report, rel):
    return [f for f in report.findings if f.path == rel]


# ---------------------------------------------------------------------------
# Registry


def test_all_five_rules_registered():
    registry = all_rules()
    assert sorted(registry) == [
        "REP001", "REP002", "REP003", "REP004", "REP005",
    ]
    for rule_id, cls in registry.items():
        assert cls.rule == rule_id
        assert cls.title


# ---------------------------------------------------------------------------
# REP001 — lock discipline


def test_rep001_fires_on_violations():
    report = lint(FIXTURES / "rep001")
    bad = findings_for(report, "bad.py")
    assert {f.rule for f in bad} == {"REP001"}
    messages = "\n".join(f.message for f in bad)
    assert "put_unlocked" in messages
    assert "without holding the lock" in messages
    assert "under only the read lock" in messages
    assert "read-marked method '_snapshot_locked'" in messages
    assert "WAL append under the read lock" in messages
    assert "fsync under the read lock" in messages
    assert "not reentrant (deadlock)" in messages
    assert len(bad) == 6


def test_rep001_silent_on_corrected_form():
    report = lint(FIXTURES / "rep001")
    assert findings_for(report, "good.py") == []


# ---------------------------------------------------------------------------
# REP002 — replay determinism


def test_rep002_fires_on_violations():
    report = lint(FIXTURES / "rep002")
    bad = findings_for(report, "core/bad.py")
    assert {f.rule for f in bad} == {"REP002"}
    messages = "\n".join(f.message for f in bad)
    assert "random.random()" in messages
    assert "np.random.permutation()" in messages
    assert "time.time()" in messages
    assert "date.today()" in messages
    assert len(bad) == 4


def test_rep002_silent_on_injected_form():
    report = lint(FIXTURES / "rep002")
    assert findings_for(report, "core/good.py") == []


def test_rep002_only_scopes_replayed_directories():
    # unscoped.py calls random.random()/time.time() but sits outside
    # core/, durability/ and service/ — not a replayed path.
    report = lint(FIXTURES / "rep002")
    assert findings_for(report, "unscoped.py") == []


# ---------------------------------------------------------------------------
# REP003 — metrics drift


def test_rep003_fires_on_both_drift_directions():
    report = lint(FIXTURES / "rep003" / "bad")
    assert {f.rule for f in report.findings} == {"REP003"}
    messages = "\n".join(f.message for f in report.findings)
    assert "'solvs_total' (inc) has no SERVICE_METRIC_SPECS" in messages
    assert "'demo_dead_series' is registered but never emitted" in messages
    assert len(report.findings) == 2


def test_rep003_silent_when_in_lockstep():
    assert lint(FIXTURES / "rep003" / "good").findings == []


def test_rep003_silent_without_a_spec_literal():
    # Repo-invariant: trees without SERVICE_METRIC_SPECS are skipped.
    report = lint(FIXTURES / "rep005", rules=["REP003"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# REP004 — error-mapping completeness


def test_rep004_fires_on_mapping_holes():
    report = lint(FIXTURES / "rep004" / "bad")
    assert {f.rule for f in report.findings} == {"REP004"}
    messages = "\n".join(f.message for f in report.findings)
    assert "MissingCode: no own 'code'" in messages
    assert "MissingStatus: no own 'http_status'" in messages
    assert "already used by ServiceError" in messages
    assert "'undocumented' is not documented" in messages
    assert len(report.findings) == 4


def test_rep004_silent_on_complete_mapping():
    assert lint(FIXTURES / "rep004" / "good").findings == []


# ---------------------------------------------------------------------------
# REP005 — exception hygiene


def test_rep005_fires_on_blind_catches():
    report = lint(FIXTURES / "rep005")
    bad = findings_for(report, "bad.py")
    assert {f.rule for f in bad} == {"REP005"}
    caught = [f.message.split("'")[1] for f in bad]
    assert caught == [
        "Exception", "BaseException", "bare except", "Exception",
        "Exception",
    ]
    assert len(bad) == 5


def test_rep005_silent_on_justified_or_narrowed():
    report = lint(FIXTURES / "rep005")
    assert findings_for(report, "good.py") == []


# ---------------------------------------------------------------------------
# Framework: suppressions and REP000 meta-findings


def test_suppression_grammar_silences_findings():
    report = lint(FIXTURES / "meta")
    assert findings_for(report, "suppressed.py") == []
    # All three forms (inline, line-above, wildcard) counted.
    assert report.suppressed == 3


def test_unknown_or_empty_suppressions_become_rep000():
    report = lint(FIXTURES / "meta")
    meta = findings_for(report, "malformed.py")
    assert {f.rule for f in meta} == {"REP000"}
    messages = "\n".join(f.message for f in meta)
    assert "unknown rule 'REP999'" in messages
    assert "unknown rule 'REPOO1'" in messages
    assert "lists no rules" in messages
    # REP000 cannot be suppressed — the malformed comments live on the
    # very lines they would have to suppress.
    assert len(meta) == 3


def test_syntax_errors_become_rep000(tmp_path):
    (tmp_path / "broken.py").write_text("def oops(:\n", encoding="utf-8")
    report = lint(tmp_path)
    assert [f.rule for f in report.findings] == ["REP000"]
    assert "does not parse" in report.findings[0].message


def test_unknown_rule_selection_raises():
    with pytest.raises(ValueError, match="REP042"):
        lint(FIXTURES / "rep005", rules=["REP042"])


# ---------------------------------------------------------------------------
# Baseline workflow


def test_baseline_grandfathers_findings(tmp_path):
    report = lint(FIXTURES / "rep005")
    baseline_path = tmp_path / "baseline.json"
    assert write_baseline(baseline_path, report.findings) == 5

    rebased = lint(FIXTURES / "rep005", baseline=baseline_path)
    assert rebased.findings == []
    assert rebased.baselined == 5
    assert rebased.stale_baseline == []


def test_baseline_reports_stale_entries(tmp_path):
    report = lint(FIXTURES / "rep005")
    extra = [("REP005", "paid_off.py", "long-gone finding")]
    baseline = load_baseline(tmp_path / "missing.json")  # empty
    assert baseline == {}
    new, n_baselined, stale = apply_baseline(
        report.findings,
        {fp: 1 for fp in extra},
    )
    assert n_baselined == 0
    assert len(new) == len(report.findings)
    assert stale == extra


def test_baseline_fingerprints_survive_line_drift(tmp_path):
    src = (FIXTURES / "rep005" / "bad.py").read_text(encoding="utf-8")
    (tmp_path / "bad.py").write_text(src, encoding="utf-8")
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, lint(tmp_path).findings)
    # Shift every finding down two lines; fingerprints don't care.
    (tmp_path / "bad.py").write_text("# pad\n# pad\n" + src,
                                     encoding="utf-8")
    rebased = lint(tmp_path, baseline=baseline_path)
    assert rebased.findings == []
    assert rebased.baselined == 5


def test_checked_in_baseline_is_empty():
    baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
    assert sum(baseline.values()) == 0


# ---------------------------------------------------------------------------
# The real tree holds its own invariants


def test_repro_package_is_clean():
    report = run_lint(baseline=False)  # default root: the repro package
    assert report.findings == [], "\n".join(
        f.format() for f in report.findings
    )
    assert report.n_files > 50


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    out = io.StringIO()
    code = lint_main(list(argv), stdout=out)
    return code, out.getvalue()


def test_cli_text_output_and_exit_code():
    code, out = run_cli(str(FIXTURES / "rep005"), "--no-baseline")
    assert code == 1
    assert "REP005" in out
    assert "5 finding(s)" in out


def test_cli_clean_exit():
    code, out = run_cli(
        str(FIXTURES / "rep004" / "good"), "--no-baseline"
    )
    assert code == 0
    assert "clean" in out


def test_cli_json_format():
    code, out = run_cli(
        str(FIXTURES / "rep003" / "bad"), "--no-baseline",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert len(payload["findings"]) == 2
    assert {f["rule"] for f in payload["findings"]} == {"REP003"}


def test_cli_rule_subset():
    code, out = run_cli(
        str(FIXTURES / "rep005"), "--no-baseline", "--rules", "REP001"
    )
    assert code == 0  # REP005 violations invisible to a REP001-only run


def test_cli_list_rules():
    code, out = run_cli("--list-rules")
    assert code == 0
    for rule_id in ("REP001", "REP002", "REP003", "REP004", "REP005"):
        assert rule_id in out


def test_cli_write_baseline_roundtrip(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    code, out = run_cli(
        str(FIXTURES / "rep005"), "--write-baseline",
        "--baseline", str(baseline_path),
    )
    assert code == 0
    assert "wrote 5 baseline entries" in out
    code, out = run_cli(
        str(FIXTURES / "rep005"), "--baseline", str(baseline_path)
    )
    assert code == 0  # all grandfathered


def test_cli_strict_fails_on_stale_baseline(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps({
        "version": 1,
        "findings": [{
            "rule": "REP005", "path": "ghost.py", "message": "paid off",
        }],
    }), encoding="utf-8")
    argv = (str(FIXTURES / "rep004" / "good"),
            "--baseline", str(baseline_path))
    code, _ = run_cli(*argv)
    assert code == 0  # lax: stale entries only warn
    code, out = run_cli(*argv, "--strict")
    assert code == 1
    assert "stale baseline entry" in out


def test_repro_cli_dispatches_lint():
    from repro.cli import main as repro_main

    assert repro_main(["lint", "--list-rules"]) == 0
    with pytest.raises(SystemExit) as excinfo:
        repro_main([
            "lint", str(FIXTURES / "rep005"), "--no-baseline",
        ])
    assert excinfo.value.code == 1


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True, text=True,
        cwd=str(REPO_ROOT), env=env,
    )
    assert proc.returncode == 0
    assert "REP001" in proc.stdout


def test_repro_lint_imports_no_numpy():
    """``python -m repro lint`` is stdlib-only: the analyzer runs
    without numpy or ``repro.core`` loaded, so CI's invariants job needs
    no runtime dependencies."""
    script = (
        "import runpy, sys\n"
        "sys.argv = ['repro', 'lint', '--strict']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] == 'numpy'\n"
        "             or name.startswith('repro.core')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd=str(REPO_ROOT), env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]", proc.stdout
