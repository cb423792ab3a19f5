"""The invariant checker: rules, CLI, and the acceptance
demonstrations (a removed lock acquire or an environment read under
``engine/`` must fail the lint run)."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.lint import LintResult, run_lint
from repro.lint.__main__ import main as lint_main
from repro.obs.validate import main as validate_main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


def lint(path, *rules):
    """Lint ``path`` and keep the findings of ``rules`` (all if none)."""
    result = run_lint([str(path)], root=str(REPO_ROOT))
    return LintResult(
        findings=[f for f in result.findings
                  if not rules or f.rule in rules],
        files=result.files,
    )


# ----------------------------------------------------------------------
# Per-rule fixtures: every positive file fires, every negative is clean.


def test_lock_rule_positive():
    # The lockless-class shape: no class here owns a lock, but each
    # hands a closure, lambda or bound method to a pool with its own
    # ``self``.
    result = lint(FIXTURES / "locks_bad.py", "LCK002")
    messages = [f.message for f in result.findings]
    assert len(messages) == 6
    assert any("self.hits" in m for m in messages)
    assert any("self.total" in m for m in messages)
    assert any("self.bytes_shared" in m for m in messages)
    assert any("self.completed" in m for m in messages)
    assert any("self.morsels_done" in m for m in messages)
    assert any("self.hit_count" in m for m in messages)


def test_lock_rule_negative():
    assert lint(FIXTURES / "locks_good.py", "LCK002").ok


def test_exception_rule_positive():
    result = lint(FIXTURES / "exceptions_bad.py", "EXC001")
    assert len(result.findings) == 3
    assert "bare 'except:'" in result.findings[0].message
    assert all("raise" in f.message for f in result.findings[1:])


def test_exception_rule_negative():
    assert lint(FIXTURES / "exceptions_good.py", "EXC001").ok


def test_schema_sync_rule_positive():
    result = lint(FIXTURES / "schema_bad", "SCH001")
    rendered = [f.render() for f in result.findings]
    assert len(rendered) == 3
    assert any("report.py" in r and "$.extra" in r for r in rendered)
    assert any("report.py" in r and "$.stages" in r for r in rendered)
    assert any("schemas.py" in r and "$.run.scale" in r for r in rendered)


def test_schema_sync_rule_negative():
    assert lint(FIXTURES / "schema_good", "SCH001").ok


def test_race_rule_positive():
    result = lint(FIXTURES / "races_bad.py", "LCK002")
    messages = [f.message for f in result.findings]
    assert len(messages) == 4
    # Direct unguarded write in a submitted method.
    assert any("'self.hits' in Tally.record " in m for m in messages)
    # One branch locked, one not: the intersection is empty.
    assert any("Tally.record_some" in m for m in messages)
    # Helper escape: an unlocked caller drains the entry lockset.
    assert any("'self.errors' in Tally._bump_errors" in m
               for m in messages)
    # Arena-style scratch pool: its own lock exists but is never taken.
    assert any("'self.reuses' in Arena.borrow" in m for m in messages)


def test_race_rule_negative():
    assert lint(FIXTURES / "races_good.py", "LCK002").ok


def test_race_rule_checks_a_submitted_closure_of_a_lock_owner():
    # A nested def belongs to the class of the method it is written in.
    result = lint(FIXTURES / "races_closure_bad.py", "LCK002")
    assert [f.line for f in result.findings] == [15]
    assert "'self.hits' in Counter.run.<work>" in result.findings[0].message
    assert "Counter._lock" in result.findings[0].message


def test_race_rule_tells_same_named_closures_of_two_classes_apart():
    # Both classes have ``run`` with a closure ``work``; only the first
    # one's closure writes outside the lock.
    result = lint(FIXTURES / "races_same_names.py", "LCK002")
    assert [f.line for f in result.findings] == [16]
    assert "Racy.run.<work>" in result.findings[0].message


def test_race_rule_follows_a_receiver_rooted_in_a_shared_self():
    # PR 14's defect: a lockless class bumps a counter in a method that
    # session workers reach through ``self.db.bind(...)``.
    result = lint(FIXTURES / "races_receiver_bad.py", "LCK002")
    assert [f.line for f in result.findings] == [16]
    assert "'self.binds' in Catalog.bind" in result.findings[0].message


def test_knob_rule_positive():
    result = lint(FIXTURES / "knobs_bad.py", "KNB001")
    assert [f.message.split()[0] for f in result.findings] == [
        "REPRO_JOBS", "REPRO_TURBO", "HOME", "PATH", "SHELL",
    ]
    assert all("command-line flag" in f.message for f in result.findings)


def test_knob_rule_negative():
    assert lint(FIXTURES / "knobs_good.py", "KNB001").ok


# ----------------------------------------------------------------------
# Comments, parse errors, result shape.


def test_a_disable_comment_silences_nothing(tmp_path):
    commented = tmp_path / "commented.py"
    commented.write_text(
        "import os\n"
        "TURBO = os.environ['REPRO_TURBO']  # repro-lint: disable=KNB001\n"
    )
    result = lint(commented, "KNB001")
    assert [f.line for f in result.findings] == [2]


def test_parse_error_is_a_finding_and_not_suppressible(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("# repro-lint: disable-file=all\ndef broken(:\n")
    result = lint(broken)
    assert len(result.findings) == 1
    assert result.findings[0].rule == "PARSE"
    assert not result.ok


def test_findings_are_sorted():
    result = lint(FIXTURES, "KNB001", "EXC001", "LCK002")
    assert result.findings == sorted(result.findings)
    assert not result.ok


# ----------------------------------------------------------------------
# The CLI: output and exit codes.


def test_cli_exit_one_and_text_summary(capsys):
    code = lint_main([str(FIXTURES / "knobs_bad.py")])
    assert code == 1
    out = capsys.readouterr().out
    assert "KNB001" in out
    assert "5 finding(s) in 1 file(s)" in out


def test_cli_exit_zero_on_clean_file(capsys):
    assert lint_main([str(FIXTURES / "knobs_good.py")]) == 0
    assert "0 finding(s) in 1 file(s)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Findings do not depend on the order files are discovered in.


def fixture_files():
    return sorted(str(p) for p in FIXTURES.glob("*.py"))


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the image
    given = None

if given is not None:
    _REFERENCE = {}

    def ordered_findings(files):
        result = run_lint(files, root=str(REPO_ROOT))
        return [f.render() for f in result.findings]

    def reference_findings():
        if "findings" not in _REFERENCE:
            _REFERENCE["findings"] = ordered_findings(fixture_files())
        return _REFERENCE["findings"]

    @settings(max_examples=10, deadline=None)
    @given(files=st.permutations(fixture_files()))
    def test_findings_independent_of_discovery_order(files):
        assert ordered_findings(list(files)) == reference_findings()


# ----------------------------------------------------------------------
# Acceptance: src is clean, and the seeded regressions are caught.


def test_module_run_on_src_is_clean():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("0 finding(s) in "), proc.stdout


def test_removing_a_lock_acquire_fails_lint(tmp_path):
    tree = tmp_path / "repro"
    shutil.copytree(REPO_ROOT / "src" / "repro", tree)
    sessions = tree / "server" / "sessions.py"
    source = sessions.read_text()
    locked = (
        "        now = self._clock()\n"
        "        with self._lock:\n"
        "            self._sweep_locked(now)\n"
        "            session = self._sessions.get(session_id)\n"
        "            if session is None:\n"
        "                raise UnknownSessionError(session_id)\n"
        "            session.last_used = now\n"
        "            self._sessions.move_to_end(session_id)\n"
        "            return session\n"
    )
    assert locked in source
    unlocked = (
        "        now = self._clock()\n"
        "        self._sweep_locked(now)\n"
        "        session = self._sessions.get(session_id)\n"
        "        if session is None:\n"
        "            raise UnknownSessionError(session_id)\n"
        "        session.last_used = now\n"
        "        self._sessions.move_to_end(session_id)\n"
        "        return session\n"
    )
    sessions.write_text(source.replace(locked, unlocked))
    result = run_lint([str(tree)], root=str(tmp_path))
    assert not result.ok
    assert {f.rule for f in result.findings} == {"LCK002"}
    messages = [f.message for f in result.findings]
    # The direct write in the now-unlocked method, plus the helper it
    # calls: _sweep_locked loses its all-callers-hold-the-lock credit.
    assert any("'session.last_used' in SessionStore.get" in m
               for m in messages)
    assert any("SessionStore._sweep_locked" in m for m in messages)


def test_unregistered_knob_read_fails_lint(tmp_path):
    tree = tmp_path / "repro"
    shutil.copytree(REPO_ROOT / "src" / "repro", tree)
    sneaky = tree / "engine" / "sneaky_knob.py"
    sneaky.write_text(
        "import os\n\nTURBO = os.environ.get(\"REPRO_TURBO\", \"\")\n"
    )
    result = run_lint([str(tree)], root=str(tmp_path))
    assert not result.ok
    assert [f.rule for f in result.findings] == ["KNB001"]
    assert result.findings[0].message.startswith(
        "REPRO_TURBO is read from the environment"
    )


# ----------------------------------------------------------------------
# repro.obs.validate exit codes: schema violation vs unreadable input.


def test_validate_exit_zero_on_valid_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    assert validate_main(["--trace", str(trace)]) == 0
    assert "trace OK" in capsys.readouterr().out


def test_validate_exit_one_on_schema_violation(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text("{}")
    assert validate_main(["--report", str(report)]) == 1
    assert "validation FAILED" in capsys.readouterr().err


def test_validate_exit_one_on_undecodable_json(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text("{ not json")
    assert validate_main(["--report", str(report)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_validate_exit_two_on_unreadable_input(tmp_path, capsys):
    missing = tmp_path / "does-not-exist.json"
    assert validate_main(["--report", str(missing)]) == 2
    assert "cannot read input" in capsys.readouterr().err
