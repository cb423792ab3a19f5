"""The mutation table still applies: every row's search text occurs
exactly once in its file, and the check it names exists.

Running the catchers is ``scripts/mutants.py``'s job, and CI's; this
only keeps a refactor from leaving the table silently stale.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "mutants.py"

spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

ROWS = mutants.load_rows()


def test_row_ids_are_unique():
    ids = [row["id"] for row in ROWS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("row", ROWS, ids=[row["id"] for row in ROWS])
def test_row_applies(row):
    assert mutants.problems(row) == []


def test_docs_list_every_row():
    docs = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
    assert [row["id"] for row in ROWS if f"`{row['id']}`" not in docs] \
        == []


def test_a_missing_or_repeated_search_text_does_not_apply(tmp_path):
    (tmp_path / "module.py").write_text("x = 1\nx = 1\ny = 2\n")
    (tmp_path / "test_module.py").write_text("def test_x():\n    pass\n")
    row = dict(id="r", guards="g", file="module.py", search="y = 2\n",
               replace="y = 3\n", catcher="test_module.py::test_x")
    assert mutants.problems(row, tmp_path) == []
    assert "occurs 2 times" in mutants.problems(
        dict(row, search="x = 1\n"), tmp_path
    )[0]
    assert "occurs 0 times" in mutants.problems(
        dict(row, search="z = 3\n"), tmp_path
    )[0]
    assert "no test" in mutants.problems(
        dict(row, catcher="test_module.py::test_gone"), tmp_path
    )[0]


def test_a_catcher_step_is_read_from_the_workflow():
    script = mutants.ci_step_script(
        "A run does not depend on the hash seed"
    )
    assert script.startswith("for hashseed in 0 1; do\n")
    assert "run all" in script
    assert mutants.ci_step_script("No such step") is None


def test_help_prints_usage_and_runs_nothing():
    """``--help`` exits 0 at once; any other argument exits 2 (the full
    run takes minutes, so either would time out if it started)."""
    shown = subprocess.run(
        [sys.executable, str(SCRIPT), "--help"],
        capture_output=True, text=True, timeout=10,
    )
    assert shown.returncode == 0
    assert shown.stdout.startswith("usage:")
    refused = subprocess.run(
        [sys.executable, str(SCRIPT), "--jobs", "2"],
        capture_output=True, text=True, timeout=10,
    )
    assert refused.returncode == 2
