"""Run the mutation table: each defect must be caught by the check it names.

Usage::

    python scripts/mutants.py

The table is ``tests/mutants/rows.py``.  A row is one defect written as
an exact text replacement (``file``, ``search``, ``replace``) and the
one check said to catch it (``catcher``): a tier-1 test node id, or
``ci: <step name>`` for a step of ``.github/workflows/ci.yml``.  For
every row the run requires three things:

1. ``search`` occurs in ``file`` exactly once;
2. the catcher passes on the unmutated tree;
3. the catcher fails on the tree with the replacement made.

The trees are copies, in a temporary directory, of the files git
tracks plus the untracked files it does not ignore; the working tree is
never written.  A test catcher runs as ``python -m pytest <node id>``
and must fail with exit status 1 (failed tests, not a collection
error); a step catcher runs its ``run:`` script under ``bash -e`` and
must exit non-zero.  Every row is reported with its seconds, then the
total wall time; the exit status is 0 when every row holds, else 1.
"""

import argparse
import importlib.util
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
TABLE = Path("tests") / "mutants" / "rows.py"
WORKFLOW = Path(".github") / "workflows" / "ci.yml"
CI_PREFIX = "ci:"
FIELDS = ("id", "guards", "file", "search", "replace", "catcher")
# A mutant that makes a catcher hang is reported, not waited out.
RUN_TIMEOUT_S = 1200


def load_rows():
    """The table's rows, in table order."""
    spec = importlib.util.spec_from_file_location(
        "mutant_rows", REPO_ROOT / TABLE
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ROWS


def ci_step_script(name, root=REPO_ROOT):
    """The ``run:`` script of the CI step called ``name``, or ``None``.

    Reads the workflow as text: the step's ``- name:`` line, then the
    block under its ``run: |`` key (every line indented deeper than the
    key, blank lines included), dedented.
    """
    lines = (root / WORKFLOW).read_text().splitlines()
    header = re.compile(r"^\s*- name: (.*)$")
    for at, line in enumerate(lines):
        match = header.match(line)
        if not match or match.group(1).strip() != name:
            continue
        for key_at in range(at + 1, len(lines)):
            if header.match(lines[key_at]):
                return None
            key = lines[key_at]
            if key.strip() == "run: |":
                indent = len(key) - len(key.lstrip())
                block = []
                for body in lines[key_at + 1:]:
                    if body.strip() and \
                            len(body) - len(body.lstrip()) <= indent:
                        break
                    block.append(body)
                return textwrap.dedent("\n".join(block)) + "\n"
        return None
    return None


def problems(row, root=REPO_ROOT):
    """Why ``row`` cannot be run as written (empty when it can)."""
    missing = [name for name in FIELDS if not row.get(name)]
    if missing:
        return [f"missing field(s) {', '.join(missing)}"]
    found = []
    path = root / row["file"]
    if not path.is_file():
        found.append(f"{row['file']} does not exist")
    else:
        count = path.read_text().count(row["search"])
        if count != 1:
            found.append(
                f"search text occurs {count} times in {row['file']}, "
                f"not once"
            )
    catcher = row["catcher"]
    if catcher.startswith(CI_PREFIX):
        step = catcher[len(CI_PREFIX):].strip()
        if ci_step_script(step, root) is None:
            found.append(f"no CI step {step!r} with a run script")
    else:
        test_file, _, test = catcher.partition("::")
        name = test.split("[", 1)[0]
        source = root / test_file
        if not name or not source.is_file() or \
                f"def {name}(" not in source.read_text():
            found.append(f"no test {catcher!r}")
    return found


def copy_tree(root, dest):
    """Copy the files git tracks, and the untracked ones it does not
    ignore, from ``root`` into ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for rel in filter(None, listed):
        source = root / rel
        if source.is_file():
            target = dest / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_catcher(catcher, tree):
    """Run ``catcher`` in ``tree``: ``(exit status, seconds, output)``;
    the status is ``None`` when the run timed out."""
    env = dict(
        os.environ,
        PYTHONPATH=str(tree / "src"),
        # Mutant and original differ in content only: a cached .pyc
        # keyed by mtime and size could hand one the other's code.
        PYTHONDONTWRITEBYTECODE="1",
    )
    if catcher.startswith(CI_PREFIX):
        script = ci_step_script(catcher[len(CI_PREFIX):].strip(), tree)
        command = ["bash", "-e", "-c", script]
    else:
        command = [sys.executable, "-m", "pytest", "-q", "-x",
                   "-p", "no:cacheprovider", catcher]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - started, ""
    return proc.returncode, time.monotonic() - started, \
        proc.stdout + proc.stderr


def caught(catcher, status):
    """Whether exit ``status`` is the catcher failing on a defect."""
    if catcher.startswith(CI_PREFIX):
        return status not in (0, None)
    return status == 1


def tail(output, lines=15):
    return "\n".join(output.strip().splitlines()[-lines:])


def main():
    # No options: ``--help`` prints this docstring, anything else is
    # refused before a tree is copied.
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    ).parse_args()
    started = time.monotonic()
    rows = load_rows()
    stale = [(row.get("id"), problems(row)) for row in rows]
    stale = [(row_id, found) for row_id, found in stale if found]
    if stale:
        for row_id, found in stale:
            print(f"{row_id}: {'; '.join(found)}")
        return 1

    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "repo"
        copy_tree(REPO_ROOT, tree)
        baseline = {}
        for catcher in dict.fromkeys(row["catcher"] for row in rows):
            status, seconds, output = run_catcher(catcher, tree)
            baseline[catcher] = status == 0
            if status != 0:
                print(f"catcher fails on the unmutated tree "
                      f"(status {status}, {seconds:.1f} s): {catcher}\n"
                      f"{tail(output)}")
        width = max(len(row["id"]) for row in rows)
        for row in rows:
            path = tree / row["file"]
            original = path.read_text()
            path.write_text(original.replace(row["search"], row["replace"]))
            status, seconds, output = run_catcher(row["catcher"], tree)
            path.write_text(original)
            if not baseline[row["catcher"]]:
                verdict = "HEAD FAILS"
            elif caught(row["catcher"], status):
                verdict = "caught"
            elif status is None:
                verdict = "TIMED OUT"
            else:
                verdict = "ESCAPED" if status == 0 else f"STATUS {status}"
            print(f"{row['id']:<{width}}  {verdict:<10} {seconds:7.1f} s  "
                  f"{row['catcher']}", flush=True)
            if verdict != "caught":
                failed += 1
                if verdict.startswith("STATUS"):
                    print(tail(output))
    total = time.monotonic() - started
    print(f"{len(rows) - failed}/{len(rows)} row(s) hold; "
          f"mutation table wall time {total:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
