"""The lint driver: collect files, run rules, sort, render.

One :func:`run_lint` call is one lint run: parse every ``.py`` file
under the given paths, run every file-scope rule per file and every
project-scope rule once, then sort and de-duplicate the findings.  The
result object carries the findings, including per-file parse errors
(reported as ``PARSE`` findings so a syntactically-broken file fails
the run instead of silently skipping its rules).

Files are linted one after another: the work is pure-Python AST walking
under the interpreter lock, and three quarters of a run is the serial
project phase (see "Removed alternatives" in ``docs/performance.md``).
"""

import ast
import os
from dataclasses import dataclass, field

from .core import FileUnit, Finding, Project
from .rules import ALL_RULES


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list = field(default_factory=list)
    files: int = 0

    @property
    def ok(self):
        return not self.findings

    def render_text(self):
        """One line per finding, then the count."""
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files} file(s)"
        )
        return "\n".join(lines)


def collect_files(paths):
    """Every ``.py`` file under ``paths`` (dirs recursed, sorted)."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        else:
            files.append(path)
    return files


def _lint_one_file(file_path, root, file_rules):
    """Parse and file-rule one file.

    Returns ``(unit_or_None, findings)``.
    """
    rel = os.path.relpath(file_path, root)
    try:
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, filename=file_path)
    except (OSError, SyntaxError, ValueError) as err:
        finding = Finding(
            path=rel.replace("\\", "/"),
            line=getattr(err, "lineno", None) or 1,
            col=1,
            rule="PARSE",
            message=f"file cannot be linted: {err}",
        )
        return None, [finding]
    unit = FileUnit(file_path, rel, source, tree)
    findings = []
    for rule in file_rules:
        findings.extend(rule.check_file(unit))
    return unit, findings


def run_lint(paths, root=None):
    """Run every registered rule; returns a :class:`LintResult`.

    Args:
        paths: files and/or directories to lint.
        root: directory findings are reported relative to (default:
            the current working directory).
    """
    root = os.getcwd() if root is None else root
    rules = ALL_RULES.values()
    file_rules = [rule for rule in rules if rule.scope == "file"]
    project_rules = [rule for rule in rules if rule.scope == "project"]

    units = []
    findings = []
    for path in collect_files(paths):
        unit, file_findings = _lint_one_file(path, root, file_rules)
        findings.extend(file_findings)
        if unit is not None:
            units.append(unit)

    project = Project(units)
    for rule in project_rules:
        findings.extend(rule.check_project(project))

    return LintResult(findings=sorted(set(findings)), files=len(units))
