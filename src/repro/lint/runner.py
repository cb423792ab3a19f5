"""The lint driver: collect files, run rules, filter, render.

One :func:`run_lint` call is one lint run: parse every ``.py`` file
under the given paths, run the selected file-scope rules per file and
project-scope rules once, sort and de-duplicate the findings, and drop
those silenced by suppression comments.  The result object carries
everything the CLI (and the tests) need — surviving findings, the
suppressed count, and per-file parse errors (reported as ``PARSE``
findings so a syntactically-broken file fails the run instead of
silently skipping its rules).

Files are linted one after another: the work is pure-Python AST walking
under the interpreter lock, and three quarters of a run is the serial
project phase (see "Removed alternatives" in ``docs/performance.md``).
Findings are globally sorted before they are filtered and rendered.
"""

import ast
import os
from dataclasses import dataclass, field

from .core import FileUnit, Finding, Project
from .rules import ALL_RULES
from .suppress import parse_suppressions

PARSE_RULE = "PARSE"

LINT_REPORT_SCHEMA_ID = "repro.lint/v2"

#: Shape of the ``--format json`` document (validated in the tests with
#: :func:`repro.obs.schemas.validate_instance`).
LINT_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "summary", "findings"],
    "properties": {
        "schema": {"enum": [LINT_REPORT_SCHEMA_ID]},
        "summary": {
            "type": "object",
            "required": ["files", "rules", "findings", "suppressed"],
            "properties": {
                "files": {"type": "integer", "minimum": 0},
                "rules": {"type": "array", "items": {"type": "string"}},
                "findings": {"type": "integer", "minimum": 0},
                "suppressed": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "findings": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rule", "path", "line", "col", "message"],
                "properties": {
                    "rule": {"type": "string"},
                    "path": {"type": "string"},
                    "line": {"type": "integer", "minimum": 1},
                    "col": {"type": "integer", "minimum": 1},
                    "message": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list = field(default_factory=list)
    files: int = 0
    rules: tuple = ()
    suppressed: int = 0

    @property
    def ok(self):
        return not self.findings

    def to_json(self):
        """The ``--format json`` document (schema ``repro.lint/v2``)."""
        return {
            "schema": LINT_REPORT_SCHEMA_ID,
            "summary": {
                "files": self.files,
                "rules": sorted(self.rules),
                "findings": len(self.findings),
                "suppressed": self.suppressed,
            },
            "findings": [f.to_json() for f in self.findings],
        }

    def render_text(self):
        """Human-oriented multi-line rendering (the default output)."""
        lines = [f.render() for f in self.findings]
        tail = (
            f"{len(self.findings)} finding(s) in {self.files} file(s)"
        )
        if self.suppressed:
            tail += f" ({self.suppressed} suppressed)"
        lines.append(tail)
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

    Returns ``(unit_or_None, findings, suppressions_or_None)``.
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
            rule=PARSE_RULE,
            message=f"file cannot be linted: {err}",
        )
        return None, [finding], None
    unit = FileUnit(file_path, rel, source, tree)
    filters = parse_suppressions(source, tree)
    findings = []
    for rule in file_rules:
        findings.extend(rule.check_file(unit))
    return unit, findings, filters


def run_lint(paths, rules=None, root=None):
    """Run the linter; returns a :class:`LintResult`.

    Args:
        paths: files and/or directories to lint.
        rules: rule ids to run (default: every registered rule).
        root: directory findings are reported relative to (default:
            the current working directory).

    Raises:
        KeyError: an unknown rule id in ``rules``.
    """
    selected = list(ALL_RULES) if rules is None else list(rules)
    for rule_id in selected:
        if rule_id not in ALL_RULES:
            raise KeyError(rule_id)
    root = os.getcwd() if root is None else root
    file_rules = [
        ALL_RULES[r] for r in selected if ALL_RULES[r].scope == "file"
    ]
    project_rules = [
        ALL_RULES[r] for r in selected if ALL_RULES[r].scope == "project"
    ]

    units = []
    findings = []
    suppressions = {}
    for path in collect_files(paths):
        unit, file_findings, filters = _lint_one_file(
            path, root, file_rules
        )
        findings.extend(file_findings)
        if unit is not None:
            units.append(unit)
            suppressions[unit.posix] = filters

    project = Project(units)
    for rule in project_rules:
        findings.extend(rule.check_project(project))

    kept, suppressed = [], 0
    for finding in sorted(set(findings)):
        filters = suppressions.get(finding.path)
        if filters is not None and finding.rule != PARSE_RULE \
                and filters.is_suppressed(finding):
            suppressed += 1
        else:
            kept.append(finding)

    return LintResult(
        findings=kept,
        files=len(units),
        rules=tuple(selected),
        suppressed=suppressed,
    )
