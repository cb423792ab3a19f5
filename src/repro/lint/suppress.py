"""Suppression comments: silencing a finding at its source line.

Two forms, mirroring the usual linter conventions:

* ``# repro-lint: disable=RULE1,RULE2`` on the offending line silences
  those rules for that line only;
* ``# repro-lint: disable-file=RULE1,RULE2`` anywhere in a file
  silences those rules for the whole file.

``disable=all`` (or ``disable-file=all``) silences every rule.  A
suppression is the *reviewed* escape hatch; there is no other way to
accept a finding.

A directive covers the whole *statement* it sits on, not just its
physical line: on the first line of a multi-line call it also silences
findings anchored inside the parenthesized continuation, and on a
decorator line (or the ``def`` line of a decorated function) it covers
the decorated definition.  This needs the parsed tree, so
:func:`parse_suppressions` takes it as an optional second argument;
without a tree the match stays strictly per-line.
"""

import ast
import re

_DIRECTIVE_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*"
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

ALL = "all"


class Suppressions:
    """Parsed suppression directives of one source file."""

    def __init__(self, line_rules, file_rules):
        self._line_rules = line_rules
        self._file_rules = file_rules

    def is_suppressed(self, finding):
        """Whether ``finding`` is silenced by a directive."""
        for rules in (self._file_rules,
                      self._line_rules.get(finding.line, ())):
            if ALL in rules or finding.rule in rules:
                return True
        return False


#: Statements whose first-line directive extends over the whole span
#: (the multi-line call / literal case).
_SIMPLE_STMTS = (
    ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Return,
    ast.Raise, ast.Assert, ast.Delete,
)


def parse_suppressions(source, tree=None):
    """Scan ``source`` for directives; returns a :class:`Suppressions`.

    Directives are matched textually per line, so one inside a string
    literal would also count — acceptable for a project-internal tool,
    and it keeps the scan independent of tokenization errors.  When
    ``tree`` is given, directives are widened from lines to statement
    spans (see the module docstring).
    """
    line_rules = {}
    file_rules = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _DIRECTIVE_RE.search(line)
        if not match:
            continue
        kind, spec = match.groups()
        rules = {r.strip() for r in spec.split(",") if r.strip()}
        if kind == "disable-file":
            file_rules |= rules
        else:
            line_rules.setdefault(lineno, set()).update(rules)
    if tree is not None and line_rules:
        _expand_statement_spans(tree, line_rules)
    return Suppressions(line_rules, file_rules)


def _expand_statement_spans(tree, line_rules):
    """Widen first-line / decorator-line directives to statement spans."""
    for node in ast.walk(tree):
        end = getattr(node, "end_lineno", None)
        if end is None:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.decorator_list:
            # The directive may sit on any decorator line or on the
            # signature itself; either way the user means "this
            # definition".
            first = node.decorator_list[0].lineno
            header_end = node.body[0].lineno - 1 if node.body else end
            _widen(line_rules, range(first, header_end + 1),
                   range(first, end + 1))
        elif isinstance(node, _SIMPLE_STMTS) and end > node.lineno:
            _widen(line_rules, (node.lineno,),
                   range(node.lineno, end + 1))


def _widen(line_rules, directive_lines, span):
    rules = set()
    for lineno in directive_lines:
        rules |= line_rules.get(lineno, set())
    if not rules:
        return
    for lineno in span:
        line_rules.setdefault(lineno, set()).update(rules)
