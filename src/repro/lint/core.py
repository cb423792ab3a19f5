"""Core types of the invariant checker: findings, rules, file units.

``repro.lint`` exists because some of the reproduction's guarantees
rest on conventions no test exercises deterministically: state shared
across session workers is lock-guarded, nothing reads the environment,
the run report matches its schema, and no handler swallows an error.
Each convention is encoded here as a :class:`Rule` over the stdlib
:mod:`ast`, so breaking one fails CI instead of silently skewing a
figure.

A rule sees either one :class:`FileUnit` (``scope = "file"``) or the
whole :class:`Project` (``scope = "project"``, for cross-file passes
such as the report/schema drift check).  Findings are plain value
objects; the runner sorts and de-duplicates what the rules yield.
"""

import ast
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self):
        """The canonical single-line text rendering."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} " \
               f"{self.message}"


class Rule:
    """Base class for lint rules.

    Subclasses set ``name`` (the ``RULE000`` id each finding carries)
    and ``scope``:

    * ``"file"`` — :meth:`check_file` runs once per parsed file;
    * ``"project"`` — :meth:`check_project` runs once over all files.
    """

    name = ""
    scope = "file"

    def check_file(self, unit):
        """Yield :class:`Finding` objects for one file (file scope)."""
        return iter(())

    def check_project(self, project):
        """Yield :class:`Finding` objects for the project (project scope)."""
        return iter(())


class FileUnit:
    """One parsed source file plus the derived facts rules need."""

    def __init__(self, path, rel, source, tree):
        self.path = path
        self.rel = rel
        #: Relative path with forward slashes — what rules match
        #: exemptions against and what findings report.
        self.posix = rel.replace("\\", "/")
        self.source = source
        self.tree = tree
        self._aliases = None
        self._constants = None

    @property
    def aliases(self):
        """Import alias map ``{bound name: dotted origin}`` (lazy)."""
        if self._aliases is None:
            self._aliases = import_aliases(self.tree)
        return self._aliases

    @property
    def constants(self):
        """Module-level ``NAME = <expr>`` assignments as
        ``{name: value node}`` (lazy; the last assignment wins)."""
        if self._constants is None:
            self._constants = {
                target.id: stmt.value
                for stmt in self.tree.body if isinstance(stmt, ast.Assign)
                for target in stmt.targets if isinstance(target, ast.Name)
            }
        return self._constants

    def finding(self, rule, node, message):
        """A :class:`Finding` of ``rule`` anchored at ``node``."""
        return Finding(
            path=self.posix,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


class Project:
    """All file units of one lint run, for cross-file passes."""

    def __init__(self, units):
        self.units = list(units)
        self._call_graph = None

    @property
    def call_graph(self):
        """The project :class:`~repro.lint.callgraph.CallGraph` (built
        once per run, shared by every project-scope rule)."""
        if self._call_graph is None:
            from .callgraph import CallGraph
            self._call_graph = CallGraph(self.units)
        return self._call_graph

    def units_defining_function(self, name):
        """Units with a module-level ``def name`` (with the node)."""
        for unit in self.units:
            for node in unit.tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == name:
                    yield unit, node

    def units_assigning(self, name):
        """Units with a module-level ``name = ...`` (with the value node)."""
        for unit in self.units:
            if name in unit.constants:
                yield unit, unit.constants[name]


# ----------------------------------------------------------------------
# AST helpers shared by the rules and the call graph


def dotted_name(node):
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Chains rooted in anything but a plain name (calls, subscripts)
    return ``None`` — rules that need those walk the chain themselves.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree):
    """Map every imported binding to its fully dotted origin.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` →
    ``{"pc": "time.perf_counter"}``.  Relative imports are skipped —
    the rules only care about stdlib/third-party absolute origins.
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                aliases[bound] = origin
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                bound = alias.asname or alias.name
                aliases[bound] = f"{node.module}.{alias.name}"
    return aliases


def resolve_dotted(name, aliases):
    """Rewrite the first segment of ``name`` through the alias map.

    ``np.random.default_rng`` with ``{"np": "numpy"}`` becomes
    ``numpy.random.default_rng``; unknown roots pass through unchanged.
    """
    head, _, rest = name.partition(".")
    origin = aliases.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def chain_name(node):
    """The dotted name of an attribute/subscript chain, subscripts
    skipped: ``self._built.index_data[k]`` is ``self._built.index_data``
    and ``local[k]`` is ``local``.  ``None`` unless the chain is rooted
    in a plain name."""
    parts = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def write_targets(stmt):
    """The target expressions a statement stores to or deletes."""
    if isinstance(stmt, (ast.Assign, ast.Delete)):
        return stmt.targets
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    return []


def annotate_parents(tree):
    """Give every node of ``tree`` a ``_lint_parent`` back-pointer."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node


def enclosing(node, kinds):
    """The nearest ancestor of ``node`` that is one of ``kinds``
    (needs :func:`annotate_parents`), or ``None``."""
    node = getattr(node, "_lint_parent", None)
    while node is not None and not isinstance(node, kinds):
        node = getattr(node, "_lint_parent", None)
    return node
