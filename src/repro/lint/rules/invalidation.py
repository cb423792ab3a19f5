"""INV001 — every ``Database`` mutator must invalidate the caches.

The plan/estimate, environment and what-if caches memoize derived
results keyed by configuration fingerprints; they are only sound while
the underlying state (loaded tables, statistics, the built
configuration) is unchanged.  The contract, stated in
``engine/database.py``, is that **every state transition calls
``invalidate_caches()``** — a contract this rule machine-checks so a
new mutator added two years from now cannot silently serve stale
``H(q, Ch, Ca)`` costs.

Mechanically: in any class that defines ``invalidate_caches``, a method
counts as a *mutator* when it assigns to (or calls a mutating method
on) one of the state attributes ``tables`` / ``statistics`` /
``_view_stats`` / ``_built``, or calls ``append_rows`` on anything.
Each mutator must *reach* ``self.invalidate_caches()`` — directly or
transitively through other methods of the same class (``apply_configuration``
delegates to ``_apply_configuration``, which invalidates).  Dunder
methods are exempt: construction and unpickling build fresh caches
rather than invalidating old ones.
"""

import ast

from ..core import Rule, chain_name, write_targets

STATE_ATTRS = frozenset({"tables", "statistics", "_view_stats", "_built"})
MUTATING_METHODS = frozenset({
    "put", "clear", "update", "setdefault", "pop", "popitem",
    "append", "extend", "insert", "remove", "add", "discard",
})
ALWAYS_MUTATING_CALLS = frozenset({"append_rows"})
INVALIDATOR = "invalidate_caches"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _self_state(node):
    """``<state attr>`` when an attribute/subscript chain is
    ``self.<state attr>...``, else ``None``."""
    parts = (chain_name(node) or "").split(".")
    if parts[0] == "self" and len(parts) > 1 and parts[1] in STATE_ATTRS:
        return parts[1]
    return None


class _MethodFacts(ast.NodeVisitor):
    """Mutation evidence and self-call targets of one method body."""

    def __init__(self):
        self.mutations = []          # (node, description)
        self.self_calls = set()      # names of self.X(...) calls
        self.invalidates = False

    def visit(self, node):
        for target in write_targets(node):
            attr = _self_state(target)
            if attr is not None:
                self.mutations.append((target, f"assigns self.{attr}"))
        super().visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) \
                    and func.value.id == "self":
                if func.attr == INVALIDATOR:
                    self.invalidates = True
                self.self_calls.add(func.attr)
            elif func.attr in ALWAYS_MUTATING_CALLS:
                self.mutations.append(
                    (node, f"calls .{func.attr}()")
                )
            elif func.attr in MUTATING_METHODS:
                attr = _self_state(func.value)
                if attr is not None:
                    self.mutations.append(
                        (node, f"calls {func.attr}() on self.{attr}")
                    )
        self.generic_visit(node)


class InvalidationRule(Rule):
    name = "INV001"
    scope = "file"

    def check_file(self, unit):
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(unit, node)

    def _check_class(self, unit, cls):
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if INVALIDATOR not in methods:
            return
        facts = {}
        for name, method in methods.items():
            collector = _MethodFacts()
            for stmt in method.body:
                collector.visit(stmt)
            facts[name] = collector

        # Fixed point: a method invalidates if it calls
        # invalidate_caches directly or calls a method that does.
        invalidating = {
            name for name, f in facts.items()
            if f.invalidates or name == INVALIDATOR
        }
        changed = True
        while changed:
            changed = False
            for name, f in facts.items():
                if name not in invalidating \
                        and f.self_calls & invalidating:
                    invalidating.add(name)
                    changed = True

        for name, method in methods.items():
            if _is_dunder(name) or name == INVALIDATOR:
                continue
            f = facts[name]
            if f.mutations and name not in invalidating:
                node, what = f.mutations[0]
                yield unit.finding(
                    self.name, node,
                    f"{cls.name}.{name} {what} but never reaches "
                    f"{INVALIDATOR}(); stale plan/estimate/what-if "
                    f"cache entries would survive the state change",
                )
