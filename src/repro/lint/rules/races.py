"""LCK002 — state shared with worker threads is written under a lock.

``MeasurementSession`` fans closures out over a thread pool, and the
server runs jobs and HTTP handlers on their own threads.  The
byte-identity guarantee only covers *results* (collected in submission
order); it says nothing about side effects, so an unguarded write to
shared state on a worker is a data race.  Racy counters are the classic
failure: the run "works" but its reported statistics are silently
wrong, which for a measurement framework is the worst kind of bug.

One interprocedural lockset analysis answers it.  Per lint run:

1. the call graph's executor entries (pool-submitted callables and the
   calls inside submitted lambdas, ``Thread(target=...)``,
   ``add_done_callback`` hooks, ``do_*`` HTTP handler methods) seed a
   fixpoint that computes, for every reachable function, the set of
   locks held on **all** paths into it
   (:class:`~repro.lint.dataflow.LocksetAnalysis` per body,
   intersection across call sites, lock tokens translated through each
   edge's argument bindings) — so a helper whose every caller holds the
   lock is clean, and one unlocked caller is what flips it;
2. a reachable function's ``self`` counts as *shared* when its class
   owns a lock (an ``__init__`` attribute built from
   ``threading.Lock/RLock/Condition``, or any attribute whose name
   contains ``lock``) — the class has opted into lock discipline — or
   when a method handed it to the executor with its own ``self`` (a
   bound method, or a closure capturing it): the submitter and every
   worker then hold the same object.  Sharing follows the receiver:
   a method called on something rooted in a shared ``self``
   (``self.db.bind(...)``) has a shared ``self`` too.  Any other
   lockless class is assumed thread-confined;
3. inside reachable functions, every write to shared state —
   ``self.<attr>`` of a shared ``self``, a local aliased from it
   (``session = self._sessions[sid]; session.hits += 1``), an attribute
   of a free variable, or an augmented ``nonlocal``/``global`` — must
   have a lock in its must-held lockset: one of the owning class's
   locks where the class has any, otherwise any lock at all.

Lock tokens are class-scoped (``SessionStore._lock``): the server holds
exactly one store/queue instance, so class identity approximates object
identity; module-level locks are module-scoped, and parameter locks are
frame-scoped and renamed across edges via the binding maps.
``__init__`` is exempt (the instance is not yet shared while it runs),
and so is a chain that names thread-local storage (a segment containing
``local``) — both heuristics by design: the rule is meant to force the
author to *name* the synchronization.
"""

import ast

from ..callgraph import self_assignments
from ..core import Rule, chain_name, dotted_name, write_targets
from ..dataflow import LocksetAnalysis, build_cfg

#: Constructors whose result is a synchronization object.
LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "Lock", "RLock", "Condition",
})

#: The fixpoint is monotone (locksets only shrink), so this bound is a
#: backstop, not a tuning knob.
MAX_PASSES = 20


def _is_lock_value(expr, aliases):
    """Whether an assigned value constructs a synchronization object."""
    if not isinstance(expr, ast.Call):
        return False
    name = dotted_name(expr.func)
    if name is None:
        return False
    return aliases.get(name, name) in LOCK_FACTORIES or \
        name in LOCK_FACTORIES


def _lockish_name(name):
    """Name-based lock heuristic; ``clock`` is famously not a lock."""
    lowered = name.lower()
    return "lock" in lowered and "clock" not in lowered


def _chain_mentions_local(name):
    return "local" in name.lower() and "lock" not in name.lower()


def _self_aliases(fn):
    """Locals aliased from ``self`` state (shared, not private)."""
    shared = set()
    for _ in range(2):   # one re-pass catches alias-of-alias
        for stmt in ast.walk(fn):
            if not (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                continue
            value = stmt.value
            while isinstance(value, (ast.Subscript, ast.Attribute,
                                     ast.Call)):
                value = value.func if isinstance(value, ast.Call) \
                    else value.value
            if isinstance(value, ast.Name) and (
                    value.id == "self" or value.id in shared):
                shared.add(stmt.targets[0].id)
    return shared


def _scope_names(fn):
    """``(bound, outer)``: names ``fn`` binds itself, and names it
    declares ``nonlocal``/``global``."""
    args = fn.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs, args.vararg, args.kwarg)
             if a is not None}
    outer = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Nonlocal, ast.Global)):
            outer.update(node.names)
    return bound - outer, outer


def _written_names(stmt, outer):
    """Dotted names of the possibly-shared state one statement writes:
    attribute/subscript chains (``self._map[k].hits`` is
    ``self._map.hits``, ``local[k]`` is ``local``) and augmented
    assignments to the ``outer`` (``nonlocal``/``global``) names.  Any
    other plain-name store is a local (re)bind."""
    for target in write_targets(stmt):
        name = chain_name(target)
        if name is not None and (
                not isinstance(target, ast.Name)
                or isinstance(stmt, ast.AugAssign) and name in outer):
            yield name


class RaceRule(Rule):
    name = "LCK002"
    scope = "project"

    def check_project(self, project):
        graph = project.call_graph
        lock_attrs = self._lock_attributes(graph)
        entry_locks = self._interprocedural_locksets(graph)
        submitted = self._shared_selves(graph)
        for qual in sorted(graph.reachable_from_entries()):
            info = graph.functions[qual]
            if info.node.name == "__init__":
                continue
            tokens = self._class_tokens(graph, info, lock_attrs) \
                if info.class_name else frozenset()
            yield from self._check_function(
                info, entry_locks.get(qual, frozenset()), tokens,
                lock_attrs.get((info.module, info.class_name), ()),
                shared_self=bool(tokens) or qual in submitted,
            )

    # ------------------------------------------------------------------
    # Lock discovery

    def _lock_attributes(self, graph):
        """``(module, Class) -> {attr}`` for classes that own locks."""
        lock_attrs = {}
        for info in graph.functions.values():
            if info.class_name is None or info.node.name != "__init__":
                continue
            attrs = {
                attr for attr, value in self_assignments(info.node)
                if _is_lock_value(value, info.unit.aliases)
                or _lockish_name(attr)
            }
            if attrs:
                lock_attrs[(info.module, info.class_name)] = attrs
        return lock_attrs

    def _class_tokens(self, graph, info, lock_attrs):
        """The lock tokens that guard ``info``'s class (incl. bases)."""
        return frozenset(
            f"{key[1]}.{attr}"
            for key in graph.lineage(info.module, info.class_name)
            for attr in lock_attrs.get(key, ())
        )

    def _lock_token(self, expr, info):
        """The global token of a ``with``-item lock expression."""
        if isinstance(expr, ast.Call):
            # ``with threading.Lock():`` guards nothing shared.
            return None
        name = dotted_name(expr)
        if name is None or not _lockish_name(name):
            return None
        parts = name.split(".")
        if parts[0] in ("self", "cls") and len(parts) >= 2 \
                and info.class_name:
            return f"{info.class_name}.{parts[1]}"
        if len(parts) == 1:
            # A bare name: module-level lock if the module assigns it,
            # otherwise a frame-local (parameter) lock.
            if name in info.unit.constants:
                return f"{info.module}.{name}"
            return f"{info.qualname}::{name}"
        return f"{info.module}.{name}"

    # ------------------------------------------------------------------
    # Interprocedural fixpoint

    def _run_lockset(self, info, entry):
        cfg = build_cfg(
            info.node, lambda expr: self._lock_token(expr, info)
        )
        analysis = LocksetAnalysis(entry_locks=entry)
        analysis.run(cfg)
        return analysis

    def _translate(self, tokens, site, callee_info):
        """Rename caller-held tokens into the callee's frame.

        Class- and module-scoped tokens are global and pass through
        unchanged; frame-scoped tokens survive only when the edge's
        binding map carries the lock into a callee parameter.
        """
        out = set()
        for token in tokens:
            if "::" not in token:
                out.add(token)
                continue
            local = token.split("::", 1)[1]
            for param, bound in site.bindings.items():
                if bound == local:
                    out.add(f"{callee_info.qualname}::{param}")
        return frozenset(out)

    def _interprocedural_locksets(self, graph):
        """``qualname -> locks held on every path from every entry``."""
        entry_locks = {
            info.qualname: frozenset() for info in graph.entries()
        }
        worklist = sorted(entry_locks)
        passes = 0
        while worklist and passes < MAX_PASSES * len(graph.functions):
            passes += 1
            info = graph.functions[worklist.pop()]
            analysis = self._run_lockset(
                info, entry_locks[info.qualname]
            )
            # Must-held lockset at every node under a statement or
            # test.  ``acquire`` ops are left out on purpose: their
            # node is the whole ``with`` statement, whose subtree holds
            # every call of the body — matching it would read the state
            # from *before* the acquire.
            held_at = {}
            for op in analysis.before:
                if op.kind in ("stmt", "test"):
                    held = analysis.locks_at(op)
                    for node in ast.walk(op.node):
                        held_at[id(node)] = held
            for site in info.calls:
                incoming = self._translate(
                    held_at.get(id(site.node), frozenset()), site,
                    graph.functions[site.callee],
                )
                current = entry_locks.get(site.callee)
                merged = incoming if current is None \
                    else current & incoming
                if merged != current:
                    entry_locks[site.callee] = merged
                    if site.callee not in worklist:
                        worklist.append(site.callee)
        return entry_locks

    def _shared_selves(self, graph):
        """Qualnames whose ``self`` the submitting thread shares with
        its workers: callables a method hands to an executor with its
        own ``self``, then every method called on a receiver rooted in
        such a ``self``."""
        frontier = [
            site.callee
            for info in graph.functions.values() for site in info.calls
            if site.kind == "submit" and site.bindings.get("self") == "self"
        ]
        shared = set()
        while frontier:
            qual = frontier.pop()
            if qual in shared:
                continue
            shared.add(qual)
            info = graph.functions[qual]
            roots = {"self"} | _self_aliases(info.node)
            for site in info.calls:
                receiver = site.bindings.get("self", "")
                if receiver.split(".")[0] in roots:
                    frontier.append(site.callee)
        return shared

    # ------------------------------------------------------------------
    # Write checking

    def _check_function(self, info, entry, tokens, own_locks, shared_self):
        analysis = self._run_lockset(info, entry)
        bound, outer = _scope_names(info.node)
        self_names = {"self", "cls"} | _self_aliases(info.node)
        where = info.qualname.split("::", 1)[1]
        for op in analysis.before:
            if op.kind != "stmt":
                continue
            held = analysis.locks_at(op)
            for name in _written_names(op.node, outer):
                base, _, rest = name.partition(".")
                if base in self_names:
                    if not shared_self or rest.split(".")[0] in own_locks:
                        continue
                    needed = tokens
                elif base in outer or (rest and base not in bound):
                    needed = frozenset()
                else:
                    continue
                if _chain_mentions_local(name):
                    continue
                if held & needed if needed else held:
                    continue
                locks = ", ".join(sorted(needed)) or "a lock"
                yield info.unit.finding(
                    self.name, op.node,
                    f"write to shared state {name!r} in {where} is "
                    f"reachable from an executor entry without holding "
                    f"{locks} on every path; acquire the lock or make "
                    f"the caller hold it",
                )
