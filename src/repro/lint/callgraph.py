"""The project-wide call graph: who calls whom, and how.

The file-scope rules are syntactic; the invariants that matter at
server scale (lock discipline across ``SessionStore``/``JobQueue``)
are *inter*procedural.  This module builds one :class:`CallGraph` per
lint run — every function, method and nested ``def`` of every linted
file, plus resolved call edges — which ``LCK002`` traverses and runs
its lockset fixpoint over (:mod:`repro.lint.dataflow`).

A nested ``def`` belongs to the class of the method it is written in
and is keyed under it (``module::Class.method.<name>``): the closure a
method hands to a worker pool captures that method's ``self``, so it is
checked against that class's locks.

Resolution is deliberately cheap and explicit about its tiers:

* ``direct``       — ``helper(...)`` to a function of the same module,
                     or a ``def`` nested in the caller or in a function
                     enclosing it (the nested-worker idiom);
* ``import``       — ``mod.helper(...)`` / ``from mod import helper``
                     across modules, through the per-file alias map;
* ``self``         — ``self.m(...)`` / ``cls.m(...)`` to a method of
                     the enclosing class, following single-inheritance
                     bases that are themselves project classes;
* ``typed``        — ``self.store.get(...)`` where ``self.store`` (or a
                     local) has an inferred project class, via
                     constructor-call type seeding propagated one level
                     through ``__init__`` parameters;
* ``unique``       — ``x.m(...)`` where exactly one project class
                     defines method ``m`` (the classic cheap CHA cut);
* ``submit``       — the callable handed to an executor
                     (``pool.submit(self._work)``, ``_map(fn)``,
                     ``Thread(target=fn)``, ``add_done_callback(fn)``);
                     submit targets are the *entry points* of the
                     concurrency rules.  A submitted ``lambda`` has no
                     node of its own: the calls in its body are the
                     entries.

Every edge carries an argument-binding map so analyses can translate
facts (held locks) between caller and callee frames.
"""

import ast

from .core import annotate_parents, dotted_name, enclosing

SUBMIT_ATTRS = frozenset({"submit", "_map"})
POOLISH_FRAGMENTS = ("pool", "executor")
CALLBACK_ATTRS = frozenset({"add_done_callback"})
THREAD_CALLS = frozenset({"threading.Thread", "Thread"})

#: Methods the HTTP layer runs on per-request server threads; they are
#: executor entry points exactly like pool-submitted callables.
HANDLER_METHOD_PREFIX = "do_"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Marker type for attributes constructed from a non-project callable
#: (``self._sessions = OrderedDict()``): their methods are *known* not
#: to be project methods, which keeps the unique-name fallback from
#: inventing edges like ``self._sessions.get -> SomeClass.get``.
EXTERNAL = "<external>"


class FunctionInfo:
    """One function or method of the project, with its owner context."""

    def __init__(self, qualname, module, node, unit, class_name=None,
                 parent=None):
        self.qualname = qualname      #: ``module::Class.method`` key
        self.module = module          #: dotted module guess from path
        self.node = node              #: the FunctionDef node
        self.unit = unit              #: owning FileUnit
        self.class_name = class_name  #: enclosing class, or None
        self.parent = parent          #: enclosing FunctionInfo (nested def)
        self.calls = []               #: outgoing CallSite list
        self.is_entry = False         #: submitted to an executor?

    @property
    def params(self):
        args = self.node.args
        return [a.arg for a in (*args.posonlyargs, *args.args)]

    def __repr__(self):
        return f"<FunctionInfo {self.qualname}>"


class CallSite:
    """One resolved call edge, with the argument-binding map.

    ``bindings`` maps callee parameter names to caller-side *tokens*:
    ``"self"`` when the caller passes its own instance, a plain local
    name, or a dotted ``self.attr`` chain — enough for the dataflow
    layer to rename facts across the edge.
    """

    def __init__(self, caller, callee, node, kind, bindings=None):
        self.caller = caller
        self.callee = callee          #: callee qualname
        self.node = node              #: the ast.Call
        self.kind = kind
        self.bindings = bindings or {}

    def __repr__(self):
        return (
            f"<CallSite {self.caller.qualname} -> {self.callee} "
            f"[{self.kind}]>"
        )


def module_name(unit):
    """Dotted module guess from a unit's path (``src/repro/a/b.py`` →
    ``repro.a.b``); falls back to the stem for paths outside a package.
    """
    parts = unit.posix.rsplit(".", 1)[0].split("/")
    for anchor in ("repro",):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def self_assignments(fn):
    """``(attr, value node)`` of every ``self.<attr> = value`` in ``fn``."""
    for stmt in ast.walk(fn):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    yield target.attr, stmt.value


def bound_arguments(call, callee):
    """``(parameter, argument expression)`` pairs of ``call`` against
    ``callee``'s signature — positional, then keyword; the ``self``
    slot of a method is not an argument."""
    params = callee.params
    offset = 1 if callee.class_name is not None \
        and params and params[0] in ("self", "cls") else 0
    yield from zip(params[offset:], call.args)
    for keyword in call.keywords:
        if keyword.arg in params:
            yield keyword.arg, keyword.value


class CallGraph:
    """Functions, methods, call edges and executor entries of a project."""

    def __init__(self, units):
        self.functions = {}       #: qualname -> FunctionInfo
        self.classes = {}         #: class name -> [(unit, ClassDef)]
        self.methods_by_name = {} #: method name -> [qualname]
        self._module_funcs = {}   #: (module, name) -> qualname
        self._class_methods = {}  #: (module, Class) -> {name: qualname}
        self._class_bases = {}    #: (module, Class) -> [base names]
        self._attr_types = {}     #: (module, Class, attr) -> class name
        self._index(units)
        self._infer_attribute_types()
        for info in list(self.functions.values()):
            self._resolve_calls(info)
        self._mark_entries()

    # ------------------------------------------------------------------
    # Indexing

    def _index(self, units):
        for unit in units:
            annotate_parents(unit.tree)
            module = module_name(unit)
            by_node = {}
            # ``ast.walk`` is breadth-first, so an enclosing function is
            # always indexed before the defs nested in it.
            for node in ast.walk(unit.tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, []).append(
                        (unit, node)
                    )
                    bases = [
                        dotted_name(base) for base in node.bases
                    ]
                    self._class_bases[(module, node.name)] = [
                        b for b in bases if b
                    ]
                elif isinstance(node, _DEFS):
                    scope = enclosing(node, (ast.ClassDef, *_DEFS))
                    if isinstance(scope, ast.ClassDef):
                        qual = f"{module}::{scope.name}.{node.name}"
                        info = FunctionInfo(
                            qual, module, node, unit, scope.name
                        )
                        self._class_methods.setdefault(
                            (module, scope.name), {}
                        )[node.name] = qual
                        self.methods_by_name.setdefault(
                            node.name, []
                        ).append(qual)
                    elif scope is None:
                        qual = f"{module}::{node.name}"
                        info = FunctionInfo(qual, module, node, unit)
                        self._module_funcs[(module, node.name)] = qual
                    else:
                        # Nested def: keyed under, and owned by the
                        # class of, the function it is written in.
                        parent = by_node[scope]
                        info = FunctionInfo(
                            f"{parent.qualname}.<{node.name}>", module,
                            node, unit, parent.class_name, parent,
                        )
                    by_node[node] = info
                    self.functions[info.qualname] = info

    def lineage(self, module, class_name):
        """``(module, Class)`` keys of a class and then, depth-first in
        declaration order, of the project classes it inherits from."""
        seen = set()
        stack = [(module, class_name)]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            yield key
            bases = [
                (module_name(unit), base.split(".")[-1])
                for base in self._class_bases.get(key, ())
                for unit, _ in self.classes.get(base.split(".")[-1], ())
            ]
            stack.extend(reversed(bases))

    def _lookup_method(self, module, class_name, method):
        """Resolve ``method`` on ``class_name``, following project bases."""
        for key in self.lineage(module, class_name):
            qual = self._class_methods.get(key, {}).get(method)
            if qual:
                return qual
        return None

    # ------------------------------------------------------------------
    # Attribute/local type inference (constructor-call seeding)

    def _expr_class(self, expr, aliases):
        """The project class an expression constructs, or None."""
        if not isinstance(expr, ast.Call):
            return None
        name = dotted_name(expr.func)
        if name is None:
            return None
        resolved = aliases.get(name, name)
        tail = resolved.split(".")[-1]
        return tail if tail in self.classes else None

    def _infer_attribute_types(self):
        """``self.x = Cls(...)`` (or ``= param`` whose every
        construction-site argument is a known class) seeds attr types."""
        ctor_params = {}   # (module, Class, param) -> set of classes
        for info in self.functions.values():
            if info.class_name is None or info.node.name != "__init__":
                continue
            aliases = info.unit.aliases
            params = info.params
            for attr, value in self_assignments(info.node):
                key = (info.module, info.class_name, attr)
                cls = self._expr_class(value, aliases)
                if cls is not None:
                    self._attr_types[key] = cls
                elif isinstance(value, ast.Call):
                    self._attr_types.setdefault(key, EXTERNAL)
                elif isinstance(value, ast.Name) and value.id in params:
                    ctor_params.setdefault(
                        (info.module, info.class_name, value.id), attr
                    )
        if not ctor_params:
            return
        # One propagation level: find construction sites of each class
        # and, when the argument bound to a recorded __init__ param is
        # itself a recognizable construction, type the attribute.
        seeded = {}
        for info in self.functions.values():
            aliases = info.unit.aliases
            local_types = _local_constructions(info.node, self, aliases)
            for call in ast.walk(info.node):
                if not isinstance(call, ast.Call):
                    continue
                cls = self._expr_class(call, aliases)
                if cls is None:
                    continue
                init = self._find_init(cls)
                if init is None:
                    continue
                for param, arg in bound_arguments(call, init):
                    attr = ctor_params.get((init.module, cls, param))
                    if attr is None:
                        continue
                    arg_cls = self._expr_class(arg, aliases)
                    if arg_cls is None and isinstance(arg, ast.Name):
                        arg_cls = local_types.get(arg.id)
                    if arg_cls is None and isinstance(arg, ast.Attribute):
                        chain = dotted_name(arg)
                        if chain and chain.startswith("self.") \
                                and info.class_name:
                            arg_cls = self._attr_types.get(
                                (info.module, info.class_name,
                                 chain.split(".", 2)[1])
                            )
                    if arg_cls is not None:
                        seeded[(init.module, cls, attr)] = arg_cls
        for key, cls in seeded.items():
            self._attr_types.setdefault(key, cls)

    def _find_init(self, class_name):
        for unit, node in self.classes.get(class_name, ()):
            qual = self._class_methods.get(
                (module_name(unit), class_name), {}
            ).get("__init__")
            if qual:
                return self.functions[qual]
        return None

    def attribute_type(self, module, class_name, attr):
        """The inferred project class of ``self.<attr>``, or None."""
        return self._attr_types.get((module, class_name, attr))

    # ------------------------------------------------------------------
    # Call resolution

    def _resolve_calls(self, info):
        aliases = info.unit.aliases
        module = info.module
        local_types = _local_constructions(info.node, self, aliases)
        for call in ast.walk(info.node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            callee = None
            kind = None
            receiver = None
            if isinstance(func, ast.Name):
                resolved = aliases.get(func.id)
                if resolved and "." in resolved:
                    mod, _, name = resolved.rpartition(".")
                    callee = self._module_funcs.get((mod, name))
                    kind = "import"
                if callee is None:
                    callee = self._module_funcs.get((module, func.id))
                    kind = "direct"
                if callee is None:
                    callee = self._nested_callee(info, func.id)
                    kind = "direct"
            elif isinstance(func, ast.Attribute):
                receiver = dotted_name(func.value)
                if isinstance(func.value, ast.Name) \
                        and func.value.id in ("self", "cls") \
                        and info.class_name:
                    callee = self._lookup_method(
                        module, info.class_name, func.attr
                    )
                    kind = "self"
                if callee is None and receiver:
                    root = receiver.split(".")[0]
                    resolved_root = aliases.get(root)
                    if resolved_root and "." not in receiver:
                        # ``mod.helper(...)`` via ``import mod``
                        callee = self._module_funcs.get(
                            (resolved_root, func.attr)
                        )
                        kind = "import"
                if callee is None:
                    callee, kind = self._typed_or_unique(
                        info, func, receiver, local_types
                    )
            if callee is None:
                continue
            target = self.functions[callee]
            bindings = self._receiver_binding(target, func)
            for param, arg in bound_arguments(call, target):
                token = dotted_name(arg)
                if token:
                    bindings[param] = token
            info.calls.append(CallSite(info, callee, call, kind, bindings))

    def _nested_callee(self, info, name):
        """A ``def name`` nested in ``info`` or in a function around it."""
        while info is not None:
            qual = f"{info.qualname}.<{name}>"
            if qual in self.functions:
                return qual
            info = info.parent
        return None

    def _typed_or_unique(self, info, func, receiver, local_types):
        """Tier 4/5: typed receiver, then unique method name."""
        target_class = None
        if receiver:
            parts = receiver.split(".")
            if parts[0] in ("self", "cls") and len(parts) == 2 \
                    and info.class_name:
                target_class = self.attribute_type(
                    info.module, info.class_name, parts[1]
                )
            elif len(parts) == 1:
                target_class = local_types.get(parts[0])
        if target_class == EXTERNAL:
            return None, None
        if target_class is not None:
            for unit, node in self.classes.get(target_class, ()):
                callee = self._lookup_method(
                    module_name(unit), target_class, func.attr
                )
                if callee:
                    return callee, "typed"
        candidates = self.methods_by_name.get(func.attr, ())
        if len(candidates) == 1:
            return candidates[0], "unique"
        return None, None

    def _receiver_binding(self, callee, func):
        """What ``callee``'s ``self`` is in the caller's frame, as a
        one-entry binding map: the receiver of a bound method
        (``func`` is the ``recv.method`` expression called or handed
        over), or — for a closure — the ``self`` it captured."""
        if callee.parent is not None:
            return {"self": "self"} if callee.class_name else {}
        params = callee.params
        if callee.class_name is not None and params \
                and params[0] in ("self", "cls") \
                and isinstance(func, ast.Attribute):
            receiver = dotted_name(func.value)
            if receiver:
                return {params[0]: receiver}
        return {}

    # ------------------------------------------------------------------
    # Executor entries

    def _mark_entries(self):
        for info in list(self.functions.values()):
            if info.class_name and \
                    info.node.name.startswith(HANDLER_METHOD_PREFIX):
                info.is_entry = True
            submits = []
            for call in ast.walk(info.node):
                if not isinstance(call, ast.Call):
                    continue
                arg = self._submitted_callable(info, call)
                if isinstance(arg, ast.Lambda):
                    # The body runs on the worker with the submitter's
                    # locals in scope: every call in it is an entry,
                    # bound exactly as the submitter resolved it.
                    body = {id(node) for node in ast.walk(arg)}
                    submits += [
                        (call, site.callee, site.bindings)
                        for site in info.calls if id(site.node) in body
                    ]
                elif arg is not None:
                    target = self._callable_qual(info, arg)
                    if target is not None:
                        bindings = self._receiver_binding(
                            self.functions[target], arg
                        )
                        submits.append((call, target, bindings))
            for call, target, bindings in submits:
                self.functions[target].is_entry = True
                info.calls.append(
                    CallSite(info, target, call, "submit", bindings)
                )

    def _submitted_callable(self, info, call):
        """The expression ``call`` hands to an executor, if it does."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            name = dotted_name(func)
            if name is not None and \
                    info.unit.aliases.get(name, name) in THREAD_CALLS:
                for keyword in call.keywords:
                    if keyword.arg == "target":
                        return keyword.value
            return None
        is_submit = func.attr in SUBMIT_ATTRS or \
            func.attr in CALLBACK_ATTRS
        if not is_submit and func.attr == "map":
            receiver = (dotted_name(func.value) or "").lower()
            is_submit = any(
                f in receiver for f in POOLISH_FRAGMENTS
            )
        return call.args[0] if is_submit and call.args else None

    def _callable_qual(self, info, arg):
        """The qualname of a named callable handed to an executor."""
        if isinstance(arg, ast.Attribute) \
                and isinstance(arg.value, ast.Name):
            if arg.value.id in ("self", "cls") and info.class_name:
                return self._lookup_method(
                    info.module, info.class_name, arg.attr
                )
            # Bound method on a typed local: ``job = Job()`` then
            # ``pool.submit(job.run)``.
            local_types = _local_constructions(
                info.node, self, info.unit.aliases
            )
            target_class = local_types.get(arg.value.id)
            if target_class and target_class != EXTERNAL:
                return self._lookup_method(
                    info.module, target_class, arg.attr
                )
        if isinstance(arg, ast.Name):
            qual = self._module_funcs.get((info.module, arg.id))
            if qual:
                return qual
            return self._nested_callee(info, arg.id)
        return None

    # ------------------------------------------------------------------
    # Queries

    def entries(self):
        """Every executor entry point (submitted or handler method)."""
        return [f for f in self.functions.values() if f.is_entry]

    def reachable_from_entries(self):
        """Qualnames reachable from any entry (entries included)."""
        seen = set()
        frontier = [f.qualname for f in self.entries()]
        while frontier:
            qual = frontier.pop()
            if qual in seen:
                continue
            seen.add(qual)
            info = self.functions.get(qual)
            if info is None:
                continue
            for site in info.calls:
                if site.callee not in seen:
                    frontier.append(site.callee)
        return seen


def _local_constructions(fn, graph, aliases):
    """Map of local name -> project class constructed into it."""
    types = {}
    for stmt in ast.walk(fn):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            cls = graph._expr_class(stmt.value, aliases)
            if cls is not None:
                types[stmt.targets[0].id] = cls
    return types
