"""TNT001 — determinism taint: nondeterminism must not reach artifacts.

The reproduction's contract is that every derived artifact — plan
costs, fingerprints, cache keys, report fields — is a pure function of
(inputs, seed, configuration).  ``CLK001``/``RNG001`` ban the *sources*
syntactically in most of the tree, but a value produced legitimately
(a wall-clock duration inside ``repro.obs``) can still leak into an
artifact several calls later.  This rule tracks that flow.

Two taint kinds ride the may-analysis lattice
(:mod:`repro.lint.dataflow`, union joins):

* ``value`` — the value itself differs between runs: every source in
  :mod:`repro.lint.core`'s table (wall clocks, environment reads, the
  ambient-entropy modules) plus the ``repro.obs`` clock API
  (``wall_time``/``perf_seconds``) and ``id(...)``;
* ``order`` — the value's *iteration order* is unstable: ``set`` /
  ``frozenset`` construction, ``os.listdir``.  ``sorted(...)``
  sanitizes order taint (and only order taint).

Sinks are where determinism is load-bearing: arguments of
``*fingerprint*`` / ``*_key`` callees, the key argument of cache
``put/get/get_or_build`` calls, ``*cost*`` callees, and subscript
stores into ``report``-named dicts.

Propagation is interprocedural: each function gets a summary —
endogenous taint of its return value, parameters that flow to its
return, parameters that reach a sink inside it — and summaries are
iterated to a fixpoint over the call graph, so a clock read three
helpers away from ``artifact_key`` is still caught.

``repro/obs/`` and ``repro/common/`` are exempt (they *are* the
sanctioned homes of clocks and env plumbing — the rule polices their
outputs' use elsewhere, not their bodies).
"""

import ast

from ..callgraph import bound_arguments
from ..core import (
    ENTROPY_MODULES,
    ENV_READS,
    WALL_CLOCKS,
    Rule,
    chain_name,
    dotted_name,
    in_module,
    resolve_dotted,
)
from ..dataflow import ForwardAnalysis, build_cfg

VALUE = "value"
ORDER = "order"

#: Bare names that are clock reads wherever they appear — the
#: ``repro.obs`` clock API is imported relatively, so the alias map
#: cannot resolve it; the names are distinctive enough to match as-is.
CLOCK_NAMES = frozenset({"wall_time", "perf_seconds"})

#: Calls whose result has unstable iteration order.
ORDER_SOURCES = frozenset({"set", "frozenset", "os.listdir"})

SANITIZERS = frozenset({"sorted"})

CACHE_METHODS = frozenset({"put", "get", "get_or_build"})
CACHE_RECEIVER_FRAGMENTS = ("cache", "artifact")

EXEMPT_FRAGMENTS = ("repro/obs/", "repro/common/")

MAX_SUMMARY_PASSES = 6

#: Expressions whose taint is the union of their operands' taint.
_COMPOSITES = (
    ast.BinOp, ast.BoolOp, ast.UnaryOp, ast.Tuple, ast.List, ast.Set,
    ast.Dict, ast.JoinedStr, ast.FormattedValue, ast.Starred,
)


def _taint_union(*sets):
    out = frozenset()
    for s in sets:
        out |= s
    return out


class _Summary:
    """What a function does with taint, as seen from a call site."""

    __slots__ = ("returns", "param_to_return", "param_to_sink")

    def __init__(self):
        self.returns = frozenset()   #: endogenous taint of the return
        self.param_to_return = frozenset()  #: params flowing to return
        self.param_to_sink = {}      #: param -> sink description

    def snapshot(self):
        return (self.returns, self.param_to_return,
                tuple(sorted(self.param_to_sink)))


class TaintAnalysis(ForwardAnalysis):
    """Per-function may-taint: ``{token: {kinds}}`` with union joins.

    Tokens are local names and ``self.<attr>`` chains.  Parameter
    taint is seeded by ``entry`` (used when re-analyzing a function
    under the assumption that a parameter is tainted).
    """

    def __init__(self, rule, info, entry=None):
        super().__init__()
        self.rule = rule
        self.info = info
        self.entry = dict(entry or {})

    def initial(self):
        return dict(self.entry)

    def join(self, states):
        states = [s for s in states if s is not None]
        if not states:
            return None
        merged = {}
        for state in states:
            for token, kinds in state.items():
                merged[token] = merged.get(token, frozenset()) | kinds
        return merged

    def transfer(self, op, state):
        if op.kind != "stmt":
            return state
        node = op.node
        if isinstance(node, ast.Assign):
            kinds = self.rule.expr_taint(node.value, state, self.info)
            if node.targets:
                state = dict(state)
                for target in node.targets:
                    self._store(state, target, kinds)
            return state
        if isinstance(node, ast.AugAssign):
            kinds = self.rule.expr_taint(node.value, state, self.info)
            token = chain_name(node.target)
            if token is not None:
                state = dict(state)
                state[token] = state.get(token, frozenset()) | kinds
            return state
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            kinds = self.rule.expr_taint(node.value, state, self.info)
            state = dict(state)
            self._store(state, node.target, kinds)
            return state
        if isinstance(node, (ast.For, ast.AsyncFor)):
            kinds = self.rule.expr_taint(node.iter, state, self.info)
            state = dict(state)
            self._store(state, node.target, kinds)
            return state
        return state

    def _store(self, state, target, kinds):
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                self._store(state, element, kinds)
            return
        token = chain_name(target)
        if token is None:
            return
        if kinds:
            state[token] = kinds
        else:
            state.pop(token, None)


class TaintRule(Rule):
    name = "TNT001"
    scope = "project"

    def check_project(self, project):
        graph = project.call_graph
        self._graph = graph
        self._summaries = {
            qual: _Summary() for qual in graph.functions
        }
        self._compute_summaries(graph)
        for qual in sorted(graph.functions):
            info = graph.functions[qual]
            if not self._exempt(info.unit):
                yield from self._check_function(info)

    def _exempt(self, unit):
        return any(f in unit.posix for f in EXEMPT_FRAGMENTS)

    # ------------------------------------------------------------------
    # Expression taint

    def _call_name(self, call, info):
        name = dotted_name(call.func)
        return name and resolve_dotted(name, info.unit.aliases)

    def expr_taint(self, expr, state, info):
        """The may-taint kinds of one expression under ``state``."""
        if expr is None or isinstance(expr, ast.Constant):
            return frozenset()
        if isinstance(expr, ast.Name):
            return state.get(expr.id, frozenset())
        if isinstance(expr, (ast.Attribute, ast.Subscript)):
            token = chain_name(expr)
            kinds = state.get(token, frozenset()) if token else frozenset()
            # A tainted object taints its attributes.
            root = token.split(".")[0] if token else None
            if root and root != token:
                kinds |= state.get(root, frozenset())
            if isinstance(expr, ast.Subscript):
                kinds |= self.expr_taint(expr.slice, state, info)
            return kinds
        if isinstance(expr, ast.Call):
            return self._call_taint(expr, state, info)
        if isinstance(expr, ast.IfExp):
            parts = [expr.body, expr.orelse]    # the test only selects
        elif isinstance(expr, (ast.ListComp, ast.SetComp,
                               ast.GeneratorExp, ast.DictComp)):
            parts = [gen.iter for gen in expr.generators]
        elif isinstance(expr, _COMPOSITES):
            parts = [
                child for child in ast.iter_child_nodes(expr)
                if isinstance(child, ast.expr)
            ]
        else:
            # Notably ``Compare``: booleans of tainted data stay clean.
            return frozenset()
        kinds = _taint_union(*[
            self.expr_taint(part, state, info) for part in parts
        ])
        if isinstance(expr, (ast.Set, ast.SetComp)):
            kinds |= frozenset({ORDER})
        return kinds

    def _call_taint(self, call, state, info):
        name = self._call_name(call, info)
        arg_taints = [
            self.expr_taint(a, state, info) for a in call.args
        ] + [
            self.expr_taint(k.value, state, info) for k in call.keywords
        ]
        if name in SANITIZERS:
            return _taint_union(*arg_taints) - frozenset({ORDER})
        if name is not None:
            if name in WALL_CLOCKS or name in ENV_READS or name == "id" \
                    or in_module(name, ENTROPY_MODULES) \
                    or name.split(".")[-1] in CLOCK_NAMES:
                return frozenset({VALUE})
            if name in ORDER_SOURCES:
                return frozenset({ORDER}) | _taint_union(*arg_taints)
        # Resolved project callee: apply its summary.
        callee = self._resolved_callee(call, info)
        if callee is not None:
            summary = self._summaries.get(callee.qualname)
            if summary is not None:
                kinds = summary.returns
                for param, taint in self._bound_args(
                        call, callee, state, info):
                    if param in summary.param_to_return:
                        kinds |= taint
                return kinds
        # Unresolved call: assume taint flows through.
        return _taint_union(*arg_taints)

    def _resolved_callee(self, call, info):
        for site in info.calls:
            if site.node is call and site.kind != "submit":
                return self._graph.functions.get(site.callee)
        return None

    def _bound_args(self, call, callee, state, info):
        for param, arg in bound_arguments(call, callee):
            yield param, self.expr_taint(arg, state, info)

    # ------------------------------------------------------------------
    # Sinks

    def _sink_of(self, call, info):
        """``(description, key-args)`` when ``call`` is a sink."""
        name = self._call_name(call, info)
        if name is None:
            return None
        tail = name.split(".")[-1]
        if "fingerprint" in tail or tail.endswith("_key"):
            return (f"{tail}()", list(call.args)
                    + [k.value for k in call.keywords])
        if tail in CACHE_METHODS and isinstance(call.func, ast.Attribute):
            receiver = (dotted_name(call.func.value) or "").lower()
            if any(f in receiver for f in CACHE_RECEIVER_FRAGMENTS):
                # Key arguments only: ``put``/``get_or_build`` take
                # ``(kind, key, ...)``; dict-style ``get`` takes
                # ``(key, default)`` and the default — often an
                # ``object()`` sentinel — is not part of the key.
                count = 2 if tail in ("put", "get_or_build") else 1
                return (f"{receiver}.{tail}() key",
                        list(call.args[:count]))
        if "cost" in tail and tail not in ("cost_report",):
            return (f"{tail}()", list(call.args)
                    + [k.value for k in call.keywords])
        return None

    def _report_store(self, stmt):
        """A ``report[...] = value`` style subscript store, if any."""
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return None
        target = stmt.targets[0]
        if not isinstance(target, ast.Subscript):
            return None
        base = dotted_name(target.value) or ""
        if "report" in base.split(".")[-1].lower():
            return base
        return None

    # ------------------------------------------------------------------
    # Summaries and checking

    def _analyze(self, info, entry=None):
        analysis = TaintAnalysis(self, info, entry)
        cfg = build_cfg(info.node)
        analysis.run(cfg)
        return analysis

    def _compute_summaries(self, graph):
        for _ in range(MAX_SUMMARY_PASSES):
            changed = False
            for qual in sorted(graph.functions):
                info = graph.functions[qual]
                summary = self._summaries[qual]
                old = summary.snapshot()
                self._summarize(info, summary)
                if summary.snapshot() != old:
                    changed = True
            if not changed:
                break

    def _summarize(self, info, summary):
        # Endogenous pass: no parameter taint.
        analysis = self._analyze(info)
        returns = frozenset()
        for op, state in analysis.before.items():
            if op.kind != "stmt" or state is None:
                continue
            node = op.node
            if isinstance(node, ast.Return) and node.value is not None:
                returns |= self.expr_taint(node.value, state, info)
        summary.returns |= returns
        # Parameter passes: taint one param, see where it goes.
        params = [p for p in info.params if p not in ("self", "cls")]
        for param in params:
            if param in summary.param_to_return \
                    and param in summary.param_to_sink:
                continue
            seeded = self._analyze(
                info, entry={param: frozenset({VALUE, ORDER})}
            )
            for op, state in seeded.before.items():
                if op.kind != "stmt" or state is None:
                    continue
                node = op.node
                if isinstance(node, ast.Return) \
                        and node.value is not None:
                    extra = self.expr_taint(node.value, state, info) \
                        - summary.returns
                    if extra:
                        summary.param_to_return |= frozenset({param})
                for call in ast.walk(node):
                    if not isinstance(call, ast.Call):
                        continue
                    sink = self._sink_of(call, info)
                    if sink is None:
                        continue
                    for key in sink[1]:
                        if self.expr_taint(key, state, info):
                            summary.param_to_sink.setdefault(
                                param, sink[0]
                            )

    def _check_function(self, info):
        analysis = self._analyze(info)
        for op in sorted(
                analysis.before, key=lambda o: (
                    getattr(o.node, "lineno", 0),
                    getattr(o.node, "col_offset", 0))):
            state = analysis.before[op]
            if op.kind not in ("stmt", "test") or state is None:
                continue
            node = op.node
            if op.kind == "test":
                for call in ast.walk(node):
                    if isinstance(call, ast.Call):
                        yield from self._check_call(call, state, info)
                continue
            store = self._report_store(node)
            if store is not None:
                kinds = self.expr_taint(node.value, state, info)
                if kinds:
                    yield info.unit.finding(
                        self.name, node,
                        f"nondeterministic value "
                        f"({', '.join(sorted(kinds))} taint) stored "
                        f"into report field {store!r}; derive report "
                        f"fields from seeds and inputs only",
                    )
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                yield from self._check_call(call, state, info)

    def _check_call(self, call, state, info):
        sink = self._sink_of(call, info)
        if sink is not None:
            for key in sink[1]:
                kinds = self.expr_taint(key, state, info)
                if kinds:
                    yield info.unit.finding(
                        self.name, call,
                        f"nondeterministic value "
                        f"({', '.join(sorted(kinds))} taint) flows "
                        f"into {sink[0]}; artifacts must be pure "
                        f"functions of inputs, seed and configuration",
                    )
                    break
        callee = self._resolved_callee(call, info)
        if callee is None or self._exempt(callee.unit):
            return
        summary = self._summaries.get(callee.qualname)
        if summary is None or not summary.param_to_sink:
            return
        for param, taint in self._bound_args(call, callee, state, info):
            sink_name = summary.param_to_sink.get(param)
            if sink_name and taint:
                yield info.unit.finding(
                    self.name, call,
                    f"nondeterministic value "
                    f"({', '.join(sorted(taint))} taint) passed to "
                    f"{callee.node.name}({param}=...) reaches "
                    f"{sink_name} inside it; artifacts must be pure "
                    f"functions of inputs, seed and configuration",
                )
