"""A small dataflow framework: CFG approximation + lockset analysis.

The races rule needs more than a tree walk: "is some lock held on
*every* path reaching this write" is a path-sensitive question (a
must-analysis with intersection joins).  This module provides the
machinery:

* :func:`build_cfg` — a per-function control-flow graph approximation.
  Nodes are *operations*: plain statements, branch tests, and paired
  ``acquire``/``release`` pseudo-ops for ``with`` items.  ``if`` /
  ``while`` / ``for`` / ``try`` / ``break`` / ``continue`` / ``return``
  / ``raise`` produce the obvious edges; exception edges are
  approximated by making every handler reachable from the start of its
  ``try`` body (any statement may raise).
* :class:`LocksetAnalysis` — a worklist fixpoint over the CFG for the
  must-held-locks lattice: state is a frozenset of lock tokens, join is
  set intersection (a lock is held only if held on **all** reaching
  paths), ``with <lock>:`` acquires for exactly the body's extent.
  ``TOP`` marks not-yet-reached blocks so intersection does not drain
  facts from unvisited paths.

Loops converge because the lattice is finite and the transfer is
monotone; the worklist re-queues a block only when its entry state
changes.
"""

import ast

#: Lattice top for must-analyses: "every fact holds" (unreached code).
TOP = None


class Operation:
    """One CFG operation: a statement, test, or lock pseudo-op."""

    __slots__ = ("kind", "node", "payload")

    def __init__(self, kind, node, payload=None):
        self.kind = kind        #: "stmt" | "test" | "acquire" | "release"
        self.node = node
        self.payload = payload  #: lock tokens for acquire/release

    def __repr__(self):
        return f"<Op {self.kind} L{getattr(self.node, 'lineno', '?')}>"


class Block:
    """A basic block: straight-line operations plus successor edges."""

    __slots__ = ("ops", "succs", "index")

    def __init__(self, index):
        self.index = index
        self.ops = []
        self.succs = []

    def link(self, other):
        if other is not None and other not in self.succs:
            self.succs.append(other)


class CFG:
    """The control-flow graph of one function body."""

    def __init__(self):
        self.blocks = []
        self.entry = self.new_block()
        self.exit = self.new_block()

    def new_block(self):
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def predecessors(self):
        preds = {block: [] for block in self.blocks}
        for block in self.blocks:
            for succ in block.succs:
                preds[succ].append(block)
        return preds


class _Builder:
    """Recursive CFG construction with loop/exception context."""

    def __init__(self, cfg, lock_token):
        self.cfg = cfg
        self.lock_token = lock_token

    def build(self, stmts, current, loop=None, handlers=()):
        """Append ``stmts`` after ``current``; returns the fall-through
        block (or None when every path left the straight line)."""
        for stmt in stmts:
            if current is None:
                # Dead code after return/raise/break: still give it a
                # block so its operations exist (unreached = TOP).
                current = self.cfg.new_block()
            for handler_block in handlers:
                current.link(handler_block)
            current = self._statement(stmt, current, loop, handlers)
        return current

    def _statement(self, stmt, current, loop, handlers):
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            current.ops.append(Operation("test", stmt.test))
            join = cfg.new_block()
            then_entry = cfg.new_block()
            current.link(then_entry)
            then_exit = self.build(stmt.body, then_entry, loop, handlers)
            if then_exit is not None:
                then_exit.link(join)
            if stmt.orelse:
                else_entry = cfg.new_block()
                current.link(else_entry)
                else_exit = self.build(
                    stmt.orelse, else_entry, loop, handlers
                )
                if else_exit is not None:
                    else_exit.link(join)
            else:
                current.link(join)
            return join
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = cfg.new_block()
            current.link(header)
            test = stmt.test if isinstance(stmt, ast.While) \
                else stmt.iter
            header.ops.append(Operation("test", test))
            after = cfg.new_block()
            body_entry = cfg.new_block()
            header.link(body_entry)
            header.link(after)
            body_exit = self.build(
                stmt.body, body_entry, (header, after), handlers
            )
            if body_exit is not None:
                body_exit.link(header)
            if stmt.orelse:
                else_exit = self.build(stmt.orelse, after, loop, handlers)
                return else_exit
            return after
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            tokens = []
            for item in stmt.items:
                token = self.lock_token(item.context_expr)
                if token is not None:
                    tokens.append(token)
            current.ops.append(Operation("acquire", stmt, tuple(tokens)))
            body_exit = self.build(stmt.body, current, loop, handlers)
            if body_exit is None:
                return None
            body_exit.ops.append(
                Operation("release", stmt, tuple(tokens))
            )
            return body_exit
        if isinstance(stmt, ast.Try):
            handler_blocks = [cfg.new_block() for _ in stmt.handlers]
            body_entry = cfg.new_block()
            current.link(body_entry)
            for handler_block in handler_blocks:
                body_entry.link(handler_block)
            body_exit = self.build(
                stmt.body, body_entry, loop,
                tuple(handlers) + tuple(handler_blocks),
            )
            join = cfg.new_block()
            if body_exit is not None:
                else_exit = self.build(stmt.orelse, body_exit, loop,
                                       handlers)
                if else_exit is not None:
                    else_exit.link(join)
            for handler, handler_block in zip(
                    stmt.handlers, handler_blocks):
                handler_exit = self.build(
                    handler.body, handler_block, loop, handlers
                )
                if handler_exit is not None:
                    handler_exit.link(join)
            if stmt.finalbody:
                final_exit = self.build(stmt.finalbody, join, loop,
                                        handlers)
                return final_exit
            return join
        if isinstance(stmt, (ast.Return, ast.Raise)):
            current.ops.append(Operation("stmt", stmt))
            current.link(cfg.exit)
            return None
        if isinstance(stmt, ast.Break):
            if loop is not None:
                current.link(loop[1])
            return None
        if isinstance(stmt, ast.Continue):
            if loop is not None:
                current.link(loop[0])
            return None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # Nested definitions are separate CFGs; defining one is a
            # no-op for the enclosing flow.
            return current
        current.ops.append(Operation("stmt", stmt))
        return current


def build_cfg(fn, lock_token=lambda expr: None):
    """The CFG of a FunctionDef/AsyncFunctionDef body.

    Args:
        fn: the function node.
        lock_token: maps a ``with``-item context expression to a lock
            token (or ``None`` for non-lock contexts); tokens surface
            as ``acquire``/``release`` operation payloads.
    """
    cfg = CFG()
    builder = _Builder(cfg, lock_token)
    tail = builder.build(list(fn.body), cfg.entry)
    if tail is not None:
        tail.link(cfg.exit)
    return cfg


class LocksetAnalysis:
    """Must-held locks at every operation (intersection over paths).

    A worklist forward fixpoint over a :class:`CFG`.  State is a
    frozenset of lock tokens; ``entry_locks`` is the set guaranteed held
    by *every* caller path into the function — the interprocedural
    credit computed by the races rule's fixpoint.  :meth:`run` fills
    :attr:`before` — the state immediately *before* each operation —
    which is what the rule queries ("held locks at this write").
    """

    def __init__(self, entry_locks=frozenset()):
        self.before = {}
        self.entry_locks = frozenset(entry_locks)

    def join(self, states):
        states = [s for s in states if s is not TOP]
        if not states:
            return TOP
        merged = states[0]
        for state in states[1:]:
            merged = merged & state
        return merged

    def transfer(self, op, state):
        if op.kind == "acquire" and op.payload:
            return state | frozenset(op.payload)
        if op.kind == "release" and op.payload:
            return state - frozenset(op.payload)
        return state

    def run(self, cfg):
        preds = cfg.predecessors()
        entry_state = {block: TOP for block in cfg.blocks}
        entry_state[cfg.entry] = self.entry_locks
        worklist = [cfg.entry]
        exit_state = {}
        while worklist:
            block = worklist.pop()
            state = entry_state[block]
            if state is TOP:
                continue
            for op in block.ops:
                self.before[op] = state
                state = self.transfer(op, state)
            exit_state[block] = state
            for succ in block.succs:
                incoming = [
                    exit_state[p] for p in preds[succ]
                    if p in exit_state
                ]
                merged = self.join(incoming) if incoming else TOP
                if merged != entry_state[succ]:
                    entry_state[succ] = merged
                    worklist.append(succ)
        return self.before

    def locks_at(self, op):
        """Held lockset before ``op`` (empty for unreached code)."""
        state = self.before.get(op, TOP)
        return frozenset() if state is TOP else state
