"""The dataflow framework (repro.lint.dataflow): CFG approximation
shapes (branch/loop/with/try) and the must-lockset analysis —
intersection join, TOP for unreached code, acquire/release transfer,
and its worklist fixpoint."""

import ast

from repro.lint.dataflow import TOP, LocksetAnalysis, build_cfg


def fn(source):
    tree = ast.parse(source)
    node = tree.body[0]
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    return node


def lock_token(expr):
    """Token scheme for tests: ``self.X`` -> ``X``, bare name -> name."""
    if isinstance(expr, ast.Attribute) and \
            isinstance(expr.value, ast.Name) and expr.value.id == "self":
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def locks_by_line(source, entry_locks=frozenset()):
    """{line: entry lockset} for every stmt/test operation."""
    node = fn(source)
    cfg = build_cfg(node, lock_token=lock_token)
    analysis = LocksetAnalysis(entry_locks=entry_locks)
    analysis.run(cfg)
    held = {}
    for op, state in analysis.before.items():
        if op.kind in ("stmt", "test"):
            held[op.node.lineno] = state
    return held


# ----------------------------------------------------------------------
# CFG shapes.


def test_straight_line_is_one_block():
    cfg = build_cfg(fn("def f(self):\n    a = 1\n    b = 2\n"))
    stmt_ops = [op for block in cfg.blocks for op in block.ops
                if op.kind == "stmt"]
    assert len(stmt_ops) == 2


def test_with_produces_paired_acquire_release():
    cfg = build_cfg(fn(
        "def f(self):\n"
        "    with self.lock:\n"
        "        a = 1\n"
    ), lock_token=lock_token)
    kinds = [op.kind for block in cfg.blocks for op in block.ops]
    assert kinds.count("acquire") == 1
    assert kinds.count("release") == 1
    acquires = [op for block in cfg.blocks for op in block.ops
                if op.kind == "acquire"]
    assert acquires[0].payload == ("lock",)


def test_branch_joins_at_the_merge_point():
    cfg = build_cfg(fn(
        "def f(self, flag):\n"
        "    if flag:\n"
        "        a = 1\n"
        "    else:\n"
        "        b = 2\n"
        "    c = 3\n"
    ))
    # The join block (holding ``c = 3``) has two predecessors.
    joins = [block for block in cfg.blocks
             if any(op.kind == "stmt" and
                    isinstance(op.node, ast.Assign) and
                    op.node.targets[0].id == "c"
                    for op in block.ops)]
    assert len(joins) == 1
    assert len(cfg.predecessors()[joins[0]]) == 2


def test_loop_has_a_back_edge():
    cfg = build_cfg(fn(
        "def f(self, items):\n"
        "    for item in items:\n"
        "        a = item\n"
        "    b = 1\n"
    ))
    headers = [block for block in cfg.blocks
               if any(op.kind == "test" for op in block.ops)]
    assert len(headers) == 1
    # Entry edge plus the back edge from the loop body.
    assert len(cfg.predecessors()[headers[0]]) == 2


# ----------------------------------------------------------------------
# Lockset lattice: transfer and join.


def test_lock_held_inside_with_released_after():
    held = locks_by_line(
        "def f(self):\n"
        "    before = 1\n"
        "    with self.lock:\n"
        "        inside = 2\n"
        "    after = 3\n"
    )
    assert held[2] == frozenset()
    assert held[4] == frozenset({"lock"})
    assert held[5] == frozenset()


def test_nested_locks_accumulate():
    held = locks_by_line(
        "def f(self):\n"
        "    with self.outer:\n"
        "        with self.inner:\n"
        "            x = 1\n"
        "        y = 2\n"
    )
    assert held[4] == frozenset({"outer", "inner"})
    assert held[5] == frozenset({"outer"})


def test_join_is_intersection_over_paths():
    # The lock is held on only one of the two paths into the final
    # statement, so the must-lockset there is empty.
    held = locks_by_line(
        "def f(self, flag):\n"
        "    if flag:\n"
        "        with self.lock:\n"
        "            self.count = 1\n"
        "    x = 2\n"
    )
    assert held[4] == frozenset({"lock"})
    assert held[5] == frozenset()


def test_both_branches_locked_keeps_the_lock():
    held = locks_by_line(
        "def f(self, flag):\n"
        "    with self.lock:\n"
        "        if flag:\n"
        "            a = 1\n"
        "        else:\n"
        "            b = 2\n"
        "        c = 3\n"
    )
    assert held[4] == frozenset({"lock"})
    assert held[6] == frozenset({"lock"})
    assert held[7] == frozenset({"lock"})


def test_entry_locks_seed_the_analysis():
    held = locks_by_line(
        "def f(self):\n"
        "    x = 1\n",
        entry_locks=frozenset({"caller_lock"}),
    )
    assert held[2] == frozenset({"caller_lock"})


def test_loop_body_reruns_do_not_widen():
    # A lock acquired inside the loop body must not leak into the
    # header's fixpoint: re-entering the header joins the unlocked
    # entry path with the released loop exit.
    held = locks_by_line(
        "def f(self, items):\n"
        "    for item in items:\n"
        "        with self.lock:\n"
        "            self.total = item\n"
        "    tail = 1\n"
    )
    assert held[4] == frozenset({"lock"})
    assert held[5] == frozenset()


def test_try_handler_joins_with_try_entry():
    # The handler is reachable from the start of the try body, before
    # the acquire, so it must not claim the lock.
    held = locks_by_line(
        "def f(self):\n"
        "    try:\n"
        "        with self.lock:\n"
        "            a = 1\n"
        "    except ValueError:\n"
        "        b = 2\n"
    )
    assert held[4] == frozenset({"lock"})
    assert held[6] == frozenset()


def test_unreached_code_stays_at_top():
    node = fn(
        "def f(self):\n"
        "    return 1\n"
        "    x = 2\n"
    )
    cfg = build_cfg(node, lock_token=lock_token)
    analysis = LocksetAnalysis(entry_locks=frozenset({"lock"}))
    analysis.run(cfg)
    dead_ops = [op for block in cfg.blocks for op in block.ops
                if op.kind == "stmt" and op.node.lineno == 3]
    assert len(dead_ops) == 1
    # Never analyzed: the entry state stays TOP, and locks_at reports
    # the empty set rather than inventing held locks for dead code.
    assert analysis.before.get(dead_ops[0], TOP) is TOP
    assert analysis.locks_at(dead_ops[0]) == frozenset()

