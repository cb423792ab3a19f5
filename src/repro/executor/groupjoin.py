"""Aggregates that count a join's matches instead of its rows.

A ``COUNT`` over a join on one key pair needs, per row of the side
that holds the group keys (side A), only how many rows of the other
side (B) it matches — Moerkotte and Neumann's *groupjoin*, done here at
execution time, so plans, EXPLAIN and every what-if cost stay as they
are.  Three rules are exact:

* ``COUNT(*)`` of a group is the sum of its A rows' match counts: the
  expanded join repeats each A row once per match.
* ``COUNT(DISTINCT x)`` with x on A is taken over A's *matched* rows:
  an A row without matches contributes no joined row, and a matched
  one contributes its own x whatever it matched.
* ``COUNT(DISTINCT y)`` with y on B, when A's join key is a group key,
  is the number of distinct y among B's rows with the group's key:
  every joined row of the group pairs one of those B rows with an A
  row, and each of them pairs with all of them.

:func:`count_shape` decides from the plan alone whether an aggregate
counts or expands; :meth:`Executor._aggregate_matches
<repro.executor.engine.Executor._aggregate_matches>` carries it out.
"""

from dataclasses import dataclass

import numpy as np

from ..optimizer.plans import HashJoin, IndexNLJoin, ViewScan, walk
from ..storage.encoding import code_dtype, locate


@dataclass(frozen=True)
class CountShape:
    """A ``HashAggregate`` that counts its join's matches: the group
    side (``"left"``/``"right"`` of a hash join, or an index join's
    ``"outer"``), its join key, the other side's, and one rule per
    aggregate — ``"rows"`` (``COUNT(*)``), ``"a"`` (``COUNT(DISTINCT)``
    of a group-side column) or ``"b"`` (of an other-side column)."""

    side: str
    a_key: str
    b_key: str
    rules: tuple


def count_shape(node):
    """How the ``HashAggregate`` ``node`` counts its join's matches,
    as a :class:`CountShape`, or ``None`` where it expands the join.

    The child must be a join on one key pair: a ``HashJoin``, or an
    ``IndexNLJoin`` that checks nothing beyond its key, over no view (a
    view row stands for several rows).  Every group key must come from
    one side A — never an index join's inner side — and every
    aggregate must be ``COUNT(*)`` or ``COUNT(DISTINCT)``; a distinct
    argument on the other side needs A's join key among the group keys.
    """
    join = node.child
    if isinstance(join, HashJoin) and len(join.left_keys) == 1:
        sides = (
            ("left", join.left, join.left_keys[0], join.right_keys[0]),
            ("right", join.right, join.right_keys[0], join.left_keys[0]),
        )
    elif isinstance(join, IndexNLJoin) and not (
        join.residual_filters or join.semi_filters or join.extra_preds
    ):
        sides = ((
            "outer", join.outer, join.outer_key,
            f"{join.alias}.{join.inner_column}",
        ),)
    else:
        return None
    if any(isinstance(n, ViewScan) for n in walk(join)):
        return None
    for side, child, a_key, b_key in sides:
        on_a = {getattr(n, "alias", None) for n in walk(child)}
        if any(_alias(key) not in on_a for key in node.group_keys):
            continue
        rules = []
        for agg in node.aggregates:
            if agg.func != "count":
                return None
            if not agg.distinct:
                rules.append("rows")
            elif _alias(str(agg.arg)) in on_a:
                rules.append("a")
            elif a_key in node.group_keys:
                rules.append("b")
            else:
                break
        else:
            return CountShape(side, a_key, b_key, tuple(rules))
    return None


def _alias(key):
    return key.split(".", 1)[0]


def take_or_zero(table, slots):
    """``table[slots]`` as int64, and 0 where a slot is -1 (no entry)."""
    values = np.zeros(len(slots), dtype=np.int64)
    hit = slots >= 0
    values[hit] = table[slots[hit]]
    return values


def slot_map(own, dictionary):
    """Per entry of the dictionary ``own``, its slot in ``dictionary``,
    or -1 where the value is not there, in ``dictionary``'s code dtype
    (its entries are that dictionary's codes): a slot table, which
    :meth:`Executor._slots <repro.executor.engine.Executor._slots>`
    caches per pair of ``values`` arrays."""
    slots, found = locate(own, dictionary)
    return np.where(found, slots, -1).astype(
        code_dtype(dictionary.n_distinct)
    )
