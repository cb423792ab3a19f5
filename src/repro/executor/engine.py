"""Plan execution against the virtual clock.

The executor runs physical plans *for real* over the columnar tables —
all intermediate cardinalities are exact — while charging the shared cost
model (:mod:`repro.optimizer.cost_model`) with those actual counts.  The
accumulated charge is the query's **actual cost** ``A(q, C)`` in the
paper's terminology.  A query whose charge crosses the timeout raises
:class:`~repro.common.errors.QueryTimeout` *before* materializing the
offending intermediate, so runaway plans (the paper's ``t_out`` bin) are
cheap to detect.

Scans, probes, and joins additionally feed the ``engine.*`` counters of
the observability layer (rows scanned, pages read, index probes, join
output rows); with no recorder installed those calls are no-ops and the
virtual clock is untouched either way.

Execution is late-materializing: batches are selection-vector views
over the stored arrays (:mod:`repro.executor.batch`), scans attach only
the columns some operator consumes — all of them through
:meth:`Executor._scan_batch` — conjunctive filters run as one
fused kernel (:mod:`repro.executor.kernels`).  The clock charges by
logical row counts and full row widths, so none of that can move a
figure.

Joins, grouping, ``COUNT(DISTINCT)`` and semijoin filters work on
dictionary codes, and there is one way to a key's codes:
:meth:`Batch.key_codes <repro.executor.batch.Batch.key_codes>`, the
column's dictionary codes behind the batch's selection vector.  That
is total because the planner ends every plan in a ``Project`` or a
``HashAggregate`` and creates neither anywhere else: every key an
operator below the root reads is a scanned ``alias.column``
(``tests/test_plan_shape.py`` walks the plans of every query family to
keep it so).

A ``COUNT`` over a join on one key pair reads the join's per-row
match counts instead of its rows (:mod:`repro.executor.groupjoin`).
Each join type's charges live in its match step, whichever way its
matches are then consumed.
"""

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..common.errors import ExecutionError, QueryTimeout
from ..optimizer import cost_model as cm
from ..optimizer.plans import (
    HashAggregate,
    HashJoin,
    IndexNLJoin,
    IndexScan,
    Project,
    SemiIndexScan,
    SeqScan,
    ViewScan,
)
from ..views.matview import COUNT_COLUMN
from .batch import Batch, combine_codes, factorize, join_codes
from .groupjoin import count_shape, slot_map, take_or_zero
from ..common.cache import BoundedCache
from ..index.data import gather_ranges
from ..storage.encoding import DictionaryCache, stable_order
from .kernels import MAX_KERNELS, OPERATORS, fused_filter
from .subplan import SubplanCache

MAX_MATERIALIZED_ROWS = 8_000_000


class VirtualClock:
    """Accumulates virtual seconds; enforces the per-query timeout."""

    def __init__(self, timeout=None):
        self.elapsed = 0.0
        self.timeout = timeout

    def charge(self, seconds):
        self.elapsed += seconds
        if self.timeout is not None and self.elapsed > self.timeout:
            raise QueryTimeout(self.timeout, self.elapsed)


@dataclass
class ExecutionResult:
    """Outcome of running one plan."""

    batch: Batch
    elapsed: float
    plan: object


class Executor:
    """Executes plans over built tables, indexes, and views."""

    def __init__(self, tables, hardware, timeout=None, encodings=None,
                 subplans=None, kernels=None):
        self._tables = tables
        self._hw = hardware
        self._timeout = timeout
        # A database shares its three caches across its executors; a
        # bare executor owns private ones.
        # DictionaryCache: scans attach a lazy dictionary handle to
        # every column; an operator that needs a key's codes resolves
        # it (Batch.key_codes).
        self._encodings = encodings or DictionaryCache()
        # SubplanCache: semijoin value/count pairs, base filter masks
        # and join domains are reused across queries.
        self._subplans = subplans or SubplanCache(self._encodings)
        # Fused-kernel cache: conjunctive filter lists compile into one
        # cached callable reused across templated queries.  (An empty
        # BoundedCache is falsy, hence the explicit None test.)
        if kernels is None:
            kernels = BoundedCache("kernel_cache", MAX_KERNELS)
        self._kernels = kernels
        # Batch keys the running plan consumes.
        self._required = frozenset()

    def run(self, plan):
        """Execute a plan; returns an :class:`ExecutionResult`.

        Raises :class:`QueryTimeout` when the virtual clock exceeds the
        timeout (the charge so far is available on the exception).
        """
        self._required = _required_keys(plan)
        clock = VirtualClock(self._timeout)
        batch = self._exec(plan, clock)
        # Consumers (QueryResult.rows, figure code, tests) read
        # batch.columns as plain equal-length arrays.
        batch.materialize()
        return ExecutionResult(batch=batch, elapsed=clock.elapsed, plan=plan)

    # ------------------------------------------------------------------

    def _exec(self, node, clock):
        if isinstance(node, SeqScan):
            return self._seq_scan(node, clock)
        if isinstance(node, IndexScan):
            return self._index_scan(node, clock)
        if isinstance(node, SemiIndexScan):
            return self._semi_index_scan(node, clock)
        if isinstance(node, ViewScan):
            return self._view_scan(node, clock)
        if isinstance(node, HashJoin):
            return self._hash_join(node, clock)
        if isinstance(node, IndexNLJoin):
            return self._inl_join(node, clock)
        if isinstance(node, HashAggregate):
            return self._aggregate(node, clock)
        if isinstance(node, Project):
            child = self._exec(node.child, clock)
            clock.charge(cm.filter_rows(self._hw, child.rows))
            return Batch(
                columns={k: child.columns[k] for k in node.keys},
                widths={k: child.widths[k] for k in node.keys},
                weights=child.weights,
                encodings={
                    k: child.encodings[k]
                    for k in node.keys if k in child.encodings
                },
                sels={
                    k: child.sels[k]
                    for k in node.keys if k in child.sels
                },
                length=child.rows,
            )
        raise ExecutionError(f"no executor for node {type(node).__name__}")

    # ------------------------------------------------------------------
    # Scans

    def _table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise ExecutionError(f"table {name!r} is not loaded") from None

    def _scan_batch(self, table, columns, row_ids=None, weights=None):
        """The batch of a scan of ``table``: ``columns`` maps batch keys
        to column names, ``row_ids`` (an index probe's matches) selects
        rows, ``weights`` are a view's row multiplicities.

        The one place scanned columns are attached: each key the plan
        consumes gets the table's storage array, the ``row_ids``
        selection vector when there is one, and the column's lazy
        dictionary handle.  Column pruning only drops the *attachment*
        — ``widths`` always covers every plan column, so ``row_width``
        (and through it the cost charges) never depends on what was
        attached.
        """
        widths = {
            key: table.schema.column(name).width
            for key, name in columns.items()
        }
        attach = {
            key: name for key, name in columns.items()
            if key in self._required
        }
        if len(attach) < len(columns):
            obs.counter_add(
                "executor.columns_pruned", len(columns) - len(attach)
            )
        sels, rows = {}, table.row_count
        if row_ids is not None:
            sel = np.asarray(row_ids, dtype=np.int64)
            sels, rows = dict.fromkeys(attach, sel), len(sel)
            if attach:
                obs.counter_add("executor.gathers_deferred", len(attach))
                obs.counter_add(
                    "executor.gather_bytes_avoided",
                    rows * sum(widths[key] for key in attach),
                )
        return Batch(
            columns={
                key: table.column(name) for key, name in attach.items()
            },
            widths=widths,
            weights=weights,
            encodings={
                key: self._encodings.handle(table, name)
                for key, name in attach.items()
            },
            sels=sels,
            length=rows,
        )

    def _apply_filters(self, batch, filters, clock, table=None, alias=None):
        if not filters:
            return batch
        clock.charge(cm.filter_rows(self._hw, batch.rows, len(filters)))
        specs = self._identity_specs(batch, filters, table, alias)
        if specs is not None:
            keep = self._subplans.filter_mask(
                (table.name, tuple(specs)),
                tuple(batch.columns[flt.key] for flt in filters),
                lambda: self._filter_keep(batch, filters, table),
            )
        else:
            keep = self._filter_keep(batch, filters, table)
        return batch.mask(keep)

    def _filter_keep(self, batch, filters, table=None):
        """The conjunctive keep-mask of ``filters`` over ``batch``.

        The filter list compiles into one fused callable, cached by
        table and filter structure with the literals bound per call; a
        string column's codes are compared with its literal's code.
        """
        fused = fused_filter(
            self._kernels, table.name if table is not None else None,
            filters,
        )
        return fused(
            [batch.column(flt.key) for flt in filters],
            [batch.encodings[flt.key].literal(flt.op, flt.value)
             for flt in filters],
        )

    def _identity_specs(self, batch, filters, table, alias):
        """``(column, op, value)`` specs for an unfiltered base batch.

        The cross-query mask cache is only equivalent to the
        elementwise mask when the batch columns *are* the table's full
        storage arrays.  Identity is checked per filter key; a view
        column or computed column routes back to the elementwise path,
        and so does a key with a pending selection vector: the base
        array is still attached, but it no longer stands for the full
        table.
        """
        if table is None or not filters:
            return None
        prefix = f"{alias}."
        specs = []
        for flt in filters:
            if not flt.key.startswith(prefix):
                return None
            name = flt.key[len(prefix):]
            if batch.selected(flt.key):
                return None
            if batch.columns.get(flt.key) is not table.column(name):
                return None
            specs.append((name, flt.op, flt.value))
        return specs

    def _apply_semis(self, batch, semi_filters, clock):
        for semi in semi_filters:
            source, allowed = self._semi_source(semi.source, clock)
            clock.charge(cm.filter_rows(self._hw, batch.rows))
            dictionary, codes = batch.key_codes(semi.key)
            member = _member_flags(
                dictionary, self._slots(source, allowed, dictionary)
            )
            batch = batch.mask(member[codes])
        return batch

    def _semi_source(self, source, clock):
        """``(dictionary, codes)`` of a semijoin source: the values
        passing its HAVING filter, as codes of a dictionary — entries
        of the aggregated column's own, in value order, or the view
        rows' codes, in row order.

        The virtual-clock charge always models the full evaluation; the
        value/count aggregation itself is the column's cached
        dictionary — every member of a semijoin family shares it and
        applies only its own HAVING comparison.
        """
        semi = source.semi
        if source.via == "view":
            view = source.view
            clock.charge(
                cm.seq_scan(self._hw, view.page_count, view.rows)
            )
            # Plain column reads off the materialized view — nothing
            # worth caching beyond what the view already is.
            table = view.data
            dictionary = self._encodings.dictionary(
                table, view.definition.group_columns[0].name
            )
            keep = _compare(
                table.column(COUNT_COLUMN), semi.having_op,
                semi.having_value,
            )
            return dictionary, dictionary.codes[keep]
        elif source.via == "index_only":
            info = source.index
            clock.charge(
                cm.index_descend(self._hw, info.height)
                + info.leaf_pages * self._hw.seq_page_read_s
                + info.entries * self._hw.cpu_row_s * 2
            )
            # The leading keys are the table column, sorted: their
            # values and counts are the column's dictionary.
            dictionary = self._encodings.dictionary(
                self._table(semi.sub_table), semi.sub_column
            )
        else:
            table = self._table(semi.sub_table)
            dictionary = self._encodings.dictionary(table, semi.sub_column)
            clock.charge(
                cm.seq_scan(self._hw, table.page_count(), table.row_count)
                + cm.hash_aggregate(
                    self._hw,
                    table.row_count,
                    dictionary.n_distinct,
                    table.schema.column(semi.sub_column).width,
                )
            )
        return dictionary, np.flatnonzero(_compare(
            dictionary.counts, semi.having_op, semi.having_value
        ))

    def _seq_scan(self, node, clock):
        table = self._table(node.table)
        clock.charge(
            cm.seq_scan(self._hw, table.page_count(), table.row_count)
        )
        obs.counter_add("engine.rows_scanned", table.row_count)
        obs.counter_add("engine.pages_read", table.page_count())
        batch = self._scan_batch(table, _keyed(node.alias, node.columns))
        batch = self._apply_filters(batch, node.filters, clock,
                                    table=table, alias=node.alias)
        batch = self._apply_semis(batch, node.semi_filters, clock)
        return batch

    def _index_scan(self, node, clock):
        table = self._table(node.table)
        info = node.index
        if info.data is None:
            raise ExecutionError(
                f"index {info.definition.name} is hypothetical; "
                "plans against hypothetical configurations cannot run"
            )
        if node.prefix_filters:
            values = tuple(f.value for f in node.prefix_filters)
            row_ids = info.data.lookup_eq(values)
            matched = len(row_ids)
            obs.counter_add("engine.index_probes")
            obs.counter_add("engine.rows_scanned", matched)
            clock.charge(
                cm.index_descend(self._hw, info.height)
                + cm.index_leaf_range(
                    self._hw, matched, info.entries, info.leaf_pages
                )
            )
            if not node.index_only:
                clock.charge(
                    cm.heap_fetch(
                        self._hw,
                        matched,
                        info.cluster_factor,
                        table.page_count(),
                        table.row_count,
                    )
                )
            batch = self._scan_batch(
                table, _keyed(node.alias, node.columns), row_ids
            )
        else:
            # Covering full index-only scan.
            clock.charge(
                cm.index_descend(self._hw, info.height)
                + info.leaf_pages * self._hw.seq_page_read_s
                + info.entries * self._hw.cpu_row_s
            )
            obs.counter_add("engine.rows_scanned", info.entries)
            obs.counter_add("engine.pages_read", info.leaf_pages)
            batch = self._scan_batch(
                table, _keyed(node.alias, node.columns)
            )
        # A covering scan's batch columns are the table's own arrays,
        # so the mask cache applies; the probe branch sits behind a
        # selection vector and the identity checks route it elementwise.
        batch = self._apply_filters(batch, node.residual_filters, clock,
                                    table=table, alias=node.alias)
        batch = self._apply_semis(batch, node.semi_filters, clock)
        return batch

    def _semi_index_scan(self, node, clock):
        table = self._table(node.table)
        info = node.index
        if info.data is None:
            raise ExecutionError(
                f"index {info.definition.name} is hypothetical; cannot run"
            )
        source, allowed = self._semi_source(node.driving.source, clock)
        lows, highs = self._index_ranges(table, info.data, source, allowed)
        matched = int((highs - lows).sum())
        obs.counter_add("engine.index_probes", len(allowed))
        obs.counter_add("engine.rows_scanned", matched)
        clock.charge(
            cm.index_probes(
                self._hw, len(allowed), info.entries, info.leaf_pages
            )
        )
        clock.charge(
            cm.heap_fetch(
                self._hw, matched, info.cluster_factor,
                table.page_count(), table.row_count,
            )
        )
        _guard_materialization(matched)
        row_ids, _ = info.data.fetch(lows, highs)
        batch = self._scan_batch(
            table, _keyed(node.alias, node.columns), row_ids
        )
        batch = self._apply_filters(batch, node.residual_filters, clock)
        batch = self._apply_semis(batch, node.semi_filters, clock)
        return batch

    def _index_ranges(self, table, data, dictionary, codes):
        """``(lows, highs)``: per code of ``dictionary``, the range of
        the index ``data``'s entries whose leading key is its value
        (empty where none is).

        The index's ``values`` are the leading column's dictionary's
        (docs/architecture.md), so a code's slot in that dictionary is
        its run, ``offsets[slot]:offsets[slot + 1]``.
        """
        leading = self._encodings.dictionary(
            table, data.definition.columns[0]
        )
        slots = self._slots(dictionary, codes, leading)
        lows = data.offsets[slots]
        # Slot -1 read offsets[-1] (all entries) and offsets[0] (none).
        lows[slots < 0] = 0
        # In int64: the slots may be a whole column's int16 codes.
        return lows, data.offsets[np.add(slots, 1, dtype=np.int64)]

    def _slots(self, own, codes, other):
        """The slots in the dictionary ``other`` of the dictionary
        ``own``'s ``codes`` (-1 where a value is not in ``other``): the
        codes themselves when both have one ``values`` array (a
        self-join of one column), else through the pair's cached slot
        table."""
        if own.values is other.values:
            return codes
        return self._subplans.join_domain(
            ("slots", id(own.values), id(other.values)),
            (own.values, other.values),
            lambda: slot_map(own, other),
        )[codes]

    def _view_scan(self, node, clock):
        view = node.view
        if view.data is None:
            raise ExecutionError(
                f"view {view.definition.name} is hypothetical; cannot run"
            )
        table = view.data
        clock.charge(cm.seq_scan(self._hw, view.page_count, view.rows))
        obs.counter_add("engine.rows_scanned", view.rows)
        obs.counter_add("engine.pages_read", view.page_count)
        batch = self._scan_batch(
            table, node.column_map,
            weights=table.column(COUNT_COLUMN).astype(np.float64),
        )
        if node.filters:
            clock.charge(
                cm.filter_rows(self._hw, batch.rows, len(node.filters))
            )
            keep = np.ones(batch.rows, dtype=bool)
            for flt in node.filters:
                column = self._encodings.handle(table, flt.column)
                keep &= _compare(
                    table.column(flt.column), flt.op,
                    column.literal(flt.op, flt.value),
                )
            batch = batch.mask(keep)
        return batch

    # ------------------------------------------------------------------
    # Joins

    def _hash_match(self, node, clock, match):
        """``(left, right, matches)``: run a hash join's children and
        make every charge of the join, whoever consumes it;
        ``match(node, left, right)`` returns ``(matches, output rows)``.
        """
        left = self._exec(node.left, clock)
        right = self._exec(node.right, clock)

        clock.charge(cm.hash_build(self._hw, right.rows, right.row_width))
        clock.charge(cm.hash_probe(self._hw, left.rows))

        matches, out_rows = match(node, left, right)

        out_width = left.row_width + right.row_width
        clock.charge(cm.join_output(self._hw, out_rows, out_width))
        obs.counter_add("engine.join_output_rows", out_rows)
        _guard_materialization(out_rows)
        return left, right, matches

    def _hash_join(self, node, clock):
        left, right, (order, lows, counts) = self._hash_match(
            node, clock, self._probe_ranges
        )
        right_pos, left_pos = gather_ranges(order, lows, lows + counts)
        return _merged(left.take(left_pos), right.take(right_pos))

    def _probe_ranges(self, node, left, right):
        """``((build order, lows, counts), output rows)``: each probe
        row matches the build rows ``order[lows:lows + counts]``."""
        lcodes, rcodes = join_codes(
            [left.key_codes(k) for k in node.left_keys],
            [right.key_codes(k) for k in node.right_keys],
            self._subplans,
        )
        rspan = int(rcodes.max()) + 1 if len(rcodes) else 0
        order = stable_order(rcodes, rspan)
        if len(lcodes) and len(rcodes):
            # Dense-domain probe: join codes are dense ranks, so the
            # match range of left code c in the sorted build side is
            # [prefix_count(< c), prefix_count(<= c)) — two gathers
            # into one shared prefix table instead of two binary
            # searches per probe row.  The prefix table is bounded by
            # the total row count because the codes are dense.
            domain = max(int(lcodes.max()) + 1, rspan)
            starts_table = np.zeros(domain + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(rcodes, minlength=domain), out=starts_table[1:]
            )
            lows = starts_table[lcodes]
            counts = starts_table[lcodes + 1] - lows
        else:
            # An empty side: no probe row matches anything.
            lows = counts = np.zeros(len(lcodes), dtype=np.int64)
        return (order, lows, counts), int(counts.sum())

    def _inl_match(self, node, clock):
        """``(outer, lows, highs, inner widths)``: run an index join's
        outer side and probes and make every charge of the join,
        whoever consumes it; outer row ``i`` matches the index entries
        ``lows[i]:highs[i]``."""
        outer = self._exec(node.outer, clock)
        table = self._table(node.table)
        info = node.index
        if info.data is None:
            raise ExecutionError(
                f"index {info.definition.name} is hypothetical; cannot run"
            )
        lows, highs = self._index_ranges(
            table, info.data, *outer.key_codes(node.outer_key)
        )
        matched = int((highs - lows).sum())
        obs.counter_add("engine.index_probes", outer.rows)
        obs.counter_add("engine.rows_scanned", matched)
        clock.charge(
            cm.index_probes(
                self._hw, outer.rows, info.entries, info.leaf_pages
            )
        )
        if node.index_only:
            clock.charge(matched * self._hw.cpu_row_s)
        else:
            clock.charge(
                cm.heap_fetch(
                    self._hw, matched, info.cluster_factor,
                    table.page_count(), table.row_count,
                )
            )
        inner = {
            key: table.schema.column(name).width
            for key, name in _keyed(node.alias, node.columns).items()
        }
        inner_width = sum(inner.values()) + cm.ROW_OVERHEAD
        clock.charge(
            cm.join_output(self._hw, matched, outer.row_width + inner_width)
        )
        _guard_materialization(matched)
        return outer, lows, highs, inner

    def _inl_join(self, node, clock):
        outer, lows, highs, _ = self._inl_match(node, clock)
        row_ids, probe_idx = node.index.data.fetch(lows, highs)
        batch = _merged(
            outer.take(probe_idx),
            self._scan_batch(
                self._table(node.table), _keyed(node.alias, node.columns),
                row_ids,
            ),
        )

        if node.extra_preds:
            clock.charge(
                cm.filter_rows(self._hw, batch.rows, len(node.extra_preds))
            )
            keep = np.ones(batch.rows, dtype=bool)
            for outer_key, inner_col in node.extra_preds:
                keep &= self._equal(
                    batch, outer_key, f"{node.alias}.{inner_col}"
                )
            batch = batch.mask(keep)
        batch = self._apply_filters(batch, node.residual_filters, clock)
        batch = self._apply_semis(batch, node.semi_filters, clock)
        return batch

    def _equal(self, batch, left, right):
        """Row-wise ``left = right`` of two batch keys.  String columns
        are two dictionaries' codes: the left codes map to their slots
        in the right dictionary (-1 where a value is not there,
        :meth:`_slots`), which equal the right codes exactly where the
        values do; numbers compare as they are stored."""
        handle = batch.encodings[left]
        if handle.table.dictionary(handle.column) is None:
            return batch.column(left) == batch.column(right)
        own, codes = batch.key_codes(left)
        other, other_codes = batch.key_codes(right)
        return self._slots(own, codes, other) == other_codes

    # ------------------------------------------------------------------
    # Aggregation

    def _aggregate(self, node, clock):
        shape = count_shape(node)
        if shape is not None:
            return self._aggregate_matches(node, shape, clock)
        child = self._exec(node.child, clock)
        rows = child.rows
        codes, n_groups = _group_codes(
            [child.key_codes(k) for k in node.group_keys], rows
        )

        clock.charge(
            cm.hash_aggregate(
                self._hw, rows, max(n_groups, 1), child.row_width
            )
        )

        columns, widths = {}, {}
        firsts = _first_rows(codes, n_groups)
        for key in node.group_keys:
            # One value per group: gather through any pending selection
            # vector instead of materializing the whole column.
            columns[key] = child.gather(key, firsts)
            widths[key] = child.widths[key]

        wts = child.weight_array()
        for i, agg in enumerate(node.aggregates):
            label = f"agg{i}:{agg.label()}"
            if agg.func == "count" and not agg.distinct:
                columns[label] = _group_counts(codes, wts, n_groups)
            elif agg.func == "count" and agg.distinct:
                columns[label] = self._count_distinct(
                    codes, factorize(*child.key_codes(str(agg.arg))),
                    n_groups,
                )
            elif agg.func in ("sum", "avg"):
                arg = child.column(str(agg.arg)).astype(np.float64)
                if wts is not None:
                    arg = arg * wts
                sums = _per_group(codes, arg, n_groups)
                if agg.func == "sum":
                    columns[label] = sums
                else:
                    cnt = _per_group(codes, wts, n_groups)
                    columns[label] = sums / np.maximum(cnt, 1)
            elif agg.func in ("min", "max"):
                # Codes order as their values do.
                columns[label] = child.decoded(str(agg.arg), self._min_max(
                    codes, child.column(str(agg.arg)), n_groups, agg.func
                ))
            else:
                raise ExecutionError(f"unsupported aggregate {agg.func!r}")
            widths[label] = 8
        return Batch(columns=columns, widths=widths)

    def _aggregate_matches(self, node, shape, clock):
        """``node`` from its join's per-row matches (``shape``, see
        :mod:`~repro.executor.groupjoin`), charged as if the join had
        expanded.  A group's key values come from the row the expanded
        join puts first: the first matched row in probe or outer order
        or, on a build side, the one matching the earliest probe row.
        """
        join = node.child
        ys = [str(agg.arg) for agg, rule
              in zip(node.aggregates, shape.rules) if rule == "b"]
        if shape.side == "outer":
            side, lows, highs, inner = self._inl_match(join, clock)
            join_widths = {**side.widths, **inner}
            matches, slots, per_key, first_probe = highs - lows, None, {}, None
            if ys:
                table = self._table(join.table)
                slots, per_key, _ = self._table_counts(
                    side.key_codes(shape.a_key),
                    self._encodings.dictionary(table, join.inner_column),
                    {y: self._encodings.dictionary(
                        table, y[len(join.alias) + 1:]) for y in ys},
                    first=False,
                )
        else:
            left, right, counted = self._hash_match(
                join, clock,
                lambda node, left, right: self._hash_counts(
                    node, shape, left, right, ys
                ),
            )
            side = left if shape.side == "left" else right
            join_widths = {**left.widths, **right.widths}
            matches, slots, per_key, first_probe = counted

        rows = int(matches.sum())
        matched = np.flatnonzero(matches)
        codes, n_groups = _group_codes(
            [(dictionary, side_codes[matched]) for dictionary, side_codes
             in map(side.key_codes, node.group_keys)],
            len(matched),
        )
        clock.charge(
            cm.hash_aggregate(
                self._hw, rows, max(n_groups, 1),
                sum(join_widths.values()) + 8,
            )
        )
        obs.counter_add("executor.joins_unexpanded")
        obs.counter_add("executor.rows_unexpanded", rows)

        order = None
        if first_probe is not None:
            order = np.argsort(first_probe[slots[matched]], kind="stable")
        firsts = matched[_first_rows(codes, n_groups, order)]
        columns = {key: side.gather(key, firsts) for key in node.group_keys}
        widths = {key: join_widths[key] for key in node.group_keys}
        for i, (agg, rule) in enumerate(zip(node.aggregates, shape.rules)):
            label = f"agg{i}:{agg.label()}"
            if rule == "rows":
                columns[label] = _group_counts(
                    codes, matches[matched], n_groups
                )
            elif rule == "a":
                dictionary, arg_codes = side.key_codes(str(agg.arg))
                columns[label] = self._count_distinct(
                    codes, factorize(dictionary, arg_codes[matched]),
                    n_groups,
                )
            else:
                columns[label] = per_key[str(agg.arg)][
                    slots[firsts]
                ].astype(np.int64)
            widths[label] = 8
        return Batch(columns=columns, widths=widths)

    def _hash_counts(self, node, shape, left, right, ys):
        """``((matches, slots, per_key, first_probe), output rows)``:
        per group-side row its matches and its key's slot in the
        per-key tables — ``per_key[y]``, the other side's distinct
        ``y``, and ``first_probe`` (build side only), its first row."""
        group_left = shape.side == "left"
        other = right if group_left else left
        if not other.selected(shape.b_key) and not any(
            map(other.selected, ys)
        ):
            dictionary = other.encodings[shape.b_key].dictionary()
            slots, per_key, first_probe = self._table_counts(
                (left if group_left else right).key_codes(shape.a_key),
                dictionary,
                {y: other.encodings[y].dictionary() for y in ys},
                first=not group_left,
            )
            matches = take_or_zero(dictionary.counts, slots)
            return (matches, slots, per_key, first_probe), int(matches.sum())
        lcodes, rcodes = join_codes(
            [left.key_codes(node.left_keys[0])],
            [right.key_codes(node.right_keys[0])],
            self._subplans,
        )
        slots, keys = (lcodes, rcodes) if group_left else (rcodes, lcodes)
        domain = max(
            int(codes.max()) + 1 if len(codes) else 0
            for codes in (slots, keys)
        )
        per_key = {
            y: self._count_distinct(
                keys, factorize(*other.key_codes(y)), domain
            )
            for y in ys
        }
        first_probe = None if group_left else _first_rows(keys, domain)
        matches = np.bincount(keys, minlength=domain)[slots]
        return (matches, slots, per_key, first_probe), int(matches.sum())

    def _table_counts(self, key_codes, keys, values, first):
        """:meth:`_hash_counts`'s tables against whole columns of one
        table — the key's dictionary ``keys``, each ``y``'s in
        ``values`` — whose rows are then never read: column properties
        memoized in the ``SubplanCache``, reached through a memoized
        slot map (none on a self-join of one column)."""
        own, codes = key_codes
        slots = self._slots(own, codes, keys)
        per_key = {
            y: self._subplans.key_table(
                ("distinct", id(keys), id(dictionary)),
                (keys.base, dictionary.base),
                lambda dictionary=dictionary: self._count_distinct(
                    keys.codes, dictionary.codes, keys.n_distinct
                ).astype(np.int32),
            )
            for y, dictionary in values.items()
        }
        first_probe = None
        if first:
            first_probe = self._subplans.key_table(
                ("first", id(keys)), (keys.base,),
                lambda: _first_rows(keys.codes, keys.n_distinct).astype(
                    np.int32
                ),
            )
        return slots, per_key, first_probe

    def _count_distinct(self, codes, vcodes, n_groups):
        """Distinct values per group, from dense group ``codes`` and
        dense value codes ``vcodes``.

        A plain integer sort of the ``group * span + value`` keys and
        one adjacent compare find each distinct key once.
        ``np.unique`` returns the same array but hashes on NumPy >= 2.3,
        which is many times slower on keys this distinct.
        """
        if len(codes) == 0:
            return np.empty(0, dtype=np.int64)
        span = int(vcodes.max()) + 1
        # Either side may be a whole column's raw int16 or int32 codes.
        keys = np.multiply(codes, span, dtype=np.int64)
        keys += vcodes
        obs.counter_add("executor.distinct_sorted")
        keys.sort()
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return np.bincount(keys[first] // span, minlength=n_groups).astype(
            np.int64
        )

    @staticmethod
    def _min_max(codes, values, n_groups, func):
        if len(codes) == 0:
            return np.empty(0, dtype=values.dtype)
        order = np.lexsort((values, codes))
        sorted_codes = codes[order]
        sorted_values = values[order]
        starts = np.searchsorted(sorted_codes, np.arange(n_groups), "left")
        if func == "min":
            return sorted_values[starts]
        ends = np.searchsorted(sorted_codes, np.arange(n_groups), "right")
        return sorted_values[ends - 1]


def _group_codes(key_codes, rows):
    """``(codes, n_groups)``: dense group codes of ``rows`` rows from
    each group key's ``(dictionary, codes)`` (none for a grand total)."""
    if key_codes:
        codes = combine_codes([factorize(*pair) for pair in key_codes])
        return codes, int(codes.max()) + 1 if rows else 0
    return np.zeros(rows, dtype=np.int64), 1 if rows else 0


def _first_rows(codes, n_groups, order=None):
    """Per code, the position of its first row — first in ``order``
    (positions) when given.  Writing positions in reverse leaves each
    slot holding its first; a code that never occurs keeps garbage."""
    firsts = np.empty(n_groups, dtype=np.int64)
    if order is None:
        firsts[codes[::-1]] = np.arange(len(codes) - 1, -1, -1)
    else:
        firsts[codes[order[::-1]]] = order[::-1]
    return firsts


def _per_group(codes, weights, n_groups):
    """The sum of ``weights`` over each group's rows, as floats; with
    ``weights=None``, each group's row count, as integers."""
    return np.bincount(
        codes, weights=weights, minlength=max(n_groups, 1)
    )[:n_groups]


def _group_counts(codes, weights, n_groups):
    """``COUNT(*)`` per group: its rows' weights (view multiplicities
    or join matches), summed; its row count when ``weights`` is None."""
    counts = _per_group(codes, weights, n_groups)
    if weights is None:
        return counts.astype(np.int64, copy=False)
    return np.round(counts).astype(np.int64)


def _required_keys(plan):
    """Batch keys any operator in the plan actually consumes.

    The column-pruning pass: scans only attach columns whose key shows
    up here (filter keys, semi/join keys, aggregate inputs, output
    labels).  Pruning is sound because the root emits an explicit key
    list: the planner ends every plan in a Project or a HashAggregate
    and creates neither anywhere else, which is also why every key an
    operator factorizes is a scanned column with a dictionary.
    Widths are never pruned, so cost charges are unaffected.
    """
    if not isinstance(plan, (Project, HashAggregate)):
        raise ExecutionError(
            f"a plan ends in a Project or a HashAggregate, "
            f"not in a {type(plan).__name__}"
        )
    keys = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, SeqScan):
            keys.update(f.key for f in node.filters)
            keys.update(s.key for s in node.semi_filters)
        elif isinstance(node, (IndexScan, SemiIndexScan)):
            keys.update(f.key for f in node.residual_filters)
            keys.update(s.key for s in node.semi_filters)
        elif isinstance(node, ViewScan):
            pass  # view filters read the view's table directly
        elif isinstance(node, HashJoin):
            keys.update(node.left_keys)
            keys.update(node.right_keys)
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, IndexNLJoin):
            keys.add(node.outer_key)
            keys.update(f.key for f in node.residual_filters)
            keys.update(s.key for s in node.semi_filters)
            for outer_key, inner_col in node.extra_preds:
                keys.add(outer_key)
                keys.add(f"{node.alias}.{inner_col}")
            stack.append(node.outer)
        elif isinstance(node, HashAggregate):
            keys.update(node.group_keys)
            for agg in node.aggregates:
                if agg.arg is not None:
                    keys.add(str(agg.arg))
            stack.append(node.child)
        elif isinstance(node, Project):
            keys.update(node.keys)
            stack.append(node.child)
        else:
            raise ExecutionError(
                f"no executor for node {type(node).__name__}"
            )
    return frozenset(keys)


def _keyed(alias, columns):
    """``{batch key: column}`` of a scan's columns under its alias."""
    return {f"{alias}.{column}": column for column in columns}


def _merged(left, right):
    """The two sides of a join, row-aligned, as one batch.

    Batch keys are alias-qualified, so the two sides' columns, handles
    and selection vectors merge without collisions; each key keeps
    composing against its own side's base array.
    """
    weights, other = left.weight_array(), right.weight_array()
    if weights is None:
        weights = other
    elif other is not None:
        weights = weights * other
    return Batch(
        columns={**left.columns, **right.columns},
        widths={**left.widths, **right.widths},
        weights=weights,
        encodings={**left.encodings, **right.encodings},
        sels={**left.sels, **right.sels},
        length=left.rows,
    )


def _member_flags(dictionary, slots):
    """Per entry of ``dictionary``: is it one of the allowed values,
    given as their ``slots`` in it (-1 for a value it does not hold)?"""
    flags = np.zeros(dictionary.n_distinct, dtype=bool)
    flags[slots[slots >= 0]] = True
    return flags


def _compare(values, op, literal):
    if op not in OPERATORS:
        raise ExecutionError(f"unsupported comparison operator {op!r}")
    return OPERATORS[op](values, literal)


def _guard_materialization(rows):
    if rows > MAX_MATERIALIZED_ROWS:
        raise ExecutionError(
            f"refusing to materialize {rows} rows; the cost model should "
            "have timed this plan out first — check the hardware profile"
        )
