"""The cost-based planner.

Structure of an optimization run:

1. plan every IN-subquery (semijoin source): base-table scan+aggregate,
   index-only streaming aggregate, or a matching single-table view;
2. enumerate access paths per relation alias (seq scan, equality index
   scan, covering index-only scan);
3. try join-view rewrites that replace a joined pair of aliases by a
   materialized view scan;
4. dynamic-programming join enumeration (hash join both orientations,
   index-nested-loop join when the inner join column leads an index);
5. hash aggregation / projection on top.

All costs come from :mod:`repro.optimizer.cost_model` applied to the
estimator's cardinalities, so the executor can later charge identical
formulas with actual cardinalities.
"""

from .. import obs
from ..common.errors import PlanError
from . import cost_model as cm
from .plans import (
    HashAggregate,
    HashJoin,
    IndexNLJoin,
    IndexScan,
    PlanEstimate,
    Project,
    ScanFilter,
    SemiFilter,
    SemiIndexScan,
    SemiSource,
    SeqScan,
    ViewScan,
)

MAX_DP_RELATIONS = 6


class Planner:
    """Plans one bound query against a :class:`PlannerEnv`."""

    def __init__(self, env):
        self._env = env
        self._est = env.estimator
        self._hw = env.hardware

    # ------------------------------------------------------------------
    # Entry point

    def plan(self, bound):
        if not bound.relations:
            raise PlanError("query has no relations")
        if len(bound.relations) > MAX_DP_RELATIONS:
            raise PlanError(
                f"too many relations ({len(bound.relations)}) for the DP"
            )
        semi_sources = {
            id(semi): self._plan_semi_source(semi) for semi in bound.semijoins
        }
        paths = {
            alias: self._access_paths(bound, alias, semi_sources)
            for alias in bound.relations
        }
        obs.counter_add("optimizer.plans_enumerated")
        obs.counter_add(
            "optimizer.access_paths_considered",
            sum(len(alias_paths) for alias_paths in paths.values()),
        )
        best = self._enumerate_joins(bound, paths)
        return self._finalize(bound, best)

    # ------------------------------------------------------------------
    # Semijoin sources

    def _plan_semi_source(self, semi):
        table = semi.sub_table
        rows = self._est.table_rows(table)
        pages = self._est.table_pages(table)
        ndv = self._est.n_distinct(table, semi.sub_column)
        allowed = self._est.semijoin_allowed_values(semi)
        col_width = self._env.catalog.table(table).column(semi.sub_column).width

        candidates = []

        scan_cost = (
            cm.seq_scan(self._hw, pages, rows)
            + cm.hash_aggregate(self._hw, rows, ndv, col_width)
        )
        candidates.append((scan_cost, SemiSource(semi=semi, via="scan")))

        for info in self._env.indexes_on(table):
            if info.definition.columns[0] != semi.sub_column:
                continue
            cost = (
                cm.index_descend(self._hw, info.height)
                + info.leaf_pages * self._hw.seq_page_read_s
                + info.entries * self._hw.cpu_row_s * 2
            )
            candidates.append(
                (cost, SemiSource(semi=semi, via="index_only", index=info))
            )

        for view in self._env.views_on_table(table):
            gcols = view.definition.group_columns
            if len(gcols) != 1 or gcols[0].column != semi.sub_column:
                continue
            cost = cm.seq_scan(self._hw, view.page_count, view.rows)
            candidates.append(
                (cost, SemiSource(semi=semi, via="view", view=view))
            )

        cost, source = min(candidates, key=lambda item: item[0])
        source.est = PlanEstimate(rows=allowed, width=col_width, cost=cost)
        return source

    # ------------------------------------------------------------------
    # Access paths

    def _access_paths(self, bound, alias, semi_sources):
        table = bound.relations[alias]
        needed = bound.columns_of(alias)
        if not needed:
            # COUNT(*)-only references: carry the narrowest column so the
            # batch keeps its row count.
            schema_cols = self._env.catalog.table(table).columns
            needed = [min(schema_cols, key=lambda c: c.width).name]
        filters = [
            f for f in bound.filters if f.target.alias == alias
        ]
        semis = [
            s for s in bound.semijoins if s.target.alias == alias
        ]
        schema = self._env.catalog.table(table)
        rows = self._est.table_rows(table)
        pages = self._est.table_pages(table)

        filter_sel = 1.0
        for flt in filters:
            filter_sel *= self._est.filter_selectivity(table, flt)
        semi_sel = 1.0
        for semi in semis:
            semi_sel *= self._est.semijoin_selectivity(table, semi)
        out_rows = max(1.0, rows * filter_sel * semi_sel)
        out_width = sum(schema.column(c).width for c in needed) + cm.ROW_OVERHEAD

        semi_filters = [
            SemiFilter(
                key=f"{alias}.{s.target.column}",
                source=semi_sources[id(s)],
                selectivity=self._est.semijoin_selectivity(table, s),
            )
            for s in semis
        ]
        semi_cost = sum(sf.source.est.cost for sf in semi_filters)

        def scan_filters(subset):
            return [
                ScanFilter(
                    key=f"{alias}.{f.target.column}",
                    column=f.target.column,
                    op=f.op,
                    value=f.value,
                )
                for f in subset
            ]

        paths = []

        # Sequential scan.
        seq = SeqScan(
            alias=alias,
            table=table,
            columns=list(needed),
            filters=scan_filters(filters),
            semi_filters=semi_filters,
        )
        seq_cost = (
            cm.seq_scan(self._hw, pages, rows)
            + cm.filter_rows(self._hw, rows, len(filters) + len(semis))
            + semi_cost
        )
        seq.est = PlanEstimate(rows=out_rows, width=out_width, cost=seq_cost)
        paths.append(seq)

        eq_filters = [f for f in filters if f.op == "="]
        eq_by_col = {f.target.column: f for f in eq_filters}

        for info in self._env.indexes_on(table):
            prefix = []
            for col in info.definition.columns:
                if col in eq_by_col:
                    prefix.append(eq_by_col[col])
                else:
                    break
            covered = set(info.definition.columns)
            # Index-only is possible when the key covers everything the
            # scan touches; semijoin target columns count as touched.
            covering_with_semis = set(needed) <= covered and all(
                f.target.column in covered for f in filters
            ) and all(s.target.column in covered for s in semis)

            if prefix:
                prefix_sel = 1.0
                for flt in prefix:
                    prefix_sel *= self._est.filter_selectivity(table, flt)
                matched = max(1.0, rows * prefix_sel)
                residual = [f for f in filters if f not in prefix]
                index_only = covering_with_semis
                cost = (
                    cm.index_descend(self._hw, info.height)
                    + cm.index_leaf_range(
                        self._hw, matched, info.entries, info.leaf_pages
                    )
                    + semi_cost
                )
                if not index_only:
                    cost += cm.heap_fetch(
                        self._hw, matched, info.cluster_factor, pages, rows
                    )
                cost += cm.filter_rows(
                    self._hw, matched, len(residual) + len(semis)
                )
                node = IndexScan(
                    alias=alias,
                    table=table,
                    index=info,
                    columns=list(needed),
                    prefix_filters=scan_filters(prefix),
                    residual_filters=scan_filters(residual),
                    semi_filters=semi_filters,
                    index_only=index_only,
                )
                node.est = PlanEstimate(
                    rows=out_rows, width=out_width, cost=cost
                )
                paths.append(node)
            if not prefix and semi_filters:
                # Semijoin-driven probes: the subquery's allowed values
                # drive index lookups instead of a scan + membership test.
                for drive_pos, driving in enumerate(semi_filters):
                    target_col = semis[drive_pos].target.column
                    if info.definition.columns[0] != target_col:
                        continue
                    probes = driving.source.est.rows
                    matched = max(
                        1.0, rows * driving.selectivity
                    )
                    others = [
                        sf for j, sf in enumerate(semi_filters)
                        if j != drive_pos
                    ]
                    cost = (
                        semi_cost
                        + cm.index_probes(
                            self._hw, probes, info.entries, info.leaf_pages
                        )
                        + cm.heap_fetch(
                            self._hw, matched, info.cluster_factor, pages,
                            rows,
                        )
                        + cm.filter_rows(
                            self._hw, matched,
                            max(1, len(filters) + len(others)),
                        )
                    )
                    node = SemiIndexScan(
                        alias=alias,
                        table=table,
                        index=info,
                        driving=driving,
                        columns=list(needed),
                        residual_filters=scan_filters(filters),
                        semi_filters=others,
                    )
                    node.est = PlanEstimate(
                        rows=out_rows, width=out_width, cost=cost
                    )
                    paths.append(node)
            if not prefix and covering_with_semis and covered:
                # Full index-only scan: cheaper than the heap when the
                # index is much narrower than the table.
                cost = (
                    cm.index_descend(self._hw, info.height)
                    + info.leaf_pages * self._hw.seq_page_read_s
                    + cm.filter_rows(
                        self._hw, info.entries,
                        max(1, len(filters) + len(semis)),
                    )
                    + semi_cost
                )
                node = IndexScan(
                    alias=alias,
                    table=table,
                    index=info,
                    columns=list(needed),
                    prefix_filters=[],
                    residual_filters=scan_filters(filters),
                    semi_filters=semi_filters,
                    index_only=True,
                )
                node.est = PlanEstimate(
                    rows=out_rows, width=out_width, cost=cost
                )
                paths.append(node)
        return paths

    # ------------------------------------------------------------------
    # Join enumeration

    def _enumerate_joins(self, bound, paths):
        aliases = list(bound.relations)
        dp = {}
        for alias in aliases:
            best = min(paths[alias], key=lambda p: p.est.cost)
            dp[frozenset([alias])] = best

        self._seed_view_pairs(bound, dp)
        # A single-alias view rewrite must also be joinable as the
        # *extension* side of the DP, not only as the seed.
        for alias in aliases:
            seeded = dp.get(frozenset([alias]))
            if isinstance(seeded, ViewScan) and seeded not in paths[alias]:
                paths[alias] = paths[alias] + [seeded]

        n = len(aliases)
        for size in range(2, n + 1):
            for subset in _subsets(aliases, size):
                key = frozenset(subset)
                # A view pair may already be seeded at this key; joins can
                # still beat it, so keep enumerating against it.
                best = dp.get(key)
                for alias in subset:
                    rest = key - {alias}
                    if rest not in dp:
                        continue
                    outer = dp[rest]
                    preds = _connecting_preds(bound, rest, alias)
                    if not preds:
                        continue
                    for candidate in self._join_candidates(
                        bound, outer, alias, paths[alias], preds
                    ):
                        if best is None or candidate.est.cost < best.est.cost:
                            best = candidate
                if best is not None:
                    dp[key] = best

        full = frozenset(aliases)
        if full not in dp:
            # Disconnected join graph: fall back to cartesian extension.
            dp_full = self._cartesian_fallback(bound, dp, paths, aliases)
            if dp_full is None:
                raise PlanError("could not connect the join graph")
            dp[full] = dp_full
        return dp[full]

    def _join_candidates(self, bound, outer, alias, alias_paths, preds,
                         sel=None):
        table = bound.relations[alias]
        outer_rows = outer.est.rows
        if sel is None:
            sel = 1.0
            for pred in preds:
                (o_alias, o_col), (i_col,) = _orient(pred, alias)
                sel *= self._est.join_selectivity(
                    bound.relations[o_alias], o_col, table, i_col
                )
        candidates = []

        for inner_path in alias_paths:
            inner_rows = inner_path.est.rows
            out_rows = self._est.join_rows(outer_rows, inner_rows, sel)
            width = outer.est.width + inner_path.est.width
            left_keys, right_keys = [], []
            for pred in preds:
                (o_alias, o_col), (i_col,) = _orient(pred, alias)
                left_keys.append(f"{o_alias}.{o_col}")
                right_keys.append(f"{alias}.{i_col}")
            # Build on the smaller input.
            build_is_inner = inner_rows <= outer_rows
            build_rows = inner_rows if build_is_inner else outer_rows
            probe_rows = outer_rows if build_is_inner else inner_rows
            build_width = (
                inner_path.est.width if build_is_inner else outer.est.width
            )
            cost = (
                outer.est.cost
                + inner_path.est.cost
                + cm.hash_build(self._hw, build_rows, build_width)
                + cm.hash_probe(self._hw, probe_rows)
                + cm.join_output(self._hw, out_rows, width)
            )
            if build_is_inner:
                node = HashJoin(outer, inner_path, left_keys, right_keys)
            else:
                node = HashJoin(inner_path, outer, right_keys, left_keys)
            node.est = PlanEstimate(rows=out_rows, width=width, cost=cost)
            candidates.append(node)

        candidates.extend(
            self._inl_candidates(bound, outer, alias, preds, sel)
        )
        return candidates

    def _inl_candidates(self, bound, outer, alias, preds, sel):
        table = bound.relations[alias]
        needed = bound.columns_of(alias)
        schema = self._env.catalog.table(table)
        pages = self._est.table_pages(table)
        rows = self._est.table_rows(table)
        filters = [f for f in bound.filters if f.target.alias == alias]
        semis = [s for s in bound.semijoins if s.target.alias == alias]
        if semis:
            # Keep INL simple: inner semijoins force the scan-based paths.
            return []
        filter_sel = 1.0
        for flt in filters:
            filter_sel *= self._est.filter_selectivity(table, flt)

        candidates = []
        for pred in preds:
            (o_alias, o_col), (i_col,) = _orient(pred, alias)
            for info in self._env.indexes_on(table):
                if info.definition.columns[0] != i_col:
                    continue
                outer_rows = outer.est.rows
                matched = self._est.join_rows(outer_rows, rows, sel)
                out_rows = max(1.0, matched * filter_sel)
                width = outer.est.width + sum(
                    schema.column(c).width for c in needed
                ) + cm.ROW_OVERHEAD
                covered = set(info.definition.columns)
                index_only = set(needed) <= covered and all(
                    f.target.column in covered for f in filters
                )
                cost = outer.est.cost + cm.index_probes(
                    self._hw, outer_rows, info.entries, info.leaf_pages
                )
                if not index_only:
                    cost += cm.heap_fetch(
                        self._hw, matched, info.cluster_factor, pages, rows
                    )
                cost += cm.filter_rows(
                    self._hw, matched, max(1, len(filters))
                )
                cost += cm.join_output(self._hw, out_rows, width)
                extra = [p for p in preds if p is not pred]
                residual = [
                    ScanFilter(
                        key=f"{alias}.{f.target.column}",
                        column=f.target.column,
                        op=f.op,
                        value=f.value,
                    )
                    for f in filters
                ]
                node = IndexNLJoin(
                    outer=outer,
                    alias=alias,
                    table=table,
                    index=info,
                    outer_key=f"{o_alias}.{o_col}",
                    inner_column=i_col,
                    columns=list(needed),
                    residual_filters=residual,
                    semi_filters=[],
                    index_only=index_only,
                    extra_preds=[
                        (f"{oa}.{oc}", ic)
                        for (oa, oc), (ic,) in (
                            _orient(p, alias) for p in extra
                        )
                    ],
                )
                node.est = PlanEstimate(
                    rows=out_rows, width=width, cost=cost
                )
                candidates.append(node)
        return candidates

    # ------------------------------------------------------------------
    # View rewrites

    def _seed_view_pairs(self, bound, dp):
        # Only COUNT aggregates are decomposable over a pre-aggregated
        # view (COUNT(*) via batch weights, COUNT(DISTINCT c) because the
        # view preserves the distinct values of its group columns).
        if any(a.func != "count" for a in bound.aggregates):
            return
        self._seed_single_table_views(bound, dp)
        for view in self._env.join_views():
            pair = self._match_join_view(bound, view)
            if pair is None:
                continue
            aliases, column_map, filters = pair
            sel = 1.0
            table_by_alias = bound.relations
            for flt in filters:
                alias = flt.key.split(".", 1)[0]
                sel *= self._est.filter_selectivity(
                    table_by_alias[alias],
                    _FilterShim(flt),
                )
            rows = max(1.0, view.rows * sel)
            width = view.row_width
            cost = cm.seq_scan(self._hw, view.page_count, view.rows)
            cost += cm.filter_rows(self._hw, view.rows, max(1, len(filters)))
            node = ViewScan(
                view=view,
                aliases=aliases,
                column_map=column_map,
                filters=filters,
            )
            node.est = PlanEstimate(rows=rows, width=width, cost=cost)
            key = frozenset(aliases)
            if key not in dp or node.est.cost < dp[key].est.cost:
                dp[key] = node

    def _seed_single_table_views(self, bound, dp):
        """Replace one alias by a pre-aggregated single-table view.

        Valid when every column the query touches on the alias is a group
        column of the view and the alias carries no IN-subquery (count
        semantics then decompose through the view's ``cnt`` weights).
        """
        for view in self._env.views:
            vdef = view.definition
            if vdef.is_join_view:
                continue
            table = vdef.tables[0]
            for alias, alias_table in bound.relations.items():
                if alias_table != table:
                    continue
                if any(s.target.alias == alias for s in bound.semijoins):
                    continue
                column_map, ok = {}, True
                for col in bound.columns_of(alias):
                    vcol = vdef.column_for(table, col)
                    if vcol is None:
                        ok = False
                        break
                    column_map[f"{alias}.{col}"] = vcol.name
                if not ok or not column_map:
                    continue
                filters = [
                    ScanFilter(
                        key=f"{alias}.{f.target.column}",
                        column=vdef.column_for(
                            table, f.target.column
                        ).name,
                        op=f.op,
                        value=f.value,
                    )
                    for f in bound.filters
                    if f.target.alias == alias
                ]
                sel = 1.0
                for flt in bound.filters:
                    if flt.target.alias == alias:
                        sel *= self._est.filter_selectivity(table, flt)
                rows = max(1.0, view.rows * sel)
                cost = cm.seq_scan(self._hw, view.page_count, view.rows)
                if filters:
                    cost += cm.filter_rows(
                        self._hw, view.rows, len(filters)
                    )
                node = ViewScan(
                    view=view,
                    aliases=(alias,),
                    column_map=column_map,
                    filters=filters,
                )
                node.est = PlanEstimate(
                    rows=rows, width=view.row_width, cost=cost
                )
                key = frozenset([alias])
                if key not in dp or node.est.cost < dp[key].est.cost:
                    dp[key] = node

    def _match_join_view(self, bound, view):
        """Match a join view against a pair of the query's aliases."""
        vdef = view.definition
        (vt1, vc1), (vt2, vc2) = vdef.join_pred
        for pred in bound.join_preds:
            la, lc = pred.left.alias, pred.left.column
            ra, rc = pred.right.alias, pred.right.column
            lt, rt = bound.relations[la], bound.relations[ra]
            if la == ra:
                continue
            direct = (lt, lc, rt, rc) == (vt1, vc1, vt2, vc2)
            flipped = (rt, rc, lt, lc) == (vt1, vc1, vt2, vc2)
            if not (direct or flipped):
                continue
            aliases = (la, ra)
            # Any alias may be referenced elsewhere only through columns
            # the view preserves.  The pair's own join columns are only
            # needed if something *outside* this predicate uses them.
            internal_cols = _pred_column_uses(bound, pred)
            column_map = {}
            ok = True
            for alias in aliases:
                table = bound.relations[alias]
                for col in bound.columns_of(alias):
                    if (alias, col) in internal_cols:
                        continue
                    vcol = vdef.column_for(table, col)
                    if vcol is None:
                        ok = False
                        break
                    column_map[f"{alias}.{col}"] = vcol.name
                if not ok:
                    break
            if not ok:
                continue
            # No semijoins on the replaced aliases; other join preds
            # between the two aliases would change the view's join.
            if any(s.target.alias in aliases for s in bound.semijoins):
                continue
            internal = [
                p for p in bound.join_preds
                if {p.left.alias, p.right.alias} == set(aliases)
            ]
            if len(internal) != 1:
                continue
            filters = [
                ScanFilter(
                    key=f"{f.target.alias}.{f.target.column}",
                    column=vdef.column_for(
                        bound.relations[f.target.alias], f.target.column
                    ).name,
                    op=f.op,
                    value=f.value,
                )
                for f in bound.filters
                if f.target.alias in aliases
            ]
            return aliases, column_map, filters
        return None

    def _cartesian_fallback(self, bound, dp, paths, aliases):
        del bound, paths
        full = None
        for key, plan in dp.items():
            if full is None or len(key) > len(full[0]):
                full = (key, plan)
        return None if full is None or len(full[0]) != len(aliases) else full[1]

    # ------------------------------------------------------------------
    # Final aggregation / projection

    def _finalize(self, bound, child):
        if not bound.aggregates and not bound.group_by:
            keys = [
                f"{ref.alias}.{ref.column}"
                for kind, ref in bound.output
                if kind == "col"
            ]
            node = Project(child, keys)
            node.est = PlanEstimate(
                rows=child.est.rows,
                width=child.est.width,
                cost=child.est.cost + cm.filter_rows(self._hw, child.est.rows),
            )
            return node
        group_keys = [f"{c.alias}.{c.column}" for c in bound.group_by]
        ndvs = [
            self._est.scaled_ndv(
                bound.relations[c.alias], c.column, child.est.rows
            )
            for c in bound.group_by
        ]
        groups = self._est.group_count(child.est.rows, ndvs)
        width = child.est.width
        cost = child.est.cost + cm.hash_aggregate(
            self._hw, child.est.rows, groups, width
        )
        node = HashAggregate(child, group_keys, list(bound.aggregates))
        node.est = PlanEstimate(rows=groups, width=width, cost=cost)
        return node


class _FilterShim:
    """Adapts a ScanFilter to the estimator's Filter interface."""

    def __init__(self, scan_filter):
        alias, column = scan_filter.key.split(".", 1)
        self.target = _TargetShim(alias, column)
        self.op = scan_filter.op
        self.value = scan_filter.value


class _TargetShim:
    def __init__(self, alias, column):
        self.alias = alias
        self.column = column


def _pred_column_uses(bound, pred):
    """(alias, column) pairs used *only* by the given join predicate."""
    internal = {
        (pred.left.alias, pred.left.column),
        (pred.right.alias, pred.right.column),
    }
    used_elsewhere = set()
    for other in bound.join_preds:
        if other is pred:
            continue
        used_elsewhere.add((other.left.alias, other.left.column))
        used_elsewhere.add((other.right.alias, other.right.column))
    for flt in bound.filters:
        used_elsewhere.add((flt.target.alias, flt.target.column))
    for semi in bound.semijoins:
        used_elsewhere.add((semi.target.alias, semi.target.column))
    for col in bound.group_by:
        used_elsewhere.add((col.alias, col.column))
    for agg in bound.aggregates:
        if agg.arg is not None:
            used_elsewhere.add((agg.arg.alias, agg.arg.column))
    for kind, ref in bound.output:
        if kind == "col":
            used_elsewhere.add((ref.alias, ref.column))
    return internal - used_elsewhere


def _subsets(items, size):
    from itertools import combinations

    return combinations(items, size)


def _connecting_preds(bound, subset, alias):
    preds = []
    for pred in bound.join_preds:
        sides = {pred.left.alias, pred.right.alias}
        if alias in sides and (sides - {alias}) and (
            next(iter(sides - {alias})) in subset
        ):
            preds.append(pred)
    return preds


def _orient(pred, inner_alias):
    """Return ``((outer_alias, outer_col), (inner_col,))`` for a pred."""
    if pred.right.alias == inner_alias:
        return (pred.left.alias, pred.left.column), (pred.right.column,)
    if pred.left.alias == inner_alias:
        return (pred.right.alias, pred.right.column), (pred.left.column,)
    raise PlanError("predicate does not touch the inner alias")
