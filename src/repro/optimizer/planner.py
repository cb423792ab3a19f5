"""The cost-based planner.

Structure of an optimization run:

1. plan every IN-subquery (semijoin source): base-table scan+aggregate,
   index-only streaming aggregate, or a matching single-table view;
2. enumerate access paths per relation alias (seq scan, equality index
   scan, covering index-only scan);
3. try view rewrites that replace one alias or a joined pair of aliases
   by a materialized view scan;
4. dynamic-programming join enumeration (hash join both orientations,
   index-nested-loop join when the inner join column leads an index);
5. hash aggregation / projection on top.

All costs come from :mod:`repro.optimizer.cost_model` applied to the
estimator's cardinalities, so the executor can later charge identical
formulas with actual cardinalities.

Whether a view may stand in for part of a query is decided by module
functions of the bound query and the view definition alone
(:func:`count_only`, :func:`single_view_columns`,
:func:`match_join_view`): step 3 calls them, and so does the what-if
cost service (:mod:`repro.recommender.costservice`), which prices a
candidate only on the queries whose plans could use it.

What a plan derives is split by what it depends on.  :class:`QueryFacts`
holds everything the bound query and the estimator decide alone; steps
1 to 4 read it and are each memoized in the query's
:class:`~repro.optimizer.environment.QueryMemo` under the *identity* of
the structures, path lists and outer plans they were derived from.  A
what-if environment shares that memo with the environments derived from
it, so pricing ``base + one index`` re-derives the paths of the index's
table and the join steps they enter, and finds the rest.  The
environment of the built configuration has no memo: the same code then
runs on a private :class:`QueryMemo` that dies with the call.
"""

from itertools import combinations

from .. import obs
from ..common.errors import PlanError
from . import cost_model as cm
from .environment import QueryMemo
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

# Kinds of memo entry (the first element of an entry's key).
_SEMI, _PATHS, _SEEDS, _SEEDED_PATHS, _STEP = range(5)


class _SemiFacts:
    """One IN-subquery: its result size and the cost of scanning for it."""

    __slots__ = ("semi", "allowed", "width", "scan_cost")


class _AliasFacts:
    """One relation alias: what a scan of it must read, test and emit."""

    __slots__ = (
        "alias", "key", "table", "rows", "pages", "needed", "needed_width",
        "touched", "filters", "filter_sels", "filter_sel", "scan_filters",
        "eq_position", "semis", "semi_keys", "semi_sels", "out_rows",
        "out_width", "scan_cost",
    )


class _StepFacts:
    """Extending a joined subset by one alias: the connecting
    predicates' selectivity, key lists and index-probe shapes."""

    __slots__ = ("sel", "left_keys", "right_keys", "probes")


class QueryFacts:
    """What planning needs of a bound query whatever the configuration.

    Depends on the query, the catalog, the estimator and the hardware
    profile — all of which an environment shares with the environments
    derived from it — so it is computed once per query and memo.  Its
    join-graph half (``subsets``) depends on less than the query, and
    is shared by every query of the same join graph (:func:`_join_graph`).
    """

    __slots__ = (
        "bound", "count_only", "semis", "aliases", "tables", "subsets", "full",
    )

    def __init__(self, bound, env):
        est, hw, catalog = env.estimator, env.hardware, env.catalog
        self.bound = bound
        self.count_only = count_only(bound)

        self.semis = []
        for semi in bound.semijoins:
            table = semi.sub_table
            rows = est.table_rows(table)
            facts = _SemiFacts()
            facts.semi = semi
            facts.allowed = est.semijoin_allowed_values(semi)
            facts.width = catalog.table(table).column(semi.sub_column).width
            facts.scan_cost = (
                cm.seq_scan(hw, est.table_pages(table), rows)
                + cm.hash_aggregate(
                    hw, rows, est.n_distinct(table, semi.sub_column),
                    facts.width,
                )
            )
            self.semis.append(facts)

        self.aliases = {}
        for alias, table in bound.relations.items():
            schema = catalog.table(table)
            facts = self.aliases[alias] = _AliasFacts()
            facts.alias, facts.table = alias, table
            facts.key = frozenset([alias])
            facts.rows = rows = est.table_rows(table)
            facts.pages = est.table_pages(table)
            # COUNT(*)-only references: carry the narrowest column so the
            # batch keeps its row count.
            facts.needed = bound.columns_of(alias) or [
                min(schema.columns, key=lambda c: c.width).name
            ]
            facts.needed_width = sum(
                schema.column(c).width for c in facts.needed
            )
            facts.filters = [
                f for f in bound.filters if f.target.alias == alias
            ]
            facts.filter_sels = [
                est.filter_selectivity(table, f) for f in facts.filters
            ]
            facts.filter_sel = _product(facts.filter_sels)
            facts.scan_filters = [
                ScanFilter(
                    key=f"{alias}.{f.target.column}",
                    column=f.target.column,
                    op=f.op,
                    value=f.value,
                )
                for f in facts.filters
            ]
            facts.eq_position = {
                f.target.column: position
                for position, f in enumerate(facts.filters) if f.op == "="
            }
            facts.semis = [
                position for position, s in enumerate(bound.semijoins)
                if s.target.alias == alias
            ]
            semis = [bound.semijoins[position] for position in facts.semis]
            facts.semi_keys = [f"{alias}.{s.target.column}" for s in semis]
            facts.semi_sels = [
                est.semijoin_selectivity(table, s) for s in semis
            ]
            # An index-only scan must cover everything the scan touches;
            # semijoin target columns count as touched.
            facts.touched = {
                *facts.needed,
                *(f.target.column for f in facts.filters),
                *(s.target.column for s in semis),
            }
            facts.out_rows = max(
                1.0, rows * facts.filter_sel * _product(facts.semi_sels)
            )
            facts.out_width = facts.needed_width + cm.ROW_OVERHEAD
            facts.scan_cost = (
                cm.seq_scan(hw, facts.pages, rows)
                + cm.filter_rows(hw, rows, len(facts.filters) + len(semis))
            )

        self.tables = list(dict.fromkeys(bound.relations.values()))
        self.full = frozenset(bound.relations)
        self.subsets = _join_graph(bound, env)


def _join_graph(bound, env):
    """Per subset of two or more aliases, in enumeration order: the
    aliases that a predicate connects to the rest of it, each with the
    :class:`_StepFacts` of joining it on.

    That is a function of the relations in order, the join predicates
    in order and the estimator, so it is derived once per such key in
    the environment's ``join_graphs``, which the environments derived
    from it share along with its estimator.
    """
    key = (tuple(bound.relations.items()), tuple(bound.join_preds))
    subsets = env.join_graphs.get(key)
    if subsets is not None:
        obs.counter_add("optimizer.join_graphs_reused")
        return subsets
    obs.counter_add("optimizer.join_graphs_derived")
    est = env.estimator
    names = list(bound.relations)
    subsets = []
    for size in range(2, len(names) + 1):
        for subset in combinations(names, size):
            key_set = frozenset(subset)
            extensions = []
            for alias in subset:
                rest = key_set - {alias}
                preds = _connecting_preds(bound, rest, alias)
                if preds:
                    extensions.append(
                        (alias, rest, _step(bound, est, preds, alias))
                    )
            if extensions:
                subsets.append((key_set, extensions))
    env.join_graphs[key] = subsets
    return subsets


def _step(bound, est, preds, alias):
    relations = bound.relations
    oriented = [_orient(pred, alias) for pred in preds]
    step = _StepFacts()
    step.sel = 1.0
    for (o_alias, o_col), (i_col,) in oriented:
        step.sel *= est.join_selectivity(
            relations[o_alias], o_col, relations[alias], i_col
        )
    step.left_keys = [f"{oa}.{oc}" for (oa, oc), _ in oriented]
    step.right_keys = [f"{alias}.{ic}" for _, (ic,) in oriented]
    # Per predicate an index could be probed through: the outer key,
    # the inner column, and the other predicates as checks on the
    # matches.
    pairs = [
        (outer_key, i_col)
        for outer_key, (_, (i_col,)) in zip(step.left_keys, oriented)
    ]
    step.probes = [
        (outer_key, i_col, pairs[:position] + pairs[position + 1:])
        for position, (outer_key, i_col) in enumerate(pairs)
    ]
    return step


def _product(factors):
    product = 1.0
    for factor in factors:
        product *= factor
    return product


def _cost(node):
    return node.est.cost


def _keep(entries, own, key, inputs, value, parts=()):
    """Memoize ``value`` under ``key`` — unless one of the ``inputs`` it
    was derived from is the planning environment's own, in which case
    it (and the plan nodes in ``parts``) is marked as its own too.

    ``own`` holds ``id()``s: of the environment's own structures to
    start with, then of everything derived from them during this call.
    Only the call's live objects are ever looked up in it, and a stored
    entry keeps its inputs alive, so no ``id()`` is ever read after the
    object it named is gone.
    """
    if own and not own.isdisjoint(map(id, inputs)):
        own.add(id(value))
        own.update(map(id, parts))
    else:
        entries[key] = (inputs, value)
    return value


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
        env = self._env
        if env.memo is None:
            query = QueryMemo(QueryFacts(bound, env))
        else:
            query = env.memo.query(bound, QueryFacts, env)
        return self._plan(query.facts, query.entries, set(env.volatile))

    def _plan(self, facts, entries, own):
        sources = [
            self._semi_source(entries, own, position, semi)
            for position, semi in enumerate(facts.semis)
        ]
        paths = {}
        considered = reused = 0
        for alias, alias_facts in facts.aliases.items():
            paths[alias], found = self._access_paths(
                entries, own, alias_facts, sources
            )
            considered += len(paths[alias])
            if found:
                reused += len(paths[alias])
        obs.counter_add("optimizer.plans_enumerated")
        obs.counter_add("optimizer.access_paths_considered", considered)
        obs.counter_add("optimizer.access_paths_reused", reused)
        best = self._enumerate_joins(facts, entries, own, paths)
        return self._finalize(facts.bound, best)

    # ------------------------------------------------------------------
    # Semijoin sources

    def _semi_source(self, entries, own, position, facts):
        semi = facts.semi
        structures = self._env.structures_on(semi.sub_table)
        key = (_SEMI, position, id(structures))
        entry = entries.get(key)
        if entry is not None:
            return entry[1]
        hw = self._hw
        # Scan first, then indexes, then views; the first cheapest wins.
        cost, via, index, view = facts.scan_cost, "scan", None, None
        for info in structures.indexes:
            if info.definition.columns[0] != semi.sub_column:
                continue
            index_cost = (
                cm.index_descend(hw, info.height)
                + info.leaf_pages * hw.seq_page_read_s
                + info.entries * hw.cpu_row_s * 2
            )
            if index_cost < cost:
                cost, via, index, view = index_cost, "index_only", info, None
        for info in structures.views:
            gcols = info.definition.group_columns
            if len(gcols) != 1 or gcols[0].column != semi.sub_column:
                continue
            view_cost = cm.seq_scan(hw, info.page_count, info.rows)
            if view_cost < cost:
                cost, via, index, view = view_cost, "view", None, info
        source = SemiSource(semi=semi, via=via, index=index, view=view)
        source.est = PlanEstimate(
            rows=facts.allowed, width=facts.width, cost=cost
        )
        return _keep(entries, own, key, (structures,), source)

    # ------------------------------------------------------------------
    # Access paths

    def _access_paths(self, entries, own, facts, sources):
        """``(paths of the alias, whether the memo had them)``."""
        structures = self._env.structures_on(facts.table)
        sources = [sources[position] for position in facts.semis]
        key = (_PATHS, facts.alias, id(structures), *map(id, sources))
        entry = entries.get(key)
        if entry is not None:
            return entry[1], True
        paths = self._build_access_paths(facts, structures.indexes, sources)
        return _keep(
            entries, own, key, (structures, *sources), paths, paths
        ), False

    def _build_access_paths(self, facts, indexes, sources):
        hw = self._hw
        alias, table = facts.alias, facts.table
        rows, pages = facts.rows, facts.pages
        filters, scan_filters = facts.filters, facts.scan_filters
        semi_filters = [
            SemiFilter(key=key, source=source, selectivity=sel)
            for key, source, sel in zip(
                facts.semi_keys, sources, facts.semi_sels
            )
        ]
        semi_cost = sum(sf.source.est.cost for sf in semi_filters)
        checks = len(filters) + len(semi_filters)

        def estimate(cost):
            return PlanEstimate(
                rows=facts.out_rows, width=facts.out_width, cost=cost
            )

        # Sequential scan.
        seq = SeqScan(
            alias=alias,
            table=table,
            columns=list(facts.needed),
            filters=list(scan_filters),
            semi_filters=semi_filters,
        )
        seq.est = estimate(facts.scan_cost + semi_cost)
        paths = [seq]

        for info in indexes:
            columns = info.definition.columns
            prefix = []
            for col in columns:
                if col not in facts.eq_position:
                    break
                prefix.append(facts.eq_position[col])
            covering = facts.touched <= set(columns)

            if prefix:
                matched = max(
                    1.0,
                    rows * _product(facts.filter_sels[p] for p in prefix),
                )
                consumed = [filters[p] for p in prefix]
                residual = [
                    scan for flt, scan in zip(filters, scan_filters)
                    if flt not in consumed
                ]
                cost = (
                    cm.index_descend(hw, info.height)
                    + cm.index_leaf_range(
                        hw, matched, info.entries, info.leaf_pages
                    )
                    + semi_cost
                )
                if not covering:
                    cost += cm.heap_fetch(
                        hw, matched, info.cluster_factor, pages, rows
                    )
                cost += cm.filter_rows(
                    hw, matched, len(residual) + len(semi_filters)
                )
                node = IndexScan(
                    alias=alias,
                    table=table,
                    index=info,
                    columns=list(facts.needed),
                    prefix_filters=[scan_filters[p] for p in prefix],
                    residual_filters=residual,
                    semi_filters=semi_filters,
                    index_only=covering,
                )
                node.est = estimate(cost)
                paths.append(node)
                continue
            # Semijoin-driven probes: the subquery's allowed values
            # drive index lookups instead of a scan + membership test.
            leading = f"{alias}.{columns[0]}"
            for position, driving in enumerate(semi_filters):
                if driving.key != leading:
                    continue
                matched = max(1.0, rows * driving.selectivity)
                others = [
                    sf for j, sf in enumerate(semi_filters) if j != position
                ]
                cost = (
                    semi_cost
                    + cm.index_probes(
                        hw, driving.source.est.rows, info.entries,
                        info.leaf_pages,
                    )
                    + cm.heap_fetch(
                        hw, matched, info.cluster_factor, pages, rows
                    )
                    + cm.filter_rows(
                        hw, matched, max(1, len(filters) + len(others))
                    )
                )
                node = SemiIndexScan(
                    alias=alias,
                    table=table,
                    index=info,
                    driving=driving,
                    columns=list(facts.needed),
                    residual_filters=list(scan_filters),
                    semi_filters=others,
                )
                node.est = estimate(cost)
                paths.append(node)
            if covering:
                # Full index-only scan: cheaper than the heap when the
                # index is much narrower than the table.
                cost = (
                    cm.index_descend(hw, info.height)
                    + info.leaf_pages * hw.seq_page_read_s
                    + cm.filter_rows(hw, info.entries, max(1, checks))
                    + semi_cost
                )
                node = IndexScan(
                    alias=alias,
                    table=table,
                    index=info,
                    columns=list(facts.needed),
                    prefix_filters=[],
                    residual_filters=list(scan_filters),
                    semi_filters=semi_filters,
                    index_only=True,
                )
                node.est = estimate(cost)
                paths.append(node)
        return paths

    # ------------------------------------------------------------------
    # Join enumeration

    def _enumerate_joins(self, facts, entries, own, paths):
        dp = {
            alias_facts.key: min(paths[alias], key=_cost)
            for alias, alias_facts in facts.aliases.items()
        }
        if facts.count_only:
            # The views on the query's tables, then the join views, each
            # in the environment's order; a seed must beat what is there.
            env = self._env
            views = [
                view for table in facts.tables
                for view in env.structures_on(table).views
            ]
            for view in (*views, *env.join_views):
                for key, node in self._view_seeds(facts, entries, own, view):
                    if key not in dp or node.est.cost < dp[key].est.cost:
                        dp[key] = node
        # A single-alias view rewrite must also be joinable as the
        # *extension* side of the DP, not only as the seed.
        for alias, alias_facts in facts.aliases.items():
            seeded = dp[alias_facts.key]
            if isinstance(seeded, ViewScan):
                paths[alias] = self._seeded_paths(
                    entries, own, paths[alias], seeded
                )

        enumerated = reused = 0
        for key, extensions in facts.subsets:
            # A view pair may already be seeded at this key; joins can
            # still beat it, so keep enumerating against it.
            best = dp.get(key)
            for alias, rest, step in extensions:
                outer = dp.get(rest)
                if outer is None:
                    continue
                alias_paths = paths[alias]
                step_key = (_STEP, id(outer), alias, id(alias_paths))
                entry = entries.get(step_key)
                if entry is not None:
                    candidate = entry[1]
                    reused += 1
                else:
                    candidate = _keep(
                        entries, own, step_key, (outer, alias_paths),
                        self._join_step(
                            facts.aliases[alias], step, outer, alias_paths
                        ),
                    )
                    enumerated += 1
                if best is None or candidate.est.cost < best.est.cost:
                    best = candidate
            if best is not None:
                dp[key] = best
        obs.counter_add("optimizer.join_steps_enumerated", enumerated)
        obs.counter_add("optimizer.join_steps_reused", reused)

        if facts.full not in dp:
            raise PlanError("could not connect the join graph")
        return dp[facts.full]

    def _seeded_paths(self, entries, own, alias_paths, seeded):
        key = (_SEEDED_PATHS, id(alias_paths), id(seeded))
        entry = entries.get(key)
        if entry is not None:
            return entry[1]
        return _keep(
            entries, own, key, (alias_paths, seeded), alias_paths + [seeded]
        )

    def _join_step(self, facts, step, outer, alias_paths):
        """The cheapest join of ``outer`` with the alias of ``facts``.

        Every candidate is costed — a hash join per access path, then an
        index-nested-loop join per connecting predicate and index led
        by its inner column — in that order, and only the first
        cheapest one is built.
        """
        hw = self._hw
        sel, join_rows = step.sel, self._est.join_rows
        outer_rows, outer_width = outer.est.rows, outer.est.width
        outer_cost = outer.est.cost
        # (cost, rows, width, hash-join inner | None, index probe | None)
        best = None

        for inner in alias_paths:
            inner_rows, inner_width = inner.est.rows, inner.est.width
            out_rows = join_rows(outer_rows, inner_rows, sel)
            width = outer_width + inner_width
            # Build on the smaller input.
            if inner_rows <= outer_rows:
                build_rows, build_width = inner_rows, inner_width
                probe_rows = outer_rows
            else:
                build_rows, build_width = outer_rows, outer_width
                probe_rows = inner_rows
            cost = (
                outer_cost
                + inner.est.cost
                + cm.hash_build(hw, build_rows, build_width)
                + cm.hash_probe(hw, probe_rows)
                + cm.join_output(hw, out_rows, width)
            )
            if best is None or cost < best[0]:
                best = (cost, out_rows, width, inner, None)

        # Keep INL simple: inner semijoins force the scan-based paths.
        if not facts.semis:
            rows, pages = facts.rows, facts.pages
            matched = join_rows(outer_rows, rows, sel)
            out_rows = max(1.0, matched * facts.filter_sel)
            width = outer_width + facts.needed_width + cm.ROW_OVERHEAD
            checks = max(1, len(facts.filters))
            indexes = self._env.structures_on(facts.table).indexes
            for probe in step.probes:
                for info in indexes:
                    if info.definition.columns[0] != probe[1]:
                        continue
                    index_only = facts.touched <= set(info.definition.columns)
                    cost = outer_cost + cm.index_probes(
                        hw, outer_rows, info.entries, info.leaf_pages
                    )
                    if not index_only:
                        cost += cm.heap_fetch(
                            hw, matched, info.cluster_factor, pages, rows
                        )
                    cost += cm.filter_rows(hw, matched, checks)
                    cost += cm.join_output(hw, out_rows, width)
                    if cost < best[0]:
                        best = (
                            cost, out_rows, width, None,
                            (probe, info, index_only),
                        )

        cost, out_rows, width, inner, probed = best
        if probed is not None:
            (outer_key, inner_column, extra_preds), info, index_only = probed
            node = IndexNLJoin(
                outer=outer,
                alias=facts.alias,
                table=facts.table,
                index=info,
                outer_key=outer_key,
                inner_column=inner_column,
                columns=list(facts.needed),
                residual_filters=list(facts.scan_filters),
                semi_filters=[],
                index_only=index_only,
                extra_preds=extra_preds,
            )
        elif inner.est.rows <= outer_rows:
            node = HashJoin(outer, inner, step.left_keys, step.right_keys)
        else:
            node = HashJoin(inner, outer, step.right_keys, step.left_keys)
        node.est = PlanEstimate(rows=out_rows, width=width, cost=cost)
        return node

    # ------------------------------------------------------------------
    # View rewrites

    def _view_seeds(self, facts, entries, own, view):
        """``[(aliases the view stands in for, its scan)]``."""
        key = (_SEEDS, id(view))
        entry = entries.get(key)
        if entry is not None:
            return entry[1]
        if view.definition.is_join_view:
            seeds = self._join_view_seeds(facts, view)
        else:
            seeds = self._single_table_view_seeds(facts, view)
        return _keep(
            entries, own, key, (view,), seeds, [node for _, node in seeds]
        )

    def _single_table_view_seeds(self, facts, view):
        """Replace one alias by a pre-aggregated single-table view
        (each alias :func:`single_view_columns` accepts)."""
        hw = self._hw
        vdef = view.definition
        table = vdef.tables[0]
        seeds = []
        for name, columns in single_view_columns(facts.bound, vdef):
            alias = facts.aliases[name]
            cost = cm.seq_scan(hw, view.page_count, view.rows)
            if alias.filters:
                cost += cm.filter_rows(hw, view.rows, len(alias.filters))
            node = ViewScan(
                view=view,
                aliases=(name,),
                column_map={
                    f"{name}.{vcol.column}": vcol.name for vcol in columns
                },
                filters=[
                    ScanFilter(
                        key=f"{name}.{f.target.column}",
                        column=vdef.column_for(table, f.target.column).name,
                        op=f.op,
                        value=f.value,
                    )
                    for f in alias.filters
                ],
            )
            node.est = PlanEstimate(
                rows=max(1.0, view.rows * alias.filter_sel),
                width=view.row_width,
                cost=cost,
            )
            seeds.append((alias.key, node))
        return seeds

    def _join_view_seeds(self, facts, view):
        """Replace a joined pair of aliases by a join view."""
        bound = facts.bound
        pair = match_join_view(bound, view.definition)
        if pair is None:
            return []
        aliases, column_map = pair
        vdef = view.definition
        sel = 1.0
        filters = []
        for flt in bound.filters:
            if flt.target.alias not in aliases:
                continue
            table = bound.relations[flt.target.alias]
            sel *= self._est.filter_selectivity(table, flt)
            filters.append(
                ScanFilter(
                    key=f"{flt.target.alias}.{flt.target.column}",
                    column=vdef.column_for(table, flt.target.column).name,
                    op=flt.op,
                    value=flt.value,
                )
            )
        cost = cm.seq_scan(self._hw, view.page_count, view.rows)
        cost += cm.filter_rows(self._hw, view.rows, max(1, len(filters)))
        node = ViewScan(
            view=view, aliases=aliases, column_map=column_map, filters=filters
        )
        node.est = PlanEstimate(
            rows=max(1.0, view.rows * sel), width=view.row_width, cost=cost
        )
        return [(frozenset(aliases), node)]

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


def count_only(bound):
    """Whether the planner may rewrite ``bound`` onto views at all.

    Only COUNT aggregates are decomposable over a pre-aggregated view
    (COUNT(*) via batch weights, COUNT(DISTINCT c) because the view
    preserves the distinct values of its group columns).
    """
    return all(a.func == "count" for a in bound.aggregates)


def single_view_columns(bound, vdef):
    """``[(alias, view columns)]``: each alias of ``bound`` that the
    single-table view ``vdef`` can stand in for, with the view column
    of every column the query reads of it, in alias order.

    An alias qualifies when it is on the view's table, carries no
    IN-subquery, and reads at least one column, each a group column of
    the view (count semantics then decompose through the view's ``cnt``
    weights).  Only a :func:`count_only` query is rewritten at all.
    """
    table = vdef.tables[0]
    semi_aliases = {semi.target.alias for semi in bound.semijoins}
    found = []
    for alias, alias_table in bound.relations.items():
        if alias_table != table or alias in semi_aliases:
            continue
        columns = [
            vdef.column_for(table, col) for col in bound.columns_of(alias)
        ]
        if columns and None not in columns:
            found.append((alias, columns))
    return found


def match_join_view(bound, vdef):
    """``(aliases, column map)`` of the first joined pair of ``bound``'s
    aliases that the join view ``vdef`` can stand in for, else ``None``.

    The pair must be joined by the view's own predicate and by no
    other, carry no IN-subquery, and reference no column the view does
    not keep, except join columns only that predicate uses.  Only a
    :func:`count_only` query is rewritten at all.
    """
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
        return aliases, column_map
    return None


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
