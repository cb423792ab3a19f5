"""What-if cost service: memo keys, invalidation, parity, pruning."""

import weakref

import numpy as np
import pytest

from repro import obs
from repro.bench.context import FAMILY_DATASET, BenchContext, BenchSettings
from repro.engine.configuration import Configuration, primary_configuration
from repro.index.definition import IndexDefinition
from repro.optimizer.planner import Planner
from repro.optimizer.plans import explain
from repro.recommender.costservice import (
    WhatIfCostService,
    query_tables,
    relevant_key,
)
from repro.recommender.profiles import RecommenderProfile
from repro.recommender.whatif import WhatIfRecommender
from repro.views.matview import MatViewDefinition, ViewColumn
from repro.workload.workload import Workload, make_instance

from conftest import load_city_database

ORDERS_SQL = (
    "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = 3 GROUP BY o.city"
)
USERS_SQL = (
    "SELECT u.city, COUNT(*) FROM users u WHERE u.age = 30 GROUP BY u.city"
)
JOIN_SQL = (
    "SELECT u.city, COUNT(*) FROM users u, orders o "
    "WHERE u.uid = o.uid AND o.city = 'tor' GROUP BY u.city"
)


@pytest.fixture
def db():
    db = load_city_database(n_users=2000, n_orders=12000, seed=7)
    db.apply_configuration(primary_configuration(db.catalog, name="P"))
    return db


def workload_of(sqls):
    return Workload(
        "W", [make_instance(sql, "W", i=i) for i, sql in enumerate(sqls)]
    )


def lookups(db):
    """``(hits, misses)`` of the database's what-if cache so far."""
    stats = db.cache_stats()["whatif_cache"]
    return stats["hits"], stats["misses"]


def orders_trial(db):
    return db.configuration.with_indexes(
        [IndexDefinition(table="orders", columns=("uid",))]
    )


# ----------------------------------------------------------------------
# The atomic (relevant-subset) cache key

def test_relevant_fingerprint_ignores_unrelated_structures(db):
    bound = db.bind(ORDERS_SQL)
    assert query_tables(bound) == {"orders"}
    trial = orders_trial(db)
    baseline = relevant_key(bound, trial, db.catalog)
    # An index on a table the query never touches must not change the key
    # (this is exactly what makes round-2 lookups hit after an unrelated
    # structure was selected in round 1) ...
    noisy = trial.with_indexes(
        [IndexDefinition(table="users", columns=("age",))]
    )
    assert relevant_key(bound, noisy, db.catalog) == baseline
    # ... and so must one the planner cannot use: orders.city neither
    # matches the equality filter (uid) nor covers {uid, city} ...
    unusable = trial.with_indexes(
        [IndexDefinition(table="orders", columns=("city",))]
    )
    assert relevant_key(bound, unusable, db.catalog) == baseline
    # ... while a covering index on the query's table changes the key.
    covering = trial.with_indexes(
        [IndexDefinition(table="orders", columns=("city", "uid"))]
    )
    assert relevant_key(bound, covering, db.catalog) != baseline


def test_service_memoizes_and_counts(db):
    service = WhatIfCostService(db)
    trial = orders_trial(db)
    assert lookups(db) == (0, 0)
    first = service.costs([ORDERS_SQL], trial)
    assert lookups(db) == (0, 1)
    again = service.costs([ORDERS_SQL], trial)
    assert again == first
    assert lookups(db) == (1, 1)
    # The memo lives on the database, so a second service instance hits.
    other = WhatIfCostService(db)
    with obs.recording() as recorder:
        assert other.costs([ORDERS_SQL], trial) == first
    assert lookups(db) == (2, 1)
    counters = recorder.metrics.snapshot()["counters"]
    assert counters["recommender.whatif_cache.hits"] == 1
    assert "recommender.whatif_cache.misses" not in counters


def test_service_costs_match_direct_estimates(db):
    service = WhatIfCostService(db)
    trial = orders_trial(db)
    direct = [
        db.estimate_hypothetical(sql, trial, force_hypothetical=True)
        for sql in (ORDERS_SQL, USERS_SQL)
    ]
    assert service.costs([ORDERS_SQL, USERS_SQL], trial) == direct
    # Cache hits return the same values again.
    assert service.costs([ORDERS_SQL, USERS_SQL], trial) == direct


def test_cache_hits_across_unrelated_growth(db):
    """Round-2 repricing after an unrelated selection is pure cache hits."""
    service = WhatIfCostService(db)
    trial = orders_trial(db)
    first = service.costs([ORDERS_SQL], trial)
    grown = trial.with_indexes(
        [IndexDefinition(table="users", columns=("age",))]
    )
    assert service.costs([ORDERS_SQL], grown) == first
    assert lookups(db) == (1, 1)


def test_key_of_a_trial_is_the_base_key_plus_the_candidate(db):
    """Unrelated growth of the *base* keeps the hit, and the base's half
    of the key is taken once per query and base."""
    service = WhatIfCostService(db)
    bound = db.bind(ORDERS_SQL)
    base = db.configuration
    hits = lookups(db)[0]
    candidate = IndexDefinition(table="orders", columns=("uid",))
    cost = service.cost(bound, base.with_indexes([candidate]), base=base)
    grown = base.with_indexes(
        [IndexDefinition(table="users", columns=("age",))]
    )
    assert service.cost(
        bound, grown.with_indexes([candidate]), base=grown
    ) == cost
    assert lookups(db)[0] == hits + 1
    assert set(service._base_relevant) == {
        (bound.sql, base.fingerprint), (bound.sql, grown.fingerprint)
    }
    # A candidate the query cannot use adds nothing to the key: the
    # trial is priced as its base.
    unusable = IndexDefinition(table="users", columns=("city",))
    assert service.cost(bound, base, base=None) == service.cost(
        bound, base.with_indexes([unusable]), base=base
    )
    assert lookups(db)[0] == hits + 2


def test_affects_is_asked_once_per_candidate_and_run(db, monkeypatch):
    sqls = [ORDERS_SQL, USERS_SQL, JOIN_SQL]
    asked = []
    affects = WhatIfCostService.affects

    def counting(self, structure, bound):
        asked.append((structure, bound.sql))
        return affects(self, structure, bound)

    monkeypatch.setattr(WhatIfCostService, "affects", counting)
    recommender = WhatIfRecommender(
        db, RecommenderProfile("t", min_improvement=0.001)
    )
    report = recommender.recommend(workload_of(sqls), budget_bytes=10**9)
    assert report.iterations > 2
    assert len(asked) == len(set(asked)) <= report.candidate_count * len(sqls)


# ----------------------------------------------------------------------
# The incremental environment is the full one

ORDERS_BY_UID = MatViewDefinition(
    tables=("orders",), group_columns=(ViewColumn("orders", "uid"),),
)
CITY_PAIRS = MatViewDefinition(
    tables=("users", "orders"),
    join_pred=(("users", "uid"), ("orders", "uid")),
    group_columns=(
        ViewColumn("users", "city"), ViewColumn("orders", "city"),
    ),
)


def extensions(base):
    """``(base, trial)`` pairs: table indexes, a single-table and a
    join view, and indexes on views — on a delta view, and on a view
    the base environment already shares."""
    on_tables = [
        IndexDefinition(table="orders", columns=("uid",)),
        IndexDefinition(table="users", columns=("age", "city")),
    ]
    with_views = base.with_views((ORDERS_BY_UID, CITY_PAIRS))
    by_uid = IndexDefinition(
        table=ORDERS_BY_UID.name, columns=("orders__uid",)
    )
    by_cities = IndexDefinition(
        table=CITY_PAIRS.name, columns=("orders__city", "users__city")
    )
    return [
        (base, base.with_indexes(on_tables)),
        (base, with_views),
        (base, with_views.with_indexes(on_tables + [by_uid])),
        (with_views, with_views.with_indexes([by_uid, by_cities])),
        (with_views.with_indexes([by_uid]),
         with_views.with_indexes([by_uid, by_cities] + on_tables)),
    ]


def snapshot(env):
    """An environment's structures, copied deeply enough to notice an
    ``append`` to any list a derived environment might share."""
    return (
        {table: list(infos) for table, infos in env.indexes.items()},
        [(view, list(view.indexes)) for view in env.views],
    )


@pytest.mark.parametrize("oracle", [False, True])
def test_incremental_environment_equals_the_full_build(db, oracle):
    base_config = db.configuration
    for base, trial in extensions(base_config):
        db.invalidate_caches()
        base_env = db.hypothetical_env(base, True, oracle)
        before = snapshot(base_env)
        with obs.recording() as recorder:
            derived = db._extend_hypothetical_env(base, trial, True, oracle)
            built = db._build_hypothetical_env(trial, True, oracle)
        assert derived is not None, trial
        # IndexInfo by IndexInfo, ViewInfo by ViewInfo (dataclass
        # equality: geometry, cluster factor, hypothetical flag, the
        # built data by identity, a view's own index list).
        assert derived.indexes == built.indexes
        assert derived.views == built.views
        assert derived.estimator.policy == built.estimator.policy
        assert derived.hardware is built.hardware
        # Both sides probed the same structures: the delta's.
        counters = recorder.metrics.snapshot()["counters"]
        hypothetical = sum(
            info.hypothetical
            for infos in list(built.indexes.values())
            + [view.indexes for view in built.views]
            for info in infos
        )
        delta = len(trial.indexes) - len(base.indexes)
        assert counters.get("optimizer.hypothetical_index_probes", 0) \
            == hypothetical + delta
        # The base environment is as it was, list by list.
        assert snapshot(base_env) == before
        if oracle:
            assert all(
                info.cluster_factor == (0.25 if info.hypothetical else
                                        info.data.cluster_factor)
                for infos in derived.indexes.values() for info in infos
            )
            assert all(
                info.cluster_factor == 1.0
                for view in derived.views for info in view.indexes
            )


# ----------------------------------------------------------------------
# Pricing a candidate as a delta: the planner's memo changes no plan,
# keeps nothing of a trial, and dies with the environment cache

FAMILIES = [
    ("A", "NREF2J"), ("A", "NREF3J"),
    ("B", "NREF2J"), ("B", "NREF3J"),
    ("C", "SkTH3J"), ("C", "SkTH3Js"), ("C", "UnTH3J"),
]


@pytest.fixture(scope="module")
def context():
    return BenchContext(BenchSettings(scale=0.05, workload_size=10, jobs=1))


def greedy_chain(db, queries, seed, length=3):
    """``(current, trial)`` steps ``P -> P+X1 -> P+X1+X2 ...`` over
    candidates drawn from the recommender's own pool — a view (with its
    index) first whenever the pool has one."""
    recommender = WhatIfRecommender(db)
    pool = list(
        recommender._collect_candidates(queries, db.configuration).values()
    )
    rng = np.random.default_rng(seed)
    views = [c for c in pool if hasattr(c, "group_columns")]
    picks = [views[rng.integers(len(views))]] if views else []
    rest = [c for c in pool if c not in picks]
    order = rng.permutation(len(rest))[:length - len(picks)]
    picks += [rest[i] for i in order]
    current = db.configuration
    for candidate in picks:
        trial = recommender._extend(current, candidate)
        yield current, trial
        current = trial


@pytest.mark.parametrize("system, family", FAMILIES)
def test_delta_pricing_equals_a_fresh_plan(context, system, family):
    """Whatever the memo already holds — the base priced first or the
    trial priced first — a trial's cost and plan are those of a planner
    that starts from nothing."""
    db = context.database(system, FAMILY_DATASET[family])
    queries = [db.bind(q.sql) for q in context.workload(system, family)]

    def price(config, base):
        return [
            db.price_hypothetical(
                bound, config, force_hypothetical=True, base=base
            )
            for bound in queries
        ]

    for seed, order in enumerate(("base first", "trial first")):
        db.invalidate_caches()
        previous = None
        for current, trial in greedy_chain(db, queries, seed):
            # What the recommender's _select does between rounds.
            db.hypothetical_env(current, True, base=previous)
            previous = current
            if order == "base first":
                price(current, None)
                costs = price(trial, current)
            else:
                costs = price(trial, current)
                price(current, None)
            shared = db.hypothetical_env(trial, True, base=current)
            assert shared.memo is db.hypothetical_env(current, True).memo
            fresh = db._build_hypothetical_env(trial, True, False)
            for bound, cost in zip(queries, costs):
                reference = Planner(fresh).plan(bound)
                assert cost == reference.est.cost, (order, bound.sql)
                assert explain(Planner(shared).plan(bound)) \
                    == explain(reference), (order, bound.sql)


@pytest.mark.parametrize("system, family", FAMILIES)
def test_a_candidate_the_rule_rejects_changes_no_plan(
        context, system, family):
    """The relevance rule is exact where it says no: every candidate of
    the pool, added to P and to each round's base of the recommendation
    (views selected in earlier rounds included), leaves the cost and
    the plan of every query :meth:`WhatIfCostService.affects` rejects
    as they are."""
    config, report = context.recommendation(system, family)
    db = context.database(system, FAMILY_DATASET[family])
    queries = [db.bind(q.sql) for q in context.workload(system, family)]
    recommender = WhatIfRecommender(db)
    service = recommender._service
    pool = recommender._collect_candidates(queries, db.configuration)
    rejected = {
        key: [q for q in queries if not service.affects(candidate, q)]
        for key, candidate in pool.items()
    }
    selected = report.selected if config is not None else []
    bases = [db.configuration]
    for chosen in selected:
        bases.append(recommender._extend(bases[-1], chosen))
    checked = 0
    for base in bases:
        base_env = db.hypothetical_env(base, True)
        before = {}
        for key, candidate in pool.items():
            if candidate in selected or not rejected[key]:
                continue
            trial = recommender._extend(base, candidate)
            # One environment per candidate, shared by its queries.
            trial_env = db._extend_hypothetical_env(base, trial, True, False)
            assert trial_env is not None
            for bound in rejected[key]:
                if bound.sql not in before:
                    plan = Planner(base_env).plan(bound)
                    before[bound.sql] = (plan.est.cost, explain(plan))
                plan = Planner(trial_env).plan(bound)
                assert (plan.est.cost, explain(plan)) \
                    == before[bound.sql], (candidate, bound.sql)
                checked += 1
    assert checked > 0


def test_a_trial_leaves_nothing_of_its_own_in_the_memo(db):
    base = db.configuration
    bound = db.bind(JOIN_SQL)
    db.price_hypothetical(bound, base, force_hypothetical=True)
    base_env = db.hypothetical_env(base, True)
    entries = base_env.memo.query(bound, None, None).entries
    held = len(entries)
    assert held > 0
    # Uncached, so the only references to the trial are this test's.
    trial = db._extend_hypothetical_env(base, orders_trial(db), True, False)
    assert trial.memo is base_env.memo and trial.volatile
    # Held by the trial's structures of "orders": alive while any memo
    # entry keyed by them is.
    own_index = weakref.ref(trial.indexes["orders"][-1])
    assert trial.structures_on("users") is base_env.structures_on("users")
    plan = Planner(trial).plan(bound)
    assert len(entries) == held, "everything new involves the trial's index"
    del trial, plan
    assert own_index() is None


@pytest.mark.parametrize("transition", [
    "invalidate_caches", "insert_rows", "apply_configuration",
    "collect_statistics",
])
def test_memo_dies_with_the_environment_cache(db, transition):
    """No reference cycle, no second owner: dropping ``env_cache`` frees
    the base environment and its memo at once, without the collector —
    and what is priced next is planned on the new state."""
    service, trial = _prime(db)
    stale = service.costs([ORDERS_SQL], trial)
    env = db.hypothetical_env(db.configuration, True)
    assert db.planner_env().memo is None
    watched = [weakref.ref(env), weakref.ref(env.memo)]
    del env
    if transition == "insert_rows":
        n = 6000
        db.insert_rows("orders", {
            "oid": np.arange(100000, 100000 + n),
            "uid": np.full(n, 3),
            "city": np.array(["tor"] * n, dtype=object),
            "amount": np.ones(n, dtype=np.int64),
        })
        db.collect_statistics()
    elif transition == "apply_configuration":
        db.apply_configuration(primary_configuration(db.catalog, name="P2"))
    else:
        getattr(db, transition)()
    assert [ref() for ref in watched] == [None, None]
    fresh = service.costs([ORDERS_SQL], trial)
    reference = Planner(
        db._build_hypothetical_env(trial, True, False)
    ).plan(db.bind(ORDERS_SQL))
    assert fresh == [reference.est.cost]
    assert (fresh != stale) == (transition == "insert_rows")


def test_recommender_reuses_access_paths_and_join_steps(db):
    # A join step is found again only if neither side holds the
    # candidate's table, so the workload needs a third alias.
    three_way = (
        "SELECT u.city, COUNT(*) FROM users u, orders o, orders p "
        "WHERE u.uid = o.uid AND o.uid = p.uid AND p.city = 'tor' "
        "GROUP BY u.city"
    )
    sqls = [JOIN_SQL, ORDERS_SQL, USERS_SQL, three_way]
    with obs.recording() as recorder:
        WhatIfRecommender(
            db, RecommenderProfile("t", min_improvement=0.001),
        ).recommend(workload_of(sqls), budget_bytes=10**9)
    counters = recorder.metrics.snapshot()["counters"]
    # One planner invocation per counted plan build, memo or not.
    assert counters["optimizer.plans_enumerated"] == (
        counters["optimizer.what_if_plan_builds"]
        + counters.get("optimizer.plan_builds", 0)
    )
    considered = counters["optimizer.access_paths_considered"]
    paths_reused = counters["optimizer.access_paths_reused"]
    assert 0 < paths_reused < considered
    assert counters["optimizer.join_steps_reused"] > 0


# ----------------------------------------------------------------------
# Invalidation: every mutation that invalidates plans drops the memo

def _prime(db):
    service = WhatIfCostService(db)
    trial = orders_trial(db)
    service.costs([ORDERS_SQL], trial)
    snapshot = db.cache_stats()["whatif_cache"]
    assert snapshot["misses"] >= 1
    return service, trial


def test_apply_configuration_invalidates(db):
    _prime(db)
    before = db.cache_stats()["whatif_cache"]["invalidations"]
    db.apply_configuration(orders_trial(db).renamed("R"))
    after = db.cache_stats()["whatif_cache"]["invalidations"]
    assert after > before


def test_insert_rows_invalidates_and_recomputes(db):
    service, trial = _prime(db)
    stale = service.costs([ORDERS_SQL], trial)
    n = 6000
    db.insert_rows(
        "orders",
        {
            "oid": np.arange(100000, 100000 + n),
            "uid": np.full(n, 3),
            "city": np.array(["tor"] * n, dtype=object),
            "amount": np.ones(n, dtype=np.int64),
        },
    )
    db.collect_statistics()
    fresh = service.costs([ORDERS_SQL], trial)
    assert fresh != stale, (
        "post-insert costs must be recomputed, not served stale"
    )


def test_collect_statistics_invalidates(db):
    _prime(db)
    before = db.cache_stats()["whatif_cache"]["invalidations"]
    db.collect_statistics()
    assert db.cache_stats()["whatif_cache"]["invalidations"] > before


# ----------------------------------------------------------------------
# The recommender's optimization counters

def test_recommender_emits_service_counters(db):
    sqls = [ORDERS_SQL, USERS_SQL]
    with obs.recording() as recorder:
        recommender = WhatIfRecommender(
            db, RecommenderProfile("t", min_improvement=0.001)
        )
        recommender.recommend(workload_of(sqls), budget_bytes=10**9)
    counters = recorder.metrics.snapshot()["counters"]
    assert counters.get("recommender.whatif_cache.misses", 0) > 0
    assert counters.get("recommender.whatif_cache.hits", 0) > 0, (
        "greedy rounds re-price candidates: some lookups must hit"
    )
    assert counters.get("optimizer.env_delta_builds", 0) > 0, (
        "candidate trials should extend the current env incrementally"
    )


def test_upper_bound_pruning_skips_cheap_candidates(db):
    # The users query is a tiny fraction of the workload cost, so with a
    # high improvement threshold every users-only candidate has an upper
    # bound (the users query's entire cost) below the round threshold.
    sqls = [ORDERS_SQL] * 6 + [USERS_SQL]
    with obs.recording() as recorder:
        recommender = WhatIfRecommender(
            db, RecommenderProfile("t", min_improvement=0.2)
        )
        recommender.recommend(workload_of(sqls), budget_bytes=10**9)
    counters = recorder.metrics.snapshot()["counters"]
    assert counters.get("recommender.candidates_pruned", 0) > 0


def test_bounded_pricing_abandons_hopeless_candidates(db, monkeypatch):
    # An index on orders.uid helps every orders query, but not by the
    # 90 % the round demands: it passes the upper bound (the orders
    # queries are nearly the whole workload) and is abandoned once the
    # dearest queries have been priced.
    sqls = [
        f"SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = {u} "
        f"GROUP BY o.city"
        for u in (3, 17, 99, 251, 1000, 5)
    ] + [USERS_SQL]
    priced = {}
    cost = WhatIfCostService.cost

    def counting(self, bound, config, **kwargs):
        priced[config.fingerprint] = priced.get(config.fingerprint, 0) + 1
        return cost(self, bound, config, **kwargs)

    monkeypatch.setattr(WhatIfCostService, "cost", counting)
    recommender = WhatIfRecommender(
        db, RecommenderProfile("t", min_improvement=0.9, max_selected=1)
    )
    with obs.recording() as recorder:
        recommender.recommend(workload_of(sqls), budget_bytes=10**9)
    counters = recorder.metrics.snapshot()["counters"]

    # It is the one candidate the round abandons: strictly fewer
    # what-if calls than queries it affects, and the counters say so.
    candidate = IndexDefinition(table="orders", columns=("uid",))
    service = WhatIfCostService(db)
    affected = sum(service.affects(candidate, db.bind(q)) for q in sqls)
    calls = priced[orders_trial(db).fingerprint]
    assert affected == 6 and 0 < calls < affected
    assert counters["recommender.candidates_abandoned"] == 1
    assert counters["recommender.pricings_skipped"] == affected - calls


def test_candidate_sizes_are_the_whole_trial_delta_in_every_round(
        monkeypatch):
    """Each candidate is sized once per run; in every round of every
    family and system that is what re-sizing the whole trial
    configuration against the round's base gives, views (with the
    index on their leading column) included."""
    best_candidate = WhatIfRecommender._best_candidate
    checked = {"ix": 0, "mv": 0}

    def checking(self, candidates, sizes, selected_keys, queries, weights,
                 current, *rest):
        here = self._db.estimated_configuration_bytes(current)
        for key, candidate in candidates.items():
            if key in selected_keys:
                continue
            trial = self._extend(current, candidate)
            assert sizes[key] == (
                self._db.estimated_configuration_bytes(trial) - here
            ), key
            checked[key[0]] += 1
        return best_candidate(self, candidates, sizes, selected_keys,
                              queries, weights, current, *rest)

    monkeypatch.setattr(WhatIfRecommender, "_best_candidate", checking)
    context = BenchContext(
        BenchSettings(scale=0.05, workload_size=10, seed=405, jobs=1)
    )
    for family in FAMILY_DATASET:
        for system in "ABC":
            context.recommendation(system, family)
    assert checked["ix"] > 0 and checked["mv"] > 0, checked


# ----------------------------------------------------------------------
# Satellite: Table.byte_size memo

def test_table_byte_size_cached_and_invalidated(db):
    table = db.table("orders")
    first = table.byte_size()
    assert table.byte_size() is first or table.byte_size() == first
    assert table._byte_size == first
    n = 10
    db.insert_rows(
        "orders",
        {
            "oid": np.arange(900000, 900000 + n),
            "uid": np.zeros(n, dtype=np.int64),
            "city": np.array(["tor"] * n, dtype=object),
            "amount": np.ones(n, dtype=np.int64),
        },
    )
    assert table.byte_size() == first + n * table.schema.row_width()
