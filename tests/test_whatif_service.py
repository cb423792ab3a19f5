"""What-if cost service: memo keys, invalidation, parity, pruning."""

import numpy as np
import pytest

from repro import obs
from repro.engine.configuration import primary_configuration
from repro.index.definition import IndexDefinition
from repro.recommender.costservice import (
    WhatIfCostService,
    query_tables,
    relevant_fingerprint,
)
from repro.recommender.profiles import RecommenderProfile
from repro.recommender.whatif import WhatIfRecommender
from repro.runtime.session import MeasurementSession
from repro.views.matview import MatViewDefinition, ViewColumn
from repro.workload.workload import Workload, make_instance

from conftest import load_city_database

ORDERS_SQL = (
    "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = 3 GROUP BY o.city"
)
USERS_SQL = (
    "SELECT u.city, COUNT(*) FROM users u WHERE u.age = 30 GROUP BY u.city"
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
    baseline = relevant_fingerprint(bound, trial, db.catalog)
    # An index on a table the query never touches must not change the key
    # (this is exactly what makes round-2 lookups hit after an unrelated
    # structure was selected in round 1) ...
    noisy = trial.with_indexes(
        [IndexDefinition(table="users", columns=("age",))]
    )
    assert relevant_fingerprint(bound, noisy, db.catalog) == baseline
    # ... and so must one the planner cannot use: orders.city neither
    # matches the equality filter (uid) nor covers {uid, city} ...
    unusable = trial.with_indexes(
        [IndexDefinition(table="orders", columns=("city",))]
    )
    assert relevant_fingerprint(bound, unusable, db.catalog) == baseline
    # ... while a covering index on the query's table changes the key.
    covering = trial.with_indexes(
        [IndexDefinition(table="orders", columns=("city", "uid"))]
    )
    assert relevant_fingerprint(bound, covering, db.catalog) != baseline


def test_service_memoizes_and_counts(db):
    service = WhatIfCostService(db)
    trial = orders_trial(db)
    first = service.costs([ORDERS_SQL], trial)
    assert service.stats()["misses"] == 1
    again = service.costs([ORDERS_SQL], trial)
    assert again == first
    assert service.stats()["hits"] == 1
    # The memo lives on the database, so a second service instance hits.
    other = WhatIfCostService(db)
    assert other.costs([ORDERS_SQL], trial) == first
    assert other.stats() == {"hits": 1, "misses": 0, "hit_rate": 1.0}


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
    assert service.stats()["hits"] == 1


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


def test_parallel_candidate_search_matches_serial(db):
    sqls = [
        f"SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = {u} "
        f"GROUP BY o.city"
        for u in (3, 17, 99, 251)
    ] + [USERS_SQL]
    # The bound is per candidate, so the pool width changes neither the
    # recommendation nor which pricings are skipped.
    skip_counters = (
        "recommender.candidates_abandoned", "recommender.pricings_skipped"
    )
    for min_improvement in (0.001, 0.9):
        profile = RecommenderProfile("t", min_improvement=min_improvement)
        outcomes = {}
        for jobs in (1, 4):
            fresh = load_city_database(n_users=2000, n_orders=12000, seed=7)
            fresh.apply_configuration(
                primary_configuration(fresh.catalog, name="P")
            )
            with obs.recording() as recorder, \
                    MeasurementSession(fresh, jobs=jobs) as session:
                recommender = WhatIfRecommender(
                    fresh, profile, session=session
                )
                report = recommender.recommend(
                    workload_of(sqls), budget_bytes=10**9, name="R"
                )
            counters = recorder.metrics.snapshot()["counters"]
            outcomes[jobs] = (
                report.configuration.fingerprint,
                [counters.get(name, 0) for name in skip_counters],
            )
        assert outcomes[1] == outcomes[4]
    assert outcomes[1][1][0] > 0, "the 90 % round abandons a candidate"


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
