"""The bulk estimate that sampling runs, and the join-graph facts that
planning shares between queries.

``Database.estimate_many`` binds and plans a family in one pass that
touches neither the bind nor the plan cache; its costs must be the
cached path's bit for bit.  The planner derives a query's join-graph
facts once per (relations, join predicates) in its environment, so a
plan found through a warm environment must be the plan a fresh one
builds.
"""

import dataclasses

import pytest

from repro.bench.context import (
    FAMILY_DATASET,
    FAMILY_GENERATORS,
    BenchContext,
    BenchSettings,
)
from repro.optimizer.planner import Planner
from repro.optimizer.plans import explain, plan_fingerprint

FAMILIES = [
    ("A", "NREF2J"), ("A", "NREF3J"),
    ("C", "SkTH3J"), ("C", "SkTH3Js"), ("C", "UnTH3J"),
]


@pytest.fixture(scope="module")
def context():
    return BenchContext(BenchSettings(scale=0.05, workload_size=30, jobs=1))


def _entries(db):
    return {
        name: len(db._caches[group][name])
        for group, name in (("catalog", "bind_cache"), ("derived", "plan_cache"))
    }


@pytest.mark.parametrize("system, family", FAMILIES)
def test_bulk_estimate_is_exact_caches_nothing_and_shares_join_graphs(
        context, system, family):
    db = context.database(system, FAMILY_DATASET[family])
    context._ensure_configuration(db, system, "P")
    db.invalidate_caches()
    sqls = FAMILY_GENERATORS[family](db).sqls()

    before = _entries(db)
    costs = db.estimate_many(sqls)
    assert _entries(db) == before

    # The plans found through the environment the bulk pass warmed.
    warm = [db.plan(sql) for sql in sqls]
    assert [float(cost).hex() for cost in costs] == [
        float(plan.est.cost).hex() for plan in warm
    ]
    graphs = {
        (tuple(bound.relations.items()), tuple(bound.join_preds))
        for bound in map(db.bind, sqls)
    }
    assert len(db.planner_env().join_graphs) == len(graphs)

    # Each query again, in an environment of its own.
    db.invalidate_caches()
    for sql, plan in zip(sqls, warm):
        fresh = Planner(dataclasses.replace(db.planner_env())).plan(
            db.bind(sql)
        )
        assert explain(fresh) == explain(plan), sql
        assert plan_fingerprint(fresh) == plan_fingerprint(plan), sql
