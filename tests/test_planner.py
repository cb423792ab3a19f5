"""Planner behavior: access-path selection, join methods, what-if mode."""

import numpy as np
import pytest

from repro.common.errors import PlanError
from repro.engine.configuration import (
    one_column_configuration,
    primary_configuration,
)
from repro.index.definition import IndexDefinition
from repro.optimizer.environment import IndexInfo, PlannerEnv
from repro.optimizer.planner import Planner
from repro.optimizer.plans import (
    HashJoin,
    IndexNLJoin,
    IndexScan,
    SeqScan,
    walk,
)

from conftest import load_city_database


@pytest.fixture
def db():
    # A larger instance so index paths actually win.
    return load_city_database(n_users=5000, n_orders=40000, seed=3)


def plan_for(db, sql):
    return Planner(db.planner_env()).plan(db.bind(sql))


def nodes_of(plan, cls):
    return [n for n in walk(plan) if isinstance(n, cls)]


def test_seq_scan_without_indexes(db):
    db.apply_configuration(primary_configuration(db.catalog))
    plan = plan_for(
        db, "SELECT u.city, COUNT(*) FROM users u GROUP BY u.city"
    )
    assert nodes_of(plan, SeqScan)
    assert not nodes_of(plan, IndexScan)


def test_selective_filter_uses_index(db):
    db.apply_configuration(one_column_configuration(db.catalog))
    plan = plan_for(
        db,
        "SELECT u.city, COUNT(*) FROM users u "
        "WHERE u.uid = 17 GROUP BY u.city",
    )
    scans = nodes_of(plan, IndexScan)
    assert scans, "selective equality should use the uid index"
    assert scans[0].index.definition.columns == ("uid",)


def test_unselective_filter_prefers_scan(db):
    db.apply_configuration(one_column_configuration(db.catalog))
    plan = plan_for(
        db,
        "SELECT u.uid, COUNT(*) FROM users u "
        "WHERE u.city = 'tor' GROUP BY u.uid",
    )
    # city = 'tor' matches ~20% of rows: a full scan is cheaper than
    # fetching a fifth of the heap through an index.
    assert nodes_of(plan, SeqScan)


def test_estimated_cost_monotone_in_configuration(db):
    """More indexes can only lower (or keep) the estimated best cost."""
    sql = (
        "SELECT o.city, COUNT(*) FROM orders o "
        "WHERE o.uid = 3 GROUP BY o.city"
    )
    db.apply_configuration(primary_configuration(db.catalog))
    cost_p = db.estimate(sql)
    db.apply_configuration(one_column_configuration(db.catalog))
    cost_1c = db.estimate(sql)
    assert cost_1c <= cost_p


def test_join_method_selection(db):
    db.apply_configuration(one_column_configuration(db.catalog))
    selective = plan_for(
        db,
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid AND u.uid = 12 GROUP BY u.city",
    )
    assert nodes_of(selective, IndexNLJoin), (
        "a one-row outer should drive an index-nested-loop join"
    )
    unselective = plan_for(
        db,
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid GROUP BY u.city",
    )
    assert nodes_of(unselective, HashJoin), (
        "a full-table join should hash"
    )


def test_what_if_hypothetical_costs(db):
    db.apply_configuration(primary_configuration(db.catalog))
    sql = (
        "SELECT o.city, COUNT(*) FROM orders o "
        "WHERE o.uid = 3 GROUP BY o.city"
    )
    baseline = db.estimate_hypothetical(sql, db.configuration)
    hypothetical = db.configuration.with_indexes(
        [IndexDefinition(table="orders", columns=("uid",))], name="H"
    )
    improved = db.estimate_hypothetical(sql, hypothetical)
    assert improved < baseline
    # Hypothetical estimates are more conservative than estimates taken
    # in the built target configuration (Figure 10's H-vs-E gap).
    db.apply_configuration(
        one_column_configuration(db.catalog)
    )
    built = db.estimate(sql)
    assert built <= improved


def test_plan_explain_renders(db):
    from repro.optimizer.plans import explain

    db.apply_configuration(one_column_configuration(db.catalog))
    plan = plan_for(
        db,
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid AND u.age = 30 GROUP BY u.city",
    )
    text = explain(plan)
    assert "HashAggregate" in text
    assert "rows=" in text and "cost=" in text


def test_semijoin_source_uses_index_only(db):
    db.apply_configuration(one_column_configuration(db.catalog))
    plan = plan_for(
        db,
        "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid IN "
        "(SELECT uid FROM orders GROUP BY uid HAVING COUNT(*) < 3) "
        "GROUP BY o.city",
    )
    semis = [
        semi
        for node in walk(plan)
        for semi in getattr(node, "semi_filters", [])
    ]
    drivers = [
        node.driving for node in walk(plan)
        if hasattr(node, "driving")
    ]
    sources = [s.source for s in semis] + [d.source for d in drivers]
    assert sources
    assert all(s.via in ("index_only", "view", "scan") for s in sources)
    assert any(s.via == "index_only" for s in sources)


def test_rejects_empty_query():
    from repro.sql.binder import BoundQuery

    db = load_city_database(n_users=50, n_orders=50)
    with pytest.raises(PlanError):
        Planner(db.planner_env()).plan(BoundQuery(relations={}))


def test_disconnected_join_graph_is_a_plan_error():
    """Two relations no predicate connects: the DP has nothing to join
    them with (there is no cartesian product operator)."""
    from repro.bench.context import BenchContext, BenchSettings

    tpch = BenchContext(BenchSettings(scale=0.02)).database("C", "skth")
    with pytest.raises(PlanError, match="could not connect the join graph"):
        tpch.plan(
            "SELECT COUNT(*) FROM nation n, region r "
            "WHERE n.n_name = 'FRANCE'"
        )


def test_first_of_two_equal_cost_join_candidates_wins(db):
    """Only the cheapest candidate of a join step is built, so the tie
    rule — strictly cheaper replaces, hence the first in enumeration
    order stays — is the costing loop's: swap two indexes that cost the
    same and the plan swaps with them."""
    db.apply_configuration(primary_configuration(db.catalog))
    base = db._build_hypothetical_env(db.configuration, True, False)
    twins = [
        IndexInfo.hypothetical_on(
            IndexDefinition("orders", ("uid", second)),
            db.table("orders").row_count, key_width=16,
        )
        for second in ("amount", "oid")
    ]
    bound = db.bind(
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        "WHERE u.uid = o.uid AND u.age = 30 GROUP BY u.city"
    )

    def plan_with(infos):
        env = PlannerEnv(
            catalog=base.catalog, estimator=base.estimator,
            hardware=base.hardware,
            indexes={**base.indexes,
                     "orders": base.indexes["orders"] + infos},
        )
        return Planner(env).plan(bound)

    alone = [plan_with([twin]) for twin in twins]
    assert alone[0].est.cost == alone[1].est.cost
    for ordered in (twins, twins[::-1]):
        used = [
            node.index for node in walk(plan_with(ordered))
            if getattr(node, "index", None) in twins
        ]
        assert used and all(info is ordered[0] for info in used)


def test_executed_plans_share_no_node(db):
    """What-if plans may share subtrees through their environment's
    memo; the built configuration's environment has none, so a plan
    that is executed is a private tree."""
    db.apply_configuration(one_column_configuration(db.catalog))
    sqls = [
        "SELECT u.city, COUNT(*) FROM users u, orders o "
        f"WHERE u.uid = o.uid AND u.age = {age} GROUP BY u.city"
        for age in (30, 31)
    ] + ["SELECT u.city, COUNT(*) FROM users u GROUP BY u.city"]
    trial = db.configuration.with_indexes(
        [IndexDefinition(table="orders", columns=("uid", "city"))]
    )
    for sql in sqls:
        db.estimate_hypothetical(sql, trial, force_hypothetical=True)
    assert db.planner_env().memo is None
    nodes = [node for sql in sqls for node in walk(db.plan(sql))]
    assert len({id(node) for node in nodes}) == len(nodes)


def test_configuration_equivalence_of_results(db):
    """Plans under P and 1C return identical answers on a join query."""
    sql = (
        "SELECT u.city, COUNT(DISTINCT o.oid) FROM users u, orders o "
        "WHERE u.uid = o.uid AND u.age = 44 GROUP BY u.city"
    )
    db.apply_configuration(primary_configuration(db.catalog))
    p_rows = sorted(db.execute(sql).rows())
    db.apply_configuration(one_column_configuration(db.catalog))
    c_rows = sorted(db.execute(sql).rows())
    assert p_rows == c_rows


def test_composite_index_prefix_consumption(db):
    config = primary_configuration(db.catalog).with_indexes(
        [IndexDefinition(table="users", columns=("city", "age"))],
        name="comp",
    )
    db.apply_configuration(config)
    plan = plan_for(
        db,
        "SELECT u.uid, COUNT(*) FROM users u "
        "WHERE u.city = 'tor' AND u.age = 30 GROUP BY u.uid",
    )
    scans = nodes_of(plan, IndexScan)
    assert scans
    assert len(scans[0].prefix_filters) == 2
    assert not scans[0].residual_filters
    result = db.execute(
        "SELECT u.uid, COUNT(*) FROM users u "
        "WHERE u.city = 'tor' AND u.age = 30 GROUP BY u.uid"
    )
    users = db.table("users")
    expected = int(
        np.sum((users.decode("city") == "tor") & (users.decode("age") == 30))
    )
    assert len(result.rows()) == expected
