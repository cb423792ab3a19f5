"""Every plan the SQL surface can produce has the shape the executor's
one route to codes rests on (``conftest.assert_keys_are_scanned``):
aggregate and projection outputs exist only at the root, and every key
an operator below takes codes of is a scanned ``alias.column``.

Checked here on every query of the five families, per system, under P,
1C and the recommended configuration (System C's carries views);
``test_differential.py`` checks it on its generated queries.  If the SQL
surface ever grows derived tables, this names the operator that would
need a second route, instead of a ``KeyError`` at run time.
"""

import pytest

from repro.bench.context import (
    FAMILY_DATASET,
    BenchContext,
    BenchSettings,
)
from repro.optimizer.plans import HashJoin, IndexNLJoin, ViewScan, walk

from conftest import assert_keys_are_scanned

# The pairings the paper measures: A and B on NREF, C on TPC-H.
FAMILIES = [
    ("A", "NREF2J"), ("A", "NREF3J"),
    ("B", "NREF2J"), ("B", "NREF3J"),
    ("C", "SkTH3J"), ("C", "SkTH3Js"), ("C", "UnTH3J"),
]


@pytest.fixture(scope="module")
def context():
    return BenchContext(BenchSettings(scale=0.02, workload_size=10, jobs=1))


@pytest.mark.parametrize("system, family", FAMILIES)
def test_every_family_plan_reads_codes_of_scanned_keys(
    context, system, family
):
    db = context.database(system, FAMILY_DATASET[family])
    queries = list(context.full_family(system, family))
    recommended, _ = context.recommendation(system, family)
    configurations = [
        context.p_configuration(db), context.one_c_configuration(db),
    ]
    if recommended is not None:
        configurations.append(recommended)
    seen = set()
    for configuration in configurations:
        db.apply_configuration(configuration)
        db.collect_statistics()
        for query in queries:
            plan = db.plan(query.sql)
            assert_keys_are_scanned(plan)
            seen.update(type(node) for node in walk(plan))
    # The walk met the operators whose keys it is about.
    assert seen & {HashJoin, IndexNLJoin}
    if system == "C":
        assert recommended is not None and recommended.views
        assert ViewScan in seen


def test_the_check_names_an_operator_over_an_unscanned_key(city_db):
    """A hand-built plan the planner cannot emit: a join over the
    output of an aggregate."""
    from repro.optimizer.plans import HashAggregate, Project, SeqScan

    users = SeqScan(alias="u", table="users", columns=["uid", "city"])
    orders = SeqScan(alias="o", table="orders", columns=["uid"])
    counted = HashAggregate(orders, ["o.uid"], [])
    plan = Project(HashJoin(counted, users, ["o.uid"], ["u.uid"]), ["u.city"])
    with pytest.raises(AssertionError, match="occurs below the root"):
        assert_keys_are_scanned(plan)
    bare = HashJoin(orders, users, ["o.uid"], ["u.uid"])
    with pytest.raises(AssertionError, match="root is a HashJoin"):
        assert_keys_are_scanned(bare)
    unscanned = Project(
        HashJoin(orders, users, ["o.city"], ["u.city"]), ["u.city"]
    )
    with pytest.raises(AssertionError, match=r"takes codes of \['o.city'\]"):
        assert_keys_are_scanned(unscanned)
    assert_keys_are_scanned(
        Project(HashJoin(orders, users, ["o.uid"], ["u.uid"]), ["u.city"])
    )
