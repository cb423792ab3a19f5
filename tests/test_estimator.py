"""Cardinality estimator unit tests."""

import pytest

from repro.optimizer.estimator import Estimator
from repro.optimizer.policy import EstimatorPolicy
from repro.sql.binder import BoundColumn, Filter, SemiJoin
from repro.stats.table_stats import StatisticsCatalog, TableStats
from repro.storage.encoding import DictionaryCache

from conftest import load_city_database


@pytest.fixture
def stats():
    db = load_city_database(n_users=1000, n_orders=8000, seed=2)
    catalog = StatisticsCatalog()
    for name in ("users", "orders"):
        catalog.put(TableStats.collect(db.table(name), DictionaryCache()))
    return catalog


def make_estimator(stats, **kwargs):
    return Estimator(stats, EstimatorPolicy(**kwargs))


def flt(alias, column, op, value):
    return Filter(BoundColumn(alias, column), op, value)


def test_table_shape(stats):
    est = make_estimator(stats)
    assert est.table_rows("users") == 1000
    assert est.table_pages("users") >= 1
    assert est.n_distinct("users", "uid") == 1000


def test_eq_selectivity_uses_mcvs(stats):
    est = make_estimator(stats)
    sel = est.filter_selectivity("users", flt("u", "city", "=", "tor"))
    assert 0.1 < sel < 0.4
    hypothetical = make_estimator(stats, use_mcvs=False)
    uniform = hypothetical.filter_selectivity(
        "users", flt("u", "city", "=", "tor")
    )
    assert uniform == pytest.approx(1 / 5)


def test_inequality_and_range_selectivity(stats):
    est = make_estimator(stats)
    ne = est.filter_selectivity("users", flt("u", "city", "<>", "tor"))
    eq = est.filter_selectivity("users", flt("u", "city", "=", "tor"))
    assert ne == pytest.approx(1 - eq)
    rng = est.filter_selectivity("users", flt("u", "age", "<", 30))
    assert rng == pytest.approx(1 / 3)


def test_join_selectivity_containment(stats):
    est = make_estimator(stats)
    sel = est.join_selectivity("users", "uid", "orders", "uid")
    assert sel == pytest.approx(1 / 1000)
    rows = est.join_rows(1000, 8000, sel)
    assert rows == pytest.approx(8000)


def test_semijoin_selectivity_profile_vs_default(stats):
    semi = SemiJoin(
        target=BoundColumn("o", "uid"),
        sub_table="orders",
        sub_column="uid",
        having_op="<",
        having_value=4,
    )
    with_profile = make_estimator(stats)
    sel = with_profile.semijoin_selectivity("orders", semi)
    assert 0 <= sel <= 1
    degraded = make_estimator(stats, use_frequency_profile=False)
    assert degraded.semijoin_selectivity("orders", semi) == 0.25


def test_semijoin_allowed_values(stats):
    semi = SemiJoin(
        target=BoundColumn("o", "uid"),
        sub_table="orders",
        sub_column="uid",
        having_op="<",
        having_value=100,
    )
    est = make_estimator(stats)
    allowed = est.semijoin_allowed_values(semi)
    # Every uid occurs fewer than 100 times: all distinct values allowed.
    assert allowed == pytest.approx(
        est.n_distinct("orders", "uid"), rel=0.2
    )


def test_group_count_damped_and_capped(stats):
    est = make_estimator(stats)
    assert est.group_count(100, []) == 1.0
    assert est.group_count(50, [1000, 1000]) == 50
    moderate = est.group_count(10_000, [5, 7])
    assert 5 <= moderate <= 35


def test_scaled_ndv_shrinks_with_selection(stats):
    est = make_estimator(stats)
    full = est.scaled_ndv("users", "city", 1000)
    tiny = est.scaled_ndv("users", "city", 2)
    assert tiny < full <= 5.0 + 1e-9


def test_hypothetical_policy_roundtrip():
    policy = EstimatorPolicy()
    degraded = policy.as_hypothetical()
    assert degraded.hypothetical
    assert not degraded.use_mcvs
    assert not degraded.use_frequency_profile
    assert policy.use_mcvs, "original unchanged (frozen dataclass)"
