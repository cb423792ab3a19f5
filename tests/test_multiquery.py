"""Cross-query optimization: template identity, plan replay, bind
templates, and the subplan cache.

The contract under test everywhere: the caches may only change *when*
work happens, never *what* it produces — replayed plans and rebound
queries must be indistinguishable from their from-scratch
counterparts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.subplan import SubplanCache, subplan_cache_enabled
from repro.optimizer.planner import Planner
from repro.optimizer.plans import explain
from repro.optimizer.templates import (
    PlanTemplate,
    TemplatePlanner,
    template_key,
    templates_enabled,
)
from repro.sql.binder import Binder
from repro.sql.parser import parse, scan_literals, tokenize
from repro.sql.templates import BindTemplates
from repro.workload.workload import make_instance

from conftest import load_city_database


@pytest.fixture(scope="module")
def module_db():
    """One city database shared by the read-only tests in this module."""
    return load_city_database()


def _age_sql(threshold):
    return (
        "select city, count(*) from users "
        f"where age > {threshold} group by city"
    )


def _join_sql(threshold, city):
    return (
        "select u.city, sum(o.amount) from users u, orders o "
        "where u.uid = o.uid and o.amount > "
        f"{threshold} and u.city = '{city}' group by u.city"
    )


# ----------------------------------------------------------------------
# Template identity


@settings(max_examples=25, deadline=None)
@given(a=st.integers(0, 120), b=st.integers(0, 120))
def test_property_constants_share_optimizer_template_key(module_db, a, b):
    env = module_db.planner_env()
    key_a = template_key(module_db.bind(_age_sql(a)), env)
    key_b = template_key(module_db.bind(_age_sql(b)), env)
    assert key_a is not None
    assert key_a == key_b


@settings(max_examples=25, deadline=None)
@given(
    a=st.integers(0, 99), b=st.integers(0, 99),
    city=st.sampled_from(["tor", "mtl", "van"]),
)
def test_property_join_shape_shares_template_key(module_db, a, b, city):
    env = module_db.planner_env()
    key_a = template_key(module_db.bind(_join_sql(a, city)), env)
    key_b = template_key(module_db.bind(_join_sql(b, city)), env)
    assert key_a is not None
    assert key_a == key_b


def test_different_shapes_get_different_keys(module_db):
    env = module_db.planner_env()
    assert template_key(module_db.bind(_age_sql(30)), env) != template_key(
        module_db.bind(_join_sql(30, "tor")), env
    )


def test_template_key_is_env_independent(module_db):
    from repro.engine.configuration import one_column_configuration

    bound = module_db.bind(_join_sql(40, "mtl"))
    real = template_key(bound, module_db.planner_env())
    hypo = template_key(
        bound,
        module_db.hypothetical_env(
            one_column_configuration(module_db.catalog)
        ),
    )
    assert real == hypo


def test_views_fall_outside_the_template_subset(city_db):
    from repro.engine.configuration import primary_configuration
    from repro.views.matview import MatViewDefinition, ViewColumn

    view_def = MatViewDefinition(
        tables=("users", "orders"),
        join_pred=(("users", "uid"), ("orders", "uid")),
        group_columns=(ViewColumn("users", "city"),),
    )
    config = primary_configuration(city_db.catalog).with_views(
        [view_def], name="V"
    )
    bound = city_db.bind(_age_sql(30))
    env = city_db.hypothetical_env(config, force_hypothetical=True)
    assert env.views
    assert template_key(bound, env) is None


@settings(max_examples=25, deadline=None)
@given(c1=st.integers(0, 10_000), c2=st.integers(0, 10_000))
def test_property_workload_template_key_ignores_constant(c1, c2):
    q1 = make_instance("q1", "NREF2J", r=3, constant=c1, constant_freq=10)
    q2 = make_instance("q2", "NREF2J", r=3, constant=c2, constant_freq=10)
    assert q1.template_key() == q2.template_key()
    other = make_instance("q3", "NREF2J", r=4, constant=c1, constant_freq=10)
    assert q1.template_key() != other.template_key()


# ----------------------------------------------------------------------
# Replay equivalence and invalidation


def test_replay_is_bit_identical_to_full_enumeration(module_db):
    env = module_db.planner_env()
    template = PlanTemplate()
    for threshold, city in ((5, "tor"), (60, "mtl"), (95, "van")):
        bound = module_db.bind(_join_sql(threshold, city))
        full = Planner(env).plan(bound)
        templated = TemplatePlanner(env).plan_with_template(bound, template)
        assert explain(templated) == explain(full)
        assert templated.est.cost == pytest.approx(full.est.cost)


def test_replay_matches_under_hypothetical_envs(module_db):
    from repro.engine.configuration import (
        one_column_configuration,
        primary_configuration,
    )

    template = PlanTemplate()
    for config in (
        primary_configuration(module_db.catalog),
        one_column_configuration(module_db.catalog),
    ):
        env = module_db.hypothetical_env(config)
        bound = module_db.bind(_join_sql(50, "tor"))
        full = Planner(env).plan(bound)
        templated = TemplatePlanner(env).plan_with_template(bound, template)
        assert explain(templated) == explain(full)


def test_plan_cache_replays_and_counts(monkeypatch):
    monkeypatch.delenv("REPRO_PLAN_TEMPLATES", raising=False)
    assert templates_enabled()
    db = load_city_database()
    db.plan(_age_sql(10))
    db.plan(_age_sql(90))
    stats = db.cache_stats()["template_cache"]
    assert stats["misses"] == 1    # one build for the shared key
    assert stats["hits"] == 1      # the second constant replays


def test_insert_rows_invalidates_template_cache():
    db = load_city_database()
    db.plan(_age_sql(10))
    assert len(db._template_cache) == 1
    db.insert_rows(
        "users",
        {"uid": np.array([10_001]), "city": np.array(["tor"], dtype=object),
         "age": np.array([33])},
    )
    assert len(db._template_cache) == 0
    assert db.cache_stats()["template_cache"]["invalidations"] >= 1


def test_apply_configuration_invalidates_template_cache():
    from repro.engine.configuration import primary_configuration

    db = load_city_database()
    db.plan(_age_sql(10))
    assert len(db._template_cache) == 1
    db.apply_configuration(primary_configuration(db.catalog))
    assert len(db._template_cache) == 0


def test_disabling_the_knob_bypasses_the_cache(monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_TEMPLATES", "0")
    assert not templates_enabled()
    db = load_city_database()
    db.plan(_age_sql(10))
    db.plan(_age_sql(90))
    assert len(db._template_cache) == 0


def test_knob_off_and_on_agree_end_to_end(monkeypatch):
    results = {}
    for state in ("0", "1"):
        monkeypatch.setenv("REPRO_PLAN_TEMPLATES", state)
        monkeypatch.setenv("REPRO_SUBPLAN_CACHE", state)
        db = load_city_database()
        rows = []
        for threshold, city in ((5, "tor"), (60, "mtl"), (5, "tor")):
            result = db.execute(_join_sql(threshold, city))
            rows.append((result.elapsed, result.rows()))
        results[state] = rows
    assert results["0"] == results["1"]


# ----------------------------------------------------------------------
# Bind templates


def test_bind_template_replay_equals_plain_binding(module_db):
    templates = BindTemplates(module_db.catalog)
    for threshold, city in ((12, "tor"), (77, "mtl"), (3, "van")):
        sql = _join_sql(threshold, city)
        via_template = templates.bind(sql)
        plain = Binder(module_db.catalog).bind(parse(sql))
        assert via_template == plain
        assert via_template.sql == plain.sql
    assert len(templates) == 1    # one skeleton served all three


def test_bind_template_bad_member_falls_back(module_db):
    templates = BindTemplates(module_db.catalog)
    assert templates.bind("select nope from users where age > 3") is None


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 10**9),
    s=st.text(
        alphabet="abc '",
        min_size=0, max_size=8,
    ),
)
def test_property_scan_literals_matches_tokenizer(n, s):
    literal = s.replace("'", "''")
    sql = f"select uid from users where age > {n} and city = '{literal}'"
    swept = scan_literals(sql)
    lexed = [
        (t.kind, t.text, t.pos)
        for t in tokenize(sql)
        if t.kind in ("number", "string")
    ]
    assert swept == lexed


# ----------------------------------------------------------------------
# Subplan cache


def test_subplan_cache_hit_requires_identical_backing():
    cache = SubplanCache()
    base = np.arange(10)
    builds = []

    def build():
        builds.append(1)
        return base * 2

    first = cache.semi_values("k", (base,), build)
    second = cache.semi_values("k", (base,), build)
    assert first is second
    assert len(builds) == 1
    # An equal but distinct array is treated as new data: rebuild.
    cache.semi_values("k", (base.copy(),), build)
    assert len(builds) == 2


def test_subplan_cache_invalidate_clears_every_kind():
    cache = SubplanCache()
    base = np.arange(4)
    cache.semi_values("s", (base,), lambda: 1)
    cache.filter_mask("m", (base,), lambda: 2)
    cache.join_domain("d", (base,), lambda: 3)
    cache.invalidate()
    builds = []
    cache.semi_values("s", (base,), lambda: builds.append(1))
    cache.filter_mask("m", (base,), lambda: builds.append(1))
    cache.join_domain("d", (base,), lambda: builds.append(1))
    assert len(builds) == 3
    assert cache.stats.invalidations == 1


def test_subplan_knob_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_SUBPLAN_CACHE", raising=False)
    assert subplan_cache_enabled()
    for off in ("0", "false", "NO", "off"):
        monkeypatch.setenv("REPRO_SUBPLAN_CACHE", off)
        assert not subplan_cache_enabled()
    assert subplan_cache_enabled(flag=True)
