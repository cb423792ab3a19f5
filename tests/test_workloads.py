"""Query families, constant selection, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.constants import (
    frequency_ladder,
    selectivity_ladder,
    sql_literal,
)
from repro.workload.nref_families import generate_nref2j, generate_nref3j
from repro.workload.sampling import stratified_sample
from repro.workload.tpch_families import (
    generate_skth3j,
    generate_skth3js,
    generate_unth3j,
)
from repro.workload.workload import Workload, make_instance


def test_sql_literal_rendering():
    assert sql_literal(5) == "5"
    assert sql_literal("x'y") == "'x''y'"
    assert sql_literal(2.5) == "2.5"


def test_selectivity_ladder_orders_of_magnitude():
    rng = np.random.default_rng(0)
    # 200 singletons, one value 10x, one value 100x.
    values = (
        [f"u{i}" for i in range(200)] + ["ten"] * 10 + ["hundred"] * 100
    )
    rng.shuffle(values)
    ladder = selectivity_ladder(values)
    assert ladder[0][1] == 1
    assert [f for _, f in ladder] == [1, 10, 100]


def test_selectivity_ladder_flat_column():
    ladder = selectivity_ladder(["a", "b", "c", "d"])
    assert len(ladder) == 1
    assert ladder[0][1] == 1


def test_frequency_ladder_real_frequencies():
    values = ["a"] * 1 + ["b"] * 10 + ["c"] * 10 + ["d"] * 100
    ladder = frequency_ladder(values)
    counts = {1, 10, 100}
    assert set(ladder) <= counts
    assert ladder[0] == 1


def test_nref_families_shape(tiny_nref):
    w2 = generate_nref2j(tiny_nref)
    w3 = generate_nref3j(tiny_nref)
    assert len(w2) > 30
    assert len(w3) > 30
    for q in list(w2)[:20]:
        assert "HAVING COUNT(*) < 4" in q.sql
        assert q.family == "NREF2J"
        bound = tiny_nref.bind(q.sql)
        assert len(bound.relations) == 2
        assert len(bound.semijoins) == 2
    for q in list(w3)[:20]:
        bound = tiny_nref.bind(q.sql)
        assert len(bound.relations) == 3
        tables = list(bound.relations.values())
        assert tables[0] == tables[1], "NREF3J queries self-join R"
        assert bound.filters, "NREF3J queries carry a constant"


def test_nref3j_constants_span_magnitudes(tiny_nref):
    w3 = generate_nref3j(tiny_nref)
    freqs = {}
    for q in w3:
        meta = dict(q.meta)
        key = (meta["s"], meta["c4"], meta["group_by"], meta["c1"])
        freqs.setdefault(key, []).append(int(meta["constant_freq"]))
    ladders = [sorted(v) for v in freqs.values() if len(v) >= 2]
    assert ladders
    assert any(v[-1] >= 8 * v[0] for v in ladders), (
        "some ladder should span about an order of magnitude"
    )


def test_tpch_families_shape(tiny_tpch):
    w = generate_skth3j(tiny_tpch)
    ws = generate_skth3js(tiny_tpch)
    assert len(w) > len(ws)
    simple_tables = {"lineitem", "orders", "partsupp"}
    for q in ws:
        meta = dict(q.meta)
        assert {meta["r"], meta["s"], meta["t"]} <= simple_tables
        assert meta["theta"] == "eq"
    assert any(dict(q.meta)["theta"] == "freq" for q in w)
    for q in list(w)[:20]:
        bound = tiny_tpch.bind(q.sql)
        assert len(bound.relations) == 3


def test_unth3j_uses_same_template(tiny_tpch):
    w = generate_unth3j(tiny_tpch)
    assert all(q.family == "UnTH3J" for q in w)
    assert len(w) > 0


def test_all_family_queries_parse_and_bind(tiny_nref, tiny_tpch):
    for db, gen in (
        (tiny_nref, generate_nref2j),
        (tiny_nref, generate_nref3j),
        (tiny_tpch, generate_skth3j),
        (tiny_tpch, generate_skth3js),
    ):
        workload = gen(db)
        for q in workload:
            db.bind(q.sql)     # raises on any invalid query


def test_stratified_sample_preserves_distribution():
    rng = np.random.default_rng(1)
    queries = [
        make_instance(f"SELECT {i} FROM t", "F", i=i) for i in range(1000)
    ]
    workload = Workload("F", queries)
    # 80% fast (~1s), 20% slow (~100s).
    costs = np.where(rng.random(1000) < 0.8, 1.0, 100.0)
    sample = stratified_sample(workload, costs, size=100, seed=7)
    assert len(sample) == 100
    cost_of = {q.sql: c for q, c in zip(queries, costs)}
    sampled_costs = np.array([cost_of[q.sql] for q in sample])
    slow_fraction = np.mean(sampled_costs > 10)
    assert 0.1 <= slow_fraction <= 0.3


def test_stratified_sample_small_family_returns_all():
    queries = [make_instance(f"q{i}", "F") for i in range(30)]
    workload = Workload("F", queries)
    sample = stratified_sample(workload, np.ones(30), size=100)
    assert len(sample) == 30


def test_stratified_sample_deterministic():
    queries = [make_instance(f"q{i}", "F") for i in range(500)]
    workload = Workload("F", queries)
    costs = np.arange(1, 501, dtype=float)
    a = stratified_sample(workload, costs, size=50, seed=3)
    b = stratified_sample(workload, costs, size=50, seed=3)
    assert a.sqls() == b.sqls()
    c = stratified_sample(workload, costs, size=50, seed=4)
    assert a.sqls() != c.sqls()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 400),
    size=st.integers(1, 120),
    seed=st.integers(0, 10_000),
)
def test_property_sample_size_and_membership(n, size, seed):
    queries = [make_instance(f"q{i}", "F") for i in range(n)]
    workload = Workload("F", queries)
    rng = np.random.default_rng(seed)
    costs = rng.lognormal(2, 2, n)
    sample = stratified_sample(workload, costs, size=size, seed=seed)
    assert len(sample) == min(size, n)
    sqls = sample.sqls()
    assert len(set(sqls)) == len(sqls), "no duplicates"
    assert set(sqls) <= {q.sql for q in queries}


@settings(max_examples=200, deadline=None)
@given(
    costs=st.lists(
        st.sampled_from([0.0, 1e-12, 0.5, 1.0, 3.0, 10.0, 99.9, 100.0, 5e4])
        | st.floats(0.0, 1e6),
        min_size=2, max_size=300,
    ),
    data=st.data(),
)
def test_property_every_stratum_gets_exactly_its_quota(costs, data):
    """A stratum of ``m`` of ``n`` queries has the exact share
    ``size * m / n < m``, so its largest-remainder quota fits in it and
    the sample is exactly ``size`` distinct queries."""
    n = len(costs)
    size = data.draw(st.integers(1, n - 1), label="size")
    queries = [make_instance(f"q{i}", "F") for i in range(n)]
    sample = stratified_sample(Workload("F", queries), costs, size=size)

    positions = [int(sql[1:]) for sql in sample.sqls()]
    assert len(set(positions)) == len(positions) == size
    strata = {}
    for position, cost in enumerate(costs):
        bucket = math.floor(math.log10(max(cost, 1e-9)))
        strata.setdefault(bucket, []).append(position)
    exact = {bucket: size * len(m) / n for bucket, m in strata.items()}
    quota = {bucket: int(share) for bucket, share in exact.items()}
    by_remainder = sorted(
        ((share - quota[bucket], bucket) for bucket, share in exact.items()),
        reverse=True,
    )
    for _, bucket in by_remainder[: size - sum(quota.values())]:
        quota[bucket] += 1
    for bucket, members in strata.items():
        taken = set(positions) & set(members)
        assert len(taken) == quota[bucket], bucket


def test_sample_rejects_mismatched_costs():
    workload = Workload("F", [make_instance("q", "F")])
    with pytest.raises(ValueError):
        stratified_sample(workload, [1.0, 2.0], size=1)
