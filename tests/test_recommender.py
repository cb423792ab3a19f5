"""Recommender: candidate generation, greedy selection, failure modes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.errors import RecommenderGaveUp
from repro.engine.configuration import Configuration, primary_configuration
from repro.index.definition import IndexDefinition
from repro.recommender.candidates import (
    index_candidates,
    roles_of,
    view_candidates,
)
from repro.recommender.profiles import RecommenderProfile
from repro.recommender.whatif import (
    TotalCost,
    WhatIfRecommender,
    gain_of,
    price_bounded,
)
from repro.workload.workload import Workload, make_instance

from conftest import load_city_database


@pytest.fixture
def db():
    db = load_city_database(n_users=4000, n_orders=30000, seed=11)
    db.apply_configuration(primary_configuration(db.catalog, name="P"))
    return db


def workload_of(sqls):
    return Workload(
        "W", [make_instance(sql, "W", i=i) for i, sql in enumerate(sqls)]
    )


JOIN_SQL = (
    "SELECT u.city, COUNT(*) FROM users u, orders o "
    "WHERE u.uid = o.uid AND u.age = 30 GROUP BY u.city"
)


def test_roles_extraction(db):
    bound = db.bind(JOIN_SQL)
    roles = roles_of(bound)
    assert roles.eq_filter == {"users": ["age"]}
    assert roles.join == {"users": ["uid"], "orders": ["uid"]}
    assert roles.group_by == {"users": ["city"]}


def test_index_candidates_strategies(db):
    bound = db.bind(JOIN_SQL)
    selective = RecommenderProfile("x", leading_strategy="selective-first")
    groupby = RecommenderProfile("x", leading_strategy="groupby-first")
    sel_multi = [
        ix for ix in index_candidates(bound, db.catalog, selective)
        if ix.table == "users" and ix.width > 1
    ]
    grp_multi = [
        ix for ix in index_candidates(bound, db.catalog, groupby)
        if ix.table == "users" and ix.width > 1
    ]
    assert sel_multi and sel_multi[0].columns[0] == "age"
    assert grp_multi and grp_multi[0].columns[0] == "city", (
        "groupby-first leads composites with the grouping column"
    )


def test_view_candidates_require_profile(db):
    bound = db.bind(JOIN_SQL)
    without = RecommenderProfile("x", consider_views=False)
    with_views = RecommenderProfile("x", consider_views=True)
    assert view_candidates(bound, db.catalog, without) == []
    views = view_candidates(bound, db.catalog, with_views)
    assert views, "a COUNT(*) join query admits view candidates"
    assert any(
        v.is_join_view and set(v.tables) == {"users", "orders"}
        for v in views
    )
    assert any(not v.is_join_view for v in views), (
        "single-table pre-aggregations are proposed too"
    )


def test_view_candidates_skip_non_count(db):
    bound = db.bind(
        "SELECT u.city, SUM(o.amount) FROM users u, orders o "
        "WHERE u.uid = o.uid GROUP BY u.city"
    )
    profile = RecommenderProfile("x", consider_views=True)
    assert all(
        not v.is_join_view
        for v in view_candidates(bound, db.catalog, profile)
    )


def test_recommend_improves_selective_workload(db):
    sqls = [
        f"SELECT o.city, COUNT(*) FROM orders o "
        f"WHERE o.uid = {u} GROUP BY o.city"
        for u in (3, 17, 99, 251, 1000)
    ]
    recommender = WhatIfRecommender(
        db, RecommenderProfile("t", min_improvement=0.001)
    )
    report = recommender.recommend(workload_of(sqls), budget_bytes=10**9)
    assert report.configuration.secondary_indexes(), (
        "point lookups should earn an index on orders.uid"
    )
    assert any(
        ix.columns[0] == "uid" and ix.table == "orders"
        for ix in report.configuration.secondary_indexes()
    )
    assert report.estimated_cost < report.base_cost
    assert report.used_bytes <= report.budget_bytes


def test_zero_budget_recommends_nothing(db):
    sqls = ["SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = 3 "
            "GROUP BY o.city"]
    recommender = WhatIfRecommender(
        db, RecommenderProfile("t", min_improvement=0.001)
    )
    report = recommender.recommend(workload_of(sqls), budget_bytes=0)
    assert report.configuration.secondary_indexes() == []
    assert report.used_bytes == 0


def test_candidate_limit_gives_up(db):
    sqls = [JOIN_SQL]
    recommender = WhatIfRecommender(
        db, RecommenderProfile("t", max_candidates=2)
    )
    with pytest.raises(RecommenderGaveUp) as info:
        recommender.recommend(workload_of(sqls), budget_bytes=10**9)
    assert "exceed the search limit" in str(info.value)


def test_min_improvement_threshold_stops_greedy(db):
    sqls = ["SELECT u.city, COUNT(*) FROM users u GROUP BY u.city"]
    recommender = WhatIfRecommender(
        db, RecommenderProfile("t", min_improvement=0.9)
    )
    report = recommender.recommend(workload_of(sqls), budget_bytes=10**9)
    assert len(report.configuration.secondary_indexes()) == 0


def test_recommendation_respects_budget(db):
    sqls = [
        f"SELECT o.city, COUNT(*) FROM orders o "
        f"WHERE o.uid = {u} GROUP BY o.city"
        for u in range(8)
    ] + [
        "SELECT u.city, COUNT(*) FROM users u WHERE u.age = 30 "
        "GROUP BY u.city",
    ]
    small_budget = 300 * 1024
    recommender = WhatIfRecommender(
        db, RecommenderProfile("t", min_improvement=0.001)
    )
    report = recommender.recommend(workload_of(sqls), budget_bytes=small_budget)
    assert report.used_bytes <= small_budget


def test_recommended_configuration_executes(db):
    sqls = [
        "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = 3 "
        "GROUP BY o.city",
    ]
    recommender = WhatIfRecommender(
        db, RecommenderProfile("t", min_improvement=0.001)
    )
    report = recommender.recommend(workload_of(sqls), budget_bytes=10**9)
    before = db.execute(sqls[0])
    db.apply_configuration(report.configuration)
    db.collect_statistics()
    after = db.execute(sqls[0])
    assert sorted(after.rows()) == sorted(before.rows())
    assert after.elapsed <= before.elapsed


# ----------------------------------------------------------------------
# Bounded candidate pricing: the stop rule against full pricing

# Non-negative magnitudes where float sums misbehave: zero, subnormals,
# values that round when added (0.1 + 0.2), values that absorb their
# neighbours (1e16 + 1) and values whose sums or products overflow.
_EDGES = [0.0, 5e-324, 1e-310, 0.1, 0.2, 0.3, 1.0, 1e16, 1e300]
_magnitudes = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
)


@st.composite
def pricing_cases(draw):
    n = draw(st.integers(0, 10))
    current = draw(st.lists(_magnitudes, min_size=n, max_size=n))
    costs = draw(st.lists(_magnitudes, min_size=n, max_size=n))
    weights = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 2.0, 5e-324]),
                  st.floats(min_value=0.0, max_value=1e3)),
        min_size=n, max_size=n,
    ))
    full = [w * c for w, c in zip(weights, costs)]
    gain = gain_of(current, full)
    threshold = draw(st.one_of(
        _magnitudes,
        # The recommender's own threshold ...
        st.floats(min_value=0.0, max_value=1.0).map(
            lambda share: share * max(sum(current), 1e-9)
        ),
        # ... and thresholds at and next to the gain itself.
        st.sampled_from([gain, math.nextafter(gain, math.inf),
                         math.nextafter(gain, -math.inf)])
        if math.isfinite(gain) else st.just(0.0),
    ))
    return current, weights, costs, threshold


@settings(max_examples=500, deadline=None)
@given(pricing_cases())
def test_price_bounded_agrees_with_full_pricing(case):
    current, weights, costs, threshold = case
    asked = []

    def price(position):
        asked.append(position)
        return weights[position] * costs[position]

    trial, priced = price_bounded(current, threshold, price)

    full = [w * c for w, c in zip(weights, costs)]
    assert priced == len(asked) == len(set(asked))
    assert [current[i] for i in asked] == sorted(
        (current[i] for i in asked), reverse=True
    ), "dearest query first"
    if trial is None:
        assert gain_of(current, full) < threshold
    else:
        assert trial == full
        assert priced == len(current)
        assert not gain_of(current, full) < threshold


def test_price_bounded_stops_at_the_first_hopeless_query():
    # Three queries of cost 10/6/4 and a threshold of 12: once the
    # dearest query turns out to save only 1, at most 1 + 6 + 4 = 11
    # is left to gain.
    calls = []

    def price(position):
        calls.append(position)
        return [5.0, 9.0, 0.0][position]

    assert price_bounded([6.0, 10.0, 4.0], 12.0, price) == (None, 1)
    assert calls == [1]


# ----------------------------------------------------------------------
# A greedy round against its running best: the same winner as full
# pricing

class _Priced:
    """What-if answers of a synthetic round: candidate ``i`` affects
    query ``j`` when ``costs[i][j]`` is not ``None``, and then prices it
    at that (unweighted) cost."""

    def __init__(self, costs):
        self.costs = costs
        self.calls = 0

    def affects(self, candidate, query):
        return self.costs[int(candidate.table[1:])][query] is not None

    def cost(self, query, trial, base=None, oracle=False):
        self.calls += 1
        return self.costs[int(trial.indexes[-1].table[1:])][query]


def _round(costs, sizes, current, weights, used, budget, threshold):
    """``(winner, pricings)`` of one greedy round over candidate
    ``i`` = an index on table ``t<i>``, in candidate order."""
    service = _Priced(costs)
    recommender = WhatIfRecommender.__new__(WhatIfRecommender)
    recommender._service = service
    recommender.oracle = False
    candidates = {
        ("ix", f"t{i}"): IndexDefinition(table=f"t{i}", columns=("c",))
        for i in range(len(costs))
    }
    best = recommender._best_candidate(
        candidates, dict(zip(candidates, sizes)), set(),
        list(range(len(current))), TotalCost(weights, 0.0),
        Configuration("P"), current, used, budget, threshold, {},
    )
    winner = None if best is None else (best[1], best[4], best[5])
    return winner, service.calls


def _fully_priced(costs, sizes, current, weights, used, budget, threshold):
    """The round's winner when every candidate is priced in full."""
    best = None
    for i, (row, extra) in enumerate(zip(costs, sizes)):
        relevant = [j for j, cost in enumerate(row) if cost is not None]
        before = [current[j] for j in relevant]
        if used + extra > budget or sum(before) < threshold:
            continue
        after = [weights[j] * row[j] for j in relevant]
        gain = gain_of(before, after)
        if gain < threshold:
            continue
        score = gain / max(1, extra)
        if best is None or score > best[0]:
            best = (score, ("ix", f"t{i}"), gain, dict(zip(relevant, after)))
    return None if best is None else best[1:]


@st.composite
def rounds(draw):
    m = draw(st.integers(1, 6))
    current = draw(st.lists(_magnitudes, min_size=m, max_size=m))
    weights = draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=m, max_size=m
    ))
    shared = draw(st.integers(0, 10**6))
    costs, sizes = [], []
    for _ in range(draw(st.integers(0, 8))):
        if costs and draw(st.booleans()):
            # An exact copy at a later position: every score ties.
            at = draw(st.integers(0, len(costs) - 1))
            costs.append(costs[at])
            sizes.append(sizes[at])
            continue
        costs.append([
            draw(st.one_of(st.none(), _magnitudes,
                           st.just(current[j] / 2)))
            for j in range(m)
        ])
        sizes.append(draw(st.one_of(
            st.sampled_from([0, 1, shared]), st.integers(0, 10**6)
        )))
    used = draw(st.integers(0, 10**6))
    budget = draw(st.one_of(st.just(10**9), st.integers(0, 2 * 10**6)))
    threshold = draw(st.one_of(
        st.just(0.0), _magnitudes,
        st.floats(min_value=0.0, max_value=1.0).map(
            lambda share: share * max(sum(current), 1e-9)
        ),
    ))
    return costs, sizes, current, weights, used, budget, threshold


@settings(max_examples=500, deadline=None)
@given(rounds())
def test_round_against_its_rival_agrees_with_full_pricing(case):
    winner, calls = _round(*case)
    assert winner == _fully_priced(*case)
    costs = case[0]
    assert calls <= sum(c is not None for row in costs for c in row)


def test_rival_tied_from_an_earlier_position_still_loses():
    # t1 promises more (20 against 10 a byte) and is priced first: it
    # is the best so far, with score 6.  t0 ties it exactly, and from
    # an earlier position, so t0 wins — as it would under full pricing.
    costs = [[4.0, None], [None, 14.0]]
    case = (costs, [1, 1], [10.0, 20.0], [1.0, 1.0], 0, 10**9, 0.0)
    assert _round(*case) == ((("ix", "t0"), 6.0, {0: 4.0}), 2)
    assert _fully_priced(*case) == (("ix", "t0"), 6.0, {0: 4.0})


def test_rival_tied_from_a_later_position_loses():
    # t0 and t1 promise alike, so t0 is priced first and is the best so
    # far, with score 6.  t1 ties it from a later position: the first
    # candidate with the highest score wins, so t0 keeps the round.
    costs = [[4.0, None], [None, 4.0]]
    case = (costs, [1, 1], [10.0, 10.0], [1.0, 1.0], 0, 10**9, 0.0)
    assert _round(*case) == ((("ix", "t0"), 6.0, {0: 4.0}), 2)
    assert _fully_priced(*case) == (("ix", "t0"), 6.0, {0: 4.0})


def test_candidate_that_fills_the_budget_to_the_byte_is_eligible():
    # 5 bytes used of 10: a 5-byte candidate fits exactly.
    case = ([[4.0]], [5], [10.0], [1.0], 5, 10, 0.0)
    assert _round(*case) == ((("ix", "t0"), 6.0, {0: 4.0}), 1)
    assert _fully_priced(*case) == (("ix", "t0"), 6.0, {0: 4.0})
    # One byte more does not.
    assert _round(*case[:5], 9, 0.0) == (None, 0)


def test_rival_outscores_later_candidates_and_need_not_win():
    # t0 promises most (100 a byte) and survives: the best so far,
    # score 10.  t2 promises 50, saves 40 and takes its place.  t3 and
    # t1 cannot save more than their 30 and 2 + 1, so each is dropped
    # before its first pricing.  Against a best fixed at t0's 10, t3
    # would have been priced in full before its final check dropped it:
    # three pricings where the running best needs two.
    costs = [
        [90.0, None, None, None, None],
        [None, 1.0, 0.0, None, None],
        [None, None, None, 10.0, None],
        [None, None, None, None, 20.0],
    ]
    current = [100.0, 2.0, 1.0, 50.0, 30.0]
    case = (costs, [1] * 4, current, [1.0] * 5, 0, 10**9, 0.0)
    with obs.recording() as recorder:
        winner, calls = _round(*case)
    assert winner == _fully_priced(*case) == (("ix", "t2"), 40.0, {3: 10.0})
    counters = recorder.metrics.snapshot()["counters"]
    assert calls == 2
    assert counters["recommender.candidates_outscored"] == 2
    assert counters["recommender.pricings_outscored"] == 3
    assert "recommender.candidates_abandoned" not in counters
