"""The goal-driven recommender (the paper's Section 6 proposal)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cfc import CumulativeFrequencyCurve
from repro.analysis.goals import StepGoal
from repro.analysis.measurements import WorkloadMeasurement, measure_workload
from repro.engine.configuration import primary_configuration
from repro.recommender.goal_driven import GoalDrivenRecommender, GoalMargin
from repro.recommender.profiles import RecommenderProfile
from repro.workload.workload import Workload, make_instance

from conftest import load_city_database


@pytest.fixture
def db():
    db = load_city_database(n_users=4000, n_orders=30000, seed=13)
    db.apply_configuration(primary_configuration(db.catalog, name="P"))
    return db


def point_workload(uids):
    return Workload(
        "W",
        [
            make_instance(
                f"SELECT o.city, COUNT(*) FROM orders o "
                f"WHERE o.uid = {u} GROUP BY o.city",
                "W",
                u=u,
            )
            for u in uids
        ],
    )


def test_goal_already_met_selects_nothing(db):
    workload = point_workload([1, 2, 3])
    lax_goal = StepGoal(steps=((10_000.0, 0.5),))
    rec = GoalDrivenRecommender(
        db, lax_goal, RecommenderProfile("g", min_improvement=0.001)
    )
    outcome = rec.recommend_for_goal(workload, budget_bytes=10**9)
    assert outcome.goal_met
    assert outcome.selected == []
    assert outcome.iterations == 0


def test_goal_drives_index_selection_and_stops(db):
    workload = point_workload([1, 7, 19, 42, 77, 120])
    # P-config point lookups scan orders (~tens of virtual seconds);
    # demand that most finish fast.
    goal = StepGoal(steps=((10.0, 0.8),))
    rec = GoalDrivenRecommender(
        db, goal, RecommenderProfile("g", min_improvement=0.001)
    )
    outcome = rec.recommend_for_goal(workload, budget_bytes=10**9)
    assert outcome.selected, "the goal requires at least one index"
    assert outcome.goal_met
    assert outcome.estimated_margin > 0

    # The goal-driven advisor stops early: it should not have grabbed
    # every candidate in sight.
    assert len(outcome.selected) <= 3

    # And the *actual* curve clears the goal too.
    db.apply_configuration(outcome.configuration)
    db.collect_statistics()
    measurement = measure_workload(db, workload)
    curve = CumulativeFrequencyCurve(measurement)
    assert goal.satisfied_by(curve)


def test_a_goal_demanding_every_query_is_met_once_all_finish(db):
    """One rule says "met" (``StepGoal.satisfied_by``): a curve that
    completes every query meets a step demanding 1.0, though its margin
    is 0, so G stops there, pricing no further round, and reports the
    goal met."""
    curve = CumulativeFrequencyCurve(WorkloadMeasurement(
        "W", "c", np.array([1.0, 2.0, 3.0]), np.zeros(3, dtype=bool),
    ))
    goal = StepGoal(((10.0, 1.0),))
    assert goal.margin(curve) == 0.0
    assert goal.satisfied_by(curve)
    rec = GoalDrivenRecommender(
        db, goal, RecommenderProfile("g", min_improvement=0.001)
    )
    outcome = rec.recommend_for_goal(
        point_workload([1, 7, 19, 42]), budget_bytes=10**9
    )
    assert outcome.selected
    assert outcome.goal_met and outcome.estimated_margin == 0.0
    assert outcome.iterations == len(outcome.selected)


def test_infeasible_goal_reports_not_met(db):
    workload = point_workload([1, 7, 19])
    impossible = StepGoal(steps=((1e-6, 0.99),))
    rec = GoalDrivenRecommender(
        db, impossible, RecommenderProfile("g", min_improvement=0.001)
    )
    outcome = rec.recommend_for_goal(workload, budget_bytes=10**9)
    assert not outcome.goal_met
    assert outcome.estimated_margin <= 0


def test_budget_constrains_goal_search(db):
    workload = point_workload([1, 7, 19, 42])
    goal = StepGoal(steps=((10.0, 0.9),))
    rec = GoalDrivenRecommender(
        db, goal, RecommenderProfile("g", min_improvement=0.001)
    )
    outcome = rec.recommend_for_goal(workload, budget_bytes=1024)
    assert outcome.used_bytes <= 1024
    assert not outcome.selected


def test_weighted_workload_shifts_the_curve(db):
    heavy = make_instance(
        "SELECT o.city, COUNT(*) FROM orders o GROUP BY o.city",
        "W",
        weight=9.0,
    )
    light = make_instance(
        "SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = 3 "
        "GROUP BY o.city",
        "W",
        weight=1.0,
    )
    workload = Workload("W", [heavy, light])
    measurement = measure_workload(db, workload)
    curve = CumulativeFrequencyCurve(measurement)
    # The slow scan carries 90% of the weight: no point below its time
    # can clear 0.5.
    slow_time = measurement.elapsed[0]
    assert curve([slow_time * 0.99])[0] <= 0.1 + 1e-9
    assert measurement.lower_bound_total() == pytest.approx(
        9 * measurement.elapsed[0] + measurement.elapsed[1]
    )


def test_once_per_run_sizes_are_the_whole_trial_arithmetic(db):
    """Candidates are sized once per run; every budget check still sees
    what re-sizing the whole trial configuration each round gave:
    ``bytes(current + candidate) - bytes(base) - used``."""
    sqls = [
        f"SELECT o.city, COUNT(*) FROM orders o WHERE o.uid = {u} "
        f"GROUP BY o.city" for u in (1, 7, 19)
    ] + [
        f"SELECT u.city, COUNT(*) FROM users u WHERE u.age = {a} "
        f"GROUP BY u.city" for a in (30, 41, 52)
    ]
    workload = Workload(
        "W", [make_instance(sql, "W", i=i) for i, sql in enumerate(sqls)]
    )
    rec = GoalDrivenRecommender(
        db, StepGoal(steps=((1.0, 1.0),)),
        RecommenderProfile("g", min_improvement=0.001),
    )
    size = db.estimated_configuration_bytes
    base_bytes = size(db.configuration)
    run = {"current": db.configuration, "used": 0, "checked": 0}

    def whole_trial(candidate):
        trial = rec._extend(run["current"], candidate)
        return size(trial) - base_bytes - run["used"]

    class Checked(dict):
        def __getitem__(self, key):
            extra = super().__getitem__(key)
            assert extra == whole_trial(self.candidates[key]), key
            run["checked"] += 1
            return extra

    sizes, select = rec._sizes, rec._select

    def sizing(candidates, config):
        checked = Checked(sizes(candidates, config))
        checked.candidates = candidates
        return checked

    def selecting(current, candidate):
        run["used"] += max(0, whole_trial(candidate))
        run["current"] = select(current, candidate)
        return run["current"]

    rec._sizes, rec._select = sizing, selecting
    outcome = rec.recommend_for_goal(workload, budget_bytes=10**9)
    assert len(outcome.selected) == 2 and outcome.iterations == 2
    assert outcome.used_bytes == run["used"]
    assert run["checked"] > 2 * len(outcome.selected)


@st.composite
def optimistic_trials(draw):
    """A goal, weights, current and trial costs, and which of the trial
    costs are priced: the rest are taken at 0, as while bounding."""
    n = draw(st.integers(1, 12))
    floats = st.one_of(
        st.sampled_from([0.0, 5e-324, 0.1, 0.3, 1.0, 10.0]),
        st.floats(min_value=0.0, max_value=100.0),
    )
    weights = draw(st.lists(
        st.one_of(st.sampled_from([1.0, 0.1, 1e-9, 3.7]),
                  st.floats(min_value=0.0, max_value=1e3)),
        min_size=n, max_size=n,
    ))
    current = draw(st.lists(floats, min_size=n, max_size=n))
    relevant = sorted(draw(st.sets(st.integers(0, n - 1))))
    after = draw(st.lists(
        floats, min_size=len(relevant), max_size=len(relevant)
    ))
    priced = draw(st.lists(
        st.booleans(), min_size=len(relevant), max_size=len(relevant)
    ))
    thresholds = sorted(draw(st.lists(floats, min_size=1, max_size=3)))
    fractions = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0),
        min_size=len(thresholds), max_size=len(thresholds),
    )))
    goal = StepGoal(steps=tuple(zip(thresholds, fractions)))
    return goal, weights, current, relevant, after, priced


@settings(max_examples=150, deadline=None)
@given(optimistic_trials())
def test_property_optimistic_margin_bounds_the_final_one(case):
    """Unpriced queries at cost 0 never lower the margin's gain by more
    than the objective's slack, however the weights round."""
    goal, weights, current, relevant, after, priced = case
    objective = GoalMargin(goal, weights)
    gain = objective.gains(current)(relevant)
    before = [current[idx] for idx in relevant]
    optimistic = [cost if known else 0.0
                  for cost, known in zip(after, priced)]
    assert gain(before, optimistic) + objective.slack >= gain(before, after)


def test_goal_driven_tuning_example_prints_its_four_verdicts(capsys):
    path = Path(__file__).resolve().parents[1] / "examples" / \
        "goal_driven_tuning.py"
    spec = importlib.util.spec_from_file_location("goal_example", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    example.main(0.05)
    lines = capsys.readouterr().out.splitlines()
    for label in ("P", "R (total cost)", "R (goal driven)", "1C"):
        assert any(
            line.startswith(f"  {label:<22} goal ") for line in lines
        ), label
