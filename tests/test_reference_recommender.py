"""Section 2.2's greedy as the paper states it, against the product.

The reference below prices every candidate against every query in
full, each trial on a what-if environment built from nothing, re-sizes
the whole trial configuration every round, and keeps no memo and no
bound.  The product (:class:`WhatIfRecommender`) prunes, bounds, prices
deltas over a shared plan memo and sizes each candidate once per run;
all of that is claimed exact, so both must select the same structures
in the same order, with the same gain and bytes in every round, and
give up alike.  Both advisors are checked so: the reference takes the
objective — total cost, or a goal's margin — as the product does.
Candidate generation is shared: it is not what the product optimises.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.goals import StepGoal
from repro.bench.context import FAMILY_DATASET, BenchContext, BenchSettings
from repro.common.errors import RecommenderGaveUp
from repro.optimizer.planner import Planner
from repro.recommender.goal_driven import GoalDrivenRecommender, GoalMargin
from repro.recommender.whatif import TotalCost, WhatIfRecommender
from repro.workload.workload import Workload

CASES = [
    ("A", "NREF2J"), ("A", "NREF3J"), ("B", "NREF2J"), ("B", "NREF3J"),
    ("C", "SkTH3J"), ("C", "SkTH3Js"), ("C", "UnTH3J"),
]


@pytest.fixture(scope="module")
def context():
    return BenchContext(BenchSettings(scale=0.05, workload_size=30, jobs=1))


def setting(context, system, family):
    """``(database at P, workload, budget)`` of one case."""
    db = context.database(system, FAMILY_DATASET[family])
    workload = context.workload(system, family)
    context._ensure_configuration(db, system, "P")
    return db, workload, context.space_budget(db)


def compare(context, monkeypatch, system, family):
    """``(reference, product)``: round lists, or give-up messages."""
    db, workload, budget = setting(context, system, family)
    recommender = WhatIfRecommender(db)
    objective = TotalCost(
        [q.weight for q in workload], recommender.profile.min_improvement
    )
    reference = outcome(lambda: textbook_greedy(
        db, workload, budget, objective, recommender.profile.max_candidates
    )[0])
    product = outcome(lambda: product_greedy(
        monkeypatch, lambda: recommender.recommend(workload, budget)
    )[0])
    return reference, product


def estimated_costs(db, queries, config):
    """Raw ``H`` costs of ``queries`` under ``config``, from nothing."""
    env = db._build_hypothetical_env(config, True, False)
    return [Planner(env).plan(q).est.cost for q in queries]


def textbook_greedy(db, workload, budget, objective, max_candidates):
    """``(rounds, costs)``: ``[(key, gain, bytes)]`` of each round and
    the objective's final costs, or the give-up."""
    recommender = WhatIfRecommender(db)
    profile = recommender.profile
    queries = [db.bind(q.sql) for q in workload]
    everything = list(range(len(queries)))
    candidates = recommender._collect_candidates(queries, db.configuration)
    if max_candidates is not None and len(candidates) > max_candidates:
        raise RecommenderGaveUp(
            f"{len(candidates)} candidate structures exceed the "
            f"search limit of {max_candidates} "
            f"(workload of {len(queries)} queries)"
        )

    def price(config):
        return [objective.enter(idx, cost) for idx, cost
                in enumerate(estimated_costs(db, queries, config))]

    def size(config):
        return db._structure_bytes(config, config.indexes, config.views)

    current, used, rounds = db.configuration, 0, []
    current_costs = price(current)
    while len(rounds) < profile.max_selected \
            and not objective.met(current_costs):
        threshold = objective.threshold(current_costs)
        gain_of = objective.gains(current_costs)(everything)
        chosen = {key for key, _, _ in rounds}
        best = None
        for key, candidate in candidates.items():
            if key in chosen:
                continue
            trial = recommender._extend(current, candidate)
            extra = size(trial) - size(current)
            if used + extra > budget:
                continue
            trial_costs = price(trial)
            gain = gain_of(current_costs, trial_costs)
            if gain < threshold:
                continue
            score = gain / max(1, extra)
            if best is None or score > best[0]:
                best = (score, key, trial, extra, gain, trial_costs)
        if best is None:
            break
        _, key, current, extra, gain, current_costs = best
        used += extra
        rounds.append((key, gain, extra))
    return rounds, current_costs


def product_greedy(monkeypatch, run):
    """``(rounds, outcome)`` of ``run``, recording each round's winner."""
    rounds = []
    best_candidate = WhatIfRecommender._best_candidate

    def recording(self, *args):
        best = best_candidate(self, *args)
        if best is not None:
            _, key, _, extra, gain, _ = best
            rounds.append((key, gain, extra))
        return best

    monkeypatch.setattr(WhatIfRecommender, "_best_candidate", recording)
    result = run()
    assert len(result.selected) == len(rounds)
    return rounds, result


def outcome(run):
    try:
        return run()
    except RecommenderGaveUp as failure:
        return str(failure)


@pytest.mark.parametrize("system, family", CASES)
def test_product_selects_what_the_textbook_greedy_selects(
        context, monkeypatch, system, family):
    reference, product = compare(context, monkeypatch, system, family)
    assert product == reference
    assert reference, "every case selects something at 30 queries"


def test_product_gives_up_where_the_textbook_greedy_does(monkeypatch):
    """System A on NREF3J at the paper's 100 queries (Section 4.1.2)."""
    context = BenchContext(
        BenchSettings(scale=0.05, workload_size=100, jobs=1)
    )
    reference, product = compare(context, monkeypatch, "A", "NREF3J")
    assert product == reference
    assert "exceed the search limit" in reference


def binding_goal(db, workload):
    """A goal P misses: 40 % of the queries below P's estimated 25th
    percentile and 70 % below its median (and 95 % below its maximum,
    which P meets)."""
    costs = estimated_costs(
        db, [db.bind(q.sql) for q in workload], db.configuration
    )
    q25, q50, q100 = np.percentile(costs, [25, 50, 100])
    return StepGoal(steps=((q25, 0.4), (q50, 0.7), (q100, 0.95)))


def weighted(workload):
    """The workload with non-unit, non-integer weights."""
    return Workload(workload.name, [
        dataclasses.replace(q, weight=0.3 + 0.37 * (i % 5))
        for i, q in enumerate(workload)
    ])


@pytest.mark.parametrize("system, family, reweigh", [
    *((system, family, False) for system, family in CASES),
    ("B", "NREF3J", True),
])
def test_goal_product_selects_what_the_textbook_greedy_selects(
        context, monkeypatch, system, family, reweigh):
    db, workload, budget = setting(context, system, family)
    # A tenth of the paper's budget: the budget binds in more rounds,
    # and the reference's full pricing stays within seconds.
    budget //= 10
    if reweigh:
        workload = weighted(workload)
    goal = binding_goal(db, workload)
    objective = GoalMargin(goal, [q.weight for q in workload])
    reference, costs = textbook_greedy(db, workload, budget, objective, None)
    product, recommendation = product_greedy(
        monkeypatch, lambda: GoalDrivenRecommender(
            db, goal
        ).recommend_for_goal(workload, budget),
    )
    assert product == reference
    margin = objective.margin(costs)
    assert (recommendation.goal_met, recommendation.estimated_margin) \
        == (margin > 0, margin)
    assert reference, "the goal binds at P"
