"""A goal-driven configuration recommender.

The paper's conclusion argues for "designing recommenders that can accept
quality of service goals specified by constraints on [cumulative
frequency] curves" instead of a single total-cost number.  This module
implements that proposal on the classic advisor's own greedy loops:

* the target is a :class:`~repro.analysis.goals.StepGoal` ``G``;
* a configuration is scored by the *goal margin* of its estimated cost
  curve — ``min(CFC_est − G)`` over the goal thresholds;
* each round adds the candidate with the best margin improvement per
  byte, and the run **stops as soon as the goal is met**, rather than
  spending the whole budget chasing total cost.

It runs :class:`~repro.recommender.whatif.WhatIfRecommender`'s loops
under the :class:`GoalMargin` objective, so candidates are pruned and
dropped exactly as for total cost, but it never gives up on a large pool.

Because the curve is built from what-if estimates, the recommender
inherits exactly the estimation blind spots the paper documents.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..analysis.cfc import CumulativeFrequencyCurve
from ..analysis.measurements import WorkloadMeasurement
from .whatif import WhatIfRecommender


@dataclass
class GoalRecommendation:
    """Outcome of a goal-driven run."""

    configuration: object
    goal_met: bool
    estimated_margin: float
    used_bytes: int
    iterations: int
    selected: list = field(default_factory=list)


class GoalMargin:
    """A goal run's objective (see :class:`~.whatif.TotalCost`): the
    margin of the estimated curve.  Costs enter raw, as the curve applies
    the weights; a gain must exceed ``1e-12``; a curve that meets the
    goal (:meth:`~repro.analysis.goals.StepGoal.satisfied_by`) stops.

    The curve at ``x`` weighs the queries that cost less than ``x``, so
    the margin never rises with a query's cost.  Only rounding can break
    that, through the order of the curve's cumulative sum: each of two
    such sums of ``n`` non-negative weights is within ``(n - 1) u`` of
    the total weight of its exact value, and the division and two
    subtractions after it add a few ``u`` (``u = eps / 2``), so a
    ``slack`` of ``(n + 8) eps`` covers them.
    """

    def __init__(self, goal, weights):
        self.goal = goal
        self._weights = np.asarray(weights, dtype=np.float64)
        self.slack = (len(weights) + 8) * np.finfo(np.float64).eps

    def enter(self, position, cost):
        return cost

    def _curve(self, costs):
        return CumulativeFrequencyCurve(WorkloadMeasurement(
            "goal", "estimated", costs, np.zeros(len(costs), dtype=bool),
            weights=self._weights,
        ))

    def margin(self, costs):
        return self.goal.margin(self._curve(costs))

    def gains(self, costs):
        current, margin = np.array(costs, dtype=np.float64), self.margin(costs)

        def gain_over(relevant):
            def gain(before, after):
                trial = current.copy()
                trial[relevant] = after
                return self.margin(trial) - margin
            return gain
        return gain_over

    def threshold(self, costs):
        return math.nextafter(1e-12, math.inf)

    def met(self, costs):
        return self.goal.satisfied_by(self._curve(costs))


class GoalDrivenRecommender(WhatIfRecommender):
    """Greedy advisor that targets a CFC goal instead of total cost."""

    def __init__(self, database, goal, profile=None, oracle=False):
        super().__init__(database, profile=profile, oracle=oracle)
        self.goal = goal

    def recommend_for_goal(self, workload, budget_bytes, name=None):
        """Add structures until the estimated curve clears the goal."""
        objective = GoalMargin(self.goal, [q.weight for q in workload])
        with obs.span(
            "recommender.recommend_for_goal",
            workload=workload.name,
            budget_bytes=int(budget_bytes),
        ) as span:
            report, costs = self._recommend(
                workload, budget_bytes, name or f"{self._db.name}_goal_R",
                span, objective, None,
            )
            margin = objective.margin(costs)
            recommendation = GoalRecommendation(
                configuration=report.configuration,
                goal_met=objective.met(costs),
                estimated_margin=margin,
                used_bytes=report.used_bytes,
                iterations=report.iterations,
                selected=report.selected,
            )
            span.set(goal_met=recommendation.goal_met, margin=margin)
        obs.counter_add("recommender.goal_runs")
        return recommendation
