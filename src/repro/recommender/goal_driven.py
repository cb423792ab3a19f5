"""A goal-driven configuration recommender.

The paper's conclusion argues for "designing recommenders that can accept
quality of service goals specified by constraints on [cumulative
frequency] curves" instead of a single total-cost number.  This module
implements that proposal on top of the same what-if machinery as the
classic advisor:

* the target is a :class:`~repro.analysis.goals.StepGoal` ``G``;
* a candidate configuration is scored by the *goal margin* of the
  estimated cost curve — ``min(CFC_est − G)`` over the goal thresholds;
* greedy selection adds the candidate with the best margin improvement
  per byte and **stops as soon as the goal is met**, rather than
  spending the whole budget chasing total cost.

Because the curve is built from what-if estimates, the recommender
inherits exactly the estimation blind spots the paper documents; the
ablation benches quantify them.
"""

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


class GoalDrivenRecommender(WhatIfRecommender):
    """Greedy advisor that targets a CFC goal instead of total cost."""

    def __init__(self, database, goal, profile=None, oracle=False):
        super().__init__(database, profile=profile, oracle=oracle)
        self.goal = goal

    def recommend_for_goal(self, workload, budget_bytes, name=None):
        """Add structures until the estimated curve clears the goal."""
        with obs.span(
            "recommender.recommend_for_goal",
            workload=workload.name,
            budget_bytes=int(budget_bytes),
        ) as span:
            recommendation = self._recommend_for_goal(
                workload, budget_bytes, name
            )
            span.set(
                goal_met=recommendation.goal_met,
                iterations=recommendation.iterations,
                selected=len(recommendation.selected),
                margin=recommendation.estimated_margin,
            )
        obs.counter_add("recommender.goal_runs")
        obs.event(
            "recommendation",
            workload=workload.name,
            configuration=recommendation.configuration.name,
            fingerprint=recommendation.configuration.fingerprint,
            iterations=recommendation.iterations,
            selected=len(recommendation.selected),
            used_bytes=recommendation.used_bytes,
        )
        return recommendation

    def _recommend_for_goal(self, workload, budget_bytes, name=None):
        queries = [self._db.bind(q.sql) for q in workload]
        weights = np.array(
            [q.weight for q in workload], dtype=np.float64
        )
        base_config = self._db.configuration
        candidates = self._collect_candidates(queries, base_config)
        sizes = self._sizes(candidates, base_config)

        current = base_config
        current_costs = np.array(
            self._service.costs(queries, base_config, oracle=self.oracle)
        )
        used = 0
        selected = []
        iterations = 0
        affected = {}

        def margin_of(costs):
            measurement = WorkloadMeasurement(
                workload=workload.name,
                configuration="estimated",
                elapsed=costs,
                timed_out=np.zeros(len(costs), dtype=bool),
                timeout=float("inf"),
                weights=weights,
            )
            return self.goal.margin(CumulativeFrequencyCurve(measurement))

        margin = margin_of(current_costs)
        while margin <= 0 and len(selected) < self.profile.max_selected:
            iterations += 1
            best = None
            selected_keys = {key for key, _ in selected}
            for key, candidate in candidates.items():
                if key in selected_keys:
                    continue
                extra = sizes[key]
                if used + extra > budget_bytes:
                    continue
                trial = self._extend(current, candidate)
                relevant = self._affected(affected, key, candidate, queries)
                # Goal margins are not additive over queries, so the
                # gain bounds of the total-cost advisor do not apply and
                # every affected query is priced — but the cost
                # service's atomic memo and incremental environments do.
                trial_costs = current_costs.copy()
                trial_costs[relevant] = self._service.costs(
                    [queries[idx] for idx in relevant], trial,
                    base=current, oracle=self.oracle,
                )
                trial_margin = margin_of(trial_costs)
                gain = trial_margin - margin
                if gain <= 1e-12:
                    continue
                score = gain / max(1, extra)
                if best is None or score > best[0]:
                    best = (score, key, candidate, extra, trial_costs,
                            trial_margin)
            if best is None:
                break
            _, key, candidate, extra, trial_costs, margin = best
            current = self._select(current, candidate)
            current_costs = trial_costs
            used += extra
            selected.append((key, candidate))

        return GoalRecommendation(
            configuration=current.renamed(
                name or f"{self._db.name}_goal_R"
            ),
            goal_met=margin > 0,
            estimated_margin=float(margin),
            used_bytes=used,
            iterations=iterations,
            selected=[c for _, c in selected],
        )
