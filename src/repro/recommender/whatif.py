"""The what-if configuration recommender.

Follows the architecture the paper describes for the commercial tools
(Section 2.2): starting from the current configuration, generate per-query
candidate indexes and views, then greedily add the candidate with the best
estimated-benefit-per-byte — where *estimated* means hypothetical what-if
optimizer calls (``H`` costs), because none of the candidate structures
exist yet — until the space budget is exhausted or no candidate clears the
profile's minimum-improvement threshold.

The candidate search runs on top of the **what-if cost service**
(:mod:`repro.recommender.costservice`): per-query ``H`` costs are
memoized by the relevant subset of the trial configuration, and
candidate trials extend the current configuration's what-if environment
incrementally.  A round prices a candidate only until it is ruled out
(:func:`price_bounded`), exactly: a dropped candidate could not have won
the round.  Each candidate is sized once per run.  The goal-driven
advisor runs the same loops; an objective (:class:`TotalCost` here)
holds what differs.

Reproduced failure modes:

* the candidate pool exceeding ``profile.max_candidates`` makes the
  recommender give up without any output (System A on NREF3J,
  Section 4.1.2) — smaller workloads fit under the bound, which is why
  the paper could get recommendations for 25/12/6/3-query subsets;
* ``groupby-first`` composite candidates lead with grouping columns,
  producing recommendations the executor can barely use (System B on
  NREF2J, Figure 5);
* hypothetical cluster factors and degraded statistics make the what-if
  costs conservative, so genuinely useful single-column indexes are
  passed over (the paper's central observation that 1C beats R).
"""

from dataclasses import dataclass, field

from .. import obs
from ..common.errors import RecommenderGaveUp
from ..engine.configuration import Configuration
from ..index.definition import IndexDefinition
from .candidates import index_candidates, view_candidates
from .costservice import WhatIfCostService


@dataclass
class RecommendationReport:
    """The outcome of one recommender run."""

    configuration: Configuration
    base_cost: float
    estimated_cost: float
    budget_bytes: int
    used_bytes: int
    iterations: int
    candidate_count: int
    selected: list = field(default_factory=list)

    @property
    def estimated_improvement(self):
        if self.estimated_cost <= 0:
            return float("inf")
        return self.base_cost / self.estimated_cost


def gain_of(current, trial):
    """Summed cost reduction ``current - trial``, in query order.

    The one expression behind both the bound of :func:`price_bounded`
    and the gain a candidate is selected by — they must round alike.
    """
    gain = 0.0
    for before, after in zip(current, trial):
        gain += before - after
    return gain


def price_bounded(current, threshold, price, beats=None, gain=gain_of,
                  slack=0.0):
    """Price one candidate until it is known to miss ``threshold``.

    Queries are priced dearest first, and before each one the candidate's
    *optimistic* gain is taken: priced queries at their trial cost,
    every unpriced query at trial cost 0, plus ``slack``.  Costs are
    non-negative and ``gain`` never rises when a trial cost rises, so
    the optimistic gain is never below the final one: once it is under
    ``threshold`` the final gain is too, and the candidate can be
    dropped without pricing the rest.  :func:`gain_of` needs no slack:
    the optimistic sum is the same sum, in the same order, with some
    trial costs lowered to 0, and floating-point arithmetic is monotone.
    The last check is the final gain itself, without slack, so a fully
    priced candidate that misses the threshold is dropped by the same
    test.

    Args:
        current: current cost of each relevant query, in query order.
        threshold: the gain a candidate must reach this round.
        price: ``price(position)`` → trial cost (``>= 0``) of the query
            at ``position`` of ``current``.
        beats: optional ``beats(gain)`` → whether a candidate whose
            final gain were this optimistic gain could still win the
            round; asked after the threshold, at every check, and the
            candidate is dropped on the first no.  It must be monotone
            in the gain for the drop to be sound.
        gain: ``gain(current, trial)`` → the trial's gain.
        slack: the most rounding can lift a computed gain above that of
            the same trial with some costs lowered.

    Returns:
        ``(trial, priced)``: the trial costs aligned with ``current``
        (``None`` when the candidate was dropped) and how many queries
        were priced.
    """
    trial = [0.0] * len(current)
    dearest_first = sorted(range(len(current)), key=lambda i: -current[i])
    priced = 0
    while True:
        bound = gain(current, trial)
        if priced < len(current):
            bound += slack
        if bound < threshold or not (beats is None or beats(bound)):
            return None, priced
        if priced == len(current):
            return trial, priced
        position = dearest_first[priced]
        trial[position] = price(position)
        priced += 1


class TotalCost:
    """The classic advisor's objective: summed weighted estimated cost.

    An objective is all that differs between two runs of the one run and
    round loop: how a priced cost enters the run's costs (``enter``),
    the round's ``gains(costs)(relevant)(before, after)`` (never rising
    with a cost in ``after``), the gain a candidate must reach
    (``threshold``), when the run stops (``met``), and the ``slack`` of
    :func:`price_bounded`.
    """

    slack = 0.0

    def __init__(self, weights, min_improvement):
        self.weights, self.min_improvement = weights, min_improvement

    def enter(self, position, cost):
        return self.weights[position] * cost

    def gains(self, costs):
        return lambda relevant: gain_of

    def threshold(self, costs):
        return self.min_improvement * max(sum(costs), 1e-9)

    def met(self, costs):
        return False


class WhatIfRecommender:
    """Greedy budgeted index/view advisor over what-if optimizer calls."""

    def __init__(self, database, profile=None, oracle=False):
        self._db = database
        self.profile = profile or database.system.recommender
        self.oracle = oracle
        # The what-if cost service: atomic-configuration memoization
        # and incremental environments over the what-if optimizer.
        self._service = WhatIfCostService(database)

    def recommend(self, workload, budget_bytes, name=None):
        """Recommend a configuration for ``workload`` under a byte budget.

        Returns a :class:`RecommendationReport`; raises
        :class:`RecommenderGaveUp` when the candidate pool exceeds the
        profile's bound.
        """
        with obs.span(
            "recommender.recommend",
            workload=workload.name,
            profile=self.profile.name,
            budget_bytes=int(budget_bytes),
        ) as span:
            report, _costs = self._recommend(
                workload, budget_bytes,
                name or f"{self._db.name}_{self.profile.name}_R", span,
                TotalCost([q.weight for q in workload],
                          self.profile.min_improvement),
                self.profile.max_candidates,
            )
        obs.counter_add("recommender.runs")
        return report

    def _recommend(self, workload, budget_bytes, name, span, objective,
                   max_candidates):
        """``(report, final costs)`` of the greedy run under
        ``objective``; gives up past ``max_candidates`` (if not None)."""
        queries = [self._db.bind(q.sql) for q in workload]
        base_config = self._db.configuration

        candidates = self._collect_candidates(queries, base_config)
        obs.counter_add("recommender.candidates_generated", len(candidates))
        if max_candidates is not None and len(candidates) > max_candidates:
            span.set(gave_up=True, candidates=len(candidates))
            obs.counter_add("recommender.give_ups")
            raise RecommenderGaveUp(
                f"{len(candidates)} candidate structures exceed the "
                f"search limit of {max_candidates} "
                f"(workload of {len(queries)} queries)"
            )

        sizes = self._sizes(candidates, base_config)
        base_costs = [objective.enter(idx, cost) for idx, cost in enumerate(
            self._service.costs(queries, base_config, oracle=self.oracle)
        )]

        current = base_config
        current_costs = list(base_costs)
        used = 0
        selected = []
        iterations = 0
        affected = {}
        while len(selected) < self.profile.max_selected \
                and not objective.met(current_costs):
            iterations += 1
            selected_keys = {key for key, _ in selected}
            best = self._best_candidate(
                candidates, sizes, selected_keys, queries, objective,
                current, current_costs, used, budget_bytes,
                objective.threshold(current_costs), affected,
            )
            if best is None:
                break
            _, key, candidate, extra, gain, trial_costs = best
            current = self._select(current, candidate)
            used += extra
            selected.append((key, candidate))
            for idx, cost in trial_costs.items():
                current_costs[idx] = cost

        span.set(candidates=len(candidates), iterations=iterations,
                 selected=len(selected), used_bytes=used)
        obs.counter_add("recommender.iterations", iterations)
        obs.counter_add("recommender.structures_selected", len(selected))
        final = current.renamed(name)
        obs.event(
            "recommendation", workload=workload.name,
            configuration=final.name, fingerprint=final.fingerprint,
            candidates=len(candidates), iterations=iterations,
            selected=len(selected), used_bytes=used,
        )
        report = RecommendationReport(
            configuration=final,
            base_cost=sum(base_costs),
            estimated_cost=sum(current_costs),
            budget_bytes=budget_bytes,
            used_bytes=used,
            iterations=iterations,
            candidate_count=len(candidates),
            selected=[c for _, c in selected],
        )
        return report, current_costs

    # ------------------------------------------------------------------
    # One greedy round

    def _best_candidate(self, candidates, sizes, selected_keys, queries,
                        objective, current, current_costs, used,
                        budget_bytes, threshold, affected):
        """The round's best ``(score, key, candidate, extra, gain, costs)``.

        Phase 1 (cheap) filters candidates: already selected, over
        budget, or pruned because even a best-possible gain (every query
        the candidate can affect priced at 0) cannot reach the round's
        improvement threshold.

        Phase 2 prices the survivors in one loop, most promising first —
        by that best-possible gain per byte, ties by position — each one
        query at a time through the atomic memo (extending the current
        configuration's what-if environment incrementally), stopping as
        soon as :func:`price_bounded` rules it out: once its optimistic
        gain misses the threshold, or once its optimistic gain per byte
        can neither beat the best score so far nor tie it from an
        earlier position.  The threshold is checked first, so a
        candidate that misses both is counted as abandoned.  The last
        check is the final gain, so a candidate that survives beats the
        best so far (or ties it from an earlier position) and takes its
        place: the winner is the first candidate, by position, with the
        highest score, as if every candidate had been priced in full.
        No drop loses it: a final score is never above the optimistic
        one (the objective's gain never rises with a cost, divided by
        the same positive size), and the best so far never scores above
        it.
        """
        gain_over = objective.gains(current_costs)
        eligible = []
        pruned = 0
        for key, candidate in candidates.items():
            if key in selected_keys:
                continue
            extra = sizes[key]
            if used + extra > budget_bytes:
                continue
            relevant = self._affected(affected, key, candidate, queries)
            before = [current_costs[idx] for idx in relevant]
            gain = gain_over(relevant)
            hope = gain(before, [0.0] * len(before))
            if hope + objective.slack < threshold:
                pruned += 1
                continue
            eligible.append((key, candidate, extra, relevant, before, gain,
                             hope / max(1, extra)))
        if pruned:
            obs.counter_add("recommender.candidates_pruned", pruned)

        best = leader = None
        abandoned = skipped = outscored = unpriced = 0
        for position in sorted(range(len(eligible)),
                               key=lambda p: -eligible[p][6]):
            key, candidate, extra, relevant, before, gain, _ = \
                eligible[position]
            trial = self._extend(current, candidate)
            per_byte = max(1, extra)
            lost = False

            def price(at):
                idx = relevant[at]
                return objective.enter(idx, self._service.cost(
                    queries[idx], trial, base=current, oracle=self.oracle
                ))

            def beats(bound):
                nonlocal lost
                score = bound / per_byte
                lost = not (score > leader[0] or (
                    score == leader[0] and position < leader[1]))
                return not lost

            after, count = price_bounded(
                before, threshold, price, None if leader is None else beats,
                gain, objective.slack,
            )
            if after is None:
                # Not worth its maintenance/storage footprint, or cannot
                # win: the candidate is ineligible this round.
                if count < len(relevant) and lost:
                    outscored += 1
                    unpriced += len(relevant) - count
                elif count < len(relevant):
                    abandoned += 1
                    skipped += len(relevant) - count
                continue
            won = gain(before, after)
            leader = (won / per_byte, position)
            best = (leader[0], key, candidate, extra, won,
                    dict(zip(relevant, after)))
        if abandoned:
            obs.counter_add("recommender.candidates_abandoned", abandoned)
            obs.counter_add("recommender.pricings_skipped", skipped)
        if outscored:
            obs.counter_add("recommender.candidates_outscored", outscored)
            obs.counter_add("recommender.pricings_outscored", unpriced)
        return best

    def _sizes(self, candidates, config):
        """Bytes each candidate adds, sized once per run against the
        run's starting ``config``: candidates share no structure, so
        that is what it adds to whatever earlier rounds selected."""
        return {
            key: self._db.estimated_added_bytes(
                config, self._extend(config, candidate)
            )
            for key, candidate in candidates.items()
        }

    def _affected(self, memo, key, candidate, queries):
        """Positions of the queries ``candidate`` can affect: a property
        of the candidate and the workload, so ``memo`` (one per run)
        answers every round after the first."""
        relevant = memo.get(key)
        if relevant is None:
            relevant = memo[key] = [
                idx for idx, query in enumerate(queries)
                if self._service.affects(candidate, query)
            ]
        return relevant

    # ------------------------------------------------------------------

    def _collect_candidates(self, queries, base_config):
        existing = {ix.name for ix in base_config.indexes}
        pool = {}
        for query in queries:
            for ix in index_candidates(query, self._db.catalog, self.profile):
                if ix.name not in existing:
                    pool[("ix", ix.name)] = ix
            for view in view_candidates(
                query, self._db.catalog, self.profile
            ):
                pool[("mv", view.name)] = view
        return pool

    def _select(self, current, candidate):
        """``current`` plus the round's winner, as the next round's base.

        The winner may have been priced from the memo alone, or its
        trial environment evicted since, and a round whose base has no
        resident environment builds every trial from scratch — so the
        new base's environment is derived here, from ``current``'s,
        while that is certainly still resident.
        """
        selected = self._extend(current, candidate)
        self._db.hypothetical_env(
            selected, force_hypothetical=True, oracle=self.oracle,
            base=current,
        )
        return selected

    def _extend(self, config, candidate):
        if hasattr(candidate, "group_columns"):        # a view
            extended = config.with_views([candidate])
            # Recommend the view *indexed* on its leading group column,
            # matching the paper's Table 3 ("indexes on materialized
            # views").
            leading = candidate.group_columns[0].name
            return extended.with_indexes(
                [IndexDefinition(table=candidate.name, columns=(leading,))]
            )
        return config.with_indexes([candidate])
