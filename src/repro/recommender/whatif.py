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
memoized by the relevant subset of the trial configuration, candidate
trials extend the current configuration's what-if environment
incrementally, and whole candidate evaluations fan out over the
measurement session's worker pool with a deterministic reduction.  A
round never prices more of a candidate than it takes to rule it out:
its best-possible gain is bounded before any optimizer call and again
after every priced query (:func:`price_bounded`), and the candidate is
dropped the moment the bound falls below the round's improvement
threshold.

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
from ..runtime.session import MeasurementSession
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


def price_bounded(current, threshold, price):
    """Price one candidate until it is known to miss ``threshold``.

    Queries are priced dearest first, and before each one the candidate's
    *optimistic* gain is taken: priced queries at their trial cost,
    every unpriced query at trial cost 0.  Costs are non-negative and
    floating-point subtraction and addition are monotone, so the
    optimistic gain — the same sum, in the same order, with some trial
    costs lowered to 0 — is never below the final one: once it is under
    ``threshold`` the final gain is too, and the candidate can be
    dropped without pricing the rest.  The last check is the final
    gain itself, so a fully priced candidate that misses the threshold
    is dropped by the same test.

    Args:
        current: current weighted cost of each relevant query, in query
            order.
        threshold: the gain a candidate must reach this round.
        price: ``price(position)`` → weighted trial cost (``>= 0``) of
            the query at ``position`` of ``current``.

    Returns:
        ``(trial, priced)``: the trial costs aligned with ``current``
        (``None`` when the candidate was dropped) and how many queries
        were priced.
    """
    trial = [0.0] * len(current)
    dearest_first = sorted(range(len(current)), key=lambda i: -current[i])
    priced = 0
    while not gain_of(current, trial) < threshold:
        if priced == len(current):
            return trial, priced
        position = dearest_first[priced]
        trial[position] = price(position)
        priced += 1
    return None, priced


class WhatIfRecommender:
    """Greedy budgeted index/view advisor over what-if optimizer calls."""

    def __init__(self, database, profile=None, oracle=False, session=None):
        self._db = database
        self.profile = profile or database.system.recommender
        self.oracle = oracle
        # The session provides the worker pool (REPRO_JOBS) that
        # candidate evaluations fan out over.
        self._session = session or MeasurementSession(database)
        # The what-if cost service: atomic-configuration memoization
        # and incremental environments over the what-if optimizer.
        self._service = WhatIfCostService(database, self._session)

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
            report = self._recommend(workload, budget_bytes, name, span)
        obs.counter_add("recommender.runs")
        obs.event(
            "recommendation",
            workload=workload.name,
            configuration=report.configuration.name,
            fingerprint=report.configuration.fingerprint,
            candidates=report.candidate_count,
            iterations=report.iterations,
            selected=len(report.selected),
            used_bytes=report.used_bytes,
        )
        return report

    def _recommend(self, workload, budget_bytes, name, span):
        profile = self.profile
        queries = [self._db.bind(q.sql) for q in workload]
        weights = [q.weight for q in workload]
        base_config = self._db.configuration

        candidates = self._collect_candidates(queries, base_config)
        obs.counter_add("recommender.candidates_generated", len(candidates))
        if profile.max_candidates is not None and \
                len(candidates) > profile.max_candidates:
            span.set(gave_up=True, candidates=len(candidates))
            obs.counter_add("recommender.give_ups")
            raise RecommenderGaveUp(
                f"{len(candidates)} candidate structures exceed the "
                f"search limit of {profile.max_candidates} "
                f"(workload of {len(queries)} queries)"
            )

        base_bytes = self._db.estimated_configuration_bytes(base_config)
        raw_base = self._what_if_batch(
            queries, base_config, parallel=True
        )
        base_costs = [c * w for c, w in zip(raw_base, weights)]
        total = sum(base_costs)

        current = base_config
        current_costs = list(base_costs)
        used = 0
        selected = []
        iterations = 0
        affected = {}
        while len(selected) < profile.max_selected:
            iterations += 1
            threshold = profile.min_improvement * max(
                sum(current_costs), 1e-9
            )
            selected_keys = {key for key, _ in selected}
            best = self._best_candidate(
                candidates, selected_keys, queries, weights, current,
                current_costs, base_bytes, used, budget_bytes, threshold,
                affected,
            )
            if best is None:
                break
            _, key, candidate, extra, gain, trial_costs = best
            current = self._select(current, candidate)
            used += max(0, extra)
            selected.append((key, candidate))
            for idx, cost in trial_costs.items():
                current_costs[idx] = cost

        final = current.renamed(
            name or f"{self._db.name}_{self.profile.name}_R"
        )
        span.set(
            candidates=len(candidates),
            iterations=iterations,
            selected=len(selected),
            used_bytes=used,
        )
        obs.counter_add("recommender.iterations", iterations)
        obs.counter_add("recommender.structures_selected", len(selected))
        return RecommendationReport(
            configuration=final,
            base_cost=total,
            estimated_cost=sum(current_costs),
            budget_bytes=budget_bytes,
            used_bytes=used,
            iterations=iterations,
            candidate_count=len(candidates),
            selected=[c for _, c in selected],
        )

    # ------------------------------------------------------------------
    # One greedy round

    def _best_candidate(self, candidates, selected_keys, queries, weights,
                        current, current_costs, base_bytes, used,
                        budget_bytes, threshold, affected):
        """The round's best ``(score, key, candidate, extra, gain, costs)``.

        Phase 1 (serial, cheap) filters candidates: already selected,
        over budget, or pruned because even a best-possible gain (the
        entire current cost of the queries the candidate can affect)
        cannot reach the round's improvement threshold.  Phase 2 prices
        the survivors: whole candidate evaluations fan out over the
        session pool, and each worker prices its candidate's queries
        one at a time through the atomic memo (extending the current
        configuration's what-if environment incrementally), stopping
        as soon as :func:`price_bounded` rules the candidate out.  The
        bound looks at nothing but the candidate itself, so which
        pricings are skipped does not depend on the pool width.
        Phase 3 reduces in candidate order with a strict comparison, so
        ties are broken by candidate position, never by completion
        order.
        """
        eligible = []
        pruned = 0
        for key, candidate in candidates.items():
            if key in selected_keys:
                continue
            trial = self._extend(current, candidate)
            extra = (
                self._db.estimated_configuration_bytes(trial)
                - base_bytes - used
            )
            if used + max(0, extra) > budget_bytes:
                continue
            relevant = self._affected(affected, key, candidate, queries)
            before = [current_costs[idx] for idx in relevant]
            if sum(before) < threshold:
                pruned += 1
                continue
            eligible.append((key, candidate, trial, extra, relevant, before))
        if pruned:
            obs.counter_add("recommender.candidates_pruned", pruned)

        def evaluate(item):
            _key, _candidate, trial, _extra, relevant, before = item

            def price(position):
                idx = relevant[position]
                return weights[idx] * self._service.cost(
                    queries[idx], trial, base=current, oracle=self.oracle
                )

            return price_bounded(before, threshold, price)

        priced = self._session.map_batch(evaluate, eligible)

        best = None
        abandoned = skipped = 0
        for (key, candidate, _trial, extra, relevant, before), (
                after, count) in zip(eligible, priced):
            if after is None:
                # Not worth its maintenance/storage footprint: the
                # candidate is ineligible this round.
                if count < len(relevant):
                    abandoned += 1
                    skipped += len(relevant) - count
                continue
            gain = gain_of(before, after)
            score = gain / max(1, extra)
            if best is None or score > best[0]:
                best = (score, key, candidate, extra, gain,
                        dict(zip(relevant, after)))
        if abandoned:
            obs.counter_add("recommender.candidates_abandoned", abandoned)
            obs.counter_add("recommender.pricings_skipped", skipped)
        return best

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

    def _what_if_batch(self, queries, config, base=None, parallel=False):
        """H costs of ``queries`` under ``config`` from the cost service
        (atomic memoization, incremental environments).

        ``parallel`` fans misses out over the session pool and must only
        be set from the main thread.
        """
        return self._service.costs(
            queries, config, base=base, oracle=self.oracle,
            parallel=parallel,
        )

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
