"""Section 2.2's greedy as the paper states it, against the product.

The reference below prices every candidate against every query in
full, each trial on a what-if environment built from nothing, re-sizes
the whole trial configuration every round, and keeps no memo and no
bound.  The product (:class:`WhatIfRecommender`) prunes, bounds, prices
deltas over a shared plan memo and sizes each candidate once per run;
all of that is claimed exact, so both must select the same structures
in the same order, with the same gain and bytes in every round, and
give up alike.  Candidate generation is shared: it is not what the
product optimises.
"""

import pytest

from repro.bench.context import FAMILY_DATASET, BenchContext, BenchSettings
from repro.common.errors import RecommenderGaveUp
from repro.optimizer.planner import Planner
from repro.recommender.whatif import WhatIfRecommender, gain_of

CASES = [
    ("A", "NREF2J"), ("A", "NREF3J"), ("B", "NREF2J"), ("B", "NREF3J"),
    ("C", "SkTH3J"), ("C", "SkTH3Js"), ("C", "UnTH3J"),
]


@pytest.fixture(scope="module")
def context():
    return BenchContext(BenchSettings(scale=0.05, workload_size=30, jobs=1))


def compare(context, monkeypatch, system, family):
    """``(reference, product)``: round lists, or give-up messages."""
    db = context.database(system, FAMILY_DATASET[family])
    workload = context.workload(system, family)
    context._ensure_configuration(db, system, "P")
    budget = context.space_budget(db)
    reference = outcome(lambda: textbook_greedy(db, workload, budget))
    product = outcome(
        lambda: product_greedy(db, workload, budget, monkeypatch)
    )
    return reference, product


def textbook_greedy(db, workload, budget):
    """``[(key, gain, bytes)]`` of each round, or the give-up."""
    recommender = WhatIfRecommender(db)
    profile = recommender.profile
    queries = [db.bind(q.sql) for q in workload]
    weights = [q.weight for q in workload]
    candidates = recommender._collect_candidates(queries, db.configuration)
    if profile.max_candidates is not None \
            and len(candidates) > profile.max_candidates:
        raise RecommenderGaveUp(
            f"{len(candidates)} candidate structures exceed the "
            f"search limit of {profile.max_candidates} "
            f"(workload of {len(queries)} queries)"
        )

    def price(config):
        env = db._build_hypothetical_env(config, True, False)
        return [w * Planner(env).plan(q).est.cost
                for q, w in zip(queries, weights)]

    def size(config):
        return db._structure_bytes(config, config.indexes, config.views)

    current, used, rounds = db.configuration, 0, []
    current_costs = price(current)
    while len(rounds) < profile.max_selected:
        threshold = profile.min_improvement * max(sum(current_costs), 1e-9)
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
    return rounds


def product_greedy(db, workload, budget, monkeypatch):
    rounds = []
    best_candidate = WhatIfRecommender._best_candidate

    def recording(self, *args):
        best = best_candidate(self, *args)
        if best is not None:
            _, key, _, extra, gain, _ = best
            rounds.append((key, gain, extra))
        return best

    monkeypatch.setattr(WhatIfRecommender, "_best_candidate", recording)
    report = WhatIfRecommender(db).recommend(workload, budget)
    assert len(report.selected) == len(rounds)
    return rounds


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
