"""Workload sampling.

The paper reduces each family to 100 queries "in a way that the
distribution of elapsed times of the larger family was preserved"
(Section 4.1.1).  We stratify the family by the order of magnitude of a
per-query cost key — by default the optimizer's estimated cost in the
initial configuration, which is available without executing the family —
and sample proportionally from each stratum.

The sample is what a run keeps; the family is only estimated.  Its
costs come from :meth:`~repro.engine.database.Database.estimate_many`,
one pass that binds and plans every query and caches neither, so the
bound queries and plans of the (mostly unsampled) family do not stay
in the database's caches.
"""

import math

import numpy as np

from ..common.rng import make_rng
from .workload import Workload


def stratified_sample(workload, costs, size=100, seed=405, name=None):
    """Sample ``size`` queries preserving the cost distribution.

    ``costs`` is one non-negative number per query (same order as
    ``workload.queries``).  Queries are bucketed by ``floor(log10(cost))``
    and each bucket contributes proportionally to its share of the family
    (largest-remainder rounding keeps the total exact).  A bucket of
    ``m`` members has the exact share ``size * m / n < m``, so its
    quota never exceeds its size and the sample holds exactly ``size``
    queries.
    """
    queries = list(workload.queries)
    if len(costs) != len(queries):
        raise ValueError("costs and workload sizes differ")
    if size >= len(queries):
        return Workload(name=name or workload.name, queries=queries)

    rng = make_rng(seed)
    strata = {}
    for idx, cost in enumerate(costs):
        bucket = int(math.floor(math.log10(max(cost, 1e-9))))
        strata.setdefault(bucket, []).append(idx)

    total = len(queries)
    quotas = {}
    remainders = []
    assigned = 0
    for bucket, members in sorted(strata.items()):
        exact = size * len(members) / total
        quota = int(exact)
        quotas[bucket] = quota
        assigned += quota
        remainders.append((exact - quota, bucket))
    for _, bucket in sorted(remainders, reverse=True)[: size - assigned]:
        quotas[bucket] += 1

    chosen = []
    for bucket, members in sorted(strata.items()):
        picks = rng.choice(len(members), size=quotas[bucket], replace=False)
        chosen.extend(members[i] for i in sorted(picks))

    chosen = sorted(chosen)
    return Workload(
        name=name or workload.name,
        queries=[queries[i] for i in chosen],
    )


def estimated_costs(database, workload):
    """Per-query estimated cost in the database's current configuration,
    taken in one pass that leaves the database's caches as they were."""
    return np.array(
        database.estimate_many(q.sql for q in workload.queries),
        dtype=np.float64,
    )


def sample_benchmark_workload(database, workload, size=100, seed=405):
    """The paper's 100-query benchmark sample for one family."""
    costs = estimated_costs(database, workload)
    return stratified_sample(workload, costs, size=size, seed=seed)
