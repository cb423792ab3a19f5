"""Perf benchmark: what-if cost service on vs off (System B, NREF3J).

Times the same recommendation run twice — the plain serial loop
(``REPRO_WHATIF_CACHE=0`` semantics) and the full cost service (atomic
memoization, incremental environments, parallel candidate search,
upper-bound pruning) — each in a fresh context, and asserts the two
recommend byte-identical configurations, inside the pytest-benchmark
harness (wall-clock numbers come from ``perfbench/``).

Part of the benchmark harness; run with::

    pytest benchmarks/bench_whatif_service.py --benchmark-only -s

Scale knobs: ``REPRO_SCALE`` / ``REPRO_WORKLOAD_SIZE`` / ``REPRO_JOBS``
(defaults here are deliberately smaller than the figure benches' — the
run happens twice).
"""

import os

from repro.bench.context import FAMILY_DATASET, BenchContext, BenchSettings
from repro.recommender.whatif import WhatIfRecommender
from repro.runtime.session import MeasurementSession

SETTINGS = BenchSettings(
    scale=float(os.environ.get("REPRO_SCALE", "0.1")),
    workload_size=int(os.environ.get("REPRO_WORKLOAD_SIZE", "30")),
    seed=405,
    jobs=int(os.environ.get("REPRO_JOBS", "2")),
)

# Fingerprints of the runs that already happened this session, keyed by
# mode — the cached test asserts parity when the uncached one ran first.
_FINGERPRINTS = {}


def _setup(use_cache):
    """Fresh context per mode: nothing warm leaks between the two runs."""
    context = BenchContext(SETTINGS)
    db = context.database("B", FAMILY_DATASET["NREF3J"])
    workload = context.workload("B", "NREF3J")
    budget = context.space_budget(db)
    return (db, workload, budget, use_cache), {}


def _recommend(db, workload, budget, use_cache):
    with MeasurementSession(db, jobs=SETTINGS.jobs) as session:
        recommender = WhatIfRecommender(
            db, session=session, use_cache=use_cache
        )
        return recommender.recommend(workload, budget, name="NREF3J_R")


def test_whatif_service_off(benchmark):
    report = benchmark.pedantic(
        _recommend, setup=lambda: _setup(False), rounds=1, iterations=1
    )
    _FINGERPRINTS["off"] = report.configuration.fingerprint
    assert report.selected


def test_whatif_service_on(benchmark):
    report = benchmark.pedantic(
        _recommend, setup=lambda: _setup(True), rounds=1, iterations=1
    )
    _FINGERPRINTS["on"] = report.configuration.fingerprint
    assert report.selected
    if "off" in _FINGERPRINTS:
        assert _FINGERPRINTS["on"] == _FINGERPRINTS["off"]
