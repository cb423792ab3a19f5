"""Metric declarations shared by ``run.py`` and ``compare.py``.

``BENCHMARK.json`` declares the end-to-end metrics every workload
reports, with their bounds, and the per-layer metrics of a traced run.
The stage metrics below belong to one workload each, so they cannot sit
in ``BENCHMARK.json`` (its end-to-end metrics are reported by every
workload); ``run.py`` prints them and ``compare.py`` bounds them.
"""

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name: (unit, better, bound, workloads that report it)
STAGE_METRICS = {
    "recommend_s": ("s", "lower", 0.10, ("fig8_skth3j",)),
    "build_s": ("s", "lower", 0.10, ("fig4_nref3j",)),
    "measure_s": ("s", "lower", 0.10, ("fig4_nref3j",)),
    "remeasure_s": ("s", "lower", 0.10, ("fig4_nref3j",)),
    "queries_per_s": ("1/s", "higher", 0.10, ("sec44_insert_mix",)),
    "rows_inserted_per_s": ("1/s", "higher", 0.10, ("sec44_insert_mix",)),
    "jobs_per_min": ("1/min", "higher", 0.10, ("serve_nref2j",)),
    "job_cold_p50_s": ("s", "lower", 0.10, ("serve_nref2j",)),
}


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def bounded_metrics(benchmark, workload):
    """``{name: (unit, better, bound)}`` of every bounded metric that
    ``workload`` reports: the declared end-to-end ones, then its stage
    metrics."""
    table = {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in benchmark["end_to_end"]
    }
    table.update(
        (name, spec[:3]) for name, spec in STAGE_METRICS.items()
        if workload in spec[3]
    )
    return table


def values(runs, workload, metric):
    """A bounded metric's value in each untraced run of ``workload``."""
    return [
        {**run["end_to_end"], **run["stage_metrics"]}[metric]
        for run in runs
        if run["workload"] == workload and not run["trace"]
    ]


def summary(values):
    """Sample count, median and quartiles of a metric's values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}
