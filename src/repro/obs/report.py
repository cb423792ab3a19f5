"""Structured run reports: one JSON document describing a bench run.

The run report is the durable answer to "what happened in that run?":
the manifest (seed, scale, workload size, jobs), every configuration
fingerprint the run touched, wall-clock per pipeline stage, hit/miss
counters of every cache, each database's resident bytes (columns by
dtype, dictionary arrays by kind), the metrics registry, and the
per-query A/E/H cost breakdown of every measured workload — the
provenance the paper's Figures 10–11 analysis needs (tracing a bad
recommendation back to the optimizer's hypothetical estimates).

:func:`build_run_report` assembles the document from a bench context
(duck-typed: anything with ``settings``/``timings``/``artifacts``/
``live_databases``) plus, optionally, the run's
:class:`~repro.obs.recorder.TraceRecorder`.  The shape is pinned by
:data:`repro.obs.schemas.RUN_REPORT_SCHEMA`; :func:`render_text` and
:func:`render_metrics` turn report/metrics dicts back into the
human-oriented ``--stats``/``--metrics`` console output, so the printed
numbers can never drift from the exported ones.
"""

import copy
import json

REPORT_SCHEMA_ID = "repro.report/v1"


def build_run_report(context, recorder=None, experiments=None):
    """Assemble the structured report of one bench run.

    Args:
        context: a ``BenchContext`` (or compatible object exposing
            ``settings``, ``jobs``, ``timings``, ``artifacts`` and
            ``live_databases()``).
        recorder: the run's ``TraceRecorder``, if observability was on;
            supplies the metrics block, recorded configuration
            fingerprints, and per-query measurement events.  ``None``
            still produces a complete report from context state alone.
        experiments: experiment ids the run executed (manifest only).

    Returns:
        A JSON-serializable dict matching
        :data:`repro.obs.schemas.RUN_REPORT_SCHEMA`.
    """
    settings = context.settings
    fingerprints = {}
    measurements = []
    metrics = {}
    if recorder is not None and recorder.enabled:
        for event in recorder.events("configuration"):
            payload = event["payload"]
            key = f"{payload['database']}:{payload['configuration']}"
            fingerprints[key] = payload["fingerprint"]
        measurements = [
            dict(event["payload"])
            for event in recorder.events("measurement")
        ]
        metrics = recorder.metrics.snapshot()

    databases = {}
    for (system_name, dataset), db in sorted(context.live_databases()):
        label = f"{system_name}/{dataset}"
        databases[label] = {
            **db.cache_stats(), "resident_bytes": db.resident_bytes(),
            "indexes": db.indexes_sorted(),
        }
        config = db.configuration
        fingerprints.setdefault(
            f"{db.name}:{config.name}", config.fingerprint
        )

    return {
        "schema": REPORT_SCHEMA_ID,
        "run": {
            "seed": settings.seed,
            "scale": settings.scale,
            "workload_size": settings.workload_size,
            "timeout": settings.timeout,
            "jobs": context.jobs,
            "experiments": list(experiments or ()),
        },
        "fingerprints": fingerprints,
        "stages": context.timings.snapshot(),
        "caches": {
            "artifact": context.artifacts.snapshot(),
            "databases": databases,
        },
        "metrics": metrics,
        "measurements": measurements,
    }


def canonicalize_run_report(report):
    """A deep copy of ``report`` with wall-clock durations zeroed.

    Everything in a run report is deterministic — fingerprints, virtual
    seconds, cache and engine counters — *except* the wall-clock
    ``stages.*.seconds`` accounting, which necessarily differs between
    two runs of the same work.  The canonical form zeroes exactly those
    fields (the ``count`` per stage stays, it is deterministic), so two
    reports of the same run can be compared byte-for-byte after
    :func:`write_report`-style serialization.  This is how CI and the
    tuning server prove that a report served over HTTP describes the
    same run as the one-shot CLI's ``--report`` file.

    Args:
        report: a dict matching :data:`repro.obs.schemas.RUN_REPORT_SCHEMA`.

    Returns:
        A new, schema-valid report dict; the input is not mutated.
    """
    canonical = copy.deepcopy(report)
    for row in canonical.get("stages", {}).values():
        row["seconds"] = 0.0
    return canonical


def write_report(report, path):
    """Write a run report as pretty-printed, key-sorted JSON.

    Args:
        report: the dict from :func:`build_run_report`.
        path: destination file path.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Console rendering (the --stats / --metrics output)

def render_stages(stages, title="bench stage timings"):
    """Stage-timings block of the console report.

    Args:
        stages: the report's ``stages`` dict
            (``{name: {"seconds": float, "count": int}}``).
        title: heading line.
    """
    if not stages:
        return f"{title}: (no stages recorded)"
    width = max(len(name) for name in stages)
    lines = [f"{title}:"]
    for name, row in sorted(
        stages.items(), key=lambda item: -item[1]["seconds"]
    ):
        lines.append(
            f"  {name:<{width}}  {row['seconds']:9.3f}s  x{row['count']}"
        )
    return "\n".join(lines)


def render_text(report):
    """The full ``--stats`` console rendering of a run report.

    Shows stage timings, artifact-cache traffic, and each database's
    planner/bind cache hit rates — all read back out of the structured
    report, so console and JSON never disagree.
    """
    lines = [render_stages(report["stages"])]
    artifact = report["caches"]["artifact"]
    line = (
        "artifact cache: "
        f"{artifact['memory_hits']} memory hits, "
        f"{artifact['disk_hits']} disk hits, "
        f"{artifact['misses']} misses, "
        f"{artifact['entries']} entries"
    )
    if artifact.get("directory"):
        line += f", dir={artifact['directory']}"
    lines.append(line)
    for label, caches in sorted(report["caches"]["databases"].items()):
        plan = caches["plan_cache"]
        bind = caches["bind_cache"]
        lookups = plan["hits"] + plan["misses"]
        line = (
            f"db {label}: plan cache {plan['hits']}/{lookups} hits "
            f"(rate {plan['hit_rate']:.2f}), "
            f"bind cache rate {bind['hit_rate']:.2f}"
        )
        whatif = caches.get("whatif_cache")
        if whatif and whatif["hits"] + whatif["misses"]:
            line += f", what-if cache rate {whatif['hit_rate']:.2f}"
        dictionary = caches.get("dict_cache")
        if dictionary and dictionary["hits"] + dictionary["misses"]:
            line += f", dict cache rate {dictionary['hit_rate']:.2f}"
        subplan = caches.get("subplan_cache")
        if subplan and subplan["hits"] + subplan["misses"]:
            line += f", subplan cache rate {subplan['hit_rate']:.2f}"
        kernels = caches.get("kernel_cache")
        if kernels and kernels["hits"] + kernels["misses"]:
            line += f", kernel cache rate {kernels['hit_rate']:.2f}"
        measured = caches.get("measure_cache")
        if measured and measured["hits"] + measured["misses"]:
            line += (f", measure cache {measured['hits']}/"
                     f"{measured['hits'] + measured['misses']} hits")
        lines.append(line)
        resident = caches["resident_bytes"]
        lines.append(
            f"db {label}: resident columns "
            + ", ".join(f"{dtype} {size / 1e6:.1f} MB"
                        for dtype, size in resident["tables"].items())
            + "; dictionaries "
            + ", ".join(f"{kind} {size / 1e6:.1f} MB"
                        for kind, size in resident["dictionaries"].items())
        )
        indexes = caches["indexes"]
        lines.append(
            f"db {label}: indexes sorted {indexes['sorted']} of "
            f"{indexes['indexes']}"
        )
    return "\n".join(lines)


def render_metrics(snapshot, title="metrics"):
    """Console rendering of a metrics-registry snapshot (``--metrics``).

    Args:
        snapshot: dict from ``MetricsRegistry.snapshot()``.
        title: heading line.
    """
    lines = [f"{title}:"]
    counters = snapshot.get("counters", {})
    for name in sorted(counters):
        lines.append(f"  {name} = {counters[name]}")
    histograms = snapshot.get("histograms", {})
    for name in sorted(histograms):
        h = histograms[name]
        lines.append(
            f"  {name}: n={h['count']} sum={h['sum']:.3f} "
            f"min={h['min']} max={h['max']}"
        )
        for bucket, count in h["buckets"].items():
            lines.append(f"    {bucket}: {count}")
    if len(lines) == 1:
        lines.append("  (no metrics recorded)")
    return "\n".join(lines)
