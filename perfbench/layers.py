"""Per-layer metrics of a traced run.

Times come from the benchmark's own spans (``tracing.boundaries``);
counts come from what the program already exposes — the ``obs``
counters, ``Database.cache_stats()``, ``ArtifactCache.snapshot()``, the
served run reports and ``/v1/metrics``.

Cold and warm calls are told apart by where in the pipeline they
happen, because the program memoises: sampling binds and plans every
query of the family for the first time, so the ``sql.bind`` and
``optimizer.plan`` spans under ``workload.sample`` are all cold, and
every later bind of a sampled query is a hit.
"""

import json
import statistics

from tracing import (COUNT, END, ID, NAME, START, by_name, descendants,
                     layer_of, layer_self_seconds, self_times)

LAYERS = ("datagen", "stats", "index", "storage", "sql", "optimizer",
          "recommender", "executor", "engine", "workload", "runtime",
          "analysis", "bench", "server")


def ratio(part, whole):
    return part / whole if whole else 0.0


def median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def percentile(values, q):
    """The q-quantile by nearest rank (0 when there are no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def in_process(run, context, database, reports, family_size):
    """Fill ``run.layer`` for a workload that runs in this process."""
    spans = run.tracer.spans
    own = self_times(spans)
    setup = [s for s in spans if s[NAME] == "bench.run_setup"][-1:]
    timed = [s for s in spans if s[NAME] == "bench.run_timed"]
    in_timed = descendants(spans, timed)
    pool = descendants(spans, setup) + in_timed
    pool_names, timed_names = by_name(pool), by_name(in_timed)

    def named(name, among=pool_names):
        return among[name]

    def self_s(selected):
        return sum(own[s[ID]] for s in selected)

    def duration(selected):
        return sum(s[END] - s[START] for s in selected)

    def under(name):
        return descendants(spans, named(name))

    layer = run.layer
    totals = layer_self_seconds(pool, own)
    for name in LAYERS:
        layer[f"{name}.self_s"] = totals[name]
    counters = run.recorder.counters
    caches = database.cache_stats()

    loaded = sum(t.row_count for t in database.tables.values())
    layer["datagen.load_s"] = self_s(named("datagen.generate")) \
        + duration(named("storage.load_table"))
    layer["datagen.rows_per_s"] = ratio(loaded, layer["datagen.load_s"])

    layer["stats.collect_s"] = duration(named("stats.collect"))
    layer["stats.collect_calls"] = len(named("stats.collect"))

    built = [s for s in in_timed if layer_of(s) == "index"]
    layer["index.build_s"] = self_s(built)
    layer["index.build_rows_per_s"] = ratio(
        sum(s[COUNT] or 0 for s in built), layer["index.build_s"]
    )
    inserts = named("engine.insert_rows")
    layer["index.rebuilds_per_insert"] = ratio(
        len(by_name(under("engine.insert_rows"))["index.build"]),
        len(inserts),
    )
    layer["index.build_r_s"] = self_s(
        s for s in under("bench.build_r") if layer_of(s) == "index"
    )
    last = list(reports.values())[-1:]
    layer["index.bytes"] = last[0].index_bytes if last else 0
    layer["storage.total_bytes"] = last[0].total_bytes if last else 0
    layer["storage.dict_builds"] = caches["dict_cache"]["misses"]
    layer["storage.dict_hit_rate"] = caches["dict_cache"]["hit_rate"]

    sampling = by_name(under("workload.sample"))
    cold_binds = [own[s[ID]] for s in sampling["sql.bind"]]
    sampled = {s[ID] for s in sampling["sql.bind"]}
    warm_binds = [own[s[ID]] for s in timed_names["sql.bind"]
                  if s[ID] not in sampled]
    layer["sql.bind_cold_total_s"] = sum(cold_binds)
    layer["sql.bind_cold_p50_us"] = median(cold_binds, 1e6)
    layer["sql.bind_hit_p50_us"] = median(warm_binds, 1e6)
    layer["sql.bind_replay_rate"] = ratio(
        counters["template.bind_replays"], caches["bind_cache"]["misses"]
    )

    cold_plans = [own[s[ID]] for s in sampling["optimizer.plan"]]
    layer["optimizer.plan_cold_total_s"] = sum(cold_plans)
    layer["optimizer.plan_cold_p50_ms"] = median(cold_plans, 1e3)
    layer["optimizer.plans_enumerated"] = \
        counters["optimizer.plans_enumerated"]
    layer["optimizer.template_replay_rate"] = ratio(
        counters["template.plan_replays"],
        counters["template.plan_replays"] + counters["template.plan_builds"],
    )
    for cache in ("plan_cache", "env_cache"):
        layer[f"optimizer.{cache}_hit_rate"] = caches[cache]["hit_rate"]
        layer[f"optimizer.{cache}_evictions"] = caches[cache]["evictions"]
    layer["optimizer.whatif_calls"] = counters["optimizer.what_if_calls"]
    layer["optimizer.whatif_plan_builds"] = \
        counters["optimizer.what_if_plan_builds"]

    layer["recommender.recommend_s"] = duration(
        named("recommender.recommend")
    )
    for name in ("candidates_generated", "candidates_pruned", "iterations"):
        layer[f"recommender.{name}"] = counters[f"recommender.{name}"]
    layer["recommender.whatif_cache_hit_rate"] = \
        caches["whatif_cache"]["hit_rate"]
    layer["recommender.whatif_cache_evictions"] = \
        caches["whatif_cache"]["evictions"]
    layer["recommender.priced_per_selected"] = ratio(
        caches["whatif_cache"]["misses"],
        counters["recommender.structures_selected"],
    )

    executed = [own[s[ID]] for s in timed_names["executor.execute"]]
    layer["executor.exec_total_s"] = sum(executed)
    layer["executor.exec_p50_ms"] = median(executed, 1e3)
    layer["executor.exec_p95_ms"] = percentile(executed, 0.95) * 1e3
    layer["executor.rows_scanned"] = counters["engine.rows_scanned"]
    layer["executor.rows_scanned_per_s"] = ratio(
        counters["engine.rows_scanned"], sum(executed)
    )
    layer["executor.timeouts"] = counters["engine.query_timeouts"]
    layer["executor.subplan_hit_rate"] = caches["subplan_cache"]["hit_rate"]
    layer["executor.kernel_hit_rate"] = caches["kernel_cache"]["hit_rate"]
    layer["executor.gathers_deferred"] = counters["executor.gathers_deferred"]

    layer["engine.invalidations"] = caches["plan_cache"]["invalidations"]

    layer["workload.generate_s"] = self_s(named("workload.generate"))
    layer["workload.sample_self_s"] = self_s(named("workload.sample"))
    layer["workload.family_size"] = family_size

    artifacts = context.artifacts.snapshot()
    layer["runtime.artifact_hit_rate"] = ratio(
        artifacts["memory_hits"],
        artifacts["memory_hits"] + artifacts["misses"],
    )
    sessions = timed_names["runtime.measure"]
    layer["runtime.session_overhead_us_per_query"] = ratio(
        self_s(sessions) * 1e6, sum(s[COUNT] or 0 for s in sessions)
    )
    layer["analysis.render_s"] = duration(named("analysis.render"))


def served(run, jobs, pings, pair_speedup, rejected):
    """Fill ``run.layer`` for the served workload.  The client's spans
    give the ``server`` layer; the stage seconds in the cold jobs' run
    reports (a session's first job, so the stages are that job's alone)
    give the layers behind it."""
    spans = run.tracer.spans
    own = self_times(spans)
    layer = run.layer
    layer["server.self_s"] = sum(
        own[s[ID]] for s in spans if layer_of(s) == "server"
    )

    def seconds(phase, kind):
        return [j["seconds"] for j in jobs
                if j["phase"] == phase and j["kind"] == kind]

    cold = [j for j in jobs if j["kind"] == "cold"]
    waits = [j["seconds"] - j["ran_s"] for j in cold if j["ran_s"]]
    layer["server.http_roundtrip_p50_ms"] = median(pings, 1e3)
    layer["server.job_warm_p50_ms"] = median(
        seconds("solo", "warm") + seconds("pair", "warm"), 1e3
    )
    layer["server.job_run_p50_s"] = median(
        [j["ran_s"] for j in cold if j["ran_s"]]
    )
    layer["server.queue_wait_p50_s"] = median(waits)
    layer["server.queue_wait_max_s"] = max(waits, default=0.0)
    layer["server.pair_job_cold_p50_s"] = median(seconds("pair", "cold"))
    layer["server.pair_job_cold_p75_s"] = percentile(
        seconds("pair", "cold"), 0.75
    )
    layer["server.pair_speedup"] = pair_speedup
    layer["server.rejected"] = rejected

    stages = [json.loads(j["report"])["stages"] for j in cold]
    for metric, stage in (
        ("datagen.load_s", "build_database"),
        ("recommender.recommend_s", "recommend"),
        ("index.build_s", "build_configuration"),
        ("executor.exec_total_s", "measure_workload"),
    ):
        layer[metric] = median(
            [s[stage]["seconds"] for s in stages if stage in s]
        )
