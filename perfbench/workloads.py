"""The four pinned workloads and the run state they fill in.

Every workload is a fixed amount of work, so the program's counters and
output fingerprints repeat exactly from run to run and can be compared
across commits.  The queries are always the paper's sample (sampling
seed 405): the time the recommender needs swings threefold from one
sample to the next, which no repeat count would average out.  ``--seed``
drives the inputs whose variation leaves the amount of work alone — the
order in which queries are issued, the rows of the insert batches, the
probe picks and the tenant names.
"""

import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from repro import obs
from repro.bench.context import BenchContext, BenchSettings
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.engine.configuration import one_column_configuration
from repro.index.definition import IndexDefinition
from repro.runtime.session import MeasurementSession
from repro.server.client import ServerError, TuningClient
from repro.storage.encoding import DictionaryCache
from repro.workload.updates import nref_neighboring_batch
from repro.workload.workload import Workload

import layers
from metrics import ROOT, STAGE_METRICS
from tracing import ID, NullTracer, Tracer, counter_recorder

SAMPLE_SEED = 405
CONFIGS = ("P", "1C", "R")

# Sizes were probed on a 2-core sandbox: one untraced set of the four
# full-size workloads takes about 100 s.  ``setups`` is how often the
# set-up is repeated for the median; the 8 s set-up of fig4_nref3j is
# long enough to be steady when taken once.
SIZES = {
    "fig4_nref3j": {
        "full": dict(scale=2.0, queries=300, passes=3, setups=1),
        "smoke": dict(scale=0.05, queries=20, passes=2, setups=1),
    },
    "fig8_skth3j": {
        "full": dict(scale=1.0, queries=100, passes=0, setups=3),
        "smoke": dict(scale=0.05, queries=10, passes=0, setups=2),
    },
    "sec44_insert_mix": {
        "full": dict(scale=0.3, queries=10, rounds=10, rows=1000,
                     setups=3),
        "smoke": dict(scale=0.03, queries=5, rounds=3, rows=100,
                      setups=2),
    },
    "serve_nref2j": {
        "full": dict(scale=0.05, queries=30, solo_rounds=10, pair_rounds=5,
                     warm=3, setups=5, pings=200),
        "smoke": dict(scale=0.03, queries=5, solo_rounds=2, pair_rounds=1,
                      warm=2, setups=2, pings=20),
    },
}
PROBE = {"full": dict(indexes=10, queries=20),
         "smoke": dict(indexes=3, queries=4)}


def digest(*parts):
    """A short stable hash of JSON-able values and numeric arrays."""
    sha = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray) and part.dtype != object:
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            if isinstance(part, np.ndarray):
                part = part.tolist()
            sha.update(json.dumps(part, sort_keys=True).encode("utf-8"))
    return sha.hexdigest()[:16]


class Run:
    """State of one run of one workload: clocks, operation counts,
    fingerprints, and (when traced) the spans and layer metrics."""

    def __init__(self, workload, seed, trace, smoke, import_s):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.sizing = "smoke" if smoke else "full"
        self.size = SIZES[workload][self.sizing]
        self.import_s = import_s
        self.rng = np.random.default_rng(seed)
        self.tracer = (
            Tracer(f"{workload}-{seed}") if trace else NullTracer()
        )
        self.recorder = counter_recorder() if trace else None
        self.setup_s = self.wall_s = self.peak_rss_mb = None
        self.stages = {}
        self.stage_metrics = {}
        self.layer = {}
        self.fingerprints = {}
        self.counts = {}
        # The served workload counts operations from two client threads.
        self._lock = threading.Lock()
        self.attempted = self.failed = 0
        self.failures = []

    # -- clocks ---------------------------------------------------------

    def setup(self, build, teardown=None):
        """Set up ``setups`` times and keep the last state; ``setup_s``
        is the import time plus the median set-up."""
        seconds, state = [], None
        for _ in range(self.size["setups"]):
            if state is not None:
                if teardown is not None:
                    teardown(state)
                state = None
                gc.collect()
            if self.recorder is not None:
                self.recorder.counters.clear()
            with self.tracer.span("bench.run_setup"):
                started = time.perf_counter()
                state = build()
                seconds.append(time.perf_counter() - started)
        self.setup_s = self.import_s + statistics.median(seconds)
        return state

    @contextlib.contextmanager
    def timed(self):
        """The timed region, which ``wall_s`` measures."""
        with self.tracer.span("bench.run_timed"):
            started = time.perf_counter()
            yield
            self.wall_s = time.perf_counter() - started

    def call(self, span, fn):
        """One operation: ``(result, seconds)`` of ``fn()``."""
        with self._lock:
            self.attempted += 1
        with self.tracer.span(span):
            started = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - started

    def stage(self, stage, span, fn):
        """An operation whose seconds are charged to a named stage."""
        result, seconds = self.call(span, fn)
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds
        return result

    def fail(self, message):
        with self._lock:
            self.failed += 1
            self.failures.append(message)

    def check(self, ok, message):
        """An output check; a failed one counts as a failed operation."""
        with self._lock:
            self.attempted += 1
        if not ok:
            self.fail(message)

    def report_stages(self, **values):
        """Keep the stage metrics that this workload is declared to
        report."""
        self.stage_metrics = {
            name: value for name, value in values.items()
            if self.workload in STAGE_METRICS[name][3]
        }

    def peak_rss(self, who):
        self.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # -- results --------------------------------------------------------

    def end_to_end(self):
        return {"setup_s": self.setup_s, "wall_s": self.wall_s,
                "peak_rss_mb": self.peak_rss_mb}

    def record(self):
        """Everything the run learned, as one JSON-able dict."""
        return {
            "workload": self.workload, "seed": self.seed,
            "trace": int(self.trace), "sizing": self.sizing,
            "attempted": self.attempted, "failed": self.failed,
            "failures": self.failures[:20],
            "end_to_end": self.end_to_end(),
            "stage_metrics": self.stage_metrics,
            "stages": self.stages, "per_layer": self.layer,
            "fingerprints": self.fingerprints, "counts": self.counts,
        }


# ----------------------------------------------------------------------
# In-process workloads

def bench_context(size):
    return BenchContext(BenchSettings(
        scale=size["scale"], workload_size=size["queries"],
        seed=SAMPLE_SEED, jobs=1,
    ))


def cache_counts(database):
    """Every cache's exact counters, flattened to ``cache.field``."""
    return {
        f"{name}.{field}": value
        for name, stats in database.cache_stats().items()
        for field, value in stats.items()
        if field in ("hits", "misses", "evictions", "invalidations")
    }


def row_counts(database, workload, timeout):
    """Result row count per query (``None`` where it timed out)."""
    counts = []
    for query in workload:
        result = database.execute(query.sql, timeout=timeout)
        counts.append(None if result.timed_out else result.batch.rows)
    return counts


def figure_pipeline(run, system, dataset, family, figure):
    """sample → recommend → measure P → per further configuration build
    and measure → render the figure → warm passes in shuffled order."""

    def build():
        context = bench_context(run.size)
        return context, context.database(system, dataset)

    context, database = run.setup(build)
    timeout = context.settings.timeout
    measured, reports = {}, {}
    with run.timed():
        workload = run.stage(
            "sample", "workload.sample",
            lambda: context.workload(system, family),
        )
        recommended, _ = run.stage(
            "recommend", "bench.recommend",
            lambda: context.recommendation(system, family),
        )
        # P is built by the set-up; each further configuration is built
        # before it is measured, so that measure() finds it in place.
        configurations = {"P": context.p_configuration(database)}
        if recommended is not None:
            configurations["R"] = recommended
        configurations["1C"] = context.one_c_configuration(database)
        for config in configurations:
            if config != "P":
                reports[config] = run.stage(
                    f"build_{config.lower()}",
                    f"bench.build_{config.lower()}",
                    lambda: context.build_report(
                        system, dataset, config, family=family
                    ),
                )
            measured[config] = run.stage(
                "measure", "bench.measure",
                lambda: context.measure(system, family, config),
            )
        rendered = run.stage(
            "render", "analysis.render",
            lambda: ALL_EXPERIMENTS[figure](context),
        )
        queries = list(workload)
        orders = [run.rng.permutation(len(queries))
                  for _ in range(run.size["passes"])]
        with MeasurementSession(database, jobs=1) as session:
            for order in orders:
                shuffled = Workload(
                    workload.name, [queries[i] for i in order]
                )
                run.stage(
                    "remeasure", "bench.remeasure",
                    lambda: session.measure(shuffled, timeout=timeout),
                )
    run.peak_rss(resource.RUSAGE_SELF)
    run.report_stages(
        recommend_s=run.stages["recommend"],
        build_s=sum(seconds for stage, seconds in run.stages.items()
                    if stage.startswith("build_")),
        measure_s=run.stages["measure"],
        remeasure_s=run.stages.get("remeasure", 0.0),
    )
    run.fingerprints = {
        "workload": digest(workload.sqls()),
        "inputs": digest([order.tolist() for order in orders]),
        "figure": digest(rendered.text),
        "costs": digest(*(measured[c].elapsed for c in configurations)),
        "recommendation": (
            recommended.fingerprint if recommended is not None else "none"
        ),
    }
    run.counts = cache_counts(database)
    run.counts.update(
        (f"timeouts.{c}", measured[c].timeout_count)
        for c in configurations
    )
    if run.trace:
        layers.in_process(
            run, context, database, reports,
            family_size=len(context.full_family(system, family)),
        )
        probes(run, database, queries)

    # Output checks come after the counters are read, so that they leave
    # the layer numbers alone.  The configuration still in place goes
    # first; putting an earlier one back costs an index build but no
    # statistics, which row counts do not depend on.
    with run.tracer.span("bench.run_check"):
        rows = {}
        for config in reversed(configurations):
            wanted = configurations[config]
            if database.configuration.fingerprint != wanted.fingerprint:
                database.apply_configuration(wanted)
            rows[config] = row_counts(database, workload, timeout)
        for config in rows:
            differing = [
                i for i, (a, b) in enumerate(zip(rows["P"], rows[config]))
                if a is not None and b is not None and a != b
            ]
            run.check(
                not differing,
                f"{len(differing)} queries return other row counts "
                f"under {config} than under P (first: {differing[:3]})",
            )
        run.fingerprints["rows"] = digest(rows)
        run.check(bool(rendered.text.strip()), "the figure is empty")
        run.check(
            all(len(m) == len(queries) for m in measured.values()),
            "a measurement does not cover the whole workload",
        )


def fig4_nref3j(run):
    figure_pipeline(run, "A", "nref", "NREF3J", "fig4")


def fig8_skth3j(run):
    figure_pipeline(run, "C", "skth", "SkTH3J", "fig8")


def sec44_insert_mix(run):
    """Rounds of one insert batch followed by a burst of queries."""
    system, dataset, family, table = "A", "nref", "NREF2J", "neighboring_seq"
    reports = {}

    def build():
        context = bench_context(run.size)
        database = context.database(system, dataset)
        with run.tracer.span("workload.sample"):
            workload = context.workload(system, family)
        reports["1C"] = context.build_report(system, dataset, "1C")
        return context, database, workload

    context, database, workload = run.setup(build)
    timeout = context.settings.timeout
    queries = list(workload)
    rows_before = database.table(table).row_count
    inserts, firsts, steadies, virtual, batches = [], [], [], [], []
    with run.timed():
        for round_ in range(run.size["rounds"]):
            batch = nref_neighboring_batch(
                database, run.size["rows"],
                seed=run.seed * 1000 + round_,
            )
            batches.append(digest(*batch.values()))
            cost, seconds = run.call(
                "bench.insert",
                lambda: database.insert_rows(table, batch),
            )
            inserts.append(seconds)
            virtual.append(cost)
            for position, i in enumerate(run.rng.permutation(len(queries))):
                result, seconds = run.call(
                    "bench.query",
                    lambda: database.execute(queries[i].sql, timeout=timeout),
                )
                (steadies if position else firsts).append(seconds)
                virtual.append(result.elapsed)
    run.peak_rss(resource.RUSAGE_SELF)
    inserted = run.size["rounds"] * run.size["rows"]
    run.stages = {"insert": sum(inserts),
                  "query": sum(firsts) + sum(steadies)}
    run.report_stages(
        rows_inserted_per_s=inserted / run.stages["insert"],
        queries_per_s=(len(firsts) + len(steadies)) / run.stages["query"],
    )
    run.fingerprints = {
        "workload": digest(workload.sqls()),
        "inputs": digest(batches),
        "costs": digest(virtual),
    }
    run.counts = cache_counts(database)
    run.counts["rows"] = database.table(table).row_count
    if run.trace:
        layers.in_process(
            run, context, database, reports,
            family_size=len(context.full_family(system, family)),
        )
        run.layer.update({
            "engine.insert_p50_ms": statistics.median(inserts) * 1e3,
            "engine.first_query_after_insert_ms":
                statistics.median(firsts) * 1e3,
            "engine.steady_query_ms": statistics.median(steadies) * 1e3,
        })
        probes(run, database, queries)
    run.check(
        run.counts["rows"] == rows_before + inserted,
        f"{table} holds {run.counts['rows']} rows, "
        f"expected {rows_before + inserted}",
    )


def probes(run, database, queries):
    """Fixed cold-path probes of a traced run, after the timed region."""
    with run.tracer.span("bench.run_probe"):
        # A fresh cache, because the database's own keeps a dictionary
        # for as long as the column's array is the one it was built from.
        largest = max(database.tables.values(), key=lambda t: t.row_count)
        dictionaries = DictionaryCache()
        cold, hits = [], []
        for bucket in (cold, hits):
            for column in largest.column_names():
                started = time.perf_counter()
                dictionaries.dictionary(largest, column)
                bucket.append(time.perf_counter() - started)
        run.layer["storage.dict_cold_s"] = sum(cold)
        run.layer["storage.dict_hit_us"] = statistics.median(hits) * 1e6

        # Hypothetical two-column indexes, which no configuration of the
        # benchmark holds, so every call plans from scratch.
        singles = {}
        for index in one_column_configuration(
            database.catalog
        ).secondary_indexes():
            singles.setdefault(index.table, []).append(index.columns[0])
        candidates = [
            IndexDefinition(table, (first, second))
            for table, names in sorted(singles.items())
            for first, second in zip(names, names[1:])
        ]
        size = PROBE[run.sizing]
        picked = run.rng.choice(
            len(candidates), min(size["indexes"], len(candidates)),
            replace=False,
        )
        base = database.configuration
        database.invalidate_caches()
        seconds = []
        for pick in picked:
            trial = base.with_indexes([candidates[pick]], name="probe")
            for query in queries[:size["queries"]]:
                started = time.perf_counter()
                database.estimate_hypothetical(
                    query.sql, trial, force_hypothetical=True
                )
                seconds.append(time.perf_counter() - started)
        run.layer["optimizer.whatif_cold_p50_ms"] = (
            statistics.median(seconds) * 1e3
        )


# ----------------------------------------------------------------------
# The served workload

def spawn_server():
    """Start ``python -m repro.server``; returns ``(process, client)``
    once it answers ``/v1/healthz``."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0",
         "--workers", "2", "--jobs", "1"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    try:
        line = process.stdout.readline()
        if "listening on " not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        client = TuningClient(line.rsplit("listening on ", 1)[1].strip())
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                client.health()
                return process, client
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)
    except BaseException:
        stop_server((process, None))
        raise


def stop_server(state):
    process = state[0]
    process.terminate()
    try:
        process.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


def serve_nref2j(run):
    """Tenants creating sessions and running NREF2J jobs over HTTP: one
    tenant alone, then two at once.  Each phase gets a fresh server, and
    the peak memory is the first server's: two tenants' peaks coincide
    or not by chance, which moved the second server's peak by a third
    from run to run."""
    state = run.setup(spawn_server, teardown=stop_server)
    jobs = []          # one dict per settled job, from both threads
    try:
        solo = serve_phase(run, state[1], jobs, "solo", 1)
    finally:
        stop_server(state)
    run.peak_rss(resource.RUSAGE_CHILDREN)
    state = spawn_server()
    try:
        pair = serve_phase(run, state[1], jobs, "pair", 2)
        serve_results(run, state[1], jobs, solo, pair)
    finally:
        stop_server(state)


def serve_phase(run, client, jobs, phase, tenants):
    """``tenants`` concurrent clients, each running the phase's rounds of
    create session → cold job → warm jobs → delete session; returns the
    phase's seconds and the server's ``/v1/metrics`` after it."""
    size = run.size

    def job(tenant, session, kind):
        """submit → wait → fetch the report, as one operation."""
        feed = []

        def submit_and_fetch():
            job_id = tenant.submit_workload(
                session, "NREF2J", configurations=list(CONFIGS)
            )
            final = tenant.wait(job_id, timeout=60.0,
                                on_event=feed.append)
            return final, tenant.fetch_report(job_id)

        try:
            (final, report), seconds = run.call(
                f"server.job_{kind}", submit_and_fetch
            )
        except (ServerError, TimeoutError) as err:
            run.fail(f"{phase} {kind} job: {err}")
            return
        ran = [event["wall_s"] for event in feed
               if event["name"] == "span.server.workload"]
        jobs.append({
            "phase": phase, "kind": kind, "seconds": seconds,
            "ran_s": ran[0] if ran else None,
            "measured": (final["result"] or {}).get("measured"),
            "report": report,
        })

    def rounds(name, parent):
        tenant = TuningClient(client.base_url)
        with run.tracer.span("bench.tenant", parent=parent):
            for _ in range(size[f"{phase}_rounds"]):
                session, _ = run.call(
                    "server.create_session",
                    lambda: tenant.create_session(
                        name, scale=size["scale"],
                        workload_size=size["queries"],
                        seed=SAMPLE_SEED, jobs=1,
                    )["id"],
                )
                job(tenant, session, "cold")
                for _ in range(size["warm"]):
                    job(tenant, session, "warm")
                run.call("server.delete_session",
                         lambda: tenant.delete_session(session))

    with run.tracer.span("bench.run_timed") as span:
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=rounds,
                args=(f"{phase}-{run.seed}-{index}",
                      span[ID] if span else None),
            )
            for index in range(tenants)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - started
    return seconds, client.metrics()


def serve_results(run, client, jobs, solo, pair):
    size = run.size
    (solo_s, solo_served), (pair_s, pair_served) = solo, pair
    run.wall_s = solo_s + pair_s
    run.stages = {"solo": solo_s, "pair": pair_s}
    per_round = 1 + size["warm"]
    solo_jobs = size["solo_rounds"] * per_round
    pair_jobs = 2 * size["pair_rounds"] * per_round
    run.report_stages(
        jobs_per_min=pair_jobs / pair_s * 60.0,
        job_cold_p50_s=statistics.median(
            [j["seconds"] for j in jobs
             if j["phase"] == "solo" and j["kind"] == "cold"] or [0.0]
        ),
    )
    run.counts = {
        f"{phase}.{block}.{name}": value
        for phase, served in (("solo", solo_served), ("pair", pair_served))
        for block in ("jobs", "sessions", "engine")
        for name, value in served[block].items()
    }
    if run.trace:
        pings = [run.call("server.healthz", client.health)[1]
                 for _ in range(size["pings"])]
        layers.served(
            run, jobs, pings,
            # Base: the solo phase's jobs per minute.
            pair_speedup=run.stage_metrics["jobs_per_min"]
            / (solo_jobs / solo_s * 60.0),
            rejected=run.counts["solo.jobs.rejected"]
            + run.counts["pair.jobs.rejected"],
        )

    with run.tracer.span("bench.run_check"):
        run.check(len(jobs) == solo_jobs + pair_jobs,
                  f"{len(jobs)} of {solo_jobs + pair_jobs} jobs settled")
        reference = bench_context(size)
        wanted = {}
        for config in CONFIGS:
            m = reference.measure("A", "NREF2J", config)
            wanted[config] = None if m is None else {
                "queries": len(m.elapsed),
                "total_seconds": float(m.elapsed.sum()),
                "timeouts": int(m.timed_out.sum()),
            }
        wrong = sum(j["measured"] != wanted for j in jobs)
        run.check(not wrong,
                  f"{wrong} jobs measured other totals than an "
                  f"in-process context at the same settings")
        invalid = 0
        for settled in jobs:
            try:
                obs.validate_run_report(json.loads(settled["report"]))
            except (obs.SchemaError, ValueError):
                invalid += 1
        run.check(not invalid, f"{invalid} served reports are invalid")
    run.fingerprints = {"inputs": digest(run.seed), "costs": digest(wanted)}


WORKLOADS = {
    "fig4_nref3j": fig4_nref3j,
    "fig8_skth3j": fig8_skth3j,
    "sec44_insert_mix": sec44_insert_mix,
    "serve_nref2j": serve_nref2j,
}
