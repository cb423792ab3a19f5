"""Measurement sessions: batched A/E/H measurement over a worker pool.

Every figure and table of the paper reduces to "run a ~100-query workload
against one database under configurations P/1C/R and compare actual (A),
estimated (E) and hypothetical (H) costs".  A :class:`MeasurementSession`
owns that loop:

* each query's actual cost comes from ``Database.measure``, which runs
  a query only when no plan with its fingerprint was run for it since
  the rows last changed (the database's measurement memo): a warm pass,
  or a configuration that plans a query as another one did, re-runs
  nothing;
* the queries fan out over the session's own ``concurrent.futures``
  **thread pool** whose width is the caller's ``jobs`` (the ``--jobs``
  flag; default 1 = serial).  The engine's clock is *virtual* — elapsed
  times are computed from the cost model, not measured — so parallel
  execution is bit-identical to serial execution; results are collected
  in submission order regardless of completion order, and a query text
  repeated in a batch is measured once, so the memo's counts do not
  depend on the width;
* estimates (``E`` and ``H``) are priced on the calling thread;
* per-query timeouts propagate exactly as in the serial path: a timed-out
  query is clamped to the timeout and flagged, never aborts the batch.

``analysis.measurements.measure_workload`` / ``estimate_workload`` are
thin wrappers over this class.  A pool thread runs ``Database.measure``
(bind, plan, execute) and no other engine work, so what-if planning is
single-threaded.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .. import obs


def resolve_jobs(jobs):
    """Worker-pool width: ``jobs`` as an integer, at least 1.

    Args:
        jobs: desired width (``int`` or integer text).

    Returns:
        A positive integer pool width (values below 1 clamp to 1).

    Raises:
        ValueError: when ``jobs`` is not an integer.
    """
    try:
        jobs = int(jobs)
    except (TypeError, ValueError):
        raise ValueError(f"invalid job count {jobs!r}") from None
    return max(1, jobs)


class MeasurementSession:
    """Runs workloads against one database, possibly in parallel.

    The session may be used as a context manager; otherwise its worker
    pool (created lazily, by the first :meth:`measure` with ``jobs >
    1``) is torn down by :meth:`close` or interpreter exit.

    Args:
        database: the :class:`~repro.engine.database.Database` every
            query of this session runs against.
        jobs: worker-pool width (default 1: serial).
        timeout: default per-query virtual timeout in seconds (``None``
            uses the engine default, the paper's 30 minutes).

    Every batch method opens a tracing span (``session.measure`` /
    ``session.estimate``) carrying the batch's
    total *virtual* seconds next to its wall time, and ``measure`` /
    ``estimate`` emit a ``measurement`` event with the per-query A/E/H
    cost breakdown — the raw material of the run report.  All of it is
    a no-op unless a recorder is installed (see :mod:`repro.obs`).
    """

    def __init__(self, database, jobs=1, timeout=None):
        from ..engine.database import DEFAULT_TIMEOUT

        self.database = database
        self.jobs = resolve_jobs(jobs)
        self.timeout = DEFAULT_TIMEOUT if timeout is None else timeout
        self._pool = None

    # ------------------------------------------------------------------
    # Pool plumbing

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def close(self):
        """Shut down the worker pool (idempotent; the session object
        stays usable and will lazily recreate the pool if reused)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _measure_all(self, queries, timeout):
        """``Database.measure`` of every query: ``(elapsed, timed_out)``
        pairs, in order.

        Serial when ``jobs == 1``; otherwise the session's thread pool.
        Each distinct SQL text is measured once, so two threads never
        race to run one query.  Exceptions propagate either way (a
        worker failure fails the batch — only :class:`QueryTimeout` is
        handled below this level).
        """
        sqls = list(dict.fromkeys(query.sql for query in queries))

        def run(sql):
            return self.database.measure(sql, timeout)

        if self.jobs == 1 or len(sqls) <= 1:
            measured = [run(sql) for sql in sqls]
        else:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.jobs,
                    thread_name_prefix="repro-session",
                )
            measured = list(self._pool.map(run, sqls))
        by_sql = dict(zip(sqls, measured))
        return [by_sql[query.sql] for query in queries]

    # ------------------------------------------------------------------
    # Measurement (actual costs, A)

    def measure(self, workload, timeout=None, configuration=None):
        """Execute every query of ``workload`` (actual costs, ``A``).

        Deterministic and order-preserving: entry ``i`` always describes
        ``workload.queries[i]``, whatever the pool width.

        Args:
            workload: iterable of weighted queries (a ``Workload``).
            timeout: per-query virtual timeout override in seconds.
            configuration: label recorded on the measurement (defaults
                to the database's current configuration name).

        Returns:
            A :class:`~repro.analysis.measurements.WorkloadMeasurement`
            with per-query virtual seconds and timeout flags.
        """
        from ..analysis.measurements import WorkloadMeasurement

        timeout = self.timeout if timeout is None else timeout
        queries = list(workload)
        config_name = configuration or self.database.configuration.name

        with obs.span(
            "session.measure",
            workload=workload.name,
            configuration=config_name,
            queries=len(queries),
        ) as span:
            results = self._measure_all(queries, timeout)
            elapsed = np.array([r[0] for r in results])
            timed_out = np.array([r[1] for r in results])
            span.set(
                virtual_s=float(elapsed.sum()),
                timeouts=int(timed_out.sum()),
            )
        if obs.is_enabled():
            obs.event(
                "measurement",
                workload=workload.name,
                configuration=config_name,
                kind="A",
                queries=len(queries),
                total_seconds=float(elapsed.sum()),
                timed_out=int(timed_out.sum()),
                per_query=[float(value) for value in elapsed],
            )
        return WorkloadMeasurement(
            workload=workload.name,
            configuration=config_name,
            elapsed=elapsed,
            timed_out=timed_out,
            timeout=timeout,
            sqls=[q.sql for q in queries],
            weights=np.array([q.weight for q in queries]),
        )

    # ------------------------------------------------------------------
    # Estimation (E and H costs)

    def estimate(self, workload, configuration=None, hypothetical=None,
                 force_hypothetical=False, oracle=False):
        """Per-query estimated (``E``) or hypothetical (``H``) costs,
        priced on the calling thread whatever the session's ``jobs``.

        Args:
            workload: iterable of weighted queries.
            configuration: label recorded on the measurement.
            hypothetical: when given, costs are what-if estimates
                ``H(q, hypothetical, current)`` instead of ``E(q, C)``.
            force_hypothetical: estimate under the degraded what-if
                policy even for structures that are actually built.
            oracle: use full-fidelity what-if statistics (the ablation
                knob).

        Returns:
            A :class:`~repro.analysis.measurements.WorkloadMeasurement`
            of estimated virtual seconds (never times out).
        """
        from ..analysis.measurements import WorkloadMeasurement

        queries = list(workload)
        kind = "E" if hypothetical is None else "H"
        config_name = configuration or (
            hypothetical.name if hypothetical is not None
            else self.database.configuration.name
        )

        def cost(query):
            if hypothetical is not None:
                return self.database.estimate_hypothetical(
                    query.sql,
                    hypothetical,
                    force_hypothetical=force_hypothetical,
                    oracle=oracle,
                )
            return self.database.estimate(query.sql)

        with obs.span(
            "session.estimate",
            workload=workload.name,
            configuration=config_name,
            kind=kind,
            queries=len(queries),
        ) as span:
            costs = [cost(query) for query in queries]
            span.set(virtual_s=float(sum(costs)))
        if obs.is_enabled():
            obs.event(
                "measurement",
                workload=workload.name,
                configuration=config_name,
                kind=kind,
                queries=len(queries),
                total_seconds=float(sum(costs)),
                timed_out=0,
                per_query=[float(value) for value in costs],
            )
        return WorkloadMeasurement(
            workload=workload.name,
            configuration=config_name,
            elapsed=np.array(costs, dtype=np.float64),
            timed_out=np.zeros(len(costs), dtype=bool),
            timeout=float("inf"),
            sqls=[q.sql for q in queries],
            weights=np.array([q.weight for q in queries]),
        )
