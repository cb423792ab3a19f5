"""Workload measurements: the raw material of every figure and table.

A :class:`WorkloadMeasurement` holds one elapsed time per query of a
workload executed on one configuration, with timeouts clamped to the
timeout limit and flagged — matching how the paper reports the ``t_out``
bin and computes timeout-aware lower bounds (Section 4.3).
"""

from dataclasses import dataclass, field

import numpy as np

from ..engine.database import DEFAULT_TIMEOUT


@dataclass
class WorkloadMeasurement:
    """Per-query elapsed times of one (workload, configuration) run.

    ``weights`` carries the bag semantics of Section 2.2: a query with
    weight *w* counts as *w* repetitions in totals and frequency curves.
    """

    workload: str
    configuration: str
    elapsed: np.ndarray
    timed_out: np.ndarray
    timeout: float = DEFAULT_TIMEOUT
    sqls: list = field(default_factory=list)
    weights: np.ndarray = None

    def __post_init__(self):
        self.elapsed = np.asarray(self.elapsed, dtype=np.float64)
        self.timed_out = np.asarray(self.timed_out, dtype=bool)
        if len(self.elapsed) != len(self.timed_out):
            raise ValueError("elapsed/timed_out length mismatch")
        if self.weights is None:
            self.weights = np.ones(len(self.elapsed), dtype=np.float64)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if len(self.weights) != len(self.elapsed):
                raise ValueError("weights length mismatch")

    def __len__(self):
        return len(self.elapsed)

    @property
    def timeout_count(self):
        return int(self.timed_out.sum())

    def completed_total(self):
        """Weighted total elapsed time over queries that did not time out."""
        done = ~self.timed_out
        return float((self.elapsed[done] * self.weights[done]).sum())

    def lower_bound_total(self):
        """Timeout-aware lower bound on the workload's total time.

        The paper's Section 4.3 arithmetic: completed queries contribute
        their time, timed-out queries contribute at least the timeout
        (weighted by their repetition count).
        """
        timed = float(self.weights[self.timed_out].sum()) * self.timeout
        return self.completed_total() + timed


def measure_workload(database, workload, timeout=DEFAULT_TIMEOUT,
                     configuration=None, jobs=1):
    """Execute every query of a workload; returns a measurement.

    Thin wrapper over :class:`repro.runtime.MeasurementSession`: the
    workload fans out over ``jobs`` workers (default 1, serial) with
    order-preserving, bit-identical-to-serial results.
    """
    from ..runtime.session import MeasurementSession

    with MeasurementSession(database, jobs=jobs) as session:
        return session.measure(
            workload, timeout=timeout, configuration=configuration
        )


def estimate_workload(database, workload, configuration=None,
                      hypothetical=None):
    """Per-query estimated (or hypothetical) costs for a workload.

    With ``hypothetical`` set to a configuration, returns ``H`` costs;
    otherwise ``E`` costs in the current configuration, priced on the
    calling thread.  Wraps :class:`repro.runtime.MeasurementSession`
    like :func:`measure_workload`.
    """
    from ..runtime.session import MeasurementSession

    with MeasurementSession(database) as session:
        return session.estimate(
            workload,
            configuration=configuration,
            hypothetical=hypothetical,
        )
