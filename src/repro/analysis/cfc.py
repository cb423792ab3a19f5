"""Cumulative frequency curves (the paper's central analysis device).

``CFC_C(x) = |{q : A(q, C) < x}| / |W|`` — Section 2.2.  Configurations
are compared by their curves; a curve that sits above another everywhere
*first-order stochastically dominates* it (the paper's footnote on how
the curves support decision making).
"""

import numpy as np


class CumulativeFrequencyCurve:
    """The empirical CFC of one measurement.

    Weighted measurements (workloads as bags, Section 2.2) contribute
    each query's weight rather than a flat count.
    """

    def __init__(self, measurement):
        self.measurement = measurement
        done = ~measurement.timed_out
        order = np.argsort(measurement.elapsed[done])
        self._done_times = measurement.elapsed[done][order]
        self._done_cumweights = np.cumsum(
            measurement.weights[done][order]
        )
        self._total_weight = float(measurement.weights.sum())

    @property
    def name(self):
        return self.measurement.configuration

    def __call__(self, x):
        """Weighted fraction of queries with elapsed time below ``x``.

        Timed-out queries never count as completed below any ``x`` up to
        the timeout.
        """
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self._done_times, x, side="left")
        cum = np.concatenate(([0.0], self._done_cumweights))
        return cum[idx] / max(self._total_weight, 1e-12)

    def quantile(self, fraction):
        """Smallest time ``x`` with ``CFC(x) >= fraction`` (inf if never)."""
        if fraction <= 0:
            return 0.0
        target = fraction * self._total_weight
        idx = np.searchsorted(self._done_cumweights, target - 1e-12)
        if idx >= len(self._done_times):
            return float("inf")
        return float(self._done_times[idx])


def log_grid(lo=1.0, hi=1800.0, points_per_decade=2):
    """The paper's log-scale x grid (e.g. 10^0, 10^0.5, ..., timeout)."""
    decades = np.log10(hi / lo)
    n = int(np.ceil(decades * points_per_decade)) + 1
    return lo * 10 ** (np.arange(n) / points_per_decade)


def dominates(curve_a, curve_b, grid=None):
    """First-order stochastic dominance of ``curve_a`` over ``curve_b``.

    True when A's cumulative frequency is >= B's on the whole grid and
    strictly greater somewhere.
    """
    if grid is None:
        grid = log_grid()
    a = curve_a(grid)
    b = curve_b(grid)
    return bool(np.all(a >= b) and np.any(a > b))
