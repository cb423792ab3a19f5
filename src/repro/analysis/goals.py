"""Performance goals as constraints on the cumulative frequency curve.

The paper's Example 2: "10% of the queries complete in less than 10
seconds, 50% in less than one minute, 90% before a 30 minute timeout" is
the step function ``G`` with ``CFC_C > G`` as the satisfaction criterion;
any monotone function works as a goal.

:meth:`StepGoal.satisfied_by` is the one rule for "goal met", for a
measured curve and for the goal advisor's estimated one alike: at every
goal point the curve has completed at least the fraction the goal
requires, less rounding — "10% of the queries complete in less than 10
seconds" holds when exactly 10% do, and a step demanding 1.0 is met by
a curve that completes every query.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StepGoal:
    """A right-continuous step function goal.

    ``steps`` is a tuple of ``(threshold_seconds, required_fraction)``
    pairs sorted by threshold: for ``x >= threshold`` the goal requires at
    least ``required_fraction`` of queries to have completed.
    """

    steps: tuple

    def __post_init__(self):
        thresholds = [t for t, _ in self.steps]
        fractions = [f for _, f in self.steps]
        if thresholds != sorted(thresholds):
            raise ValueError("goal thresholds must be sorted")
        if fractions != sorted(fractions):
            raise ValueError("a goal must be a monotone function")
        # Just above each threshold, and what the goal requires there:
        # every margin is taken at these points.
        points = np.array(thresholds, dtype=np.float64) * (1 + 1e-9)
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_required", self(points))

    def __call__(self, x):
        """Required completed fraction at time ``x``."""
        x = np.asarray(x, dtype=np.float64)
        result = np.zeros_like(x)
        for threshold, fraction in self.steps:
            result = np.where(x >= threshold, fraction, result)
        return result

    def satisfied_by(self, curve, grid=None):
        """Whether ``CFC > G - 1e-12`` just above every goal threshold
        (and at every grid point).

        Checking just above each threshold suffices for step goals; a
        finer grid may be supplied for composite checks.
        """
        points = self._points
        if grid is not None:
            points = np.concatenate([points, np.asarray(grid)])
        return bool(np.all(curve(points) > self(points) - 1e-12))

    def margin(self, curve):
        """Worst-case slack ``min(CFC - G)`` over the goal thresholds."""
        return float((curve(self._points) - self._required).min())


def example2_goal(timeout=1800.0):
    """The paper's Example 2 goal."""
    return StepGoal(steps=((10.0, 0.10), (60.0, 0.50), (timeout, 0.90)))


def improvement_ratio(measurement_before, measurement_after):
    """Workload-level improvement ratio ``IR = A(W, Ci) / A(W, Cj)``.

    Uses the timeout-aware lower bounds, as the paper's Section 4.3
    "conservative overall workload assessment" does.
    """
    before = measurement_before.lower_bound_total()
    after = measurement_after.lower_bound_total()
    if after <= 0:
        return float("inf")
    return before / after
