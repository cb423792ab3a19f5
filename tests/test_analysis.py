"""Analysis framework: CFC curves, goals, binning, ratios, dominance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.binning import ratio_histogram, time_histogram
from repro.analysis.cfc import (
    CumulativeFrequencyCurve,
    dominates,
    log_grid,
)
from repro.analysis.goals import StepGoal, example2_goal, improvement_ratio
from repro.analysis.measurements import WorkloadMeasurement
from repro.analysis.ratios import air, paired_ratios, ratio_summary


def measurement(times, timeouts=None, timeout=1800.0, name="X"):
    times = np.asarray(times, dtype=np.float64)
    if timeouts is None:
        timeouts = np.zeros(len(times), dtype=bool)
    return WorkloadMeasurement(
        workload="W",
        configuration=name,
        elapsed=times,
        timed_out=np.asarray(timeouts, dtype=bool),
        timeout=timeout,
    )


def test_cfc_basic():
    m = measurement([1, 10, 100, 1000])
    curve = CumulativeFrequencyCurve(m)
    assert curve([0.5])[0] == 0.0
    assert curve([1.5])[0] == 0.25
    assert curve([100.5])[0] == 0.75
    assert curve([5000])[0] == 1.0


def test_cfc_timeouts_never_complete():
    m = measurement([1, 10, 1800, 1800], [False, False, True, True])
    curve = CumulativeFrequencyCurve(m)
    assert curve([1e9])[0] == 0.5


def test_cfc_quantile():
    m = measurement([1, 2, 3, 4])
    curve = CumulativeFrequencyCurve(m)
    assert curve.quantile(0.5) == 2
    assert curve.quantile(1.0) == 4
    m2 = measurement([1, 1800], [False, True])
    assert CumulativeFrequencyCurve(m2).quantile(0.9) == float("inf")


def test_dominance():
    fast = CumulativeFrequencyCurve(measurement([1, 2, 3, 4], name="fast"))
    slow = CumulativeFrequencyCurve(
        measurement([10, 20, 30, 40], name="slow")
    )
    grid = log_grid(0.5, 100, points_per_decade=4)
    assert dominates(fast, slow, grid)
    assert not dominates(slow, fast, grid)
    mixed = CumulativeFrequencyCurve(
        measurement([0.5, 0.6, 90, 95], name="mixed")
    )
    assert not dominates(mixed, slow, grid)


def test_step_goal_validation_and_shape():
    goal = example2_goal()
    assert goal([5])[0] == 0.0
    assert goal([10])[0] == pytest.approx(0.10)
    assert goal([120])[0] == pytest.approx(0.50)
    assert goal([1800])[0] == pytest.approx(0.90)
    with pytest.raises(ValueError):
        StepGoal(steps=((60, 0.5), (10, 0.1)))
    with pytest.raises(ValueError):
        StepGoal(steps=((10, 0.5), (60, 0.1)))


def test_goal_satisfaction():
    goal = example2_goal()
    good = CumulativeFrequencyCurve(
        measurement([1] * 20 + [30] * 60 + [100] * 20)
    )
    assert goal.satisfied_by(good)
    assert goal.margin(good) > 0
    bad = CumulativeFrequencyCurve(
        measurement([1800] * 100, [True] * 100)
    )
    assert not goal.satisfied_by(bad)
    assert goal.margin(bad) < 0


def test_time_histogram_bins_and_timeout_bin():
    m = measurement(
        [1, 2, 5, 20, 200, 1800, 1800],
        [False] * 5 + [True, True],
    )
    histogram = time_histogram(m)
    assert histogram.labels[-1] == "t_out"
    assert histogram.counts[-1] == 2
    assert histogram.total == 7
    assert int(sum(histogram.counts)) == 7
    assert histogram.cumulative()[-1] == pytest.approx(1.0)


def test_ratio_histogram_clamps():
    hist = ratio_histogram([0.0001, 0.5, 1, 8, 120, 1e9])
    assert hist.total == 6
    assert hist.counts[0] >= 1       # tiny ratios clamp low
    assert hist.counts[-1] >= 1      # huge ratios clamp high


def test_paired_ratios_and_timeout_dropping():
    a = measurement([10, 100, 1800], [False, False, True])
    b = measurement([1, 10, 1], [False, False, False])
    ratios = air(a, b)
    assert ratios.tolist() == [10.0, 10.0]
    with pytest.raises(ValueError):
        paired_ratios(a, measurement([1]))


def test_ratio_summary_counts():
    summary = ratio_summary([150, 120, 15, 1.0, 0.9, 0.1])
    assert summary["x100_or_more"] == 2
    assert summary["x10_to_100"] == 1
    assert summary["about_1"] == 2
    assert summary["degraded"] == 1


def test_lower_bound_total():
    m = measurement([10, 20, 1800, 1800], [False, False, True, True])
    assert m.completed_total() == 30
    assert m.lower_bound_total() == 30 + 2 * 1800
    fast = measurement([10, 20, 30, 40])
    assert improvement_ratio(m, fast) == pytest.approx(3630 / 100)


@settings(max_examples=50, deadline=None)
@given(
    times=st.lists(
        st.floats(0.01, 1e4, allow_nan=False), min_size=1, max_size=200
    )
)
def test_property_cfc_monotone_and_bounded(times):
    curve = CumulativeFrequencyCurve(measurement(times))
    grid = log_grid(0.001, 1e5, points_per_decade=3)
    values = curve(grid)
    assert np.all(np.diff(values) >= 0)
    assert np.all((0 <= values) & (values <= 1))
    assert values[-1] == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(
    times=st.lists(st.floats(0.1, 1000), min_size=2, max_size=100),
    factor=st.floats(1.5, 50),
)
def test_property_uniform_speedup_dominates(times, factor):
    """Scaling every query down by a constant factor dominates."""
    slow = CumulativeFrequencyCurve(measurement(times, name="slow"))
    fast = CumulativeFrequencyCurve(
        measurement([t / factor for t in times], name="fast")
    )
    grid = log_grid(0.01, 2000, points_per_decade=4)
    assert not dominates(slow, fast, grid)
    assert np.all(fast(grid) >= slow(grid))
