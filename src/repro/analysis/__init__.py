"""The paper's evaluation framework: curves, goals, ratios, reports."""

from .binning import Histogram, ratio_histogram, time_histogram
from .cfc import CumulativeFrequencyCurve, dominates, log_grid
from .goals import StepGoal, example2_goal, improvement_ratio
from .measurements import (
    WorkloadMeasurement,
    estimate_workload,
    measure_workload,
)
from .ratios import air, eir, hir, ratio_summary

__all__ = [
    "CumulativeFrequencyCurve", "Histogram", "StepGoal",
    "WorkloadMeasurement", "air", "dominates", "eir",
    "estimate_workload", "example2_goal", "hir", "improvement_ratio",
    "log_grid", "measure_workload", "ratio_histogram", "ratio_summary",
    "time_histogram",
]
