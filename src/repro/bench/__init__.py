"""Experiment drivers: one per table/figure of the paper."""

from .context import BenchContext, BenchSettings
from .experiments import ALL_EXPERIMENTS, ExperimentResult

__all__ = [
    "ALL_EXPERIMENTS", "BenchContext", "BenchSettings", "ExperimentResult",
]
