"""The measurement runtime layer.

Sits between the engine (:mod:`repro.engine`) and the analysis/bench
layers, and owns everything about *how* measurements are taken rather
than *what* they mean:

* :class:`~repro.runtime.session.MeasurementSession` — fans a workload
  out over a worker pool (``--jobs``), with deterministic
  order-preserving results, per-query timeout handling, and per-stage
  timing/cache statistics;
* :class:`~repro.runtime.artifacts.ArtifactCache` — the
  fingerprint-keyed artifact store (databases, workloads,
  recommendations, measurements) with optional disk persistence under
  ``--cache-dir``.
"""

from .artifacts import ArtifactCache, StageTimings, artifact_key
from .session import MeasurementSession, resolve_jobs

__all__ = [
    "ArtifactCache",
    "MeasurementSession",
    "StageTimings",
    "artifact_key",
    "resolve_jobs",
]
