"""Fingerprint-keyed artifact store with optional disk persistence.

Benchmark runs build a handful of expensive artifacts — loaded databases,
sampled workloads, recommendations, measurements, build reports — and
every figure/table needs some subset of them.  :class:`ArtifactCache`
replaces the ad-hoc per-process dicts that used to live in
``bench/context.py``: artifacts are keyed by *content* (settings +
configuration fingerprints), held in memory, and — when the constructor
is given a directory (the ``--cache-dir`` flag) — persisted with
:mod:`pickle` so a second process reuses them instead of rebuilding.

:class:`StageTimings` is the companion wall-clock accounting: the bench
context wraps each pipeline phase (build/sample/recommend/measure) in
``with timings.stage(name):``; its snapshot is the run report's
``stages`` block.
"""

import os
import pickle
import threading
from contextlib import contextmanager
from pathlib import Path

from ..engine.configuration import content_fingerprint
from ..obs import counter_add as _obs_count
from ..obs.clock import perf_seconds

_MISSING = object()


def artifact_key(*parts):
    """Stable fingerprint of an artifact's identifying content."""
    return content_fingerprint(*parts)


class ArtifactCache:
    """Two-level (memory, optional disk) store of benchmark artifacts.

    Artifacts live in namespaces (``kind``) such as ``"database"`` or
    ``"measurement"``; within a namespace they are addressed by a content
    fingerprint (use :func:`artifact_key`).  Values must be picklable when
    persistence is enabled; unpicklable or corrupt disk entries degrade to
    cache misses, never to errors.
    """

    def __init__(self, directory=None):
        self.directory = Path(directory) if directory else None
        self._memory = {}
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, kind, key):
        return self.directory / kind / f"{key}.pkl"

    def get(self, kind, key, default=None):
        """Fetch an artifact, trying memory first, then disk.

        Args:
            kind: artifact namespace (``"database"``, ``"workload"``, …).
            key: content fingerprint from :func:`artifact_key`.
            default: returned on a miss.

        Returns:
            The cached artifact or ``default``; disk hits are promoted
            into memory on the way out.
        """
        with self._lock:
            value = self._memory.get((kind, key), _MISSING)
            if value is not _MISSING:
                self.memory_hits += 1
                _obs_count("artifact.memory_hits")
                return value
        if self.directory is not None:
            path = self._path(kind, key)
            try:
                with open(path, "rb") as handle:
                    value = pickle.load(handle)
            except (OSError, pickle.PickleError, EOFError, AttributeError,
                    ImportError, IndexError):
                pass
            else:
                with self._lock:
                    self._memory[(kind, key)] = value
                    self.disk_hits += 1
                _obs_count("artifact.disk_hits")
                return value
        with self._lock:
            self.misses += 1
        _obs_count("artifact.misses")
        return default

    def put(self, kind, key, value, persist=True):
        """Store an artifact in memory and, optionally, on disk.

        Args:
            kind: artifact namespace.
            key: content fingerprint from :func:`artifact_key`.
            value: the artifact; must pickle when persistence is on
                (unpicklable values silently stay memory-only).
            persist: set ``False`` to keep the artifact memory-only even
                when a cache directory is configured.

        Returns:
            ``value``, unchanged.
        """
        with self._lock:
            self._memory[(kind, key)] = value
            self.stores += 1
        _obs_count("artifact.stores")
        if persist and self.directory is not None:
            path = self._path(kind, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            try:
                with open(tmp, "wb") as handle:
                    pickle.dump(value, handle, pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except (OSError, pickle.PickleError, TypeError):
                # Unpicklable artifact: keep it memory-only.
                tmp.unlink(missing_ok=True)
        return value

    def get_or_build(self, kind, key, builder, persist=True):
        """Cached artifact, building (and storing) it on a miss.

        Args:
            kind: artifact namespace.
            key: content fingerprint from :func:`artifact_key`.
            builder: zero-argument callable producing the artifact.
            persist: forwarded to :meth:`put` on a miss.

        Returns:
            The cached or freshly built artifact.
        """
        value = self.get(kind, key, _MISSING)
        if value is _MISSING:
            value = builder()
            self.put(kind, key, value, persist=persist)
        return value

    def snapshot(self):
        """Traffic counters as a plain dict.

        Returns:
            ``{"directory", "memory_hits", "disk_hits", "misses",
            "stores", "entries"}`` — the shape embedded in the run
            report's ``caches.artifact`` block.
        """
        with self._lock:
            return {
                "directory": str(self.directory) if self.directory else None,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "stores": self.stores,
                "entries": len(self._memory),
            }


class StageTimings:
    """Cumulative wall-clock seconds per named pipeline stage."""

    def __init__(self):
        self._lock = threading.Lock()
        self._seconds = {}
        self._counts = {}

    @contextmanager
    def stage(self, name):
        """Context manager charging the block's wall time to ``name``.

        Args:
            name: stage label (``"measure"``, ``"build_database"``, …).
        """
        started = perf_seconds()
        try:
            yield
        finally:
            elapsed = perf_seconds() - started
            with self._lock:
                self._seconds[name] = self._seconds.get(name, 0.0) + elapsed
                self._counts[name] = self._counts.get(name, 0) + 1

    def snapshot(self):
        """Cumulative ``{stage: {"seconds", "count"}}`` (a copied dict).

        This is the run report's ``stages`` block.
        """
        with self._lock:
            return {
                name: {
                    "seconds": self._seconds[name],
                    "count": self._counts[name],
                }
                for name in self._seconds
            }
