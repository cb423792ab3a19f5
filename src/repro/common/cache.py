"""Bounded, thread-safe caches and their hit/miss accounting.

:class:`BoundedCache` is the one cache primitive of a database — plans,
environments, what-if costs, bound queries, subplan results and fused
filter kernels all live in instances of it: an LRU dict with a hard
entry bound, a lock (so a
:class:`~repro.runtime.session.MeasurementSession` worker pool can share
one database), and counters that the session's ``stats()`` report reads.

An entry may be tied to the storage arrays it was computed from
(``backing=``): it is then served only while every one of those arrays
is — by identity — still the live one.  ``append_rows`` and reloads
build new arrays and a rebuilt view or index is a new object graph, so
an entry derived from replaced data can never be served, whether or not
an invalidation reached the cache first.

Every cache additionally feeds the observability layer
(:mod:`repro.obs`): each hit/miss/eviction/invalidation increments a
``cache.<name>.*`` counter on the active recorder.  With the default
:class:`~repro.obs.recorder.NullRecorder` those calls are no-ops, so an
un-observed run pays nothing beyond the local :class:`CacheStats`
integers it always kept.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..obs import counter_add as _obs_count

_MISSING = object()


class _Backed:
    """A cached value plus the arrays it is valid for."""

    __slots__ = ("backing", "value")

    def __init__(self, backing, value):
        self.backing = tuple(backing)
        self.value = value

    def live(self, backing):
        return backing is not None \
            and len(self.backing) == len(backing) \
            and all(a is b for a, b in zip(self.backing, backing))


@dataclass
class CacheStats:
    """Hit/miss counters of one cache (a snapshot is a plain dict).

    Attributes:
        name: the cache's stable name (``"plan_cache"``, …) — also the
            middle segment of its ``cache.<name>.*`` metric names.
        hits / misses / evictions / invalidations: cumulative counts.
    """

    name: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self):
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self):
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self):
        """The counters as a plain JSON-serializable dict.

        Returns:
            ``{"name", "hits", "misses", "evictions", "invalidations",
            "hit_rate"}`` — the per-cache shape embedded in session
            stats and in the run report's ``caches.databases`` block.
        """
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class BoundedCache:
    """A thread-safe LRU mapping with at most ``maxsize`` entries.

    Args:
        name: stable cache name used in statistics and metrics.
        maxsize: hard bound on resident entries; the least recently
            used entry is evicted when an insert would exceed it.
    """

    def __init__(self, name, maxsize=4096):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.stats = CacheStats(name)
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        # Metric names are precomputed so the hot path does no string
        # formatting; with the NullRecorder the counter call is a no-op.
        self._metric_hits = f"cache.{name}.hits"
        self._metric_misses = f"cache.{name}.misses"
        self._metric_evictions = f"cache.{name}.evictions"
        self._metric_invalidations = f"cache.{name}.invalidations"

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def get(self, key, default=None, backing=None):
        """Look up ``key``, counting a hit or a miss.

        Args:
            key: any hashable key.
            default: value to return on a miss.
            backing: the live storage arrays of an identity-validated
                entry (see :meth:`put`); an entry stored for other
                arrays is a miss.

        Returns:
            The cached value (refreshing its LRU position) or
            ``default``.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if type(value) is _Backed:
                value = value.value if value.live(backing) else _MISSING
            if value is _MISSING:
                self.stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
        if value is _MISSING:
            _obs_count(self._metric_misses)
            return default
        _obs_count(self._metric_hits)
        return value

    def put(self, key, value, backing=None):
        """Insert or refresh ``key``, evicting LRU entries over the bound.

        Args:
            key: any hashable key.
            value: the value to cache (stored as-is, never copied).
            backing: tuple of the storage arrays ``value`` was derived
                from; the entry is then only served to a :meth:`get`
                passing the identical (``is``) arrays.
        """
        if backing is not None:
            value = _Backed(backing, value)
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                evicted += 1
        if evicted:
            _obs_count(self._metric_evictions, evicted)

    def get_or_build(self, key, builder, backing=None):
        """Cached value for ``key``, computing it via ``builder()`` on miss.

        The builder runs *outside* the lock: two racing threads may both
        build, but both produce the same deterministic value, so the
        last writer is harmless.

        Args:
            key: any hashable key.
            builder: zero-argument callable producing the value.
            backing: storage arrays validating the entry by identity
                (see :meth:`put`).

        Returns:
            The cached or freshly built value.
        """
        value = self.get(key, _MISSING, backing)
        if value is _MISSING:
            value = builder()
            self.put(key, value, backing)
        return value

    def drop_backed_by(self, array):
        """Drop every entry stored with ``array`` among its
        ``backing=`` arrays, uncounted: the caller vouches that no
        live lookup passes ``array`` any more."""
        with self._lock:
            self._entries = OrderedDict(
                (key, value) for key, value in self._entries.items()
                if type(value) is not _Backed
                or not any(held is array for held in value.backing)
            )

    def invalidate(self, live=frozenset()):
        """Drop every entry (configuration/data/statistics changed) but
        those stored with ``backing=`` arrays that all are in ``live``.

        Args:
            live: ``id``s of arrays the caller vouches for.  Both the
                caller and a kept entry hold their arrays, so an ``id``
                match is the same array.
        """
        with self._lock:
            self._entries = OrderedDict(
                (key, value) for key, value in self._entries.items()
                if type(value) is _Backed and value.backing
                and all(id(array) in live for array in value.backing)
            )
            self.stats.invalidations += 1
        _obs_count(self._metric_invalidations)
