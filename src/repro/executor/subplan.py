"""Shared subplan results across queries.

Template-generated workloads re-execute the same *subplans* over and
over: repeated scan+filter combinations recompute the same row masks,
and joins over the same columns merge the same dictionaries.  A
:class:`SubplanCache`, owned by a
:class:`~repro.engine.database.Database` and handed to every
:class:`~repro.executor.engine.Executor` it constructs, memoizes those
intermediates across queries:

* **filter masks** — the boolean keep-mask of a filter set applied to
  an unfiltered base batch, keyed by ``(table, (column, op, value)…)``;
* **join domains** — the merged sorted domain of a pair of dictionary
  ``values`` arrays, and the *slot table* of such a pair: each entry's
  slot in the other dictionary, through which index probes, semijoin
  flags and counted joins map codes;
* **key tables** — per-key properties of whole columns that an
  aggregate over a join reads instead of the joined rows: a column's
  first row per key, and the number of distinct values of one column
  per key of another.

The cache never changes a result or a cost: the executor charges the
virtual clock exactly as if it had recomputed the intermediate, so
actual costs ``A(q, C)`` and every result batch are the same on a hit
and on a miss (``tests/test_differential.py`` checks cold ≡ warm ≡
after invalidation on generated queries).

Every entry records the storage arrays it was computed from
(``backing=`` of :class:`~repro.common.cache.BoundedCache`), and a
lookup only hits when those arrays are — by identity — still the live
ones.  ``append_rows`` publishes new arrays, a rebuilt view or index is
a new object graph, so stale entries can never be served.
:meth:`invalidate` (wired into ``Database.invalidate_caches``, which
every mutator calls) clears masks and key tables outright, and
keeps a join domain or slot table while both its ``values`` arrays are
still the values of a live dictionary — it depends on nothing else, and
an insert that brings a column no new value leaves its ``values`` in
place.  A dictionary an insert left owing its rows counts as live; if
its extension replaces ``values``, the domains merged from the old
array are dropped then.  Access-time identity validation makes that
sweep a garbage collection, not a correctness requirement.
"""

from .. import obs
from ..common.cache import BoundedCache, CacheStats

# Entry bounds: payloads hold real arrays (row masks, merged join
# domains, key tables), so unlike the key-only plan caches these stay
# deliberately small.
MAX_MASK_ENTRIES = 256
MAX_DOMAIN_ENTRIES = 256
MAX_KEY_ENTRIES = 256

_MISSING = object()


class SubplanCache:
    """Cross-query memo of base filter masks, join domains and key
    tables: one bounded, identity-validated cache per kind."""

    def __init__(self, dictionaries):
        # The DictionaryCache whose live values a join domain must be
        # merged from to survive an invalidation.
        self._dictionaries = dictionaries
        # kind -> (cache, hit counter, build counter)
        self._kinds = {
            kind: (
                BoundedCache(f"subplan_{kind}s", bound),
                f"subplan.{kind}_hits",
                f"subplan.{kind}_builds",
            )
            for kind, bound in (
                ("mask", MAX_MASK_ENTRIES),
                ("domain", MAX_DOMAIN_ENTRIES),
                ("key", MAX_KEY_ENTRIES),
            )
        }
        # The domain cache itself, not this object: the dictionary
        # cache holding a reference back to its owner would make a
        # cycle, and a dropped database would wait for the collector.
        dictionaries.on_values_replaced(
            self._kinds["domain"][0].drop_backed_by
        )

    @property
    def stats(self):
        """The kinds' traffic as one ``subplan_cache``."""
        parts = [cache.stats for cache, _, _ in self._kinds.values()]
        return CacheStats(
            "subplan_cache",
            hits=sum(part.hits for part in parts),
            misses=sum(part.misses for part in parts),
            evictions=sum(part.evictions for part in parts),
            # The kinds are only ever invalidated together.
            invalidations=parts[0].invalidations,
        )

    def filter_mask(self, key, backing, build):
        """The keep-mask of one filter set over an unfiltered base batch.

        Args:
            key: hashable identity of the filter set.
            backing: tuple of the filtered columns' storage arrays; a
                cached entry is served only when every array is
                identical (``is``) to the stored one.
            build: zero-argument callable computing the mask on a miss.

        Returns:
            The cached or freshly built mask.
        """
        return self._lookup("mask", key, backing, build)

    def join_domain(self, key, backing, build):
        """The merged sorted domain of one dictionary pair, or the
        pair's slot table.

        Joins between differently-encoded columns map both sides into
        the ``union1d`` of their dictionaries, and probes map one
        side's codes to the other's slots (a slot table, in the other
        side's code dtype); the merge, its two code-translation tables
        and the slot table depend only on the dictionaries' ``values``,
        which every join over the same column pair shares — and which
        an extended dictionary keeps when its rows bring no new value.
        ``key`` names the entry and carries the two ``values`` arrays'
        ``id``s; the identity check over ``backing`` (those arrays)
        makes an ``id`` reuse a harmless miss.
        """
        return self._lookup("domain", key, backing, build)

    def key_table(self, key, backing, build):
        """One per-key table of whole columns (an int32 array over a
        dictionary's entries).

        ``key`` names the table and carries the dictionaries' ``id``s;
        ``backing`` holds the arrays it is derived from (their values
        or base columns), so an ``id`` reuse is a harmless miss.
        """
        return self._lookup("key", key, backing, build)

    def _lookup(self, kind, key, backing, build):
        cache, hit_metric, build_metric = self._kinds[kind]
        payload = cache.get(key, _MISSING, backing)
        if payload is _MISSING:
            payload = build()
            cache.put(key, payload, backing)
            obs.counter_add(build_metric)
        else:
            obs.counter_add(hit_metric)
        return payload

    def invalidate(self):
        """Drop every entry (data/configuration/statistics changed)
        but the join domains and slot tables of two live
        dictionaries' values.

        Called from ``Database.invalidate_caches`` on every state
        transition.  Access-time identity validation already prevents
        stale serves; the sweep reclaims the arrays the dead entries
        pin, and bounds the kept domains by the dictionaries alive.
        """
        live = self._dictionaries.live_values()
        for kind, (cache, _, _) in self._kinds.items():
            cache.invalidate(live if kind == "domain" else frozenset())
