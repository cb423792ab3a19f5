"""The database facade: one simulated RDBMS instance.

A :class:`Database` owns the catalog, the loaded tables, the collected
statistics, and the currently-applied :class:`Configuration` (built
indexes and materialized views).  It exposes the three cost measures of
the paper's framework:

* ``execute(sql)``                    → actual cost  ``A(q, C)``
  (and the rows); ``measure(sql)`` → ``A(q, C)`` alone, memoized
* ``estimate(sql)``                   → estimated cost ``E(q, C)``
* ``estimate_hypothetical(sql, Ch)``  → hypothetical cost ``H(q, Ch, C)``

plus ``apply_configuration`` (the transition whose cost/size Table 1
reports) and the insert path of Section 4.4.

Planning is memoized through fingerprint-keyed
:class:`~repro.common.cache.BoundedCache` instances:

* a **plan/estimate cache** keyed by
  ``(sql, config_fingerprint, hypothetical_fingerprint, flags)`` — so
  ``A``, ``E`` and repeated ``H`` calls on the same SQL under unchanged
  physical state plan once;
* an **environment cache** keyed by configuration fingerprint — so a
  recommender probing one candidate configuration against many queries
  derives the what-if metadata once;
* a **what-if cache** serving the recommenders' cost service
  (:mod:`repro.recommender.costservice`): atomic ``H(q, ·)`` costs keyed
  by the fingerprint of the *relevant subset* of hypothetical
  structures, plus memoized what-if configuration sizes.

All three — and the executor's dictionary, subplan and kernel caches —
sit in one registry (:meth:`Database._init_caches`) that
:meth:`Database.invalidate_caches` walks on every state transition that
can change a plan or a cost: :meth:`Database.apply_configuration`,
:meth:`Database.insert_rows`, :meth:`Database.collect_statistics`, and
:meth:`Database.load_table`.  Parse+bind results are registered in a
second group (they depend only on the catalog) so front-end work
survives those invalidations.  Measured actual costs sit in a third,
the **measurement memo**, keyed by ``(bound sql, plan fingerprint,
timeout)``: the executor charges by nothing but the plan's
:func:`~repro.optimizer.plans.plan_fingerprint`, the query and the
rows, so the memo survives configuration and statistics changes and
only :meth:`Database.insert_rows` and :meth:`Database.load_table` drop
it.

What-if environments additionally support an *incremental* build: when
a trial configuration extends a configuration whose environment is
already cached (the greedy recommenders probe ``current + one
candidate`` hundreds of times per round), the new environment is
derived from the cached one plus the delta structures instead of being
rebuilt from scratch (see :meth:`Database.hypothetical_env`).  The
derived environment also shares the base's planner memo
(:class:`~repro.optimizer.environment.PlanMemo`), so pricing a trial
re-derives only what its own structures can change; the memo hangs off
the cached environments and nothing else, and is dropped with them.
"""

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..common.cache import BoundedCache
from ..common.errors import CatalogError, QueryTimeout
from ..executor.engine import Executor
from ..executor.kernels import MAX_KERNELS
from ..executor.subplan import SubplanCache
from ..index.data import IndexData
from ..index.definition import estimate_index_size
from ..optimizer import cost_model as cm
from ..optimizer.environment import (
    IndexInfo,
    PlanMemo,
    PlannerEnv,
    ViewInfo,
)
from ..optimizer.estimator import Estimator
from ..optimizer.planner import Planner
from ..optimizer.plans import plan_fingerprint
from ..sql.binder import Binder, BoundQuery
from ..sql.parser import parse
from ..stats.table_stats import StatisticsCatalog, TableStats
from ..storage.encoding import DictionaryCache
from ..storage.table import Table
from ..views.matview import build_view
from .configuration import (
    Configuration,
    index_content_key,
    primary_configuration,
    view_content_key,
)

DEFAULT_TIMEOUT = 1800.0

# A packed key span up to this many times the row count is counted by
# a presence scan (one byte per possible key); a wider one is sorted.
_PRESENCE_SPAN_PER_ROW = 4


def _distinct_key_tuples(dictionaries):
    """The number of distinct rows of the columns whose dictionaries
    are ``dictionaries`` (two or more, of one table), in no order.

    Each row's codes are packed into one int64 key, ``key * n_distinct
    + codes`` column by column, and the distinct keys are counted: by a
    presence scan while the packed span is small next to the row count,
    else by a plain sort and one adjacent compare.  When the next
    column's span would carry the key past int64, the key so far is
    first folded into its dense ranks, which keeps its span under the
    row count.
    """
    first = dictionaries[0]
    rows = len(first.codes)
    key = first.codes.astype(np.int64)
    span = first.n_distinct
    for dictionary in dictionaries[1:]:
        n_distinct = dictionary.n_distinct
        if span * n_distinct > 1 << 63:
            keys = np.sort(key)
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            key = np.searchsorted(keys, key).astype(np.int64, copy=False)
            span = len(keys)
        key *= n_distinct
        key += dictionary.codes
        span *= n_distinct
    if span <= _PRESENCE_SPAN_PER_ROW * rows:
        present = np.zeros(span, dtype=bool)
        present[key] = True
        return int(np.count_nonzero(present))
    key.sort()
    return 1 + int(np.count_nonzero(key[1:] != key[:-1]))


@dataclass
class BuildReport:
    """Cost and size of applying a configuration (the paper's Table 1)."""

    configuration: str
    build_seconds: float
    heap_bytes: int
    index_bytes: int
    view_bytes: int

    @property
    def total_bytes(self):
        return self.heap_bytes + self.index_bytes + self.view_bytes


@dataclass
class QueryResult:
    """Outcome of executing one query."""

    sql: str
    elapsed: float
    timed_out: bool
    plan: object
    batch: object = None

    def rows(self):
        """Result rows as a list of tuples (None after a timeout)."""
        if self.batch is None:
            return None
        keys = list(self.batch.columns)
        arrays = [self.batch.columns[k] for k in keys]
        return list(zip(*(a.tolist() for a in arrays))) if arrays else []


@dataclass
class _BuiltState:
    configuration: Configuration
    index_data: dict = field(default_factory=dict)   # name -> IndexData
    view_tables: dict = field(default_factory=dict)  # view name -> Table


class Database:
    """One simulated RDBMS instance under a system profile."""

    PLAN_CACHE_SIZE = 8192
    ENV_CACHE_SIZE = 128
    WHATIF_CACHE_SIZE = 65536
    BIND_CACHE_SIZE = 8192
    MEASURE_CACHE_SIZE = 8192

    def __init__(self, catalog, system, name="db"):
        self.catalog = catalog
        self.system = system
        self.name = name
        self.tables = {}
        self.statistics = StatisticsCatalog()
        self._view_stats = StatisticsCatalog()
        self._built = None
        self._view_size_cache = {}
        self._init_caches()

    def _init_caches(self):
        """The registry of this database's caches, by reported name.

        ``derived`` entries depend on data, statistics or the built
        configuration and are dropped by :meth:`invalidate_caches`;
        ``catalog`` entries (bound queries) depend on the catalog only,
        survive that, and are dropped by :meth:`load_table` alone;
        ``data`` entries (measured actual costs, keyed by plan
        fingerprint) depend on the rows only, survive configuration
        and statistics changes, and are dropped by :meth:`insert_rows`
        and :meth:`load_table`.
        """
        dictionaries = DictionaryCache()
        self._caches = {
            "derived": {
                "plan_cache": BoundedCache(
                    "plan_cache", self.PLAN_CACHE_SIZE
                ),
                "env_cache": BoundedCache("env_cache", self.ENV_CACHE_SIZE),
                "whatif_cache": BoundedCache(
                    "whatif_cache", self.WHATIF_CACHE_SIZE
                ),
                # The executor's three, shared by every executor of
                # this database: column dictionaries, subplan results,
                # fused filter kernels.
                "dict_cache": dictionaries,
                "subplan_cache": SubplanCache(dictionaries),
                "kernel_cache": BoundedCache("kernel_cache", MAX_KERNELS),
            },
            "catalog": {
                "bind_cache": BoundedCache(
                    "bind_cache", self.BIND_CACHE_SIZE
                ),
            },
            "data": {
                "measure_cache": BoundedCache(
                    "measure_cache", self.MEASURE_CACHE_SIZE
                ),
            },
        }
        self._current_fingerprint = None

    def _cache(self, name):
        return self._caches["derived"][name]

    # ------------------------------------------------------------------
    # Pickling (the artifact store persists built databases to disk):
    # caches hold locks and are cheap to rebuild, so they are dropped.
    # An index an insert deferred merges as it pickles, and one that
    # owes its build pickles owing it (``IndexData.__getstate__``).

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_caches"], state["_current_fingerprint"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._init_caches()
        # An index's values are its leading column's dictionary's
        # (executor probes map codes through that dictionary): re-link
        # each restored built index to it — a number column's is
        # rebuilt, a string column's came back with its table, holding
        # the very values array the index does — and give each index
        # that owes its build the cache to build through.
        if self._built is not None:
            encodings = self._cache("dict_cache")
            for data in self._built.index_data.values():
                data.attach(encodings, self._index_target(
                    data.definition, self._built
                ))

    # ------------------------------------------------------------------
    # Cache invalidation

    def invalidate_caches(self):
        """Drop every plan/estimate/environment cache entry.

        Called by every state transition after which a cached plan or
        cost could be stale: configuration changes, row inserts, table
        (re)loads, and statistics collection.  Bound queries survive —
        binding depends only on the catalog — and so do measured costs,
        which depend on the plan and the rows (see :meth:`measure`).
        """
        for cache in self._caches["derived"].values():
            cache.invalidate()
        self._current_fingerprint = None

    @property
    def whatif_cache(self):
        """The what-if cost-service cache (atomic H costs and sizes).

        Owned by the database so its entries are dropped by the same
        :meth:`invalidate_caches` path as every other derived result.
        """
        return self._cache("whatif_cache")

    def cache_stats(self):
        """Hit/miss snapshot of every registered cache, by name."""
        return {
            name: cache.stats.snapshot()
            for group in self._caches.values()
            for name, cache in group.items()
        }

    def resident_bytes(self):
        """Bytes the data holds, by kind: the columns of every table and
        built view by dtype name (:meth:`Table.resident_bytes`), and the
        dictionary cache's arrays
        (:meth:`~repro.storage.encoding.DictionaryCache.resident_bytes`)."""
        tables = {}
        for table in self._exec_tables().values():
            for dtype, size in table.resident_bytes().items():
                tables[dtype] = tables.get(dtype, 0) + size
        return {
            "tables": dict(sorted(tables.items())),
            "dictionaries": self._cache("dict_cache").resident_bytes(),
        }

    def indexes_sorted(self):
        """``{"sorted": k, "indexes": n}``: of the ``n`` indexes of the
        current configuration, the ``k`` whose arrays were ever built —
        an index owes its sort until first read
        (:attr:`IndexData.built`)."""
        held = self._built.index_data.values() if self._built is not None else ()
        return {
            "sorted": sum(data.built for data in held),
            "indexes": len(held),
        }

    def column_dictionary(self, table_name, column):
        """The shared :class:`ColumnDictionary` of a loaded table's column.

        This is the entry point the workload generators use for the
        constant-selection ladders.
        """
        return self._cache("dict_cache").dictionary(
            self.table(table_name), column
        )

    # ------------------------------------------------------------------
    # Loading and statistics

    def load_table(self, name, columns):
        """Load ``{column: values}`` as table ``name``.

        A string column is stored as its coded dictionary: an object
        array is encoded here, and a column that is its dictionary
        already (a generated :class:`~repro.datagen.text.PooledTable`'s,
        read off its pool indices) is taken as it is.
        """
        schema = self.catalog.table(name)
        self.tables[name] = Table(schema, columns)
        for group in ("catalog", "data"):
            for cache in self._caches[group].values():
                cache.invalidate()
        self._view_size_cache.clear()
        self.invalidate_caches()

    def table(self, name):
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} is not loaded") from None

    def collect_statistics(self):
        """Collect full statistics for every loaded table (and built view)."""
        encodings = self._cache("dict_cache")
        for table in self.tables.values():
            self.statistics.put(TableStats.collect(table, encodings))
        if self._built is not None:
            for view_table in self._built.view_tables.values():
                self._view_stats.put(
                    TableStats.collect(view_table, encodings)
                )
        self.invalidate_caches()

    # ------------------------------------------------------------------
    # Configurations

    @property
    def configuration(self):
        if self._built is None:
            return primary_configuration(self.catalog)
        return self._built.configuration

    @property
    def configuration_fingerprint(self):
        """Content fingerprint of the currently-built configuration."""
        if self._current_fingerprint is None:
            self._current_fingerprint = self.configuration.fingerprint
        return self._current_fingerprint

    def apply_configuration(self, config):
        """Build ``config`` from scratch; returns a :class:`BuildReport`.

        The build time covers loading the heaps, materializing the views,
        and creating every index — mirroring how the paper's Table 1
        reports per-configuration build times.
        """
        with obs.span(
            "db.apply_configuration",
            database=self.name,
            configuration=config.name,
        ) as obs_span:
            report = self._apply_configuration(config)
            obs_span.set(
                virtual_s=report.build_seconds,
                total_bytes=report.total_bytes,
            )
        obs.counter_add("engine.configurations_built")
        obs.event(
            "configuration",
            database=self.name,
            configuration=config.name,
            fingerprint=config.fingerprint,
        )
        return report

    def _apply_configuration(self, config):
        hw = self.system.hardware
        seconds = 0.0
        heap_bytes = 0
        for table in self.tables.values():
            pages = table.page_count()
            seconds += pages * hw.page_write_s + table.row_count * hw.cpu_row_s
            heap_bytes += int(table.byte_size() * self.system.heap_overhead)

        state = _BuiltState(configuration=config)
        encodings = self._cache("dict_cache")
        view_bytes = 0
        for view_def in config.views:
            view_table, _input_rows = build_view(
                view_def, self.tables, self.catalog, encodings
            )
            state.view_tables[view_def.name] = view_table
            input_cost = self._view_input_cost(view_def)
            seconds += cm.build_view(
                hw,
                input_cost,
                view_table.row_count,
                view_table.schema.row_width(),
            )
            view_bytes += int(
                view_table.byte_size() * self.system.heap_overhead
            )

        index_bytes = 0
        for ix in config.indexes:
            target = self._index_target(ix, state)
            data = IndexData(
                ix, target, encodings, self.system.index_overhead
            )
            state.index_data[ix.name] = data
            key_width = sum(
                target.schema.column(c).width for c in ix.columns
            )
            pages = cm.bytes_to_pages(data.size.byte_size)
            seconds += cm.build_index(
                hw,
                target.page_count(),
                target.row_count,
                key_width,
                pages,
            )
            index_bytes += data.size.byte_size

        self._built = state
        self._view_stats = StatisticsCatalog()
        for view_table in state.view_tables.values():
            self._view_stats.put(TableStats.collect(view_table, encodings))
        self.invalidate_caches()
        return BuildReport(
            configuration=config.name,
            build_seconds=seconds,
            heap_bytes=heap_bytes,
            index_bytes=index_bytes,
            view_bytes=view_bytes,
        )

    def _index_target(self, ix, state):
        if ix.table in state.view_tables:
            return state.view_tables[ix.table]
        return self.table(ix.table)

    def _view_input_cost(self, view_def):
        hw = self.system.hardware
        cost = 0.0
        for name in view_def.tables:
            table = self.table(name)
            cost += cm.seq_scan(hw, table.page_count(), table.row_count)
        if view_def.is_join_view:
            (t1, _), (t2, _) = view_def.join_pred
            small = min(
                self.table(t1).row_count, self.table(t2).row_count
            )
            big = max(self.table(t1).row_count, self.table(t2).row_count)
            cost += cm.hash_build(hw, small, 32) + cm.hash_probe(hw, big)
        return cost

    def estimated_configuration_bytes(self, config):
        """Size of a configuration *without building it* (what-if sizing).

        This is what the recommender's space-budget arithmetic uses.
        A sum of integers, one per structure, each depending on that
        structure alone (an index on a view: on the view), so
        ``bytes(base + candidate) == bytes(base) + bytes(candidate's
        structures)`` exactly.  Memoized per configuration fingerprint
        in the what-if cache; invalidated with every other derived
        result.
        """
        key = ("bytes", config.fingerprint)
        return self._cache("whatif_cache").get_or_build(
            key, lambda: self._structure_bytes(
                config, config.indexes, config.views
            ),
        )

    def estimated_added_bytes(self, config, extended):
        """What-if size of the structures ``extended`` adds to ``config``.

        Sizes only the indexes and views of ``extended`` that ``config``
        does not hold (by name), so for an ``extended`` that only adds
        to ``config`` it is exactly
        ``estimated_configuration_bytes(extended) -
        estimated_configuration_bytes(config)``.  The recommenders size
        each candidate this way once per run: a candidate's structures
        are disjoint from every other candidate's, so its size is the
        same against whatever the earlier rounds selected.  Not
        memoized.
        """
        indexes = {ix.name for ix in config.indexes}
        views = {view_def.name for view_def in config.views}
        return self._structure_bytes(
            extended,
            [ix for ix in extended.indexes if ix.name not in indexes],
            [view_def for view_def in extended.views
             if view_def.name not in views],
        )

    def _structure_bytes(self, config, indexes, views):
        """Summed what-if bytes of ``indexes`` and ``views``, which
        belong to ``config`` (an index on a view is sized from that
        view's definition there)."""
        # No environment, so no ViewInfo: every view at its what-if
        # size.
        view_defs = {view_def.name: view_def for view_def in config.views}
        index_bytes = 0
        for ix in indexes:
            rows, key_width = self._whatif_index_geometry(
                ix, view_defs.get(ix.table)
            )
            index_bytes += estimate_index_size(
                rows, key_width, self.system.index_overhead
            ).byte_size
        view_bytes = 0
        for view_def in views:
            rows, width = self._hypothetical_view_size(view_def)
            view_bytes += int(rows * width * self.system.heap_overhead)
        return index_bytes + view_bytes

    # ------------------------------------------------------------------
    # Planning and execution

    def bind(self, sql):
        """The :class:`BoundQuery` of SQL text (memoized per text)."""
        if isinstance(sql, BoundQuery):
            return sql
        return self._caches["catalog"]["bind_cache"].get_or_build(
            sql, lambda: Binder(self.catalog).bind(parse(sql))
        )

    def planner_env(self):
        """Environment describing the *current built* configuration.

        Memoized per configuration fingerprint; invalidated with the
        plan cache.
        """
        key = ("real", self.configuration_fingerprint)
        return self._cache("env_cache").get_or_build(
            key, self._build_planner_env
        )

    def _build_planner_env(self):
        estimator = Estimator(self._merged_stats(), self.system.policy)
        indexes, views = {}, []
        if self._built is not None:
            view_names = self._built.configuration.view_names()
            view_indexes = {}
            for ix in self._built.configuration.indexes:
                data = self._built.index_data[ix.name]
                info = IndexInfo.from_data(data)
                if ix.table in view_names:
                    view_indexes.setdefault(ix.table, []).append(info)
                else:
                    indexes.setdefault(ix.table, []).append(info)
            for view_def in self._built.configuration.views:
                view_table = self._built.view_tables[view_def.name]
                views.append(
                    ViewInfo(
                        definition=view_def,
                        rows=view_table.row_count,
                        page_count=view_table.page_count(),
                        row_width=view_table.schema.row_width(),
                        indexes=view_indexes.get(view_def.name, []),
                        hypothetical=False,
                        data=view_table,
                    )
                )
        return PlannerEnv(
            catalog=self.catalog,
            estimator=estimator,
            hardware=self.system.hardware,
            indexes=indexes,
            views=views,
        )

    def hypothetical_env(self, config, force_hypothetical=False,
                         oracle=False, base=None):
        """What-if environment for a configuration that is *not* built.

        Memoized per ``(config fingerprint, flags)``: a recommender
        probing one candidate configuration against a whole workload
        derives the hypothetical metadata once.  The environment's
        structures are read-only after construction, so it is shared
        across queries; its planner memo grows as they are priced,
        which happens on the calling thread only (measurement pool
        threads execute, they do not price).

        Args:
            config: the hypothetical :class:`Configuration`.
            force_hypothetical: estimate under the degraded what-if
                policy even for built structures.
            oracle: full-fidelity what-if statistics (ablation knob).
            base: optional configuration that ``config`` extends.  When
                the base's environment is resident in the cache, the new
                environment is derived incrementally from it — only the
                delta structures get their geometry computed — instead
                of being rebuilt from scratch.  Purely an optimization:
                the incremental environment is equivalent to a full
                build.
        """
        key = (
            "hypo",
            self.configuration_fingerprint,
            config.fingerprint,
            bool(force_hypothetical),
            bool(oracle),
        )

        def build():
            if base is not None:
                env = self._extend_hypothetical_env(
                    base, config, force_hypothetical, oracle
                )
                if env is not None:
                    return env
            return self._build_hypothetical_env(
                config, force_hypothetical, oracle
            )

        return self._cache("env_cache").get_or_build(key, build)

    def _extend_hypothetical_env(self, base, config, force_hypothetical,
                                 oracle):
        """Derive the env of ``config`` from the cached env of ``base``.

        Returns ``None`` when the incremental path does not apply — the
        base environment is not resident, ``config`` is not a pure
        extension of ``base``, a delta view is actually built (its
        statistics would have to enter the estimator), or
        ``force_hypothetical`` is off (an extension could then flip the
        whole environment from the full-fidelity to the degraded
        estimator policy, which only a full build tracks).

        Shared :class:`IndexInfo`/:class:`ViewInfo` objects from the
        base environment are reused as-is — they are read-only — and
        anything the delta must touch (a view gaining an index) is
        copied first, so the base environment is never mutated.
        """
        if not force_hypothetical:
            return None
        base_key = (
            "hypo",
            self.configuration_fingerprint,
            base.fingerprint,
            True,
            bool(oracle),
        )
        # A counted, recency-refreshing lookup: a round builds more trial
        # environments than the cache holds, and every one of them needs
        # the base to still be there.
        base_env = self._cache("env_cache").get(base_key)
        if base_env is None:
            return None
        base_ix = {index_content_key(ix) for ix in base.indexes}
        base_mv = {view_content_key(v) for v in base.views}
        trial_ix = [(index_content_key(ix), ix) for ix in config.indexes]
        trial_mv = [(view_content_key(v), v) for v in config.views]
        if not (base_ix <= {k for k, _ in trial_ix}
                and base_mv <= {k for k, _ in trial_mv}):
            return None
        delta_views = [v for k, v in trial_mv if k not in base_mv]
        delta_indexes = [ix for k, ix in trial_ix if k not in base_ix]
        built_views = set(
            self._built.view_tables
        ) if self._built is not None else set()
        if any(v.name in built_views for v in delta_views):
            return None

        obs.counter_add("optimizer.env_delta_builds")
        view_infos = {v.definition.name: v for v in base_env.views}
        shared_views = set(view_infos)
        for view_def in delta_views:
            view_infos[view_def.name] = self._whatif_view_info(view_def)

        indexes = {t: list(infos) for t, infos in base_env.indexes.items()}
        for ix in delta_indexes:
            info = self._whatif_index_info(ix, view_infos, oracle)
            if ix.table in view_infos:
                vinfo = view_infos[ix.table]
                if ix.table in shared_views:
                    vinfo = ViewInfo(
                        definition=vinfo.definition,
                        rows=vinfo.rows,
                        page_count=vinfo.page_count,
                        row_width=vinfo.row_width,
                        indexes=list(vinfo.indexes),
                        hypothetical=vinfo.hypothetical,
                        data=vinfo.data,
                    )
                    view_infos[ix.table] = vinfo
                    shared_views.discard(ix.table)
                vinfo.indexes.append(info)
            else:
                indexes.setdefault(ix.table, []).append(info)
        env = PlannerEnv(
            catalog=self.catalog,
            estimator=base_env.estimator,
            hardware=base_env.hardware,
            indexes=indexes,
            views=list(view_infos.values()),
        )
        env.adopt(base_env)
        return env

    def _build_hypothetical_env(self, config, force_hypothetical, oracle):
        """Uncached construction of a what-if environment.

        Indexes that happen to exist in the current built configuration
        keep their measured metadata; everything else is derived, and the
        estimator runs under the degraded hypothetical policy.  With
        ``force_hypothetical`` the degraded policy applies even when every
        structure is built — recommenders compare candidate configurations
        against the current one inside the same what-if session, so both
        sides must be estimated at the same fidelity.

        ``oracle`` keeps the full-fidelity estimator policy and assumes
        well-clustered hypothetical indexes; it models a recommender with
        ideal what-if statistics and exists for the ablation study of the
        estimation gap Section 5 of the paper identifies.
        """
        obs.counter_add("optimizer.hypothetical_env_builds")
        any_hypothetical = bool(force_hypothetical)

        view_infos = {}
        for view_def in config.views:
            if self._built is not None and \
                    view_def.name in self._built.view_tables:
                view_table = self._built.view_tables[view_def.name]
                view_infos[view_def.name] = ViewInfo(
                    definition=view_def,
                    rows=view_table.row_count,
                    page_count=view_table.page_count(),
                    row_width=view_table.schema.row_width(),
                    data=view_table,
                )
            else:
                any_hypothetical = True
                view_infos[view_def.name] = self._whatif_view_info(view_def)

        indexes = {}
        for ix in config.indexes:
            info = self._whatif_index_info(ix, view_infos, oracle)
            any_hypothetical = any_hypothetical or info.hypothetical
            if ix.table in view_infos:
                view_infos[ix.table].indexes.append(info)
            else:
                indexes.setdefault(ix.table, []).append(info)

        policy = self.system.policy
        if any_hypothetical and not oracle:
            policy = policy.as_hypothetical()
        estimator = Estimator(self._hypo_stats(view_infos), policy)
        return PlannerEnv(
            catalog=self.catalog,
            estimator=estimator,
            hardware=self.system.hardware,
            indexes=indexes,
            views=list(view_infos.values()),
            memo=PlanMemo(),
        )

    def plan(self, sql):
        """Optimize a query in the current configuration (memoized).

        The cached plan is immutable and is shared by ``estimate`` and
        ``execute`` — the ``A`` and ``E`` measures of one query under an
        unchanged configuration plan exactly once.
        """
        bound = self.bind(sql)
        key = ("plan", bound.sql, self.configuration_fingerprint)

        def build():
            obs.counter_add("optimizer.plan_builds")
            return Planner(self.planner_env()).plan(bound)

        return self._cache("plan_cache").get_or_build(key, build)

    def estimate(self, sql):
        """Estimated cost ``E(q, C)`` in the current configuration."""
        return self.plan(sql).est.cost

    def estimate_many(self, sqls):
        """``E(q, C)`` of each SQL text, in order, cached nowhere.

        Binds and plans every text against one :meth:`planner_env`,
        and neither reads nor writes the bind or the plan cache: a
        family estimated to be sampled is mostly never planned again,
        and what is, is bound and planned once more when it is first
        measured.  Each cost equals :meth:`estimate`'s.
        """
        binder, planner = Binder(self.catalog), Planner(self.planner_env())
        costs = []
        for sql in sqls:
            obs.counter_add("optimizer.plan_builds")
            costs.append(planner.plan(binder.bind(parse(sql))).est.cost)
        return costs

    def estimate_hypothetical(self, sql, config, force_hypothetical=False,
                              oracle=False):
        """Hypothetical cost ``H(q, config, current)`` (memoized).

        Keyed by ``(sql, current fingerprint, candidate fingerprint,
        flags)`` in the plan cache, so measuring ``H`` for a figure and
        asking again pays for one optimizer call.  The recommenders do
        not come through here: their costs are memoized by the what-if
        cost service, which calls :meth:`price_hypothetical`.
        """
        obs.counter_add("optimizer.what_if_calls")
        bound = self.bind(sql)
        key = (
            "what_if",
            bound.sql,
            self.configuration_fingerprint,
            config.fingerprint,
            bool(force_hypothetical),
            bool(oracle),
        )
        return self._cache("plan_cache").get_or_build(
            key,
            lambda: self._hypothetical_cost(
                bound, config, force_hypothetical, oracle
            ),
        )

    def price_hypothetical(self, bound, config, force_hypothetical=False,
                           oracle=False, base=None):
        """``H(q, config, current)`` of a bound query, planned every time.

        The entry point of the what-if cost service, which keeps its own
        memo (keyed by the structures that can affect the query) above
        this call: storing the cost a second time under the full trial
        fingerprint could never hit, and would push the plans of the
        measured workload out of the plan cache.  ``base`` is forwarded
        to :meth:`hypothetical_env` to enable the incremental
        environment build when ``config`` extends it.
        """
        obs.counter_add("optimizer.what_if_calls")
        return self._hypothetical_cost(
            bound, config, force_hypothetical, oracle, base
        )

    def _hypothetical_cost(self, bound, config, force_hypothetical, oracle,
                           base=None):
        obs.counter_add("optimizer.what_if_plan_builds")
        env = self.hypothetical_env(
            config, force_hypothetical, oracle, base=base
        )
        return Planner(env).plan(bound).est.cost

    def measure(self, sql, timeout=DEFAULT_TIMEOUT):
        """Actual cost ``A(q, C)`` of a query: ``(elapsed, timed_out)``.

        The executor charges by the bound query, the plan's
        :func:`~repro.optimizer.plans.plan_fingerprint` and the rows,
        and by nothing else.  So the outcome is memoized by ``(bound
        sql, fingerprint, timeout)`` for as long as the rows stand: a
        query whose plan under another configuration (or a repeat
        under this one) was already run is not run again.  A miss runs
        the plan it holds, as :meth:`execute` does, without looking it
        up again.  The fingerprint is taken once per cached plan, when
        it is first measured.
        """
        bound = self.bind(sql)
        plan = self.plan(bound)
        if plan.fingerprint is None:
            plan.fingerprint = plan_fingerprint(plan)

        def run():
            result = self._run(bound, plan, timeout)
            return result.elapsed, result.timed_out

        return self._caches["data"]["measure_cache"].get_or_build(
            (bound.sql, plan.fingerprint, timeout), run
        )

    def execute(self, sql, timeout=DEFAULT_TIMEOUT):
        """Plan and run a query; returns a :class:`QueryResult`.

        A query that exceeds the (virtual) timeout is reported with
        ``timed_out=True`` and ``elapsed`` clamped to the timeout, exactly
        as the paper reports its ``t_out`` bin.
        """
        bound = self.bind(sql)
        return self._run(bound, self.plan(bound), timeout)

    def _run(self, bound, plan, timeout):
        """Run ``plan``, the current plan of ``bound``; returns a
        :class:`QueryResult`."""
        with obs.span("db.execute", database=self.name) as span:
            executor = Executor(
                self._exec_tables(), self.system.hardware, timeout,
                encodings=self._cache("dict_cache"),
                subplans=self._cache("subplan_cache"),
                kernels=self._cache("kernel_cache"),
            )
            try:
                outcome = executor.run(plan)
            except QueryTimeout:
                span.set(virtual_s=float(timeout), timed_out=True)
                obs.counter_add("engine.queries_executed")
                obs.counter_add("engine.query_timeouts")
                obs.observe("engine.query_seconds", float(timeout))
                return QueryResult(
                    sql=bound.sql,
                    elapsed=float(timeout),
                    timed_out=True,
                    plan=plan,
                )
            span.set(virtual_s=outcome.elapsed, timed_out=False)
        obs.counter_add("engine.queries_executed")
        obs.observe("engine.query_seconds", outcome.elapsed)
        return QueryResult(
            sql=bound.sql,
            elapsed=outcome.elapsed,
            timed_out=False,
            plan=plan,
            batch=outcome.batch,
        )

    # ------------------------------------------------------------------
    # Inserts (Section 4.4)

    def insert_rows(self, table_name, columns):
        """Append rows; returns the virtual seconds the insert cost.

        The charge covers the heap append plus maintenance of every index
        on the table in the current configuration, each at its height
        before the batch.  The wall-clock work is what the batch must
        do at once: the columns append into spare capacity, and plans,
        environments, what-if costs, the other subplans and kernels are
        dropped.  The table's dictionaries and index entries are
        carried across the append, and each merges the new rows in
        when something first reads it — one merge for every insert
        since the last read (:meth:`IndexData.deferred`,
        :meth:`DictionaryCache.append_rows`); so are the join domains
        of every dictionary whose values the batch leaves unchanged.
        Dependent views are rebuilt, from the dictionaries, and so are
        the indexes on them and their statistics; the charge stays the
        base table's.
        """
        table = self.table(table_name)
        # Through the dictionary cache, which leaves the table's
        # dictionaries owing the rows instead of letting the append
        # orphan them.
        encodings = self._cache("dict_cache")
        appended = encodings.append_rows(table, columns)
        obs.counter_add("engine.rows_inserted", appended)
        self._caches["data"]["measure_cache"].invalidate()
        self._view_size_cache.clear()
        self.invalidate_caches()
        heights = []
        if self._built is not None:
            for ix in self._built.configuration.indexes:
                if ix.table == table_name:
                    data = self._built.index_data[ix.name]
                    heights.append(data.size.height)
                    self._built.index_data[ix.name] = data.deferred(
                        table, encodings
                    )
            obs.counter_add(
                "engine.index_entries_merged", appended * len(heights)
            )
            for view_def in self._built.configuration.views:
                if table_name in view_def.tables:
                    view_table, _ = build_view(
                        view_def, self.tables, self.catalog, encodings
                    )
                    self._built.view_tables[view_def.name] = view_table
                    self._view_stats.put(
                        TableStats.collect(view_table, encodings)
                    )
                    # A new view table: its indexes are built over it.
                    for ix in self._built.configuration.indexes:
                        if ix.table == view_def.name:
                            self._built.index_data[ix.name] = IndexData(
                                ix, view_table, encodings,
                                self.system.index_overhead,
                            )
        return cm.insert_rows(
            self.system.hardware,
            appended,
            table.schema.row_width(),
            heights,
        )

    # ------------------------------------------------------------------
    # Internals

    def _exec_tables(self):
        tables = dict(self.tables)
        if self._built is not None:
            tables.update(self._built.view_tables)
        return tables

    def _merged_stats(self):
        merged = StatisticsCatalog()
        for name in self.statistics.table_names():
            merged.put(self.statistics.table(name))
        for name in self._view_stats.table_names():
            merged.put(self._view_stats.table(name))
        return merged

    def _hypo_stats(self, view_infos):
        merged = StatisticsCatalog()
        for name in self.statistics.table_names():
            merged.put(self.statistics.table(name))
        for name, vinfo in view_infos.items():
            if vinfo.data is not None:
                merged.put(
                    TableStats.collect(vinfo.data, self._cache("dict_cache"))
                )
        return merged

    def _hypothetical_view_size(self, view_def):
        """(rows, row_width) estimate for an unbuilt view.

        Single-table views are sized from the data itself (the exact
        joint distinct count — the stand-in for the sampling pass the
        commercial advisors run when sizing candidate views); join views
        fall back to the estimator's damped distinct-product, which is
        why join-view candidates only survive when the statistics make
        the compression visible.

        A multi-column key is counted by :func:`_distinct_key_tuples`
        on the columns' dictionary codes, with no sort order built or
        kept.  The count is exact: a column's codes are a bijection
        with its values, and packing ``key * n_distinct + code`` with
        every code below its column's ``n_distinct`` is injective on
        code tuples (a fold replaces the key by its dense ranks, which
        is injective too).
        """
        width = sum(
            self.catalog.table(vc.table).column(vc.column).width
            for vc in view_def.group_columns
        ) + 8 + cm.ROW_OVERHEAD
        if not view_def.is_join_view:
            cached = self._view_size_cache.get(view_def.name)
            if cached is None:
                table = self.table(view_def.tables[0])
                encodings = self._cache("dict_cache")
                columns = tuple(vc.column for vc in view_def.group_columns)
                if table.row_count == 0:
                    distinct = 0
                elif len(columns) == 1:
                    distinct = encodings.dictionary(
                        table, columns[0]
                    ).n_distinct
                else:
                    distinct = _distinct_key_tuples([
                        encodings.dictionary(table, column)
                        for column in columns
                    ])
                cached = max(1, distinct)
                self._view_size_cache[view_def.name] = cached
            return cached, width

        estimator = Estimator(self.statistics, self.system.policy)
        (t1, c1), (t2, c2) = view_def.join_pred
        sel = estimator.join_selectivity(t1, c1, t2, c2)
        input_rows = estimator.join_rows(
            estimator.table_rows(t1), estimator.table_rows(t2), sel
        )
        ndvs = [
            estimator.n_distinct(vc.table, vc.column)
            for vc in view_def.group_columns
        ]
        rows = estimator.group_count(input_rows, ndvs)
        return rows, width

    def _whatif_view_info(self, view_def):
        """The :class:`ViewInfo` of a view that is not built."""
        rows, width = self._hypothetical_view_size(view_def)
        return ViewInfo(
            definition=view_def,
            rows=int(rows),
            page_count=cm.bytes_to_pages(rows * width),
            row_width=width,
            hypothetical=True,
        )

    def _whatif_index_geometry(self, ix, view_def=None, view_info=None):
        """``(rows, key width)`` of ``ix``, an index on a base table or,
        given ``view_def``, on that view.

        ``view_info`` is the view's :class:`ViewInfo` in the environment
        being built — a built view's holds its true row count; without
        one the view takes its what-if size.
        """
        if view_def is None:
            schema = self.catalog.table(ix.table)
            rows = self.statistics.table(ix.table).row_count
        else:
            schema = view_def.view_schema(self.catalog)
            if view_info is not None:
                rows = view_info.rows
            else:
                rows = int(self._hypothetical_view_size(view_def)[0])
        return rows, sum(schema.column(c).width for c in ix.columns)

    def _whatif_index_info(self, ix, view_infos, oracle):
        """The :class:`IndexInfo` of ``ix`` in a what-if environment
        whose views are ``view_infos``.

        An index on a base table that exists in the built configuration
        keeps its measured metadata; anything else is derived from its
        geometry (and counted as a probe), well-clustered under
        ``oracle`` when it is on a base table.
        """
        view_info = view_infos.get(ix.table)
        if view_info is None and self._built is not None \
                and ix.name in self._built.index_data:
            return IndexInfo.from_data(self._built.index_data[ix.name])
        view_def = None if view_info is None else view_info.definition
        rows, key_width = self._whatif_index_geometry(ix, view_def, view_info)
        info = IndexInfo.hypothetical_on(
            ix, rows, key_width, self.system.index_overhead
        )
        obs.counter_add("optimizer.hypothetical_index_probes")
        if oracle and view_info is None:
            info.assumed_cluster_factor = 0.25
        return info
