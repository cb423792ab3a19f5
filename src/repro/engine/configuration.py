"""Configurations: the unit the paper's benchmark compares.

A configuration is a named set of index definitions (over base tables or
materialized views) plus materialized view definitions.  The canonical
configurations of the benchmark:

* **P** — primary-key indexes only (the initial configuration);
* **1C** — P plus one single-column index per indexable column (the
  paper's reference configuration);
* **R** — whatever a recommender produced.

Configurations carry a stable **content fingerprint** — a hash of the
structures they contain, independent of the display name — which the
runtime layer uses to key plan/estimate caches and the artifact store
(see :mod:`repro.runtime`).
"""

import hashlib
from dataclasses import dataclass

from ..common.errors import ConfigurationError
from ..index.definition import IndexDefinition


def content_fingerprint(*parts):
    """A short stable hash of an arbitrary (reprable) content tuple.

    Used for configuration identity, plan-cache keys, and artifact-store
    file names.  Only the *content* matters: two objects with equal
    canonical parts share a fingerprint across processes.
    """
    digest = hashlib.sha1(repr(parts).encode("utf-8")).hexdigest()
    return digest[:16]


def index_content_key(ix):
    """Canonical content tuple of an :class:`IndexDefinition`."""
    return ("ix", ix.table, tuple(ix.columns), bool(ix.is_primary))


def view_content_key(view):
    """Canonical content tuple of a :class:`MatViewDefinition`."""
    return (
        "mv",
        tuple(view.tables),
        view.join_pred,
        tuple((c.table, c.column) for c in view.group_columns),
    )


@dataclass(frozen=True)
class Configuration:
    """An immutable set of indexes and materialized views."""

    name: str
    indexes: tuple = ()
    views: tuple = ()

    def __post_init__(self):
        names = [ix.name for ix in self.indexes]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"configuration {self.name!r} has duplicate indexes"
            )
        view_names = [v.name for v in self.views]
        if len(set(view_names)) != len(view_names):
            raise ConfigurationError(
                f"configuration {self.name!r} has duplicate views"
            )

    @property
    def fingerprint(self):
        """Stable content hash of the configuration's structures.

        Excludes the display name: ``P`` renamed to ``initial`` is the
        same physical configuration.  Order-insensitive over indexes and
        views.  Cached on first access (the dataclass is frozen, so the
        content can never change afterwards).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = content_fingerprint(
                tuple(sorted(index_content_key(ix) for ix in self.indexes)),
                tuple(sorted(
                    repr(view_content_key(v)) for v in self.views
                )),
            )
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def with_indexes(self, new_indexes, name=None):
        """A new configuration extended with ``new_indexes`` (deduplicated)."""
        existing = {ix.name for ix in self.indexes}
        added = tuple(
            ix for ix in new_indexes if ix.name not in existing
        )
        return Configuration(
            name=name or self.name,
            indexes=self.indexes + added,
            views=self.views,
        )

    def with_views(self, new_views, name=None):
        existing = {v.name for v in self.views}
        added = tuple(v for v in new_views if v.name not in existing)
        return Configuration(
            name=name or self.name,
            indexes=self.indexes,
            views=self.views + added,
        )

    def renamed(self, name):
        return Configuration(name=name, indexes=self.indexes,
                             views=self.views)

    def secondary_indexes(self):
        """All non-primary-key indexes."""
        return [ix for ix in self.indexes if not ix.is_primary]

    def view_names(self):
        return {v.name for v in self.views}

    def index_width_histogram(self, max_width=4):
        """``{target: [count of 1-col, 2-col, ...]}`` over secondary indexes.

        This is the summary reported in the paper's Tables 2 and 3.
        """
        histogram = {}
        for ix in self.secondary_indexes():
            row = histogram.setdefault(ix.table, [0] * max_width)
            if ix.width <= max_width:
                row[ix.width - 1] += 1
        return histogram


def primary_configuration(catalog, name="P"):
    """The paper's initial configuration: primary-key indexes only."""
    indexes = []
    for schema in catalog.tables():
        if schema.primary_key:
            indexes.append(
                IndexDefinition(
                    table=schema.name,
                    columns=tuple(schema.primary_key),
                    is_primary=True,
                )
            )
    return Configuration(name=name, indexes=tuple(indexes))


def one_column_configuration(catalog, name="1C"):
    """The paper's reference configuration: P plus every single-column index.

    One index per indexable column in the schema (Section 3.2.3).
    """
    base = primary_configuration(catalog, name=name)
    singles = []
    for schema in catalog.tables():
        for col in schema.indexable_columns():
            singles.append(
                IndexDefinition(table=schema.name, columns=(col.name,))
            )
    return base.with_indexes(singles)
