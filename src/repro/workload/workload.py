"""Workload containers.

A *family* (Section 3.2.2 of the paper) is a large set of structurally
related queries generated from a SQL template; a *workload* is the
(sampled) subset actually executed — the paper works with 100-query
samples that preserve the elapsed-time distribution of the full family.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class QueryInstance:
    """One generated query plus the template bindings that produced it.

    ``weight`` models the paper's bag semantics (Section 2.2): a workload
    "can also be defined as a bag, in which case the repetitions can
    model queries with a higher frequency or weight".
    """

    sql: str
    family: str
    meta: tuple = ()    # sorted (key, value) pairs describing the bindings
    weight: float = 1.0


def make_instance(sql, family, weight=1.0, **meta):
    """Build a :class:`QueryInstance` with normalized metadata."""
    return QueryInstance(
        sql=sql,
        family=family,
        meta=tuple(sorted((k, str(v)) for k, v in meta.items())),
        weight=float(weight),
    )


@dataclass
class Workload:
    """A named list of query instances."""

    name: str
    queries: list = field(default_factory=list)

    def __len__(self):
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def sqls(self):
        return [q.sql for q in self.queries]
