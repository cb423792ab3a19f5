"""Text/value pool helpers shared by the data generators."""

from typing import NamedTuple

import numpy as np

from ..common.rng import zipf_weights
from ..storage.encoding import ColumnDictionary

GREEK = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi", "rho",
    "sigma", "tau", "upsilon", "phi", "chi", "psi", "omega",
]

PROTEIN_ROLES = [
    "kinase", "polymerase", "receptor", "transferase", "hydrolase",
    "ligase", "isomerase", "oxidase", "reductase", "synthase", "protease",
    "phosphatase", "transporter", "channel", "repressor", "activator",
]

ORGANISM_STEMS = [
    "Homo", "Mus", "Rattus", "Danio", "Drosophila", "Caenorhabditis",
    "Saccharomyces", "Escherichia", "Bacillus", "Arabidopsis", "Oryza",
    "Gallus", "Bos", "Sus", "Canis", "Macaca", "Pan", "Xenopus",
]

ORGANISM_EPITHETS = [
    "sapiens", "musculus", "norvegicus", "rerio", "melanogaster",
    "elegans", "cerevisiae", "coli", "subtilis", "thaliana", "sativa",
    "gallus", "taurus", "scrofa", "familiaris", "mulatta", "troglodytes",
    "laevis",
]

LINEAGE_ROOTS = [
    "Eukaryota; Metazoa; Chordata",
    "Eukaryota; Metazoa; Arthropoda",
    "Eukaryota; Fungi; Ascomycota",
    "Eukaryota; Viridiplantae; Streptophyta",
    "Bacteria; Proteobacteria",
    "Bacteria; Firmicutes",
    "Archaea; Euryarchaeota",
    "Viruses; dsDNA viruses; Polyomaviridae",
    "Viruses; ssRNA viruses; Retroviridae",
]


def name_pool(rng, size, kind="protein"):
    """A pool of ``size`` human-readable names of the given kind."""
    if kind == "protein":
        picks = rng.integers(0, [len(GREEK), len(PROTEIN_ROLES)], (size, 2))
        names = [
            f"{GREEK[greek]}-{PROTEIN_ROLES[role]} {i % 97 + 1}"
            for i, (greek, role) in enumerate(picks.tolist())
        ]
    elif kind == "species":
        epithets = rng.integers(0, len(ORGANISM_EPITHETS), size).tolist()
        names = [
            f"{ORGANISM_STEMS[i % len(ORGANISM_STEMS)]} "
            f"{ORGANISM_EPITHETS[epithet]} {i // len(ORGANISM_STEMS) + 1}"
            for i, epithet in enumerate(epithets)
        ]
    elif kind == "lineage":
        names = [
            f"{LINEAGE_ROOTS[i % len(LINEAGE_ROOTS)]}; clade-{i + 1}"
            for i in range(size)
        ]
    else:
        raise ValueError(f"unknown pool kind {kind!r}")
    return np.array(names, dtype=object)


class Pooled(NamedTuple):
    """A column drawn from a pool: its values are ``pool[rows]``, and
    ``rows`` holds one int32 pool index per row."""

    pool: np.ndarray
    rows: np.ndarray

    def values(self):
        return self.pool[self.rows]


class PooledTable(dict):
    """One generated table, ``{column: array}``, whose columns drawn
    from a string pool are their coded dictionaries, read off the pool
    indices (:meth:`ColumnDictionary.from_pool
    <repro.storage.encoding.ColumnDictionary.from_pool>`): the rows'
    strings are never gathered, and ``Table`` stores the dictionary as
    it is.  ``hashed`` memoizes each pool's hash across the tables of
    one generated database, so a pool is hashed once whichever columns
    draw from it; a numeric pooled column keeps its values only (its
    dictionary is one integer sort anyway).
    """

    def __init__(self, columns, hashed=None):
        super().__init__()
        for name, column in columns.items():
            if isinstance(column, Pooled):
                if column.pool.dtype == object:
                    column = ColumnDictionary.from_pool(
                        column.pool, column.rows, hashed
                    )
                else:
                    column = column.values()
            self[name] = column


def zipf_pick(rng, n, size, z):
    """``rng.choice(n, size=size, p=zipf_weights(n, z))``, bit for bit.

    The same ``cdf`` and the same ``rng.random(size)`` draws, so the
    picks (int64) and the generator's state afterwards are the ones
    ``choice`` gives; only the search differs.  ``choice`` bisects the
    whole ``cdf`` for every pick.  Here ``[0, 1)`` is cut into a power
    of two of equal buckets first (about eight per pool entry, never
    many more than there are picks), so ``u * buckets`` is exact and its
    floor is ``u``'s bucket: a bucket that no ``cdf`` entry crosses
    answers every pick in it from one table read, and only picks in
    the (at most ``n``) crossed buckets are bisected.
    """
    cdf = zipf_weights(n, z).cumsum()
    cdf /= cdf[-1]
    draws = rng.random(size)
    buckets = 1 << (min(8 * n, max(size, 1)) - 1).bit_length()
    edges = np.arange(buckets + 1) / buckets
    # Every draw in bucket b picks guide[b]; -1 marks a crossed bucket.
    guide = cdf.searchsorted(edges[:-1], side="right")
    guide[cdf.searchsorted(edges[1:], side="left") != guide] = -1
    picks = guide[(draws * buckets).astype(np.intp)]
    crossed = np.flatnonzero(picks < 0)
    picks[crossed] = cdf.searchsorted(draws[crossed], side="right")
    return picks


def zipf_column(rng, pool, size, z):
    """Sample a :class:`Pooled` column of ``size`` rows from ``pool``
    with Zipf(z) weights.

    The pool is shuffled first so that rank order does not correlate with
    pool construction order.
    """
    pool = np.asarray(pool)
    order = rng.permutation(len(pool)).astype(np.int32)
    return Pooled(pool, order[zipf_pick(rng, len(pool), size, z)])


def sequence_strings(rng, size, mean_length=40):
    """Fake amino-acid sequences (non-indexable payload data): one
    ``integers`` call draws every letter, sliced at the cumulative
    lengths — the strings and generator state of one
    ``"".join(rng.choice(alphabet, n))`` per row."""
    alphabet = np.frombuffer(b"ACDEFGHIKLMNPQRSTVWY", dtype=np.uint8)
    lengths = rng.poisson(mean_length, size).clip(10, 4 * mean_length)
    ends = lengths.cumsum().tolist()
    text = alphabet[rng.integers(0, 20, int(lengths.sum()))].tobytes().decode()
    return np.array(
        [text[end - n:end] for n, end in zip(lengths.tolist(), ends)],
        dtype=object,
    )
