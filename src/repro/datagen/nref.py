"""Synthetic NREF database generator.

The real NREF release 1.34 (17 GB of XML, 6.5 GB raw relational) is not
redistributable, so this generator synthesizes a database with the same
six-table schema, the paper's relative table cardinalities
(Protein : Source : Taxonomy : Organism : Neighboring_seq : Identical_seq
≈ 1.1M : 3M : 15.1M : 1.2M : 78.7M : 0.5M), shared value domains across
columns (so the query families can form meaningful joins), and heavily
skewed value-frequency distributions (so the families' constant-selection
rules — k1/k2/k3 frequencies an order of magnitude apart, "values
occurring fewer than 4 times" — are all satisfiable).

``scale=1.0`` is 1/100 of the paper's row counts, sized so that the
virtual hardware model puts full scans of Neighboring_seq in the minutes
and selective index plans in the seconds, mirroring the paper's regime.
"""

from dataclasses import dataclass

import numpy as np

from ..catalog.catalog import Catalog
from ..catalog.schema import ColumnDef, ForeignKey, TableSchema
from ..common.rng import make_rng, spawn
from ..engine.database import Database
from ..storage.types import date, float_, integer, varchar
from .text import PooledTable, name_pool, sequence_strings, zipf_column

PAPER_ROWS = {
    "protein": 1_100_000,
    "source": 3_000_000,
    "taxonomy": 15_100_000,
    "organism": 1_200_000,
    "neighboring_seq": 78_700_000,
    "identical_seq": 500_000,
}

BASE_DIVISOR = 100
SOURCE_DATABASES = [
    "SwissProt", "PIR-PSD", "TrEMBL", "RefSeq", "GenPept", "PDB",
]


@dataclass(frozen=True)
class NrefScale:
    """Row counts for one generated instance."""

    protein: int
    source: int
    taxonomy: int
    organism: int
    neighboring_seq: int
    identical_seq: int

    @classmethod
    def of(cls, scale):
        """Scale relative to the default benchmark instance."""
        return cls(
            **{
                name: max(20, int(rows / BASE_DIVISOR * scale))
                for name, rows in PAPER_ROWS.items()
            }
        )


def nref_catalog():
    """The NREF relational schema of Section 1.1 (PKs underlined there)."""
    protein = TableSchema(
        "protein",
        [
            ColumnDef("nref_id", varchar(11), "nref"),
            ColumnDef("p_name", varchar(24), "name"),
            ColumnDef("last_updated", date(), "date"),
            ColumnDef("sequence", varchar(280), "", indexable=False),
            ColumnDef("length", integer(), "length"),
        ],
        primary_key=("nref_id",),
    )
    source = TableSchema(
        "source",
        [
            ColumnDef("nref_id", varchar(11), "nref"),
            ColumnDef("p_id", varchar(12), "accession"),
            ColumnDef("taxon_id", integer(), "taxon"),
            ColumnDef("accession", varchar(12), "accession"),
            ColumnDef("p_name", varchar(24), "name"),
            ColumnDef("source", varchar(10), "dbname"),
        ],
        primary_key=("nref_id", "p_id"),
        foreign_keys=[ForeignKey(("nref_id",), "protein", ("nref_id",))],
    )
    taxonomy = TableSchema(
        "taxonomy",
        [
            ColumnDef("nref_id", varchar(11), "nref"),
            ColumnDef("taxon_id", integer(), "taxon"),
            ColumnDef("lineage", varchar(64), "lineage"),
            ColumnDef("species_name", varchar(28), "name"),
            ColumnDef("common_name", varchar(28), "name"),
        ],
        primary_key=("nref_id", "taxon_id"),
        foreign_keys=[ForeignKey(("nref_id",), "protein", ("nref_id",))],
    )
    organism = TableSchema(
        "organism",
        [
            ColumnDef("nref_id", varchar(11), "nref"),
            ColumnDef("ordinal", integer(), ""),
            ColumnDef("taxon_id", integer(), "taxon"),
            ColumnDef("name", varchar(28), "name"),
        ],
        primary_key=("nref_id", "ordinal"),
        foreign_keys=[ForeignKey(("nref_id",), "protein", ("nref_id",))],
    )
    neighboring = TableSchema(
        "neighboring_seq",
        [
            ColumnDef("nref_id_1", varchar(11), "nref"),
            ColumnDef("ordinal", integer(), ""),
            ColumnDef("nref_id_2", varchar(11), "nref"),
            ColumnDef("taxon_id_2", integer(), "taxon"),
            ColumnDef("length_2", integer(), "length"),
            ColumnDef("score", float_(), ""),
            ColumnDef("overlap_length", integer(), "length"),
            ColumnDef("start_1", integer(), ""),
            ColumnDef("start_2", integer(), ""),
            ColumnDef("end_1", integer(), ""),
            ColumnDef("end_2", integer(), ""),
        ],
        primary_key=("nref_id_1", "ordinal"),
        foreign_keys=[ForeignKey(("nref_id_1",), "protein", ("nref_id",))],
    )
    identical = TableSchema(
        "identical_seq",
        [
            ColumnDef("nref_id_1", varchar(11), "nref"),
            ColumnDef("ordinal", integer(), ""),
            ColumnDef("nref_id_2", varchar(11), "nref"),
            ColumnDef("taxon_id", integer(), "taxon"),
        ],
        primary_key=("nref_id_1", "ordinal"),
        foreign_keys=[ForeignKey(("nref_id_1",), "protein", ("nref_id",))],
    )
    return Catalog(
        [protein, source, taxonomy, organism, neighboring, identical]
    )


def _group_ordinals(dictionary):
    """1-based running ordinal within each key group (for composite PKs).

    A row's ordinal depends only on which earlier rows share its key,
    so the groups are the runs of the key column's ``dictionary``
    order — an integer sort of its codes, not a sort of the key strings.
    """
    counts = dictionary.counts
    ordinals = np.empty(len(dictionary.base), dtype=np.int64)
    ordinals[dictionary.argsort()] = (
        np.arange(1, len(ordinals) + 1)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )
    return ordinals


def accessions(rng, size):
    """``size`` accession ids below ``A{2 * size:09d}``, from one
    ``integers`` call: the ids (and the generator state) one scalar
    draw per row gives."""
    ids = rng.integers(0, 2 * size, size).tolist()
    return np.array([f"A{i:09d}" for i in ids], dtype=object)


def generate_nref(scale=1.0, seed=1405):
    """Generate all six tables; returns ``{table: {column: array}}``,
    each table a :class:`~repro.datagen.text.PooledTable`."""
    sizes = scale if isinstance(scale, NrefScale) else NrefScale.of(scale)
    rng = make_rng(seed)

    nref_ids = np.array(
        [f"NF{i:08d}" for i in range(sizes.protein)], dtype=object
    )
    n_names = max(8, sizes.protein // 6)
    names = name_pool(spawn(rng, "names"), n_names, "protein")
    n_species = max(8, sizes.taxonomy // 40)
    species = name_pool(spawn(rng, "species"), n_species, "species")
    n_lineages = max(6, sizes.taxonomy // 75)
    lineages = name_pool(spawn(rng, "lineages"), n_lineages, "lineage")
    n_taxa = max(10, sizes.taxonomy // 25)
    taxa = np.arange(1, n_taxa + 1) * 7 + 13
    # Each string pool is hashed once, whichever tables draw from it.
    hashed = {}

    r = spawn(rng, "protein")
    protein = PooledTable({
        "nref_id": nref_ids,
        "p_name": zipf_column(r, names, sizes.protein, 0.9),
        "last_updated": r.integers(11000, 12800, sizes.protein),
        "sequence": sequence_strings(r, sizes.protein),
        "length": np.asarray(
            (r.lognormal(5.6, 0.6, sizes.protein)).astype(np.int64)
        ).clip(30, 5000),
    }, hashed)

    r = spawn(rng, "source")
    src_nref = zipf_column(r, nref_ids, sizes.source, 0.5)
    source = PooledTable({
        "nref_id": src_nref,
        "p_id": np.array(
            [f"P{i:09d}" for i in range(sizes.source)], dtype=object
        ),
        "taxon_id": zipf_column(r, taxa, sizes.source, 1.0),
        "accession": accessions(r, sizes.source),
        "p_name": zipf_column(r, names, sizes.source, 1.1),
        "source": zipf_column(
            r, np.array(SOURCE_DATABASES, dtype=object), sizes.source, 0.6
        ),
    }, hashed)

    r = spawn(rng, "taxonomy")
    tax_lineage = zipf_column(r, lineages, sizes.taxonomy, 1.05)
    taxonomy = PooledTable({
        "nref_id": zipf_column(r, nref_ids, sizes.taxonomy, 0.4),
        "taxon_id": zipf_column(r, taxa, sizes.taxonomy, 1.0),
        "lineage": tax_lineage,
        "species_name": zipf_column(r, species, sizes.taxonomy, 1.0),
        "common_name": zipf_column(r, species, sizes.taxonomy, 1.2),
    }, hashed)

    r = spawn(rng, "organism")
    organism = PooledTable({
        "nref_id": zipf_column(r, nref_ids, sizes.organism, 0.3),
        "ordinal": None,
        "taxon_id": zipf_column(r, taxa, sizes.organism, 1.0),
        "name": zipf_column(r, species, sizes.organism, 1.0),
    }, hashed)

    r = spawn(rng, "neighboring")
    n = sizes.neighboring_seq
    starts = r.integers(1, 900, n)
    spans = r.integers(20, 700, n)
    neighboring = PooledTable({
        "nref_id_1": zipf_column(r, nref_ids, n, 0.7),
        "ordinal": None,
        "nref_id_2": zipf_column(r, nref_ids, n, 0.5),
        "taxon_id_2": zipf_column(r, taxa, n, 1.0),
        "length_2": (r.lognormal(5.6, 0.6, n)).astype(np.int64).clip(30, 5000),
        "score": np.round(r.uniform(10.0, 2000.0, n), 1),
        "overlap_length": (spans * r.uniform(0.4, 1.0, n)).astype(np.int64),
        "start_1": starts,
        "start_2": r.integers(1, 900, n),
        "end_1": starts + spans,
        "end_2": r.integers(900, 1800, n),
    }, hashed)

    r = spawn(rng, "identical")
    m = sizes.identical_seq
    identical = PooledTable({
        "nref_id_1": zipf_column(r, nref_ids, m, 0.4),
        "ordinal": None,
        "nref_id_2": zipf_column(r, nref_ids, m, 0.4),
        "taxon_id": zipf_column(r, taxa, m, 1.0),
    }, hashed)

    organism["ordinal"] = _group_ordinals(organism["nref_id"])
    neighboring["ordinal"] = _group_ordinals(neighboring["nref_id_1"])
    identical["ordinal"] = _group_ordinals(identical["nref_id_1"])

    return {
        "protein": protein,
        "source": source,
        "taxonomy": taxonomy,
        "organism": organism,
        "neighboring_seq": neighboring,
        "identical_seq": identical,
    }


def load_nref_database(system, scale=1.0, seed=1405, name="nref"):
    """Generate NREF and load it into a fresh :class:`Database`."""
    catalog = nref_catalog()
    database = Database(catalog, system, name=name)
    for table, columns in generate_nref(scale, seed).items():
        database.load_table(table, columns)
    database.collect_statistics()
    return database
