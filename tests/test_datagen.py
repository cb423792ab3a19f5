"""Data generators: schemas, integrity, skew, determinism."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import zipf_weights
from repro.datagen.nref import (
    NrefScale,
    accessions,
    generate_nref,
    load_nref_database,
    nref_catalog,
)
from repro.datagen.text import (
    GREEK,
    ORGANISM_EPITHETS,
    ORGANISM_STEMS,
    PROTEIN_ROLES,
    name_pool,
    sequence_strings,
    zipf_pick,
)
from repro.datagen.tpch import (
    generate_tpch,
    load_tpch_database,
    phone_numbers,
    tpch_catalog,
)
from repro.engine.systems import system_a, system_c
from repro.storage.encoding import ColumnDictionary

from conftest import code_dtype_of


def decoded(column):
    """A generated column's values: a pooled string column's codes
    looked up in its dictionary."""
    if isinstance(column, ColumnDictionary):
        return column.values[column.codes]
    return column


def test_nref_catalog_matches_paper_schema():
    catalog = nref_catalog()
    assert set(catalog.table_names) == {
        "protein", "source", "taxonomy", "organism",
        "neighboring_seq", "identical_seq",
    }
    assert catalog.table("protein").primary_key == ("nref_id",)
    assert catalog.table("source").primary_key == ("nref_id", "p_id")
    assert catalog.table("taxonomy").primary_key == ("nref_id", "taxon_id")
    assert catalog.table("neighboring_seq").primary_key == (
        "nref_id_1", "ordinal",
    )
    assert not catalog.table("protein").column("sequence").indexable


def test_nref_scale_preserves_paper_ratios():
    sizes = NrefScale.of(1.0)
    # Neighboring_seq : Protein ≈ 78.7 : 1.1 in the paper.
    assert sizes.neighboring_seq / sizes.protein == pytest.approx(
        78.7 / 1.1, rel=0.02
    )
    assert sizes.taxonomy / sizes.source == pytest.approx(
        15.1 / 3.0, rel=0.02
    )
    half = NrefScale.of(0.5)
    assert half.protein == pytest.approx(sizes.protein / 2, rel=0.05)


def test_nref_foreign_keys_hold():
    data = generate_nref(scale=0.05)
    proteins = set(decoded(data["protein"]["nref_id"]).tolist())
    for child in ("source", "taxonomy", "organism"):
        assert set(decoded(data[child]["nref_id"]).tolist()) <= proteins
    assert set(decoded(data["neighboring_seq"]["nref_id_1"]).tolist()) <= proteins
    assert set(decoded(data["identical_seq"]["nref_id_1"]).tolist()) <= proteins


def test_nref_composite_pk_unique():
    data = generate_nref(scale=0.05)
    pairs = list(
        zip(
            decoded(data["neighboring_seq"]["nref_id_1"]).tolist(),
            decoded(data["neighboring_seq"]["ordinal"]).tolist(),
        )
    )
    assert len(set(pairs)) == len(pairs)


def test_nref_skewed_frequencies_support_constant_ladders():
    data = generate_nref(scale=0.1)
    lineage = decoded(data["taxonomy"]["lineage"])
    _, counts = np.unique(lineage, return_counts=True)
    assert counts.max() >= 50 * counts.min(), (
        "lineage frequencies must span orders of magnitude for the "
        "k1/k2/k3 rule"
    )


def test_nref_deterministic():
    a = generate_nref(scale=0.02, seed=99)
    b = generate_nref(scale=0.02, seed=99)
    assert (a["taxonomy"]["taxon_id"] == b["taxonomy"]["taxon_id"]).all()
    c = generate_nref(scale=0.02, seed=100)
    assert not (
        a["taxonomy"]["taxon_id"] == c["taxonomy"]["taxon_id"]
    ).all()


def test_tpch_catalog_tables_and_fks():
    catalog = tpch_catalog()
    assert len(catalog.table_names) == 8
    lineitem = catalog.table("lineitem")
    fk_targets = {fk.ref_table for fk in lineitem.foreign_keys}
    assert fk_targets == {"orders", "part", "supplier", "partsupp"}


def test_tpch_fk_integrity():
    data = generate_tpch(scale=0.1, zipf=1.0)
    orders = set(data["orders"]["o_orderkey"].tolist())
    assert set(data["lineitem"]["l_orderkey"].tolist()) <= orders
    ps_pairs = set(
        zip(
            data["partsupp"]["ps_partkey"].tolist(),
            data["partsupp"]["ps_suppkey"].tolist(),
        )
    )
    li_pairs = set(
        zip(
            data["lineitem"]["l_partkey"].tolist(),
            data["lineitem"]["l_suppkey"].tolist(),
        )
    )
    assert li_pairs <= ps_pairs, "lineitem -> partsupp composite FK"


def test_tpch_uniform_vs_skewed():
    uniform = generate_tpch(scale=0.2, zipf=0.0, seed=5)
    skewed = generate_tpch(scale=0.2, zipf=1.0, seed=5)

    def top_fraction(column):
        _, counts = np.unique(column, return_counts=True)
        return counts.max() / counts.sum()

    assert top_fraction(skewed["lineitem"]["l_partkey"]) > \
        5 * top_fraction(uniform["lineitem"]["l_partkey"])


def test_tpch_dates_consistent():
    data = generate_tpch(scale=0.05)
    ship = data["lineitem"]["l_shipdate"]
    receipt = data["lineitem"]["l_receiptdate"]
    okey = data["lineitem"]["l_orderkey"]
    odate = data["orders"]["o_orderdate"][okey - 1]
    assert (receipt > ship).all()
    assert (ship > odate).all()


def test_tpch_linenumbers_start_at_one():
    data = generate_tpch(scale=0.05)
    ln = data["lineitem"]["l_linenumber"]
    ok = data["lineitem"]["l_orderkey"]
    assert ln.min() == 1
    first_rows = np.flatnonzero(np.r_[True, ok[1:] != ok[:-1]])
    assert (ln[first_rows] == 1).all()


# SHA-256 over every generated column (dtype and bytes; strings as JSON),
# recorded before the generators' group ordinals moved from an argsort
# of the raw keys to the column dictionary's order.
GENERATED = {
    "nref": "326de0e783378c37dc6ee1f3013fdfd42c6c1aeab936c2d4acbcd263c94d33bc",
    "skth": "e648951b146ab03dd8ffa22afa005337d89bcce280278cfa69b0f080edaa3222",
    "unth": "931267efab8d1084fdd6086c817e7075ab1985a52ce907179c8bfc4ddfeb5871",
}


@pytest.mark.parametrize("dataset", sorted(GENERATED))
def test_generated_tables_are_pinned_bit_for_bit(dataset):
    tables = {
        "nref": lambda: generate_nref(scale=0.05),
        "skth": lambda: generate_tpch(scale=0.05, zipf=1.0),
        "unth": lambda: generate_tpch(scale=0.05, zipf=0.0),
    }[dataset]()
    sha = hashlib.sha256()
    for table in sorted(tables):
        for column in sorted(tables[table]):
            array = np.asarray(decoded(tables[table][column]))
            sha.update(f"{table}.{column}:{array.dtype}:".encode())
            if array.dtype == object:
                sha.update(json.dumps(array.tolist()).encode())
            else:
                sha.update(np.ascontiguousarray(array).tobytes())
    assert sha.hexdigest() == GENERATED[dataset]


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 50_000),
    size=st.integers(0, 20_000),
    z=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_guide_table_picks_are_choices(d, size, z, seed):
    """The guide-table search returns ``Generator.choice``'s picks and
    leaves the generator where ``choice`` leaves it."""
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    got = zipf_pick(ours, d, size, z)
    want = numpys.choice(d, size=size, p=zipf_weights(d, z))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert ours.bit_generator.state == numpys.bit_generator.state


ROWS = st.integers(0, 2_000)
SEEDS = st.integers(0, 2**32 - 1)


def assert_same_draws(draw, loop, seed):
    """``draw`` and the per-row reference ``loop`` give the same list
    from one seed and leave the generator in the same state."""
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw(ours)
    assert got.dtype == object
    assert got.tolist() == loop(reference)
    assert ours.bit_generator.state == reference.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(size=ROWS, mean_length=st.sampled_from([1, 10, 40, 97]), seed=SEEDS)
def test_property_sequences_are_one_choice_per_row(size, mean_length, seed):
    alphabet = np.array(list("ACDEFGHIKLMNPQRSTVWY"), dtype=object)

    def loop(rng):
        lengths = rng.poisson(mean_length, size).clip(10, 4 * mean_length)
        return ["".join(rng.choice(alphabet, int(n))) for n in lengths]

    assert_same_draws(
        lambda rng: sequence_strings(rng, size, mean_length), loop, seed
    )


@settings(max_examples=40, deadline=None)
@given(size=ROWS, seed=SEEDS)
def test_property_accessions_are_one_draw_per_row(size, seed):
    assert_same_draws(
        lambda rng: accessions(rng, size),
        lambda rng: [f"A{rng.integers(0, size * 2):09d}" for _ in range(size)],
        seed,
    )


@settings(max_examples=40, deadline=None)
@given(size=ROWS, seed=SEEDS)
def test_property_phone_numbers_are_four_draws_per_row(size, seed):
    assert_same_draws(
        lambda rng: phone_numbers(rng, size),
        lambda rng: [
            f"{rng.integers(10, 35)}-{rng.integers(100, 999)}-"
            f"{rng.integers(100, 999)}-{rng.integers(1000, 9999)}"
            for _ in range(size)
        ],
        seed,
    )


@settings(max_examples=30, deadline=None)
@given(size=ROWS, seed=SEEDS)
def test_property_name_pools_are_one_draw_per_entry(size, seed):
    def protein(rng):
        return [
            f"{GREEK[int(rng.integers(len(GREEK)))]}-"
            f"{PROTEIN_ROLES[int(rng.integers(len(PROTEIN_ROLES)))]} "
            f"{i % 97 + 1}"
            for i in range(size)
        ]

    def species(rng):
        stems = len(ORGANISM_STEMS)
        return [
            f"{ORGANISM_STEMS[i % stems]} "
            f"{ORGANISM_EPITHETS[int(rng.integers(len(ORGANISM_EPITHETS)))]}"
            f" {i // stems + 1}"
            for i in range(size)
        ]

    for kind, loop in (("protein", protein), ("species", species)):
        assert_same_draws(
            lambda rng, kind=kind: name_pool(rng, size, kind), loop, seed
        )


@pytest.mark.parametrize(
    "dataset, pooled", [("nref", 14), ("skth", 9), ("unth", 9)]
)
def test_loaded_columns_are_born_encoded(dataset, pooled, monkeypatch):
    """Every string column is stored as its dictionary — pooled
    columns read off their pool indices, the rest hashed or their
    own — equal to np.unique's of its values; the cache took each
    column's dictionary once and built none for a string column."""
    from_pool = ColumnDictionary.from_pool.__func__
    read_off_codes = []

    def spy(cls, pool, rows, hashed=None):
        read_off_codes.append(from_pool(cls, pool, rows, hashed))
        return read_off_codes[-1]

    monkeypatch.setattr(ColumnDictionary, "from_pool", classmethod(spy))
    database = {
        "nref": lambda: load_nref_database(system_a(), scale=0.05),
        "skth": lambda: load_tpch_database(system_c(), scale=0.05, zipf=1.0),
        "unth": lambda: load_tpch_database(system_c(), scale=0.05),
    }[dataset]()
    cache = database._cache("dict_cache")
    columns = [
        (table, column)
        for table in database.tables.values()
        for column in table.column_names()
    ]
    assert cache.stats.misses == len(columns)
    checked = 0
    for table, column in columns:
        values = table.column(column)
        assert values.dtype.kind in "if", (table.name, column)
        if table.schema.column(column).sql_type.kind != "str":
            continue
        cached = cache._entries[(table.name, column)][1]
        assert cached is table.dictionary(column)
        assert cached.base is values and cached.coded
        unique, inverse, counts = np.unique(
            table.decode(column), return_inverse=True, return_counts=True
        )
        for name, want in (
            ("values", unique), ("counts", counts),
            ("codes", inverse.astype(code_dtype_of(len(unique)))),
        ):
            got = getattr(cached, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), (
                table.name, column, name,
            )
        checked += 1
    assert checked
    assert sum(
        any(table.dictionary(column) is coded for coded in read_off_codes)
        for table, column in columns
    ) == pooled
