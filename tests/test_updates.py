"""Insert workloads and the break-even arithmetic."""

import numpy as np
import pytest

from repro.engine.configuration import (
    one_column_configuration,
    primary_configuration,
)
from repro.workload.updates import (
    break_even_inserts,
    nref_neighboring_batch,
)


def test_nref_batch_is_fk_consistent(tiny_nref):
    batch = nref_neighboring_batch(tiny_nref, 500)
    proteins = set(tiny_nref.table("protein").decode("nref_id").tolist())
    assert set(batch["nref_id_1"].tolist()) <= proteins
    assert set(batch["nref_id_2"].tolist()) <= proteins
    assert len(batch["ordinal"]) == 500
    assert (batch["end_1"] > batch["start_1"]).all()


def test_nref_batch_follows_its_seed(tiny_nref):
    """The same seed draws the same batch, another seed another one:
    Section 4.4's inserts are as seed-addressed as the workloads."""
    first = nref_neighboring_batch(tiny_nref, 100, seed=5)
    again = nref_neighboring_batch(tiny_nref, 100, seed=5)
    other = nref_neighboring_batch(tiny_nref, 100, seed=6)
    assert first.keys() == again.keys() == other.keys()
    assert all(np.array_equal(first[c], again[c]) for c in first)
    assert not all(np.array_equal(first[c], other[c]) for c in first)


def test_nref_batch_inserts_cleanly(tiny_nref):
    before = tiny_nref.table("neighboring_seq").row_count
    batch = nref_neighboring_batch(tiny_nref, 200)
    seconds = tiny_nref.insert_rows("neighboring_seq", batch)
    assert seconds > 0
    assert tiny_nref.table("neighboring_seq").row_count == before + 200


def test_break_even_arithmetic():
    # 1C inserts at 2 ms/tuple, R at 1 ms/tuple; 1C saves 400 s per
    # workload run -> 400 / 0.001 = 400k tuples (the paper's figure).
    assert break_even_inserts(0.002, 0.001, 400.0) == pytest.approx(
        400_000
    )
    # 20 repetitions scale it 20x (the paper's ~10%-of-database reading).
    assert break_even_inserts(0.002, 0.001, 400.0, repetitions=20) == \
        pytest.approx(8_000_000)
    assert break_even_inserts(0.001, 0.002, 400.0) == float("inf")


def test_insert_rates_ordering_with_configs():
    from conftest import load_city_database
    from repro.workload.updates import break_even_inserts as bei

    del bei
    db = load_city_database(n_users=500, n_orders=3000)
    batch = {
        "oid": np.arange(50_000, 50_500),
        "uid": np.arange(500) % 500,
        "city": np.array(["tor"] * 500, dtype=object),
        "amount": np.ones(500, dtype=np.int64),
    }
    db.apply_configuration(primary_configuration(db.catalog))
    p_rate = db.insert_rows("orders", batch) / 500

    db2 = load_city_database(n_users=500, n_orders=3000)
    db2.apply_configuration(one_column_configuration(db2.catalog))
    c_rate = db2.insert_rows("orders", batch) / 500
    assert c_rate > p_rate


def test_the_insert_loop_widens_ordinal_and_wraps_nothing():
    """Section 4.4's loop at a small scale: under 1C, rounds of one
    ``neighboring_seq`` batch and a burst of NREF2J queries.  The
    batches number their rows from the table's row count on, past
    int16, so ``ordinal`` widens to int32; afterwards every column
    equals an int64 (or float, or object) reference kept beside the
    table, and every index on it a from-scratch build."""
    from repro.bench.context import BenchContext, BenchSettings
    from repro.index.data import IndexData
    from repro.storage.encoding import DictionaryCache

    context = BenchContext(BenchSettings(scale=0.05, workload_size=5))
    database = context.database("A", "nref")
    queries = [q.sql for q in context.workload("A", "NREF2J")]
    database.apply_configuration(context.one_c_configuration(database))
    table = database.table("neighboring_seq")
    assert table.decode("ordinal").dtype == np.int16
    assert table.row_count > np.iinfo(np.int16).max
    schema = table.schema
    reference = {
        c.name: table.decode(c.name).astype(c.sql_type.numpy_dtype())
        for c in schema.columns
    }
    for round_ in range(3):
        batch = nref_neighboring_batch(database, 50, seed=round_)
        for c in schema.columns:
            reference[c.name] = np.concatenate([
                reference[c.name],
                np.asarray(batch[c.name], dtype=c.sql_type.numpy_dtype()),
            ])
        database.insert_rows("neighboring_seq", batch)
        for sql in queries:
            database.execute(sql)
    assert table.decode("ordinal").dtype == np.int32
    for name, want in reference.items():
        assert table.decode(name).tolist() == want.tolist(), name
    for ix in database.configuration.indexes:
        if ix.table != "neighboring_seq":
            continue
        have = database._built.index_data[ix.name]
        want = IndexData(ix, table, DictionaryCache(),
                         database.system.index_overhead)
        for a, b in zip(
                (have.row_ids, have.values, have.offsets,
                 *have.inner_columns),
                (want.row_ids, want.values, want.offsets,
                 *want.inner_columns)):
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), ix.name
