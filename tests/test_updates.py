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
    proteins = set(tiny_nref.table("protein").column("nref_id").tolist())
    assert set(batch["nref_id_1"].tolist()) <= proteins
    assert set(batch["nref_id_2"].tolist()) <= proteins
    assert len(batch["ordinal"]) == 500
    assert (batch["end_1"] > batch["start_1"]).all()


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
