"""Statistics collection and selectivity primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.column_stats import ColumnStats
from repro.stats.table_stats import TableStats
from repro.storage.encoding import DictionaryCache


def test_empty_column():
    stats = ColumnStats.collect("c", [])
    assert stats.row_count == 0
    assert stats.n_distinct == 0
    assert stats.eq_selectivity("x") == 0.0
    assert stats.frequency_selectivity("<", 4) == 0.0


def test_basic_counts():
    stats = ColumnStats.collect("c", ["a", "b", "a", "c", "a"])
    assert stats.row_count == 5
    assert stats.n_distinct == 3
    assert stats.mcv_values[0] == "a"
    assert stats.mcv_fractions[0] == pytest.approx(3 / 5)


def test_eq_selectivity_mcv_vs_uniform():
    values = ["hot"] * 90 + [f"cold{i}" for i in range(10)]
    stats = ColumnStats.collect("c", values)
    assert stats.eq_selectivity("hot") == pytest.approx(0.9)
    # Hypothetical mode ignores the MCVs: uniform 1/ndv.
    assert stats.eq_selectivity("hot", use_mcvs=False) == pytest.approx(
        1 / 11
    )


def test_frequency_selectivity_exact():
    # 4 values once each, 2 values three times each: freq profile known.
    values = ["u1", "u2", "u3", "u4", "t1", "t1", "t1", "t2", "t2", "t2"]
    stats = ColumnStats.collect("c", values)
    assert stats.frequency_selectivity("<", 4) == pytest.approx(1.0)
    assert stats.frequency_selectivity("<", 2) == pytest.approx(0.4)
    assert stats.frequency_selectivity("=", 3) == pytest.approx(0.6)
    assert stats.frequency_selectivity(">", 1) == pytest.approx(0.6)
    assert stats.frequency_selectivity(">=", 3) == pytest.approx(0.6)
    assert stats.frequency_selectivity("<=", 1) == pytest.approx(0.4)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(0, 30), min_size=1, max_size=300),
    threshold=st.integers(1, 20),
)
def test_property_frequency_selectivity_matches_brute_force(
    values, threshold
):
    """The frequency profile reproduces exact row fractions."""
    stats = ColumnStats.collect("c", values)
    arr = np.array(values)
    uniques, counts = np.unique(arr, return_counts=True)
    freq_of = dict(zip(uniques.tolist(), counts.tolist()))
    for op, fn in [
        ("<", lambda f: f < threshold),
        ("<=", lambda f: f <= threshold),
        ("=", lambda f: f == threshold),
        (">", lambda f: f > threshold),
        (">=", lambda f: f >= threshold),
    ]:
        expected = sum(1 for v in values if fn(freq_of[v])) / len(values)
        assert stats.frequency_selectivity(op, threshold) == pytest.approx(
            expected
        ), op


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.integers(-5, 5), min_size=1, max_size=200))
def test_property_eq_selectivities_sum_to_one(values):
    stats = ColumnStats.collect("c", values)
    total = sum(
        stats.eq_selectivity(v) for v in set(values)
    )
    assert total == pytest.approx(1.0, abs=0.05)


def test_table_stats_collection(city_db):
    stats = TableStats.collect(city_db.table("users"), DictionaryCache())
    assert stats.row_count == 500
    assert stats.column("city").n_distinct == 5
    assert stats.column("uid").n_distinct == 500
    assert stats.page_count >= 1
    with pytest.raises(Exception):
        stats.column("missing")
