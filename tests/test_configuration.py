"""Configurations: P, 1C, composition, width histograms, sizes."""

import pytest

from repro.common.errors import ConfigurationError
from repro.engine.configuration import (
    Configuration,
    one_column_configuration,
    primary_configuration,
)
from repro.index.definition import IndexDefinition

from conftest import make_city_catalog


def test_primary_configuration_has_pk_indexes_only():
    config = primary_configuration(make_city_catalog())
    assert config.name == "P"
    assert {ix.table for ix in config.indexes} == {"users", "orders"}
    assert all(ix.is_primary for ix in config.indexes)
    assert config.secondary_indexes() == []


def test_one_column_covers_every_indexable_column():
    catalog = make_city_catalog()
    config = one_column_configuration(catalog)
    secondary = config.secondary_indexes()
    expected = sum(
        len(schema.indexable_columns()) for schema in catalog.tables()
    )
    assert len(secondary) == expected
    assert all(ix.width == 1 for ix in secondary)


def test_nref_one_column_skips_nonindexable(tiny_nref):
    config = one_column_configuration(tiny_nref.catalog)
    assert not any(
        ix.columns == ("sequence",) for ix in config.indexes
    ), "the sequence blob is not indexable"


def test_duplicate_indexes_rejected():
    ix = IndexDefinition(table="t", columns=("a",))
    with pytest.raises(ConfigurationError):
        Configuration(name="X", indexes=(ix, ix))


def test_with_indexes_deduplicates():
    ix = IndexDefinition(table="t", columns=("a",))
    config = Configuration(name="X", indexes=(ix,))
    extended = config.with_indexes([ix, IndexDefinition("t", ("b",))])
    assert len(extended.indexes) == 2


def test_width_histogram():
    config = Configuration(
        name="X",
        indexes=(
            IndexDefinition("t", ("a",)),
            IndexDefinition("t", ("a", "b")),
            IndexDefinition("t", ("a", "b", "c")),
            IndexDefinition("u", ("x",)),
            IndexDefinition("u", ("y",), is_primary=True),
        ),
    )
    histogram = config.index_width_histogram()
    assert histogram["t"] == [1, 1, 1, 0]
    assert histogram["u"] == [1, 0, 0, 0]


def test_build_report_sizes(city_db):
    catalog = city_db.catalog
    p_report = city_db.apply_configuration(primary_configuration(catalog))
    c_report = city_db.apply_configuration(
        one_column_configuration(catalog)
    )
    assert c_report.index_bytes > p_report.index_bytes
    assert c_report.build_seconds > p_report.build_seconds
    assert c_report.heap_bytes == p_report.heap_bytes
    assert c_report.total_bytes > p_report.total_bytes


def test_estimated_bytes_close_to_built(city_db):
    config = one_column_configuration(city_db.catalog)
    estimated = city_db.estimated_configuration_bytes(config)
    report = city_db.apply_configuration(config)
    assert estimated == pytest.approx(report.index_bytes, rel=0.35)


def test_estimated_bytes_add_up_structure_by_structure(city_db):
    """``bytes(base + candidate) == bytes(base) + bytes(candidate's
    structures)``: an index is sized from its own table or view."""
    from repro.views.matview import MatViewDefinition, ViewColumn

    base = one_column_configuration(city_db.catalog)
    view = MatViewDefinition(
        tables=("orders",),
        group_columns=(ViewColumn("orders", "uid"),
                       ViewColumn("orders", "city")),
    )
    pairs = MatViewDefinition(
        tables=("users", "orders"),
        join_pred=(("users", "uid"), ("orders", "uid")),
        group_columns=(ViewColumn("users", "city"),),
    )
    candidates = [
        Configuration("c", indexes=(
            IndexDefinition("orders", ("uid", "city")),
        )),
        Configuration("c", views=(view,), indexes=(
            IndexDefinition(view.name, ("orders__uid",)),
        )),
        Configuration("c", views=(pairs,)),
    ]
    size = city_db.estimated_configuration_bytes
    current = base
    for candidate in candidates:
        trial = current.with_views(candidate.views) \
            .with_indexes(candidate.indexes)
        assert size(candidate) > 0
        assert size(trial) == size(current) + size(candidate)
        current = trial


def test_system_overheads_change_sizes(tiny_nref):
    from repro.engine.systems import system_a, system_b
    from repro.engine.configuration import one_column_configuration
    from repro.datagen.nref import load_nref_database

    db_a = tiny_nref
    db_b = load_nref_database(system_b(), scale=0.05)
    config = one_column_configuration(db_a.catalog)
    bytes_a = db_a.estimated_configuration_bytes(config)
    bytes_b = db_b.estimated_configuration_bytes(config)
    assert bytes_a > bytes_b, (
        "System A's bulkier index format mirrors Table 1 "
        "(A NREF 1C = 35.7 GB vs B NREF 1C = 17.1 GB)"
    )
    assert system_a().index_overhead > system_b().index_overhead


def test_renamed_preserves_contents():
    config = one_column_configuration(make_city_catalog())
    renamed = config.renamed("other")
    assert renamed.name == "other"
    assert renamed.indexes == config.indexes
