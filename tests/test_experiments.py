"""Every experiment driver runs end-to-end at a tiny scale.

These are integration tests for the harness plumbing; a full-scale run
is ``python -m repro.bench run <id>``.
"""

import pytest

from repro.bench.context import BenchContext, BenchSettings
from repro.bench import experiments


@pytest.fixture(scope="module")
def ctx():
    return BenchContext(
        BenchSettings(scale=0.04, workload_size=8, timeout=1800.0)
    )


def test_figure_1_2(ctx):
    result = experiments.figure_1_2(ctx)
    assert "Figure 1" in result.text
    assert "t_out" in result.text
    assert result.data["P"]["histogram"]


@pytest.mark.parametrize(
    "figure", ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]
)
def test_cfc_figures(ctx, figure):
    result = experiments.figure_cfc(figure, ctx)
    assert result.experiment == figure
    assert result.data["P"] is not None
    assert result.data["1C"] is not None
    cfc = result.data["1C"]["cfc"]
    assert cfc == sorted(cfc), "CFC curves are monotone"
    assert "goal" in result.data


def test_figure_4_has_no_recommendation(ctx):
    result = experiments.figure_cfc("fig4", ctx)
    # At tiny scale the candidate pool may stay under System A's limit;
    # the driver must handle both outcomes without error.
    assert "R" in result.data


def test_figure_10(ctx):
    result = experiments.figure_10(ctx)
    assert "EP" in result.data
    assert len(result.data["EP"]) == 8


def test_figure_11(ctx):
    result = experiments.figure_11(ctx)
    for label in ("AIR", "EIR", "HIR"):
        assert label in result.data
        assert "summary" in result.data[label]


def test_table_1(ctx):
    result = experiments.table_1(ctx)
    assert "A NREF P" in result.text
    assert "C UnTH 1C" in result.text
    p = result.data["A NREF P"]
    one_c = result.data["A NREF 1C"]
    assert one_c["bytes"] > p["bytes"]
    assert one_c["build_seconds"] > p["build_seconds"]


def test_table_2(ctx):
    result = experiments.table_2(ctx)
    assert "Totals" in result.text


def test_table_3(ctx):
    result = experiments.table_3(ctx)
    assert "Totals" in result.text


def test_section_4_3(ctx):
    result = experiments.section_4_3(ctx)
    assert "lower bound" in result.text
    assert result.data["P"]["lower_bound"] >= \
        result.data["P"]["completed_total"]


def test_section_4_4(ctx):
    result = experiments.section_4_4(ctx, batches=(1000, 5000))
    assert "ms/tuple" in result.text
    rates = result.data["insert_rate"]
    assert rates["1C"] > rates["P"], (
        "more indexes make inserts slower (the paper's §4.4 premise)"
    )


def test_section_4_4_leaves_the_database_as_it_found_it():
    """The probe inserts go into the context's shared database; whatever
    runs next must still measure the database the settings describe."""
    settings = BenchSettings(scale=0.04, workload_size=8, timeout=1800.0)

    def table_1_rows(context):
        reports = [
            context.build_report("A", "nref", "1C"),
            context.build_report("A", "nref", "R:NREF2J", family="NREF2J"),
        ]
        return [(r.total_bytes, r.build_seconds) for r in reports]

    alone = table_1_rows(BenchContext(settings))
    context = BenchContext(settings)
    db = context.database("A", "nref")
    rows = {name: table.row_count for name, table in db.tables.items()}
    proteins = db.table("neighboring_seq").column("nref_id_1").copy()
    experiments.section_4_4(context, batches=(1000,))
    assert {
        name: table.row_count for name, table in db.tables.items()
    } == rows
    assert (db.table("neighboring_seq").column("nref_id_1") == proteins).all()
    for data in db._built.index_data.values():
        assert data.entry_count == rows[data.definition.table]
    assert table_1_rows(context) == alone


def test_registry_covers_every_artifact():
    expected = {
        "fig1-2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        "fig9", "fig10", "fig11", "tab1", "tab2", "tab3", "sec43",
        "sec44",
    }
    assert set(experiments.ALL_EXPERIMENTS) == expected
