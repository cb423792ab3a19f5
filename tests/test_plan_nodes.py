"""Plan node helpers: describe strings, walk, explain rendering."""

from repro.index.definition import IndexDefinition
from repro.optimizer.environment import IndexInfo, ViewInfo
from repro.optimizer.plans import (
    HashAggregate,
    HashJoin,
    IndexNLJoin,
    IndexScan,
    PlanEstimate,
    SemiFilter,
    SemiIndexScan,
    SemiSource,
    SeqScan,
    ViewScan,
    explain,
    walk,
)
from repro.views.matview import MatViewDefinition, ViewColumn


def info_for(table="t", columns=("a",)):
    return IndexInfo.hypothetical_on(
        IndexDefinition(table=table, columns=columns), 1000, 8
    )


def test_describe_strings():
    scan = SeqScan(alias="x", table="t", columns=["a"])
    assert scan.describe() == "SeqScan(x=t)"

    ix = IndexScan(alias="x", table="t", index=info_for(), columns=["a"])
    assert "IndexScan(x=t via [a])" == ix.describe()
    ix.index_only = True
    assert ix.describe().startswith("IndexOnlyScan")

    inl = IndexNLJoin(
        outer=scan, alias="y", table="t", index=info_for(),
        outer_key="x.a", inner_column="a", columns=["a"],
    )
    assert "IndexNLJoin(x.a -> y.a via [a])" == inl.describe()
    inl.index_only = True
    assert inl.describe().startswith("IndexOnlyNLJoin")

    join = HashJoin(scan, scan, ["x.a"], ["x.a"])
    assert "x.a=x.a" in join.describe()

    agg = HashAggregate(scan, [], [])
    assert "ALL" in agg.describe()

    vdef = MatViewDefinition(
        tables=("t",), group_columns=(ViewColumn("t", "a"),)
    )
    vs = ViewScan(
        view=ViewInfo(vdef, 10, 1, 16),
        aliases=("x",),
        column_map={"x.a": "t__a"},
    )
    assert vdef.name in vs.describe()


def test_semi_source_describe():
    class FakeSemi:
        sub_table = "t"
        sub_column = "a"
        having_op = "<"
        having_value = 4

    source = SemiSource(semi=FakeSemi(), via="index_only")
    assert "semi[index_only] t.a < 4" == source.describe()


def test_walk_and_explain():
    left = SeqScan(alias="x", table="t", columns=["a"])
    left.est = PlanEstimate(10, 8, 1.0)
    right = SeqScan(alias="y", table="u", columns=["b"])
    right.est = PlanEstimate(10, 8, 1.0)
    join = HashJoin(left, right, ["x.a"], ["y.b"])
    join.est = PlanEstimate(20, 16, 3.0)
    agg = HashAggregate(join, ["x.a"], [])
    agg.est = PlanEstimate(5, 16, 4.0)

    nodes = list(walk(agg))
    assert len(nodes) == 4
    text = explain(agg)
    assert "HashAggregate" in text and "HashJoin" in text
    assert text.count("SeqScan") == 2
    assert "rows=5" in text


def test_explain_shows_semi_filters():
    class FakeSemi:
        sub_table = "t"
        sub_column = "a"
        having_op = "="
        having_value = 2

    source = SemiSource(semi=FakeSemi(), via="scan")
    scan = SeqScan(
        alias="x", table="t", columns=["a"],
        semi_filters=[SemiFilter(key="x.a", source=source)],
    )
    scan.est = PlanEstimate(10, 8, 1.0)
    assert "[semi] semi[scan] t.a = 2" in explain(scan)


def test_semi_index_scan_describe():
    class FakeSemi:
        sub_table = "t"
        sub_column = "a"
        having_op = "<"
        having_value = 4

    source = SemiSource(semi=FakeSemi(), via="scan")
    node = SemiIndexScan(
        alias="x", table="t", index=info_for(),
        driving=SemiFilter(key="x.a", source=source),
        columns=["a"],
    )
    assert "SemiIndexScan(x=t via [a] driven by semi[scan] t.a < 4)" \
        == node.describe()
