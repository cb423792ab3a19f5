"""The CLI and the shared bench context."""

import pathlib

import pytest

from repro.bench.cli import main
from repro.bench.context import (
    BenchContext,
    BenchSettings,
    FAMILY_DATASET,
    FAMILY_GENERATORS,
)


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment in ("fig3", "fig10", "tab1", "sec44"):
        assert experiment in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["run", "nope"])


def test_cli_runs_one_experiment(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "run", "tab2",
        "--scale", "0.04",
        "--workload-size", "6",
        "--results-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    assert (tmp_path / "out" / "tab2.txt").exists()
    assert "Table 2" in capsys.readouterr().out


def test_family_registries_consistent():
    assert set(FAMILY_GENERATORS) == set(FAMILY_DATASET)
    assert set(FAMILY_DATASET.values()) == {"nref", "skth", "unth"}


def test_context_caches_database_and_workload():
    ctx = BenchContext(BenchSettings(scale=0.03, workload_size=5))
    db1 = ctx.database("A", "nref")
    db2 = ctx.database("A", "nref")
    assert db1 is db2
    w1 = ctx.workload("A", "NREF2J")
    w2 = ctx.workload("A", "NREF2J")
    assert w1 is w2
    assert len(w1) == 5


def test_context_budget_positive():
    ctx = BenchContext(BenchSettings(scale=0.03, workload_size=5))
    db = ctx.database("A", "nref")
    assert ctx.space_budget(db) > 0


def test_context_measure_caches_and_reapplies():
    ctx = BenchContext(BenchSettings(scale=0.03, workload_size=5))
    m1 = ctx.measure("A", "NREF2J", "P")
    m2 = ctx.measure("A", "NREF2J", "P")
    assert m1 is m2
    m1c = ctx.measure("A", "NREF2J", "1C")
    assert m1c.configuration == "1C"
    assert len(m1c) == len(m1)


def test_context_builds_recommended_configuration_once(monkeypatch):
    """``build_report("R")`` applies the recommendation renamed to "R";
    ``measure("R")`` resolves it as "<family>_R".  Same fingerprint, so
    the second must find it built instead of rebuilding it."""
    ctx = BenchContext(BenchSettings(scale=0.03, workload_size=5))
    db = ctx.database("B", "nref")
    applied = []
    apply_configuration = db.apply_configuration

    def counting(config):
        applied.append(config.name)
        return apply_configuration(config)

    monkeypatch.setattr(db, "apply_configuration", counting)
    assert ctx.build_report("B", "nref", "R", family="NREF2J") is not None
    assert ctx.measure("B", "NREF2J", "R") is not None
    assert applied == ["R"]


def test_results_dir_artifacts_exist_after_bench(tmp_path):
    # The bench fixture writes results/<id>.txt; emulate it here.
    from repro.bench.experiments import ExperimentResult

    result = ExperimentResult("x", "t", "body")
    path = tmp_path / f"{result.experiment}.txt"
    path.write_text(str(result))
    assert "body" in pathlib.Path(path).read_text()
