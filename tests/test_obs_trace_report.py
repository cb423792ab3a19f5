"""Trace JSONL round-trips, run reports, and CLI observability flags."""

import json

import pytest

from repro import obs
from repro.bench.cli import main
from repro.obs import (
    SchemaError,
    recording,
    validate_run_report,
    validate_trace_record,
)
from repro.obs.validate import main as validate_main


# ----------------------------------------------------------------------
# Trace files


def test_trace_jsonl_round_trip(tmp_path):
    with recording() as recorder:
        with obs.span("outer", label="x"):
            with obs.span("inner"):
                obs.counter_add("c", 2)
        obs.event("configuration", database="DB", configuration="P",
                  fingerprint="abc123")
    path = tmp_path / "trace.jsonl"
    written = recorder.write_trace(path)

    lines = path.read_text().splitlines()
    assert written == len(lines) == 3
    records = [json.loads(line) for line in lines]
    for record in records:
        validate_trace_record(record)
    # Spans first (ordered by id), then events (ordered by seq).
    assert [r["type"] for r in records] == ["span", "span", "event"]
    assert records[0]["span_id"] < records[1]["span_id"]
    by_name = {r["name"]: r for r in records if r["type"] == "span"}
    assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
    assert records[2]["payload"]["fingerprint"] == "abc123"


def test_validate_trace_record_rejects_malformed():
    with pytest.raises(SchemaError):
        validate_trace_record({"no": "type"})
    with pytest.raises(SchemaError):
        validate_trace_record({"type": "banana"})
    with pytest.raises(SchemaError):
        validate_trace_record(
            {"type": "span", "span_id": 0, "parent_id": None,
             "name": "x", "start": 1.0, "wall_s": 0.1}
        )  # span_id below minimum


def test_validate_run_report_rejects_missing_run_keys():
    with pytest.raises(SchemaError):
        validate_run_report({"schema": "repro.report/v1"})


# ----------------------------------------------------------------------
# CLI: --trace / --report / --metrics on a tiny fig3 run


FIG3_ARGS = ["run", "fig3", "--scale", "0.03", "--workload-size", "4"]


@pytest.fixture(scope="module")
def traced_fig3(tmp_path_factory):
    """One tiny traced fig3 run shared by the assertions below."""
    root = tmp_path_factory.mktemp("traced-fig3")
    trace = root / "trace.jsonl"
    report = root / "report.json"
    results = root / "results"
    code = main(FIG3_ARGS + [
        "--results-dir", str(results),
        "--trace", str(trace),
        "--report", str(report),
        "--metrics",
        "--stats",
    ])
    assert code == 0
    return {"trace": trace, "report": report, "results": results}


def test_traced_run_emits_valid_trace(traced_fig3):
    lines = traced_fig3["trace"].read_text().splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    for record in records:
        validate_trace_record(record)
    names = {r["name"] for r in records if r["type"] == "span"}
    assert "bench.experiment" in names
    assert "session.measure" in names
    assert "db.apply_configuration" in names


def test_traced_run_report_contents(traced_fig3):
    report = json.loads(traced_fig3["report"].read_text())
    validate_run_report(report)
    assert report["schema"] == "repro.report/v1"

    run = report["run"]
    assert run["seed"] == 405
    assert run["scale"] == 0.03
    assert run["experiments"] == ["fig3"]

    # Fingerprints for every configuration fig3 builds: P, 1C, and R.
    names = {key.split(":", 1)[1] for key in report["fingerprints"]}
    assert {"P", "1C"} <= names
    assert all(report["fingerprints"].values())

    assert "measure_workload" in report["stages"]
    assert report["stages"]["measure_workload"]["count"] >= 3

    caches = report["caches"]
    assert caches["artifact"]["stores"] > 0
    (db_caches,) = caches["databases"].values()
    assert db_caches["plan_cache"]["misses"] > 0
    assert db_caches["bind_cache"]["hits"] > 0
    # Tiny NREF: every integer column fits int16 and every string
    # column's dictionary holds at most 32 768 values, so its codes are
    # int16 too: none is stored wider.
    resident = db_caches["resident_bytes"]
    assert set(resident["tables"]) == {"float64", "int16"}
    assert all(resident["tables"].values())
    assert set(resident["dictionaries"]) == {
        "codes", "orders", "lexsorts", "values",
    }

    actuals = [m for m in report["measurements"] if m["kind"] == "A"]
    assert {m["configuration"] for m in actuals} >= {"P", "1C"}
    for measurement in actuals:
        assert len(measurement["per_query"]) == measurement["queries"] == 4
    # Every measured query looked its plan up in the measurement memo.
    memo = db_caches["measure_cache"]
    assert memo["hits"] + memo["misses"] \
        == sum(m["queries"] for m in actuals)

    assert report["metrics"]["counters"]["engine.queries_executed"] > 0


def test_traced_run_passes_module_validator(traced_fig3, capsys):
    code = validate_main([
        "--trace", str(traced_fig3["trace"]),
        "--report", str(traced_fig3["report"]),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace OK" in out and "report OK" in out


def test_observability_flags_do_not_change_results(traced_fig3, tmp_path):
    plain = tmp_path / "results-plain"
    code = main(FIG3_ARGS + ["--results-dir", str(plain)])
    assert code == 0
    traced_text = (traced_fig3["results"] / "fig3.txt").read_bytes()
    assert (plain / "fig3.txt").read_bytes() == traced_text


def test_recorder_restored_after_cli_run(traced_fig3):
    assert not obs.is_enabled()


# ----------------------------------------------------------------------
# Report-backed --stats output


def test_stats_report_text_matches_report_backing(traced_fig3, tmp_path):
    from repro.bench.context import BenchContext, BenchSettings

    context = BenchContext(BenchSettings(scale=0.03, workload_size=4))
    context.database("A", "nref")
    text = context.stats_report()
    assert "bench stage timings" in text
    assert "artifact cache" in text
    assert "plan cache" in text
    assert "db A/nref: resident columns" in text
    report = context.run_report()
    validate_run_report(report)
    assert obs.render_text(report) == text
