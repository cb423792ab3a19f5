"""Tests of the benchmark itself, at the ``--smoke`` sizing.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root (about a minute).
"""

import functools
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import compare                                           # noqa: E402
import metrics                                           # noqa: E402
import run as runner                                     # noqa: E402
import tracing                                           # noqa: E402
import workloads                                         # noqa: E402

BENCHMARK = metrics.load_benchmark()
IN_PROCESS = ("fig4_nref3j", "fig8_skth3j", "sec44_insert_mix")


def command(*args):
    return [sys.executable, str(PERFBENCH / "run.py"), *args]


@functools.lru_cache(maxsize=None)
def smoke(workload, trace, seed=1, attempt=0):
    """One smoke run: ``(result line, full record, spans)``."""
    record = PERFBENCH / "out" / f"test-{workload}-{trace}.json"
    done = subprocess.run(
        command("--workload", workload, "--seed", str(seed), "--seconds",
                "1", "--trace", str(trace), "--smoke",
                "--record", str(record)),
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    spans = []
    if trace:
        trace_file = PERFBENCH / "out" / f"trace-{workload}.jsonl"
        spans = [json.loads(line)
                 for line in trace_file.read_text().splitlines()]
    full = json.loads(record.read_text())
    record.unlink()
    return json.loads(done.stdout.splitlines()[-1]), full, spans


def test_workload_names_match_the_declaration():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert declared == list(runner.NAMES) == list(workloads.WORKLOADS)
    for spec in metrics.STAGE_METRICS.values():
        assert set(spec[3]) <= set(declared)


@pytest.mark.parametrize("workload", runner.NAMES)
def test_metric_names_match_the_declaration(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, record, _ = smoke(workload, trace)
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} \
            == declared
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
            assert set(record["stage_metrics"]) == {
                name for name, spec in metrics.STAGE_METRICS.items()
                if workload in spec[3]
            }


@pytest.mark.parametrize("workload", runner.NAMES)
def test_spans_nest(workload):
    _, record, spans = smoke(workload, 1)
    by_id = {span["id"]: span for span in spans}
    assert len({span["run"] for span in spans}) == 1
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_self_times_add_up_to_the_wall_time(workload):
    _, record, spans = smoke(workload, 1)
    rows = [[s["id"], s["name"], s["start"], s["end"], s["parent"], None]
            for s in spans]
    timed = [row for row in rows if row[tracing.NAME] == "bench.run_timed"]
    own = tracing.self_times(rows)
    assert min(own.values()) >= -1e-9
    layers = tracing.layer_self_seconds(
        tracing.descendants(rows, timed), own
    )
    assert sum(layers.values()) == pytest.approx(
        record["end_to_end"]["wall_s"], rel=0.05
    )


def test_seed_changes_the_inputs_and_nothing_else():
    _, first, _ = smoke("fig4_nref3j", 0, seed=1)
    _, again, _ = smoke("fig4_nref3j", 0, seed=1, attempt=1)
    _, other, _ = smoke("fig4_nref3j", 0, seed=2)
    assert first["fingerprints"] == again["fingerprints"]
    assert first["counts"] == again["counts"]
    assert first["fingerprints"]["inputs"] != other["fingerprints"]["inputs"]
    # The queries are the pinned sample whatever the seed.
    assert first["fingerprints"]["workload"] \
        == other["fingerprints"]["workload"]
    assert first["fingerprints"]["figure"] == other["fingerprints"]["figure"]


def test_a_failing_check_raises_the_failed_share():
    run = workloads.Run("fig8_skth3j", 1, False, True, import_s=0.0)
    run.check(True, "fine")
    assert runner.result(run, {}, {})["correct"]
    run.check(False, "injected failure")
    result = runner.result(run, {}, {})
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (1, 2)
    assert run.record()["failures"] == ["injected failure"]


def test_a_knob_in_the_environment_is_refused():
    done = subprocess.run(
        command("--workload", "fig8_skth3j", "--seed", "1", "--seconds",
                "1", "--trace", "0", "--smoke"),
        env=dict(os.environ, REPRO_JOBS="2"),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "REPRO_JOBS" in done.stderr
    assert '"correct"' not in done.stdout


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8_skth3j",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict("lower", 0.10, steady, steady) == "ok"
    assert compare.verdict(
        "lower", 0.10, steady, [v * 1.2 for v in steady]
    ) == "regressed"
    assert compare.verdict(
        "higher", 0.10, steady, [v * 1.2 for v in steady]
    ) == "ok"
    assert compare.verdict(
        "higher", 0.10, steady, [v * 0.8 for v in steady]
    ) == "regressed"
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert compare.verdict("lower", 0.10, noisy, noisy) == "unresolved"
    # Every run of the change beats every run of the base: resolved.
    assert compare.verdict(
        "lower", 0.10, noisy, [v / 2 for v in noisy]
    ) == "ok"


def test_compare_flags_differences_and_counts_regressions():
    def document(wall, figure):
        return {"runs": [
            {"workload": "fig8_skth3j", "trace": 0,
             "end_to_end": {"wall_s": wall + i * 0.01, "setup_s": 1.0,
                            "peak_rss_mb": 100.0},
             "stage_metrics": {"recommend_s": 1.0},
             "fingerprints": {"figure": figure}, "counts": {"rows": 3}}
            for i in range(3)
        ]}

    out = io.StringIO()
    regressed = compare.compare(
        document(10.0, "aa"), document(13.0, "bb"), BENCHMARK, out
    )
    assert regressed == 1
    assert "wall_s" in out.getvalue() and "regressed" in out.getvalue()
    assert "DIFFERS fingerprint figure" in out.getvalue()
    assert compare.compare(
        document(10.0, "aa"), document(10.0, "aa"), BENCHMARK,
        io.StringIO(),
    ) == 0
