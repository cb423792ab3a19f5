"""ArtifactCache: memory/disk behavior and warm BenchContext reuse."""

import threading

import numpy as np

from repro.bench.context import BenchContext, BenchSettings
from repro.runtime.artifacts import ArtifactCache, StageTimings, artifact_key


def test_memory_roundtrip_without_directory():
    cache = ArtifactCache(directory=None)
    key = artifact_key("a", 1.0)
    assert cache.get("kind", key) is None
    cache.put("kind", key, {"x": 1})
    assert cache.get("kind", key) == {"x": 1}
    assert cache.directory is None
    snap = cache.snapshot()
    assert snap["memory_hits"] == 1
    assert snap["misses"] == 1


def test_get_or_build_builds_once():
    cache = ArtifactCache(directory=None)
    calls = []

    def builder():
        calls.append(1)
        return 42

    key = artifact_key("expensive")
    assert cache.get_or_build("kind", key, builder) == 42
    assert cache.get_or_build("kind", key, builder) == 42
    assert len(calls) == 1


def test_disk_persistence_across_instances(tmp_path):
    first = ArtifactCache(tmp_path)
    key = artifact_key("measurement", "A", "NREF2J")
    value = {"elapsed": np.arange(5.0)}
    first.put("measurement", key, value)

    second = ArtifactCache(tmp_path)      # a fresh process, effectively
    loaded = second.get("measurement", key)
    assert np.array_equal(loaded["elapsed"], value["elapsed"])
    assert second.snapshot()["disk_hits"] == 1


def test_unpicklable_artifacts_degrade_to_memory_only(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = artifact_key("lock")
    cache.put("kind", key, threading.Lock())      # not picklable
    assert cache.get("kind", key) is not None     # memory still works
    fresh = ArtifactCache(tmp_path)
    assert fresh.get("kind", key) is None         # nothing hit the disk


def test_stage_timings_accumulate():
    timings = StageTimings()
    with timings.stage("build"):
        pass
    with timings.stage("build"):
        pass
    snap = timings.snapshot()
    assert snap["build"]["count"] == 2
    assert snap["build"]["seconds"] >= 0


def test_bench_context_warm_start_from_disk(tmp_path):
    settings = BenchSettings(scale=0.03, workload_size=5)
    cold = BenchContext(settings, artifacts=ArtifactCache(tmp_path))
    cold_m = cold.measure("A", "NREF2J", "P")

    warm = BenchContext(settings, artifacts=ArtifactCache(tmp_path))
    warm_m = warm.measure("A", "NREF2J", "P")
    assert np.array_equal(cold_m.elapsed, warm_m.elapsed)
    assert np.array_equal(cold_m.timed_out, warm_m.timed_out)
    # The warm context answered from disk without rebuilding anything.
    assert warm.artifacts.snapshot()["disk_hits"] >= 1
    assert "measure_workload" not in warm.timings.snapshot()


def test_bench_context_key_isolation(tmp_path):
    """Different settings must never share artifact entries."""
    a = BenchContext(
        BenchSettings(scale=0.03, workload_size=5),
        artifacts=ArtifactCache(tmp_path),
    )
    b = BenchContext(
        BenchSettings(scale=0.03, workload_size=3),
        artifacts=ArtifactCache(tmp_path),
    )
    wa = a.workload("A", "NREF2J")
    wb = b.workload("A", "NREF2J")
    assert len(wa) == 5
    assert len(wb) == 3


def test_bench_context_stats_report_mentions_caches():
    ctx = BenchContext(BenchSettings(scale=0.03, workload_size=5))
    ctx.measure("A", "NREF2J", "P")
    report = ctx.stats_report()
    assert "bench stage timings" in report
    assert "artifact cache" in report
    assert "plan cache" in report
