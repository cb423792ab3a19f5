"""Tests for repro.server: sessions, queueing, HTTP, report parity."""

import json

import pytest

from repro import obs
from repro.bench.context import BenchContext, BenchSettings
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.server import (
    BadJobSpec,
    ServerError,
    SessionLimitError,
    SessionStore,
    TenantContext,
    TuningClient,
    TuningServer,
    UnknownSessionError,
    parse_spec,
)

TINY = dict(scale=0.02, workload_size=4)


def tiny_settings():
    return BenchSettings(scale=0.02, workload_size=4)


# ----------------------------------------------------------------------
# SessionStore: eviction, TTL, pinning


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def test_store_assigns_sequential_ids_and_touches_lru():
    store = SessionStore(max_sessions=4)
    a = store.create("acme")
    b = store.create("biotech")
    assert a.session_id == "s-000001"
    assert b.session_id == "s-000002"
    assert store.get(a.session_id) is a
    assert len(store) == 2


def test_store_evicts_least_recently_used_idle_session():
    store = SessionStore(max_sessions=2)
    a = store.create("a")
    b = store.create("b")
    store.get(a.session_id)            # a is now most recently used
    c = store.create("c")              # evicts b, not a
    assert store.get(a.session_id) is a
    assert store.get(c.session_id) is c
    with pytest.raises(UnknownSessionError):
        store.get(b.session_id)
    assert store.snapshot()["evicted"] == 1


def test_store_never_evicts_sessions_with_jobs_in_flight():
    store = SessionStore(max_sessions=2)
    a = store.create("a")
    b = store.create("b")
    store.acquire_job(a.session_id)
    store.acquire_job(b.session_id)
    with pytest.raises(SessionLimitError):
        store.create("c")
    store.release_job(a.session_id)
    c = store.create("c")              # now a (idle, LRU) is evictable
    assert store.get(c.session_id) is c
    with pytest.raises(UnknownSessionError):
        store.get(a.session_id)


def test_store_expires_idle_sessions_after_ttl():
    clock = FakeClock()
    store = SessionStore(max_sessions=4, ttl_seconds=60.0, clock=clock)
    a = store.create("a")
    clock.now += 30.0
    b = store.create("b")
    clock.now += 45.0                  # a idle 75 s > ttl; b idle 45 s
    assert store.get(b.session_id) is b
    with pytest.raises(UnknownSessionError):
        store.get(a.session_id)
    assert store.snapshot()["expired"] == 1


def test_store_ttl_spares_pinned_sessions():
    clock = FakeClock()
    store = SessionStore(max_sessions=4, ttl_seconds=60.0, clock=clock)
    a = store.create("a")
    store.acquire_job(a.session_id)
    clock.now += 600.0
    assert store.get(a.session_id) is a      # pinned: not expired
    store.release_job(a.session_id)
    clock.now += 600.0
    with pytest.raises(UnknownSessionError):
        store.get(a.session_id)


def test_remove_refuses_busy_session_then_deletes():
    store = SessionStore(max_sessions=4)
    a = store.create("a")
    store.acquire_job(a.session_id)
    with pytest.raises(SessionLimitError):
        store.remove(a.session_id)
    store.release_job(a.session_id)
    store.remove(a.session_id)
    with pytest.raises(UnknownSessionError):
        store.get(a.session_id)


# ----------------------------------------------------------------------
# Scope stores: a tenant's artifacts outlive its session


def test_recreated_session_takes_its_scopes_store():
    store = SessionStore(max_sessions=4)
    first = store.create("acme", tiny_settings())
    store.remove(first.session_id)
    again = store.create("acme", tiny_settings(), system="B")
    assert again.session_id != first.session_id
    assert again.context is not first.context
    assert again.context.artifacts is first.context.artifacts
    # Two resident sessions of one scope share it too.
    both = store.create("acme", tiny_settings())
    assert both.context.artifacts is first.context.artifacts
    assert store.artifacts_snapshot()["retained"] == 1


def test_other_settings_get_another_store():
    store = SessionStore(max_sessions=4)
    base = store.create("acme", tiny_settings())
    reseeded = store.create(
        "acme", BenchSettings(scale=0.02, workload_size=4, seed=406)
    )
    wider = store.create(
        "acme", BenchSettings(scale=0.02, workload_size=4, jobs=2)
    )
    assert reseeded.context.artifacts is not base.context.artifacts
    # ``jobs`` is no part of the content key: same scope, same store.
    assert wider.context.artifacts is base.context.artifacts
    assert store.artifacts_snapshot()["retained"] == 2


def test_recreated_tenants_never_share_a_store_or_a_database():
    store = SessionStore(max_sessions=4)
    seen = {"acme": [], "biotech": []}
    for _ in range(3):                 # created, then re-created twice
        for tenant, kept in seen.items():
            session = store.create(tenant, tiny_settings())
            context = session.context
            context.measure("A", "NREF2J", "1C")
            kept.append((context.artifacts, context.database("A", "nref")))
            store.remove(session.session_id)
    for kept in seen.values():
        # One store and one live database per tenant, kept across its
        # sessions.
        assert len({id(artifacts) for artifacts, _ in kept}) == 1
        assert len({id(db) for _, db in kept}) == 1
    acme, biotech = seen["acme"][0], seen["biotech"][0]
    assert acme[0] is not biotech[0]
    assert acme[1] is not biotech[1]


def test_store_retains_at_most_max_sessions_scopes_lru():
    clock = FakeClock()
    store = SessionStore(max_sessions=2, clock=clock)
    kept = {}
    for tenant in ("a", "b"):
        clock.now += 1.0
        session = store.create(tenant, tiny_settings())
        kept[tenant] = session.context.artifacts
        store.remove(session.session_id)
    clock.now += 1.0
    store.remove(store.create("a", tiny_settings()).session_id)  # a: MRU
    c = store.create("c", tiny_settings())   # evicts b's scope, not a's
    assert store.artifacts_snapshot()["retained"] == 2
    store.remove(c.session_id)
    assert store.create("a", tiny_settings()).context.artifacts \
        is kept["a"]
    assert store.create("b", tiny_settings()).context.artifacts \
        is not kept["b"]


def test_store_never_evicts_a_scope_a_resident_session_uses():
    clock = FakeClock()
    store = SessionStore(max_sessions=2, clock=clock)
    a = store.create("a", tiny_settings())   # resident, LRU scope
    clock.now += 1.0
    store.remove(store.create("b", tiny_settings()).session_id)
    store.create("c", tiny_settings())       # evicts b's scope
    assert store.get(a.session_id).context.artifacts is \
        store.create("a", tiny_settings()).context.artifacts


def test_scope_store_expires_after_ttl_of_idleness():
    clock = FakeClock()
    store = SessionStore(max_sessions=4, ttl_seconds=60.0, clock=clock)
    first = store.create("a", tiny_settings())
    artifacts = first.context.artifacts
    clock.now += 50.0
    store.get(first.session_id)              # the session's last use
    store.remove(first.session_id)
    clock.now += 50.0                        # idle 50 s <= ttl: kept
    second = store.create("a", tiny_settings())
    assert second.context.artifacts is artifacts
    clock.now += 600.0                       # the session, then its scope
    # The snapshot sweeps by itself: no other call ran since.
    assert store.artifacts_snapshot()["retained"] == 0
    assert store.sessions() == []
    assert store.create("a", tiny_settings()).context.artifacts \
        is not artifacts


def test_a_tenants_new_scope_drops_its_idle_stores():
    store = SessionStore(max_sessions=8)
    for seed in (405, 406, 407):
        session = store.create(
            "acme", BenchSettings(scale=0.02, workload_size=4, seed=seed)
        )
        store.remove(session.session_id)
    other = store.create("biotech", tiny_settings())
    store.remove(other.session_id)
    # acme keeps only its last idle store; biotech's is untouched.
    assert store.artifacts_snapshot()["retained"] == 2
    assert store.create("biotech", tiny_settings()).context.artifacts \
        is other.context.artifacts
    # A store a resident session uses is never dropped.
    live = store.create("acme", tiny_settings())
    store.create("acme", BenchSettings(scale=0.02, workload_size=4,
                                       seed=406))
    assert store.get(live.session_id).context.artifacts is \
        store.create("acme", tiny_settings()).context.artifacts


def test_remove_with_drop_artifacts_drops_an_unused_store():
    store = SessionStore(max_sessions=4)
    one = store.create("acme", tiny_settings())
    two = store.create("acme", tiny_settings())
    store.remove(one.session_id, drop_artifacts=True)   # two still uses it
    assert store.artifacts_snapshot()["retained"] == 1
    store.remove(two.session_id, drop_artifacts=True)
    assert store.artifacts_snapshot()["retained"] == 0
    assert store.create("acme", tiny_settings()).context.artifacts \
        is not two.context.artifacts


def test_scope_of_a_pinned_session_does_not_expire():
    clock = FakeClock()
    store = SessionStore(max_sessions=4, ttl_seconds=60.0, clock=clock)
    a = store.create("a", tiny_settings())
    store.acquire_job(a.session_id)
    clock.now += 600.0
    store.sessions()                         # sweeps
    assert store.artifacts_snapshot()["retained"] == 1
    store.release_job(a.session_id)
    store.remove(a.session_id)
    assert store.create("a", tiny_settings()).context.artifacts \
        is a.context.artifacts


# ----------------------------------------------------------------------
# Tenant isolation


def test_tenant_contexts_use_distinct_artifact_keys():
    settings = tiny_settings()
    acme = TenantContext("acme", settings)
    biotech = TenantContext("biotech", settings)
    plain = BenchContext(settings)
    assert acme._key("workload", "A", "NREF2J") != \
        biotech._key("workload", "A", "NREF2J")
    assert acme._key("workload", "A", "NREF2J") != \
        plain._key("workload", "A", "NREF2J")


def test_two_tenants_measure_identical_results_with_isolated_caches():
    settings = tiny_settings()
    acme = TenantContext("acme", settings)
    biotech = TenantContext("biotech", settings)
    a = acme.measure("A", "NREF2J", "1C")
    b = biotech.measure("A", "NREF2J", "1C")
    assert a.elapsed.tolist() == b.elapsed.tolist()
    assert a.timed_out.tolist() == b.timed_out.tolist()
    # Isolation: each context built its own database instances.
    assert acme.live_databases() and biotech.live_databases()
    acme_dbs = {id(db) for _, db in acme.live_databases()}
    biotech_dbs = {id(db) for _, db in biotech.live_databases()}
    assert not (acme_dbs & biotech_dbs)


# ----------------------------------------------------------------------
# Job-spec parsing


def test_parse_spec_experiment_and_family():
    kind, spec = parse_spec({"experiment": "fig3"})
    assert (kind, spec) == ("experiment", {"experiment": "fig3"})
    kind, spec = parse_spec({"family": "NREF2J"}, default_system="B")
    assert kind == "workload"
    assert spec["system"] == "B"
    assert spec["configurations"] == ["P", "1C", "R"]


@pytest.mark.parametrize("body", [
    "not a dict",
    {},
    {"experiment": "nope"},
    {"experiment": "fig3", "family": "NREF2J"},
    {"experiment": "ablation-budget"},
    {"family": "NOPE"},
    {"family": "NREF2J", "configurations": []},
    {"family": "NREF2J", "configurations": ["P", "XX"]},
    {"family": "NREF2J", "system": "Z"},
    {"family": "NREF2J", "system": 1},
])
def test_parse_spec_rejects_bad_bodies(body):
    with pytest.raises(BadJobSpec):
        parse_spec(body)


def test_parse_spec_names_a_system_by_its_profile_letter():
    _, spec = parse_spec({"family": "NREF2J", "system": "b"})
    assert spec["system"] == "B"
    _, spec = parse_spec({"family": "NREF2J"}, default_system="c")
    assert spec["system"] == "C"
    with pytest.raises(BadJobSpec, match="'system'"):
        parse_spec({"family": "NREF2J", "system": "Z"})


# ----------------------------------------------------------------------
# HTTP end to end

@pytest.fixture()
def server():
    with TuningServer(port=0, max_sessions=4, queue_capacity=2,
                      workers=1) as srv:
        yield srv


def test_http_session_lifecycle(server):
    client = TuningClient(server.base_url)
    assert client.health()["status"] == "ok"
    session = client.create_session("acme", **TINY)
    assert session["tenant"] == "acme"
    assert [s["id"] for s in client.sessions()] == [session["id"]]
    assert client.session(session["id"])["id"] == session["id"]
    client.delete_session(session["id"])
    assert client.sessions() == []
    with pytest.raises(ServerError) as err:
        client.session(session["id"])
    assert err.value.status == 404


def test_http_bad_requests_map_to_400_and_404(server):
    client = TuningClient(server.base_url)
    with pytest.raises(ServerError) as err:
        client._request("POST", "/v1/sessions", body={"scale": 1})
    assert err.value.status == 400
    with pytest.raises(ServerError) as err:
        client.submit_experiment("s-999999", "fig3")
    assert err.value.status == 404
    session = client.create_session("acme", **TINY)
    with pytest.raises(ServerError) as err:
        client._request(
            "POST", f"/v1/sessions/{session['id']}/workloads",
            body={"experiment": "nope"},
        )
    assert err.value.status == 400
    with pytest.raises(ServerError) as err:
        client.job("j-999999")
    assert err.value.status == 404


@pytest.mark.parametrize("field, value", [
    ("scale", -1),
    ("scale", 0),
    ("scale", float("nan")),
    ("scale", float("inf")),
    ("scale", "nan"),
    ("scale", True),
    ("scale", 10 ** 400),
    ("timeout", 0),
    ("timeout", float("nan")),
    ("workload_size", 0),
    ("workload_size", 2.5),
    ("workload_size", True),
    ("jobs", -3),
    ("jobs", False),
    ("seed", -1),
    ("system", "Z"),
    ("system", 1),
])
def test_http_bad_session_settings_are_400_naming_the_field(
        server, field, value):
    client = TuningClient(server.base_url)
    with pytest.raises(ServerError) as err:
        client._request("POST", "/v1/sessions",
                        body={"tenant": "acme", **TINY, field: value})
    assert err.value.status == 400
    assert f"'{field}'" in err.value.payload["error"]
    assert client.sessions() == []


def test_http_family_job_with_an_unknown_system_is_400(server):
    client = TuningClient(server.base_url)
    session = client.create_session("acme", **TINY)
    with pytest.raises(ServerError) as err:
        client._request(
            "POST", f"/v1/sessions/{session['id']}/workloads",
            body={"family": "NREF2J", "system": "Z"},
        )
    assert err.value.status == 400
    assert "'system'" in err.value.payload["error"]
    assert client.metrics()["jobs"]["completed"] == 0


def test_http_system_letters_in_either_case_share_one_database(server):
    client = TuningClient(server.base_url)
    session = client.create_session("acme", system="b", **TINY)
    assert session["system"] == "B"
    builds = []

    def run(system):
        job = client.submit_workload(session["id"], "NREF2J",
                                     system=system, configurations=["P"])
        seen = []
        final = client.wait(job, timeout=180.0, on_event=seen.append)
        assert final["status"] == "succeeded", final["error"]
        builds.append(sum(
            event["name"] == "span.bench.build_database" for event in seen
        ))
        return final["result"]

    lower, upper = run("a"), run("A")
    assert lower["system"] == upper["system"] == "A"
    assert builds == [1, 0]
    assert upper["measured"] == lower["measured"]


def test_http_workload_job_runs_and_reports(server):
    client = TuningClient(server.base_url)
    session = client.create_session("acme", **TINY)
    job = client.submit_workload(session["id"], "NREF2J",
                                 configurations=["P", "1C"])
    seen = []
    final = client.wait(job, timeout=120.0,
                        on_event=lambda e: seen.append(e))
    assert final["status"] == "succeeded"
    measured = final["result"]["measured"]
    assert set(measured) == {"P", "1C"}
    assert measured["P"]["queries"] == TINY["workload_size"]
    names = [e["name"] for e in seen]
    assert "job.started" in names and "job.finished" in names
    assert any(n.startswith("span.") for n in names)
    report = json.loads(client.fetch_report(job))
    obs.validate_run_report(report)
    assert report["run"]["scale"] == TINY["scale"]
    metrics = client.metrics()
    assert metrics["jobs"]["completed"] == 1
    assert metrics["sessions"]["active"] == 1
    # The finished job's cross-query engine counters fold into the
    # queue-lifetime "engine" block.
    engine = metrics["engine"]
    assert engine and all(name.startswith("subplan.") for name in engine)


def test_http_metrics_artifacts_block_sums_the_retained_stores(server):
    client = TuningClient(server.base_url)
    for _ in range(2):
        session = client.create_session("acme", **TINY)
        job = client.submit_workload(session["id"], "NREF2J",
                                     configurations=["P"])
        assert client.wait(job, timeout=120.0)["status"] == "succeeded"
        client.delete_session(session["id"])
    client.create_session("biotech", **TINY)
    gone = client.create_session("cargo", **TINY)["id"]
    client.delete_session(gone, drop_artifacts=True)
    metrics = client.metrics()
    assert set(metrics) == {"sessions", "jobs", "engine", "artifacts"}
    artifacts = metrics["artifacts"]
    assert artifacts["retained"] == 2
    (biotech,) = server.store.sessions()
    assert biotech.context.artifacts.snapshot()["stores"] == 0
    assert artifacts == server.store.artifacts_snapshot()
    assert artifacts["misses"] > 0 and artifacts["stores"] > 0
    # The second session's job was answered from the first one's store.
    assert artifacts["memory_hits"] > 0
    assert artifacts["disk_hits"] == 0


def _run(client, session_id, **body):
    """Submit a job, wait for it, return its final snapshot."""
    job = client._request(
        "POST", f"/v1/sessions/{session_id}/workloads", body=body
    )["job"]
    final = client.wait(job, timeout=180.0)
    assert final["status"] == "succeeded", final["error"]
    return final


def _stages(client, final):
    return set(json.loads(client.fetch_report(final["id"]))["stages"])


def test_http_recreated_session_answers_warm_with_equal_totals(server):
    client = TuningClient(server.base_url)
    family = dict(family="NREF2J", configurations=["P", "1C", "R"])
    first = client.create_session("acme", **TINY)
    cold = _run(client, first["id"], **family)
    assert "build_database" in _stages(client, cold)
    client.delete_session(first["id"])
    again = client.create_session("acme", **TINY)
    warm = _run(client, again["id"], **family)
    assert warm["result"]["measured"] == cold["result"]["measured"]
    # Built nothing: every artifact came from the scope's store.
    assert _stages(client, warm) == set()
    assert not any(
        event["name"].startswith("span.bench.")
        for event in client.job(warm["id"])["events"]
    )


def test_http_interleaved_sessions_of_one_scope_match_a_fresh_server(
        server):
    client = TuningClient(server.base_url)
    one = client.create_session("acme", **TINY)["id"]
    two = client.create_session("acme", **TINY)["id"]
    nref3j = dict(family="NREF3J", configurations=["P", "1C", "R"])
    shared = [
        _run(client, one, experiment="fig3"),
        _run(client, two, experiment="sec44"),
        _run(client, one, experiment="fig3"),
        # New engine work on the database sec44 inserted into.
        _run(client, two, **nref3j),
    ]
    with TuningServer(port=0, workers=1) as fresh:
        other = TuningClient(fresh.base_url)
        reference = [
            _run(other, other.create_session(tenant, **TINY)["id"],
                 **body)
            for tenant, body in (("r1", dict(experiment="fig3")),
                                 ("r2", dict(experiment="sec44")),
                                 ("r3", nref3j))
        ]
    texts = [final["result"]["text"] for final in shared[:3]]
    assert texts == [reference[0]["result"]["text"],
                     reference[1]["result"]["text"],
                     reference[0]["result"]["text"]]
    assert shared[3]["result"]["measured"] == \
        reference[2]["result"]["measured"]


def test_http_report_409_until_done_and_event_cursor(server):
    client = TuningClient(server.base_url)
    session = client.create_session("acme", **TINY)
    # Block the worker so the job stays queued while we probe.
    with server.queue._recording_lock:
        job = client.submit_workload(session["id"], "NREF2J",
                                     configurations=["P"])
        with pytest.raises(ServerError) as err:
            client.fetch_report(job)
        assert err.value.status == 409
    final = client.wait(job, timeout=120.0)
    # Cursor polling: nothing new after the final cursor.
    again = client.job(job, after=final["cursor"])
    assert again["events"] == []
    assert again["cursor"] == final["cursor"]


def test_http_queue_backpressure_is_429_with_retry_after(server):
    client = TuningClient(server.base_url)
    session = client.create_session("acme", **TINY)
    # Hold the recording lock: submitted jobs cannot finish, so the
    # queue (capacity 2) saturates deterministically.
    with server.queue._recording_lock:
        first = client.submit_workload(session["id"], "NREF2J",
                                       configurations=["P"])
        second = client.submit_workload(session["id"], "NREF2J",
                                        configurations=["P"])
        with pytest.raises(ServerError) as err:
            client.submit_workload(session["id"], "NREF2J",
                                   configurations=["P"])
        assert err.value.status == 429
        assert err.value.retry_after is not None
    assert client.wait(first, timeout=120.0)["status"] == "succeeded"
    assert client.wait(second, timeout=120.0)["status"] == "succeeded"
    metrics = client.metrics()
    assert metrics["jobs"]["rejected"] == 1
    # The rejected submission released its session pin.
    assert client.session(session["id"])["active_jobs"] == 0


def test_http_session_limit_is_503(server):
    client = TuningClient(server.base_url)
    ids = [client.create_session(f"t{i}", **TINY)["id"]
           for i in range(4)]
    # Pin every resident session (as an in-flight job would) so
    # nothing is evictable; a fifth creation must be refused.
    for session_id in ids:
        server.store.acquire_job(session_id)
    try:
        with pytest.raises(ServerError) as err:
            client.create_session("overflow", **TINY)
        assert err.value.status == 503
    finally:
        for session_id in ids:
            server.store.release_job(session_id)


def test_http_concurrent_tenants_get_identical_isolated_results(server):
    client = TuningClient(server.base_url)
    acme = client.create_session("acme", **TINY)
    biotech = client.create_session("biotech", **TINY)
    jobs = {
        tenant: client.submit_workload(sid, "NREF2J",
                                       configurations=["P", "1C"])
        for tenant, sid in (("acme", acme["id"]),
                            ("biotech", biotech["id"]))
    }
    finals = {t: client.wait(j, timeout=180.0) for t, j in jobs.items()}
    assert all(f["status"] == "succeeded" for f in finals.values())
    assert finals["acme"]["result"]["measured"] == \
        finals["biotech"]["result"]["measured"]
    assert finals["acme"]["tenant"] == "acme"
    assert finals["biotech"]["tenant"] == "biotech"


def test_server_jobs_is_the_width_of_a_session_that_names_none():
    """``measure_jobs`` (``--jobs``) fills in a session's ``jobs`` only
    when the request names none, and a family job measures the same
    per-configuration totals at either width."""
    with TuningServer(port=0, measure_jobs=2) as server:
        client = TuningClient(server.base_url)
        wide = client.create_session("acme", **TINY)
        serial = client.create_session("biotech", jobs=1, **TINY)
        assert wide["settings"]["jobs"] == 2
        assert serial["settings"]["jobs"] == 1
        measured = []
        for session in (wide, serial):
            job = client.submit_workload(
                session["id"], "NREF2J", configurations=["P", "1C", "R"],
            )
            final = client.wait(job, timeout=180.0)
            assert final["status"] == "succeeded"
            measured.append(final["result"]["measured"])
    assert set(measured[0]) == {"P", "1C", "R"}
    assert measured[0] == measured[1]


# ----------------------------------------------------------------------
# Report parity with the one-shot pipeline


def test_served_experiment_report_matches_one_shot_canonical_bytes():
    settings = BenchSettings(scale=0.02, workload_size=4, jobs=1)
    # One-shot: exactly the CLI's --report flow, in process.
    context = BenchContext(settings)
    with obs.recording() as recorder:
        with obs.span("bench.experiment", experiment="fig3"):
            ALL_EXPERIMENTS["fig3"](context)
    one_shot = context.run_report(recorder=recorder,
                                  experiments=["fig3"])
    obs.validate_run_report(one_shot)
    expected = (
        json.dumps(obs.canonicalize_run_report(one_shot),
                   indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")

    with TuningServer(port=0) as server:
        client = TuningClient(server.base_url)
        session = client.create_session("acme", scale=0.02,
                                        workload_size=4, jobs=1)
        job = client.submit_experiment(session["id"], "fig3")
        assert client.wait(job, timeout=180.0)["status"] == "succeeded"
        served = client.fetch_report(job, canonical=True)
        raw = client.fetch_report(job)

    assert served == expected
    # The raw (non-canonical) serialization matches write_report's
    # layout: parse-reserialize round-trips to the same bytes.
    document = json.loads(raw)
    assert (
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8") == raw
