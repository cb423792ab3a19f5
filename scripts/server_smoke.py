#!/usr/bin/env python3
"""CI smoke for the tuning server: boot, drive, verify report parity.

Boots a ``python -m repro.server``-equivalent server in process (or,
with ``--spawn``, the real subprocess) with ``--jobs``, drives it with
the stdlib client (create a session that names no ``jobs``, so it takes
the server's; submit the fig3 workload, poll to completion, fetch the
report), writes the served report to disk for schema validation, and —
when ``--compare`` points at a CLI ``--report`` file of the same run —
byte-compares the two canonical serializations (wall-clock stage
seconds zeroed; everything else must match to the byte).

``--recreate`` checks instead that a tenant's artifacts outlive its
session: tenant ``acme`` runs the experiment, deletes its session,
re-creates it with the same settings and runs it again — the second
job must print the same result text, its report must validate, and its
stages must hold no ``build_database`` or ``sample_workload``; tenant
``biotech`` with the same settings must then build its own database.

Usage::

    PYTHONPATH=src python -m repro.bench run fig3 --scale 0.05 \
        --workload-size 10 --jobs 1 --report cli-report.json
    PYTHONPATH=src python scripts/server_smoke.py --scale 0.05 \
        --workload-size 10 --jobs 1 --compare cli-report.json
    PYTHONPATH=src python scripts/server_smoke.py --spawn --recreate \
        --scale 0.05 --workload-size 10 --jobs 1

Exit status 0 on success; any failure (job error, schema mismatch,
parity break) exits non-zero with a message.
"""

import argparse
import contextlib
import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs                                    # noqa: E402
from repro.server import TuningClient, TuningServer      # noqa: E402


@contextlib.contextmanager
def spawned_server(workers, jobs):
    """Boot the real ``python -m repro.server`` as a subprocess.

    Yields the base URL parsed from the server's startup line; the
    process is terminated on exit.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0",
         "--workers", str(workers), "--jobs", str(jobs)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=REPO_ROOT,
    )
    try:
        line = process.stdout.readline()
        if "listening on " not in line:
            raise RuntimeError(
                f"unexpected server startup output: {line!r}"
            )
        yield line.rsplit("listening on ", 1)[1].strip()
    finally:
        process.terminate()
        process.wait(timeout=10.0)


def canonical_bytes(report):
    """A report's canonical serialization (write_report layout)."""
    return (
        json.dumps(obs.canonicalize_run_report(report),
                   indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


def run_job(client, session_id, experiment, timeout):
    """Submit ``experiment``, wait for it; returns ``(final, report)``
    with the report parsed and validated."""
    job = client.submit_experiment(session_id, experiment)
    final = client.wait(job, timeout=timeout)
    if final["status"] != "succeeded":
        raise RuntimeError(f"job {job} {final['status']}: "
                           f"{final['error']}")
    report = json.loads(client.fetch_report(job))
    obs.validate_run_report(report)
    return final, report


def recreate_check(client, args):
    """A re-created session of one scope starts warm; another tenant's
    session of the same settings does not.  Returns the exit status."""
    settings = dict(scale=args.scale, workload_size=args.workload_size)
    session = client.create_session("acme", **settings)["id"]
    first, _ = run_job(client, session, args.experiment, args.timeout)
    client.delete_session(session)
    session = client.create_session("acme", **settings)["id"]
    second, report = run_job(client, session, args.experiment,
                             args.timeout)
    if second["result"]["text"] != first["result"]["text"]:
        print("FAIL: the re-created session's result text differs",
              file=sys.stderr)
        return 1
    built = {"build_database", "sample_workload"} & set(report["stages"])
    if built:
        print(f"FAIL: the re-created session ran {sorted(built)}",
              file=sys.stderr)
        return 1
    print(f"re-created session started warm (stages: "
          f"{sorted(report['stages']) or 'none'})")
    session = client.create_session("biotech", **settings)["id"]
    _, report = run_job(client, session, args.experiment, args.timeout)
    if "build_database" not in report["stages"]:
        print("FAIL: tenant biotech did not build its own database",
              file=sys.stderr)
        return 1
    print("tenant biotech built its own database")
    print("server recreate smoke OK")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment", default="fig3")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--workload-size", type=int, default=10)
    parser.add_argument("--jobs", type=int, default=1,
                        help="the server's --jobs: the measurement-pool "
                             "width of the smoke's session")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="job-completion deadline in seconds")
    parser.add_argument("--report-out", default="served-report.json",
                        help="write the served (raw) report here")
    parser.add_argument("--compare", default=None, metavar="FILE",
                        help="CLI --report file to byte-compare "
                             "against (canonical forms)")
    parser.add_argument("--spawn", action="store_true",
                        help="boot the real 'python -m repro.server' "
                             "subprocess instead of an in-process "
                             "server")
    parser.add_argument("--recreate", action="store_true",
                        help="check that a re-created session of one "
                             "tenant and settings starts warm, instead "
                             "of the report-parity smoke")
    args = parser.parse_args(argv)

    if args.spawn:
        scope = spawned_server(workers=2, jobs=args.jobs)
    else:
        scope = TuningServer(port=0, workers=2, measure_jobs=args.jobs)
    with scope as booted:
        base_url = booted if isinstance(booted, str) else booted.base_url
        print(f"server up at {base_url}"
              + (" (spawned subprocess)" if args.spawn else ""))
        client = TuningClient(base_url)
        if args.recreate:
            return recreate_check(client, args)
        session = client.create_session(
            "ci", scale=args.scale, workload_size=args.workload_size,
        )
        print(f"session {session['id']} (tenant {session['tenant']}, "
              f"jobs {session['settings']['jobs']})")
        job = client.submit_experiment(session["id"], args.experiment)
        print(f"job {job} submitted; polling...")
        events = []
        final = client.wait(job, timeout=args.timeout,
                            on_event=lambda e: events.append(e))
        if final["status"] != "succeeded":
            print(f"FAIL: job {job} {final['status']}: "
                  f"{final['error']}", file=sys.stderr)
            return 1
        print(f"job {job} succeeded ({len(events)} progress events)")
        served_raw = client.fetch_report(job)
        served_canonical = client.fetch_report(job, canonical=True)

    document = json.loads(served_raw)
    obs.validate_run_report(document)
    pathlib.Path(args.report_out).write_bytes(served_raw)
    print(f"served report validated -> {args.report_out}")

    if canonical_bytes(document) != served_canonical:
        print("FAIL: served ?canonical=1 body does not match the "
              "canonicalization of the raw report", file=sys.stderr)
        return 1

    if args.compare:
        cli_report = json.loads(
            pathlib.Path(args.compare).read_text(encoding="utf-8")
        )
        expected = canonical_bytes(cli_report)
        if served_canonical != expected:
            print(f"FAIL: served canonical report differs from "
                  f"{args.compare}", file=sys.stderr)
            return 1
        print(f"canonical parity OK: served report is byte-identical "
              f"to {args.compare} ({len(expected)} bytes)")

    print("server smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
