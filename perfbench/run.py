#!/usr/bin/env python3
"""The canonical benchmark: four pinned workloads, one command.

``python perfbench/run.py`` runs every workload ``--repeats`` times with
tracing off and once traced, each run in a fresh subprocess, prints every
metric by name as median and quartiles, checks the outputs, and writes
one JSON document (``-o``, default ``perfbench/out/result.json``).

``python perfbench/run.py --workload NAME --seed N --seconds S --trace T``
is one run in this process.  Its last line of output is the JSON object
``BENCHMARK.json``'s contract asks for: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

The workloads are fixed amounts of work, sized so that a timed region
lasts about ``run_seconds`` on a 2-core machine; ``--seconds`` is
recorded and does not change them, so that counters and fingerprints
can be compared exactly between two commits.
"""

import time

STARTED = time.perf_counter()

import argparse                                          # noqa: E402
import contextlib                                        # noqa: E402
import importlib.metadata                                # noqa: E402
import json                                              # noqa: E402
import os                                                # noqa: E402
import platform                                          # noqa: E402
import subprocess                                        # noqa: E402
import sys                                               # noqa: E402
import traceback                                         # noqa: E402
from pathlib import Path                                 # noqa: E402

import metrics                                           # noqa: E402

ROOT = metrics.ROOT
OUT = Path(__file__).resolve().parent / "out"
NAMES = ("fig4_nref3j", "fig8_skth3j", "sec44_insert_mix", "serve_nref2j")


def parse(argv):
    benchmark = metrics.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=NAMES,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=405)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run in this process, traced or not")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the tests")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload (default 3)")
    parser.add_argument("--traced", action="store_true",
                        help="only the traced run of each workload")
    parser.add_argument("-o", "--output", default=str(OUT / "result.json"))
    parser.add_argument("--record", default=None,
                        help="with --trace: also write the run's full "
                             "record to this file")
    args = parser.parse_args(argv)
    if args.trace is not None and len(args.workload or ()) != 1:
        parser.error("--trace runs exactly one --workload")
    return benchmark, args


def refuse_knobs():
    """The benchmark measures the defaults: stop if a behaviour knob of
    the program is set in the environment."""
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        sys.exit(f"perfbench: unset {', '.join(knobs)} first; the "
                 f"benchmark runs the program at its defaults")


# ----------------------------------------------------------------------
# One run, in this process

def single_run(benchmark, args):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from repro import obs

    name = args.workload[0]
    run = workloads.Run(name, args.seed, bool(args.trace), args.smoke,
                        import_s=time.perf_counter() - STARTED)
    recording = (obs.recording(run.recorder) if args.trace
                 else contextlib.nullcontext())
    try:
        with run.tracer.installed(), recording:
            workloads.WORKLOADS[name](run)
    except Exception:
        # No result line: the run did not get far enough to have one.
        traceback.print_exc()
        return 1
    if args.trace:
        OUT.mkdir(exist_ok=True)
        run.tracer.write(OUT / f"trace-{name}.jsonl")

    record = run.record()
    record["seconds"] = args.seconds
    declared = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    undeclared = sorted(set(run.layer) - set(declared))
    if undeclared:
        sys.exit(f"per-layer metrics missing from BENCHMARK.json: "
                 f"{undeclared}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle)

    print(f"{name}  seed={args.seed} trace={args.trace} "
          f"sizing={run.sizing}")
    if args.trace:
        values = {n: run.layer.get(n, 0.0) for n in declared}
        units = declared
    else:
        values = run.end_to_end()
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
        for metric, value in run.stage_metrics.items():
            unit = metrics.STAGE_METRICS[metric][0]
            print(f"  {metric:<24}{value:14.4f} {unit}")
    for metric, value in values.items():
        print(f"  {metric:<40}{value:16.4f} {units[metric]}")
    print(f"  failed_share {run.failed / run.attempted:.4f} "
          f"({run.failed} of {run.attempted} operations)")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print(json.dumps(result(run, values, units)))
    return 0 if run.failed == 0 else 1


def result(run, values, units):
    """The object the benchmark contract asks for on the last line."""
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            metric: {"value": float(value), "unit": units[metric]}
            for metric, value in values.items()
        },
    }


# ----------------------------------------------------------------------
# All runs, each in a fresh subprocess

def environment():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit,
    }


def child_run(name, trace, args):
    """Run one workload in a fresh interpreter; returns its record, or
    ``None`` when it ended without one."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"record-{name}-{trace}.json"
    path.unlink(missing_ok=True)
    command = [
        sys.executable, __file__, "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--record", str(path),
    ] + (["--smoke"] if args.smoke else [])
    loadavg = os.getloadavg()[0]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if not path.exists():
        sys.stderr.write(child.stdout)
        return None
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    path.unlink()
    record["loadavg"] = loadavg
    return record


def orchestrate(benchmark, args):
    names = args.workload or list(NAMES)
    passes = [1] if args.traced else [0] * max(3, args.repeats) + [1]
    runs, broken = [], []
    for index, trace in enumerate(passes):
        # Alternate the order, so that no workload always follows the
        # same neighbour.
        for name in (names if index % 2 == 0 else names[::-1]):
            print(f"[{index + 1}/{len(passes)}] {name} trace={trace}",
                  file=sys.stderr, flush=True)
            record = child_run(name, trace, args)
            if record is None:
                broken.append(f"{name}: a run ended without a result")
            else:
                runs.append(record)

    document = {
        "schema": "perfbench/1", "environment": environment(),
        "seed": args.seed, "sizing": "smoke" if args.smoke else "full",
        "runs": runs, "summary": {}, "per_layer": {},
    }
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        untraced = [r for r in mine if not r["trace"]]
        rows = document["summary"][name] = {}
        for metric, spec in metrics.bounded_metrics(benchmark, name).items():
            values = metrics.values(runs, name, metric)
            if values:
                rows[metric] = {"unit": spec[0], **metrics.summary(values)}
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        rows["failed_share"] = {
            "unit": "share", "n": len(mine),
            "median": failed / attempted if attempted else 1.0,
        }
        for r in mine:
            broken.extend(f"{name}: {f}" for f in r["failures"])
            for kind in ("fingerprints", "counts"):
                if r[kind] != mine[0][kind]:
                    broken.append(f"{name}: {kind} differ between runs "
                                  f"of this invocation")
        traced = [r for r in mine if r["trace"]]
        if traced:
            document["per_layer"][name] = traced[0]["per_layer"]
            if untraced:
                # Base: the median untraced wall_s of this invocation.
                rows["trace_overhead"] = {
                    "unit": "ratio", "n": 1,
                    "median": traced[0]["end_to_end"]["wall_s"]
                    / rows["wall_s"]["median"],
                }
    document["failures"] = sorted(set(broken))

    for name, rows in document["summary"].items():
        print(f"\n{name}")
        for metric, row in rows.items():
            spread = (f"  q1 {row['q1']:.4f}  q3 {row['q3']:.4f}"
                      if "q1" in row else "")
            print(f"  {metric:<22}{row['median']:12.4f} {row['unit']:<6}"
                  f"n={row['n']}{spread}")
        for metric, value in document["per_layer"].get(name, {}).items():
            print(f"    {metric:<42}{value:16.4f}")
    for failure in document["failures"]:
        print(f"FAILED {failure}")
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"\nwrote {args.output}")
    return 1 if document["failures"] else 0


def main(argv=None):
    benchmark, args = parse(argv)
    refuse_knobs()
    if args.trace is not None:
        return single_run(benchmark, args)
    return orchestrate(benchmark, args)


if __name__ == "__main__":
    sys.exit(main())
