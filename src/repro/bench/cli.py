"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.bench list
    python -m repro.bench run fig3 tab1
    python -m repro.bench run all --scale 0.25 --workload-size 25
    python -m repro.bench run fig3 --trace trace.jsonl --report report.json
    python -m repro.bench ablations

Results print to stdout and are written under ``results/``.  The
observability flags (``--trace``, ``--metrics``, ``--report``) collect
spans/metrics/structured reports *about* a run without changing a byte
of its results; see ``docs/cli.md`` for the full flag reference and
``docs/observability.md`` for the emitted schemas.
"""

import argparse
import pathlib
import sys
from contextlib import nullcontext

from . import ablations as ablation_module
from .. import obs
from ..runtime.artifacts import ArtifactCache
from .context import BenchContext, BenchSettings
from .experiments import ALL_EXPERIMENTS

ABLATIONS = {
    "ablation-budget": ablation_module.ablation_budget,
    "ablation-oracle": ablation_module.ablation_oracle_statistics,
    "ablation-skew": ablation_module.ablation_skew,
    "ablation-workload-size": ablation_module.ablation_workload_size,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's tables and figures.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    run = commands.add_parser("run", help="run experiments by id")
    run.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'list') or 'all'",
    )
    run.add_argument("--scale", type=float, default=1.0,
                     help="data scale factor (default 1.0)")
    run.add_argument("--workload-size", type=int, default=100,
                     help="queries per sampled workload (default 100)")
    run.add_argument("--timeout", type=float, default=1800.0,
                     help="per-query virtual timeout seconds")
    run.add_argument("--results-dir", default="results",
                     help="directory for result files")
    run.add_argument("--jobs", type=int, default=1,
                     help="measurement worker-pool width "
                          "(default 1, serial)")
    run.add_argument("--cache-dir", default=None,
                     help="persist built artifacts here (default off)")
    run.add_argument("--stats", action="store_true",
                     help="print runtime cache/timing statistics "
                          "after the run")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="record tracing spans and write them as "
                          "JSONL to FILE")
    run.add_argument("--metrics", action="store_true",
                     help="collect engine/optimizer/cache metrics and "
                          "print them after the run")
    run.add_argument("--report", default=None, metavar="FILE",
                     help="write a structured JSON run report "
                          "(manifest, fingerprints, stage timings, "
                          "cache stats, per-query A/E/H costs) to FILE")

    commands.add_parser("ablations", help="run the ablation studies")

    summarize = commands.add_parser(
        "summarize", help="concatenate results/ into one report"
    )
    summarize.add_argument("--results-dir", default="results")
    summarize.add_argument("--output", default=None,
                           help="write to a file instead of stdout")
    return parser


def _run_experiments(args):
    settings = BenchSettings(
        scale=args.scale,
        workload_size=args.workload_size,
        timeout=args.timeout,
        jobs=args.jobs,
    )
    context = BenchContext(settings, artifacts=ArtifactCache(args.cache_dir))
    wanted = list(ALL_EXPERIMENTS) if "all" in args.experiments \
        else args.experiments
    unknown = [e for e in wanted if e not in ALL_EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s) {unknown}; run 'list' to see ids"
        )
    results_dir = pathlib.Path(args.results_dir)
    results_dir.mkdir(exist_ok=True)
    # Observability is opt-in: without these flags the NullRecorder
    # stays installed and every instrumentation site is a no-op.
    observed = args.trace or args.report or args.metrics
    scope = obs.recording() if observed else nullcontext(None)
    with scope as recorder:
        for experiment_id in wanted:
            started = obs.perf_seconds()
            with obs.span("bench.experiment", experiment=experiment_id):
                result = ALL_EXPERIMENTS[experiment_id](context)
            elapsed = obs.perf_seconds() - started
            print(result)
            print(f"[{experiment_id} completed in {elapsed:.0f}s]\n")
            path = results_dir / f"{result.experiment}.txt"
            path.write_text(str(result) + "\n")
        if args.stats:
            print(context.stats_report())
    if args.metrics:
        print(obs.render_metrics(recorder.metrics.snapshot()))
    if args.trace:
        records = recorder.write_trace(args.trace)
        print(f"[trace: {records} records -> {args.trace}]")
    if args.report:
        report = context.run_report(recorder=recorder, experiments=wanted)
        obs.validate_run_report(report)
        obs.write_report(report, args.report)
        print(f"[report -> {args.report}]")


def _run_ablations():
    results_dir = pathlib.Path("results")
    results_dir.mkdir(exist_ok=True)
    for name, fn in ABLATIONS.items():
        result = fn()
        print(result)
        (results_dir / f"{name}.txt").write_text(str(result) + "\n")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in ALL_EXPERIMENTS:
            print(experiment_id)
        for name in ABLATIONS:
            print(name, "(via 'ablations')")
        return 0
    if args.command == "run":
        _run_experiments(args)
        return 0
    if args.command == "ablations":
        _run_ablations()
        return 0
    if args.command == "summarize":
        report = summarize_results(args.results_dir)
        if args.output:
            pathlib.Path(args.output).write_text(report)
        else:
            print(report)
        return 0
    return 1


_RESULT_ORDER = list(ALL_EXPERIMENTS) + list(ABLATIONS)


def summarize_results(results_dir="results"):
    """One concatenated report of every artifact under ``results_dir``."""
    directory = pathlib.Path(results_dir)
    if not directory.is_dir():
        return f"(no results directory at {directory})"
    sections = []
    seen = set()
    for experiment_id in _RESULT_ORDER:
        path = directory / f"{experiment_id}.txt"
        if path.exists():
            sections.append(path.read_text().rstrip())
            seen.add(path.name)
    for path in sorted(directory.glob("*.txt")):
        if path.name not in seen and path.name != "summary.txt":
            sections.append(path.read_text().rstrip())
    return "\n\n".join(sections) + "\n"


if __name__ == "__main__":
    sys.exit(main())
