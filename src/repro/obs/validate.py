"""Schema validation CLI for observability exports.

Usage::

    python -m repro.obs.validate --trace trace.jsonl --report report.json

Validates every line of a JSONL trace against the span/event record
schemas and a run report against :data:`repro.obs.schemas.RUN_REPORT_SCHEMA`.
Exit status 0 means everything validated; 1 means a schema violation
(including undecodable JSON — the content is wrong); 2 means an input
file could not be read at all (missing, permission denied) — distinct
codes so CI and scripts can tell "bad document" from "bad path".  The
offending location is printed either way.  CI runs this against the
artifacts of a real traced benchmark.
"""

import argparse
import json
import sys

from .schemas import (
    SchemaError,
    validate_run_report,
    validate_trace_record,
)


def validate_trace_file(path):
    """Validate a JSONL trace file line by line.

    Args:
        path: trace file written by ``TraceRecorder.write_trace`` (or
            the bench CLI's ``--trace``).

    Returns:
        ``(spans, events)`` record counts.

    Raises:
        SchemaError: on the first malformed line.
    """
    spans = events = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise SchemaError(
                    f"{path}:{lineno}: not valid JSON ({err})"
                ) from None
            validate_trace_record(record, path=f"{path}:{lineno}")
            if record["type"] == "span":
                spans += 1
            else:
                events += 1
    return spans, events


def validate_report_file(path):
    """Validate a run-report JSON file.

    Args:
        path: report file written by the bench CLI's ``--report``.

    Returns:
        The decoded (and valid) report dict.

    Raises:
        SchemaError: when the document violates the report schema.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            report = json.load(handle)
        except json.JSONDecodeError as err:
            raise SchemaError(f"{path}: not valid JSON ({err})") from None
    validate_run_report(report, path=path)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate trace/report files against their schemas.",
    )
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="JSONL trace file to validate")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="run report JSON file to validate")
    args = parser.parse_args(argv)
    if args.trace is None and args.report is None:
        parser.error("nothing to validate: pass --trace and/or --report")
    try:
        if args.trace is not None:
            spans, events = validate_trace_file(args.trace)
            print(f"trace OK: {spans} spans, {events} events "
                  f"({args.trace})")
        if args.report is not None:
            report = validate_report_file(args.report)
            print(f"report OK: {len(report['measurements'])} measurements, "
                  f"{len(report['fingerprints'])} fingerprints "
                  f"({args.report})")
    except SchemaError as err:
        print(f"validation FAILED: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"validation FAILED: cannot read input: {err}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
