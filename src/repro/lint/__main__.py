"""Command-line entry point of the invariant checker.

Usage::

    python -m repro.lint [paths ...]
    python -m repro.lint src --format json
    python -m repro.lint src --rule RNG001 --rule CLK001
    python -m repro.lint --list-rules

Exit status: **0** no findings, **1** at least one finding, **2** usage
errors (unknown rule).  CI runs ``python -m repro.lint src --format
json`` on every push.
"""

import argparse
import json
import sys

from .rules import ALL_RULES
from .runner import run_lint


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant checker for determinism, cache "
            "invalidation and lock discipline (see "
            "docs/static-analysis.md)."
        ),
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to lint (default: src)")
    parser.add_argument("--rule", action="append", default=None,
                        metavar="RULE",
                        help="run only this rule (repeatable)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for name in sorted(ALL_RULES):
            rule = ALL_RULES[name]
            print(f"{name} [{rule.scope}] {rule.description}")
        return 0

    paths = args.paths or ["src"]
    try:
        result = run_lint(paths, rules=args.rule)
    except KeyError as err:
        known = ", ".join(sorted(ALL_RULES))
        print(f"unknown rule {err.args[0]!r} (known: {known})",
              file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(result.render_text())
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
