"""Command-line entry point of the invariant checker.

Usage::

    python -m repro.lint [paths ...]

Prints one line per finding and a count.  Exit status: **0** no
findings, **1** at least one finding, **2** usage errors.  CI runs
``python -m repro.lint src`` on every push.
"""

import argparse
import sys

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
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    result = run_lint(args.paths or ["src"])
    print(result.render_text())
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
