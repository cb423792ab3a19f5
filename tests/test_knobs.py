"""A run's knobs are its command-line flags.

Nothing reads the environment (the ``KNB001`` lint rule keeps it that
way).  These tests pin the flag surface of ``python -m repro.bench``
and ``python -m repro.server``: the flags are exactly ``EXPECTED_FLAGS``
with their types (so a new flag must be named here), every flag has a
row in the docs, and the defaults hold whatever the shell exports.
"""

import argparse
from pathlib import Path

import pytest

from repro.bench import ablations
from repro.bench.cli import _build_parser as bench_parser
from repro.bench.context import BenchContext, BenchSettings
from repro.server.__main__ import _build_parser as server_parser

DOCS = Path(__file__).resolve().parents[1] / "docs"

EXPECTED_FLAGS = {
    "run": {
        "--scale": float, "--workload-size": int, "--timeout": float,
        "--results-dir": None, "--jobs": int, "--cache-dir": None,
        "--stats": None, "--trace": None, "--metrics": None,
        "--report": None,
    },
    "summarize": {"--results-dir": None, "--output": None},
    "server": {
        "--host": None, "--port": int, "--jobs": int, "--workers": int,
        "--queue": int, "--max-sessions": int, "--session-ttl": float,
        "--cache-dir": None, "--verbose": None,
    },
}

#: The variables earlier versions read; set, they must change nothing.
FORMER_KNOBS = (
    "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_SCALE", "REPRO_WORKLOAD_SIZE",
    "REPRO_TIMEOUT", "REPRO_ABLATION_SCALE", "REPRO_ABLATION_WORKLOAD",
    "REPRO_SERVER_HOST", "REPRO_SERVER_PORT", "REPRO_SERVER_WORKERS",
    "REPRO_SERVER_QUEUE", "REPRO_SERVER_MAX_SESSIONS",
    "REPRO_SERVER_SESSION_TTL",
)


def parsers():
    """``{command: parser}`` for every command that takes flags."""
    commands = next(
        action for action in bench_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        "run": commands.choices["run"],
        "summarize": commands.choices["summarize"],
        "server": server_parser(),
    }


def flags(parser):
    return {
        option: action.type
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


@pytest.fixture
def exported(monkeypatch, tmp_path):
    """Every former knob set to a value unlike its default."""
    for name in FORMER_KNOBS:
        monkeypatch.setenv(name, "7")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SERVER_HOST", "0.0.0.0")


def test_every_expected_knob_is_registered_with_its_kind():
    found = {name: flags(parser) for name, parser in parsers().items()}
    assert found == EXPECTED_FLAGS


def test_every_registered_knob_is_documented():
    documented = {
        "run": (DOCS / "cli.md").read_text(encoding="utf-8"),
        "summarize": (DOCS / "cli.md").read_text(encoding="utf-8"),
        "server": (DOCS / "server.md").read_text(encoding="utf-8"),
    }
    missing = [
        (name, flag)
        for name, parser in parsers().items()
        for flag in flags(parser)
        if f"`{flag}" not in documented[name]
    ]
    assert not missing, f"undocumented flags {missing}"


def test_server_knobs_cover_the_documented_surface(exported):
    args = server_parser().parse_args([])
    assert (args.host, args.port, args.jobs, args.workers, args.queue,
            args.max_sessions, args.session_ttl, args.cache_dir) \
        == ("127.0.0.1", 8451, 0, 2, 8, 8, 3600.0, None)


def test_scale_knobs_defaults(exported):
    settings = BenchSettings()
    args = bench_parser().parse_args(["run", "all"])
    assert (args.scale, args.workload_size, args.timeout, args.jobs) \
        == (settings.scale, settings.workload_size, settings.timeout,
            settings.jobs) == (1.0, 100, 1800.0, 1)
    assert args.cache_dir is None
    context = BenchContext()
    assert context.settings == settings and context.jobs == 1
    assert context.artifacts.directory is None
    assert (ablations.SCALE, ablations.WORKLOAD_SIZE) == (0.25, 25)
