"""The ``REPRO_*`` environment-knob registry — the one place the
environment enters the system.

Every behavioural environment variable of the reproduction (pool
widths, server limits, bench scale) is
*declared* here with its type, default, and one-line contract, and every
read of one goes through :func:`text` — never through a
bare ``os.environ`` lookup.  The lint rule ``KNB001`` machine-checks
that project-wide: a ``REPRO_*`` read outside this module, or a
``REPRO_*`` name used but not registered, fails CI;
``tests/test_knobs.py`` pins the registered set and fails when a
registered knob has no row in ``docs/cli.md``.  The registry is what
makes "which knobs exist and what do they do" answerable from one file
instead of a grep.

Knob *semantics* (clamping, error messages) stay
with their owning modules — ``repro.runtime.session`` still decides
that a jobs count below one clamps to one — so registering a knob
changes no behaviour; it only centralizes the environment access and
the declaration.  See "Registering a knob" in ``docs/static-analysis.md``.
"""

import os
from dataclasses import dataclass

@dataclass(frozen=True)
class Knob:
    """One registered environment knob."""

    name: str           #: the ``REPRO_*`` environment variable
    kind: str           #: ``int`` | ``float`` | ``str``
    default: object     #: value used when the variable is unset
    description: str    #: one-line contract (mirrored in docs/cli.md)

    def to_json(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "default": self.default,
            "description": self.description,
        }


_REGISTRY = {}


def register(name, kind="str", default=None, description=""):
    """Declare a knob; returns the :class:`Knob`.

    Registration is idempotent for identical declarations (module
    reloads) but conflicting re-registration is a programming error.

    Raises:
        ValueError: ``name`` is not ``REPRO_*`` upper-case, or the knob
            is already registered with a different declaration.
    """
    if not name.startswith("REPRO_") or name != name.upper():
        raise ValueError(f"knob name {name!r} must be upper-case REPRO_*")
    knob = Knob(name, kind, default, description)
    existing = _REGISTRY.get(name)
    if existing is not None:
        if existing != knob:
            raise ValueError(f"conflicting re-registration of {name!r}")
        return existing
    _REGISTRY[name] = knob
    return knob


def is_registered(name):
    """Whether ``name`` is a declared knob."""
    return name in _REGISTRY


def get(name):
    """The :class:`Knob` declared under ``name``.

    Raises:
        KeyError: the knob was never registered.
    """
    return _REGISTRY[name]


def registered():
    """Every declared knob, sorted by name (a stable tuple)."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def text(name, default=None):
    """The raw environment text of a registered knob.

    This is the single sanctioned ``os.environ`` access for ``REPRO_*``
    variables; owning modules parse/clamp the returned text themselves
    so their error messages and semantics are unchanged by the registry.

    Args:
        name: a registered knob name.
        default: returned when the variable is unset (``None`` by
            default — callers distinguish "unset" from any set value).

    Raises:
        KeyError: the knob was never registered — an unregistered read
            is exactly what ``KNB001`` exists to prevent, so the
            registry refuses it at runtime too.
    """
    knob = _REGISTRY[name]
    raw = os.environ.get(knob.name)
    return default if raw is None else raw


# ----------------------------------------------------------------------
# The declarations.  One block per subsystem, mirroring the environment
# table in docs/cli.md (KNB001 cross-checks name-for-name).

# Runtime
register(
    "REPRO_JOBS", "int", 1,
    "measurement worker-pool width (1 = serial; parallel output is "
    "byte-identical to serial)",
)
register(
    "REPRO_CACHE_DIR", "str", None,
    "artifact-store persistence directory (unset = memory only)",
)

# Bench scale (BenchSettings.from_env: a BenchContext built without
# explicit settings; ``python -m repro.bench run <id>`` takes flags)
register("REPRO_SCALE", "float", 1.0, "data scale factor")
register(
    "REPRO_WORKLOAD_SIZE", "int", 100, "queries per sampled workload",
)
register(
    "REPRO_TIMEOUT", "float", 1800.0,
    "per-query virtual timeout in seconds",
)
register(
    "REPRO_ABLATION_SCALE", "float", 0.25,
    "reduced data scale for the ablation studies",
)
register(
    "REPRO_ABLATION_WORKLOAD", "int", 25,
    "reduced workload size for the ablation studies",
)

# Tuning server (python -m repro.server flag fallbacks)
register("REPRO_SERVER_HOST", "str", "127.0.0.1", "server bind address")
register("REPRO_SERVER_PORT", "int", 8451, "server TCP port")
register(
    "REPRO_SERVER_WORKERS", "int", 2, "tuning-server job worker threads",
)
register(
    "REPRO_SERVER_QUEUE", "int", 8, "tuning-server pending-job bound",
)
register(
    "REPRO_SERVER_MAX_SESSIONS", "int", 8,
    "tuning-server resident-session cap",
)
register(
    "REPRO_SERVER_SESSION_TTL", "float", 3600.0,
    "tuning-server idle session expiry in seconds",
)
