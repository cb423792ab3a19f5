"""CLK001 — wall clocks live only in :mod:`repro.obs`.

The engine's clock is *virtual*: elapsed seconds are computed from the
cost model, never measured.  That is the whole reason parallel runs are
byte-identical to serial ones — a measured duration would differ every
run.  Wall-clock reads are therefore confined to the observability
layer (``repro.obs``, where spans report real time *next to* virtual
time); everything else must take timings from the cost model or from
:func:`repro.obs.wall_time` / :func:`repro.obs.perf_seconds` so the one
place real time enters the system stays auditable.

Flags resolved references to the names in
:data:`repro.lint.core.WALL_CLOCKS` — ``time.time``/``perf_counter``/
``monotonic``/``process_time`` (and their ``_ns`` variants),
``datetime.datetime.now``/``utcnow``/``today`` and
``datetime.date.today`` — as calls, bare references, or ``from``
imports — in any linted file outside ``repro/obs/``.
"""

import ast

from ..core import WALL_CLOCKS, Rule, dotted_name, resolve_dotted

_EXEMPT_FRAGMENT = "repro/obs/"


class ClockRule(Rule):
    name = "CLK001"
    scope = "file"

    def check_file(self, unit):
        if _EXEMPT_FRAGMENT in unit.posix:
            return
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module:
                for alias in node.names:
                    origin = f"{node.module}.{alias.name}"
                    if origin in WALL_CLOCKS:
                        yield unit.finding(
                            self.name, node,
                            f"imports wall clock {origin!r}; use the "
                            f"virtual clock, or repro.obs.wall_time/"
                            f"perf_seconds for observability timings",
                        )
            elif isinstance(node, (ast.Attribute, ast.Name)):
                name = dotted_name(node)
                if name is None:
                    continue
                resolved = resolve_dotted(name, unit.aliases)
                if resolved in WALL_CLOCKS:
                    yield unit.finding(
                        self.name, node,
                        f"wall-clock read {resolved!r}; use the virtual "
                        f"clock, or repro.obs.wall_time/perf_seconds "
                        f"for observability timings",
                    )
