"""RNG001 — all randomness flows through :mod:`repro.common.rng`.

Every experiment in the reproduction is seed-addressed: the same seed
must produce byte-identical data, workloads and recommendations across
runs, machines and pool widths.  That only holds if no component reaches
for an ambient entropy source.  Against the modules in
:data:`repro.lint.core.ENTROPY_MODULES` this rule flags

* ``import random`` / ``from random import ...`` (the stdlib module is
  seeded per-process and shared across threads),
* ``import uuid`` / ``from uuid import ...`` (host/time-derived ids),
* any import or use of ``numpy.random`` — including
  ``np.random.default_rng`` reached through an innocent
  ``import numpy`` —

outside :mod:`repro.common.rng`, which is the one sanctioned wrapper
(``make_rng`` / ``spawn`` give every consumer its own derived stream).
"""

import ast

from ..core import (
    ENTROPY_MODULES,
    Rule,
    dotted_name,
    in_module,
    resolve_dotted,
)

_EXEMPT_SUFFIX = "repro/common/rng.py"
_ADVICE = "derive randomness from repro.common.rng (make_rng/spawn) instead"


def _ambient(name):
    """Whether a resolved dotted name reaches an entropy module."""
    return name is not None and in_module(name, ENTROPY_MODULES)


class RngRule(Rule):
    name = "RNG001"
    scope = "file"

    def check_file(self, unit):
        if unit.posix.endswith(_EXEMPT_SUFFIX):
            return
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _ambient(alias.name):
                        yield unit.finding(
                            self.name, node,
                            f"direct import of {alias.name!r}; {_ADVICE}",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and _ambient(node.module):
                yield unit.finding(
                    self.name, node,
                    f"direct import from {node.module!r}; {_ADVICE}",
                )
            elif isinstance(node, ast.Attribute):
                resolved = self._resolved(node, unit)
                # A use is reported only where the import alone was
                # innocent (``import numpy``), and only at the
                # innermost chain that reaches the entropy module:
                # parent Attribute nodes of the same chain resolve
                # deeper and also match.
                if _ambient(resolved) \
                        and not _ambient(resolved.split(".")[0]) \
                        and not _ambient(self._resolved(node.value, unit)):
                    yield unit.finding(
                        self.name, node,
                        f"direct use of {resolved!r}; {_ADVICE}",
                    )

    def _resolved(self, node, unit):
        name = dotted_name(node)
        return name and resolve_dotted(name, unit.aliases)
