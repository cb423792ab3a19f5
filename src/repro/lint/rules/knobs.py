"""KNB001 — the program reads no environment variable.

A run is its command line: every setting (pool widths, scales, server
limits, the artifact directory) is a flag of ``python -m repro.bench``
or ``python -m repro.server``, or a constructor argument, so two runs
with the same arguments do the same work whatever the shell exported.
This rule flags every ``os.environ[...]``, ``os.environ.get(...)`` and
``os.getenv(...)`` read, aliased imports (``from os import environ``)
included.  Passing ``os.environ`` on to a child process is not a read.
"""

import ast

from ..core import Rule, dotted_name, resolve_dotted

#: Calls that read the process environment.
ENV_READS = frozenset({"os.getenv", "os.environ.get"})
_ADVICE = "take the setting as a command-line flag or an argument instead"


class KnobRule(Rule):
    name = "KNB001"
    scope = "file"

    def check_file(self, unit):
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, ast.Load) \
                    and self._resolved(node.value, unit) == "os.environ":
                key = node.slice
            elif isinstance(node, ast.Call) \
                    and self._resolved(node.func, unit) in ENV_READS:
                key = node.args[0] if node.args else None
            else:
                continue
            yield unit.finding(
                self.name, node,
                f"{self._key(key, unit)} is read from the environment; "
                f"{_ADVICE}",
            )

    def _resolved(self, node, unit):
        name = dotted_name(node)
        return name and resolve_dotted(name, unit.aliases)

    def _key(self, node, unit):
        """The variable name a read spells, when it is a constant."""
        if isinstance(node, ast.Name):
            node = unit.constants.get(node.id)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return "a variable"
