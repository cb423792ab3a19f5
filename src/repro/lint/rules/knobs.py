"""KNB001 — every ``REPRO_*`` name goes through the knob registry.

:mod:`repro.common.knobs` is the single place a ``REPRO_*`` environment
variable may be declared and read.  Over the linted files this rule
flags

* **unregistered** — a ``REPRO_*`` name in any string constant (a
  ``knobs.text`` argument, an ``os.environ`` key, a help string) that
  has no ``register("NAME", ...)`` declaration in the registry module;
* **direct read** — any ``os.environ[...]`` / ``os.environ.get`` /
  ``os.getenv`` of a ``REPRO_*`` name outside the registry module
  itself (the registry's ``text()`` is the one sanctioned accessor).

The registry is whichever linted file is ``repro/common/knobs.py``;
when the linted paths do not include it the *unregistered* leg is
skipped.  That every registered knob is documented in ``docs/cli.md``
and named in a test is asserted by ``tests/test_knobs.py``, which can
simply import the registry.
"""

import ast
import re

from ..core import ENV_READS, Rule, dotted_name, resolve_dotted

KNOB_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")

REGISTRY_SUFFIX = "repro/common/knobs.py"


def _knob_name(node, unit):
    """The ``REPRO_*`` name a literal or module-level constant spells."""
    if isinstance(node, ast.Name):
        node = unit.constants.get(node.id)
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and KNOB_RE.fullmatch(node.value):
        return node.value
    return None


def _is_test_file(posix):
    return posix.rsplit("/", 1)[-1].startswith("test_") \
        or "/tests/" in f"/{posix}"


class KnobRule(Rule):
    name = "KNB001"
    description = (
        "REPRO_* names must be registered in repro.common.knobs and "
        "read only through it"
    )
    scope = "project"

    def check_project(self, project):
        registered = None
        for unit in project.units:
            if unit.posix.endswith(REGISTRY_SUFFIX):
                registered = self._registered_names(unit.tree)
        referenced = {}     # name -> (position, unit, node) of its first use
        for unit in project.units:
            if unit.posix.endswith(REGISTRY_SUFFIX) \
                    or _is_test_file(unit.posix):
                continue
            for node in ast.walk(unit.tree):
                name = self._direct_env_read(node, unit)
                if name is not None:
                    yield unit.finding(
                        self.name, node,
                        f"{name} is read directly from os.environ; "
                        f"route the read through "
                        f"repro.common.knobs.text so the registry "
                        f"stays the single source of truth",
                    )
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    position = (unit.posix, node.lineno, node.col_offset)
                    for name in KNOB_RE.findall(node.value):
                        if name not in referenced \
                                or position < referenced[name][0]:
                            referenced[name] = (position, unit, node)
        if registered is None:
            return
        for name in sorted(set(referenced) - registered):
            _, unit, node = referenced[name]
            yield unit.finding(
                self.name, node,
                f"{name} is not registered in repro.common.knobs; "
                f"add a register(\"{name}\", ...) declaration",
            )

    def _registered_names(self, tree):
        """Names declared via ``register("NAME", ...)``."""
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.args \
                    and (dotted_name(node.func) or "").split(".")[-1] \
                    == "register":
                first = node.args[0]
                if isinstance(first, ast.Constant) \
                        and isinstance(first.value, str):
                    names.add(first.value)
        return names

    def _direct_env_read(self, node, unit):
        """The REPRO_* name of a raw os.environ read, or None."""
        if isinstance(node, ast.Subscript):
            if dotted_name(node.value) in ("os.environ", "environ"):
                return _knob_name(node.slice, unit)
        elif isinstance(node, ast.Call) and node.args:
            name = dotted_name(node.func)
            if name is not None and (
                    name in ENV_READS
                    or resolve_dotted(name, unit.aliases) in ENV_READS):
                return _knob_name(node.args[0], unit)
        return None
