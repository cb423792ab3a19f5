"""KNB001 — every ``REPRO_*`` knob must honor the registry contract.

:mod:`repro.common.knobs` is the single place a ``REPRO_*`` environment
variable may be declared and read; ``docs/cli.md`` is where users learn
it exists; a test that names it is what keeps both honest.  This rule
cross-references all three, so a knob cannot be added half-way:

* **unregistered** — a ``REPRO_*`` name referenced in source (via
  ``knobs.text``, an ``os.environ`` read, or any string
  constant) that has no ``register("NAME", ...)`` declaration in the
  registry module;
* **undocumented** — a registered-or-read name missing from
  ``docs/cli.md``;
* **untested** — a name no file under ``tests/`` mentions;
* **direct read** — any ``os.environ[...]`` / ``os.environ.get`` /
  ``os.getenv`` of a ``REPRO_*`` name outside the registry module
  itself (the registry's ``text()`` is the one sanctioned accessor).

The registry, docs, and tests are resolved against
:attr:`Project.root`, so the rule also works on fixture mini-trees;
checks whose anchor file does not exist in the tree are skipped rather
than failed (linting a subdirectory must not drown in
missing-docs noise).
"""

import ast
import os
import re

from ..core import Rule, dotted_name

KNOB_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")

REGISTRY_SUFFIX = "repro/common/knobs.py"

ENV_READ_NAMES = frozenset({"os.environ.get", "os.getenv"})


def _string_value(node, constants):
    """The str value of a literal or module-level constant name."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


def _module_constants(tree):
    constants = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, str):
            constants[stmt.targets[0].id] = stmt.value.value
    return constants


class KnobRule(Rule):
    name = "KNB001"
    description = (
        "REPRO_* knobs must be registered in repro.common.knobs, "
        "documented in docs/cli.md, and named in at least one test"
    )
    scope = "project"

    def check_project(self, project):
        registry_unit = None
        for unit in project.units:
            if unit.posix.endswith(REGISTRY_SUFFIX):
                registry_unit = unit
                break
        registered = self._registered_names(project, registry_unit)
        documented = self._documented_names(project)
        tested = self._tested_names(project)
        referenced = {}     # name -> (unit, anchor node)
        findings = []
        for unit in project.units:
            if unit.posix.endswith(REGISTRY_SUFFIX):
                continue
            if self._is_test_file(unit.posix):
                continue
            constants = _module_constants(unit.tree)
            for node in ast.walk(unit.tree):
                if isinstance(node, ast.Call):
                    name = self._direct_env_read(node, unit, constants)
                    if name is not None:
                        findings.append(unit.finding(
                            self.name, node,
                            f"{name} is read directly from os.environ; "
                            f"route the read through "
                            f"repro.common.knobs.text so the "
                            f"registry stays the single source of "
                            f"truth",
                        ))
                if isinstance(node, ast.Subscript):
                    base = dotted_name(node.value)
                    if base in ("os.environ", "environ"):
                        value = _string_value(node.slice, constants)
                        if value and KNOB_RE.fullmatch(value):
                            findings.append(unit.finding(
                                self.name, node,
                                f"{value} is read directly from "
                                f"os.environ; route the read through "
                                f"repro.common.knobs.text so the "
                                f"registry stays the single source of "
                                f"truth",
                            ))
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    for name in KNOB_RE.findall(node.value):
                        current = referenced.get(name)
                        anchor = (unit, node)
                        if current is None or self._anchor_key(anchor) \
                                < self._anchor_key(current):
                            referenced[name] = anchor
        for name in sorted(referenced):
            unit, node = referenced[name]
            if registered is not None and name not in registered:
                findings.append(unit.finding(
                    self.name, node,
                    f"{name} is not registered in repro.common.knobs; "
                    f"add a register(\"{name}\", ...) declaration",
                ))
            if documented is not None and name not in documented:
                findings.append(unit.finding(
                    self.name, node,
                    f"{name} is not documented in docs/cli.md; add it "
                    f"to the environment-variable table",
                ))
            if tested is not None and name not in tested:
                findings.append(unit.finding(
                    self.name, node,
                    f"{name} is not named in any test under tests/; "
                    f"add a test that exercises or at least names it",
                ))
        seen = set()
        for finding in sorted(findings):
            if finding not in seen:
                seen.add(finding)
                yield finding

    def _anchor_key(self, anchor):
        unit, node = anchor
        return (unit.posix, getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0))

    def _is_test_file(self, posix):
        base = posix.rsplit("/", 1)[-1]
        return base.startswith("test_") or "/tests/" in f"/{posix}"

    # ------------------------------------------------------------------
    # The three cross-referenced surfaces

    def _registered_names(self, project, registry_unit):
        """Names declared via ``register("NAME", ...)``; None skips."""
        tree = None
        if registry_unit is not None:
            tree = registry_unit.tree
        elif project.root:
            for rel in (f"src/{REGISTRY_SUFFIX}", REGISTRY_SUFFIX):
                path = os.path.join(project.root, rel)
                if os.path.isfile(path):
                    try:
                        with open(path, encoding="utf-8") as fh:
                            tree = ast.parse(fh.read())
                    except (OSError, SyntaxError):
                        return None
                    break
        if tree is None:
            return None
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = dotted_name(node.func) or ""
                if callee.split(".")[-1] == "register" and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Constant) \
                            and isinstance(first.value, str):
                        names.add(first.value)
        return names

    def _documented_names(self, project):
        if not project.root:
            return None
        path = os.path.join(project.root, "docs", "cli.md")
        if not os.path.isfile(path):
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                return set(KNOB_RE.findall(fh.read()))
        except OSError:
            return None

    def _tested_names(self, project):
        if not project.root:
            return None
        tests_dir = os.path.join(project.root, "tests")
        if not os.path.isdir(tests_dir):
            return None
        names = set()
        for dirpath, dirnames, filenames in os.walk(tests_dir):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    with open(path, encoding="utf-8") as fh:
                        names |= set(KNOB_RE.findall(fh.read()))
                except OSError:
                    continue
        return names

    # ------------------------------------------------------------------
    # Direct environment reads

    def _direct_env_read(self, call, unit, constants):
        """The REPRO_* name of a raw os.environ read, or None."""
        func = call.func
        name = dotted_name(func)
        if name is None:
            return None
        resolved = name
        head, _, rest = name.partition(".")
        origin = unit.aliases.get(head)
        if origin:
            resolved = f"{origin}.{rest}" if rest else origin
        if resolved in ENV_READ_NAMES or name in ENV_READ_NAMES:
            if call.args:
                value = _string_value(call.args[0], constants)
                if value and KNOB_RE.fullmatch(value):
                    return value
        return None
