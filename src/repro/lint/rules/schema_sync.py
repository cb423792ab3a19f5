"""SCH001 — the run report and its schema must not drift.

``repro.obs.report.build_run_report`` emits the ``repro.report/v1``
document and ``repro.obs.schemas.RUN_REPORT_SCHEMA`` pins its shape;
CI validates real reports, but validation only catches drift *when the
drifting key is exercised by the CI run*.  This cross-file pass catches
it statically, in both directions:

* a key emitted by the report builder that the schema does not allow
  (``additionalProperties: False`` levels) — validation would fail at
  runtime;
* a key the schema ``require``\\ s that the builder never emits;
* a schema property no code path emits — dead schema, the subtler
  drift, because every report silently stops carrying a documented key.

The comparison walks the dict literal returned by ``build_run_report``
against the schema's ``properties``, recursing wherever *both* sides
are literal dicts; levels built dynamically (variables, ``**`` splats)
are skipped, since their keys are not statically known.  The pass is
a no-op for projects that define neither symbol.
"""

import ast

from ..core import Rule

REPORT_FUNCTION = "build_run_report"
SCHEMA_NAME = "RUN_REPORT_SCHEMA"


def _resolve_dict(node, constants):
    """A Dict node, following one level of Name indirection."""
    if isinstance(node, ast.Name):
        node = constants.get(node.id)
    return node if isinstance(node, ast.Dict) else None


def _literal_keys(dict_node):
    """``{key: value node}`` for constant-string keys; ``None`` when the
    dict uses dynamic keys or ``**`` splats (not statically knowable)."""
    keys = {}
    for key, value in zip(dict_node.keys, dict_node.values):
        if key is None:     # ** splat
            return None
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        keys[key.value] = value
    return keys


def _schema_level(schema_node, constants):
    """(properties {name: subschema node}, required set, closed bool)."""
    keys = _literal_keys(schema_node)
    if keys is None:
        return None
    properties = {}
    props_node = _resolve_dict(keys.get("properties"), constants)
    if props_node is not None:
        prop_keys = _literal_keys(props_node)
        if prop_keys is None:
            return None
        properties = {
            name: _resolve_dict(value, constants)
            for name, value in prop_keys.items()
        }
    required = set()
    req_node = keys.get("required")
    if isinstance(req_node, (ast.List, ast.Tuple)):
        for element in req_node.elts:
            if isinstance(element, ast.Constant) \
                    and isinstance(element.value, str):
                required.add(element.value)
    closed = False
    extra = keys.get("additionalProperties")
    if isinstance(extra, ast.Constant) and extra.value is False:
        closed = True
    return properties, required, closed


class SchemaSyncRule(Rule):
    name = "SCH001"
    scope = "project"

    def check_project(self, project):
        emitters = list(project.units_defining_function(REPORT_FUNCTION))
        schemas = list(project.units_assigning(SCHEMA_NAME))
        if not emitters or not schemas:
            return
        report_unit, report_fn = emitters[0]
        schema_unit, schema = schemas[0]
        if not isinstance(schema, ast.Dict):
            return

        returned = None
        for node in ast.walk(report_fn):
            if isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Dict):
                returned = node.value
        if returned is None:
            yield report_unit.finding(
                self.name, report_fn,
                f"{REPORT_FUNCTION} does not return a dict literal; "
                f"SCH001 cannot check it against {SCHEMA_NAME}",
            )
            return

        yield from self._compare(
            report_unit, schema_unit, returned, schema,
            schema_unit.constants, path="$",
        )

    def _compare(self, report_unit, schema_unit, emitted_node, schema_node,
                 constants, path):
        emitted = _literal_keys(emitted_node)
        level = _schema_level(schema_node, constants)
        if emitted is None or level is None:
            return
        properties, required, closed = level

        for key, value in emitted.items():
            if key not in properties:
                if closed:
                    yield report_unit.finding(
                        self.name, value,
                        f"{path}.{key} is emitted by {REPORT_FUNCTION} "
                        f"but is not a property of {SCHEMA_NAME} "
                        f"(additionalProperties is false): every "
                        f"report would fail validation",
                    )
                continue
            subschema = properties[key]
            if isinstance(value, ast.Dict) and subschema is not None:
                yield from self._compare(
                    report_unit, schema_unit, value, subschema,
                    constants, f"{path}.{key}",
                )

        for key in sorted(required - set(emitted)):
            yield report_unit.finding(
                self.name, emitted_node,
                f"{path}.{key} is required by {SCHEMA_NAME} but "
                f"{REPORT_FUNCTION} never emits it: every report "
                f"would fail validation",
            )

        for key in sorted(set(properties) - set(emitted)):
            if key not in required:
                yield schema_unit.finding(
                    self.name, schema_node,
                    f"{path}.{key} is a property of {SCHEMA_NAME} but "
                    f"{REPORT_FUNCTION} never emits it: dead schema "
                    f"(drop the property or emit the key)",
                )
