"""Documented schemas for the trace and report files, plus a validator.

The observability exports are consumed outside this process (CI checks
them, notebooks read them), so their shapes are pinned here as data and
validated with a deliberately small JSON-Schema subset — ``type``,
``properties``, ``required``, ``additionalProperties``, ``items``,
``enum``, ``minimum`` — implemented in :func:`validate_instance` so no
third-party ``jsonschema`` dependency is needed.

Prose versions of both schemas live in ``docs/observability.md``; CI
runs ``python -m repro.obs.validate`` against a real traced benchmark
to keep code, schema, and docs honest.
"""


class SchemaError(ValueError):
    """An instance does not match its schema (message carries the path)."""


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, type_name):
    if type_name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[type_name])


def validate_instance(instance, schema, path="$"):
    """Validate ``instance`` against a schema dict; raise on mismatch.

    Args:
        instance: any JSON-decodable value.
        schema: a schema dict using the subset described in the module
            docstring.
        path: JSONPath-ish location prefix used in error messages.

    Raises:
        SchemaError: naming the first offending location and constraint.
    """
    expected = schema.get("type")
    if expected is not None:
        names = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(instance, name) for name in names):
            raise SchemaError(
                f"{path}: expected {'/'.join(names)}, "
                f"got {type(instance).__name__}"
            )
    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(
            f"{path}: {instance!r} not in enum {schema['enum']!r}"
        )
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool):
        if instance < schema["minimum"]:
            raise SchemaError(
                f"{path}: {instance!r} below minimum {schema['minimum']!r}"
            )
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                raise SchemaError(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in properties:
                validate_instance(value, properties[key], f"{path}.{key}")
            elif additional is False:
                raise SchemaError(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                validate_instance(value, additional, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            validate_instance(item, schema["items"], f"{path}[{index}]")
    return instance


# ----------------------------------------------------------------------
# Trace file (JSON Lines): every line is a span record or an event record.

SPAN_RECORD_SCHEMA = {
    "type": "object",
    "required": ["type", "span_id", "parent_id", "name", "start", "wall_s"],
    "properties": {
        "type": {"enum": ["span"]},
        "span_id": {"type": "integer", "minimum": 1},
        "parent_id": {"type": ["integer", "null"]},
        "name": {"type": "string"},
        "start": {"type": "number"},
        "wall_s": {"type": "number", "minimum": 0},
        "attrs": {"type": "object"},
    },
    "additionalProperties": False,
}

EVENT_RECORD_SCHEMA = {
    "type": "object",
    "required": ["type", "seq", "kind", "payload"],
    "properties": {
        "type": {"enum": ["event"]},
        "seq": {"type": "integer", "minimum": 1},
        "kind": {"type": "string"},
        "payload": {"type": "object"},
    },
    "additionalProperties": False,
}


def validate_trace_record(record, path="$"):
    """Validate one decoded trace line (span or event record)."""
    if not isinstance(record, dict) or "type" not in record:
        raise SchemaError(f"{path}: trace record must carry a 'type' key")
    if record["type"] == "span":
        return validate_instance(record, SPAN_RECORD_SCHEMA, path)
    if record["type"] == "event":
        return validate_instance(record, EVENT_RECORD_SCHEMA, path)
    raise SchemaError(f"{path}: unknown trace record type {record['type']!r}")


# ----------------------------------------------------------------------
# Run report (a single JSON object).

_CACHE_COUNTERS_SCHEMA = {
    "type": "object",
    "required": ["name", "hits", "misses", "evictions", "invalidations",
                 "hit_rate"],
    "properties": {
        "name": {"type": "string"},
        "hits": {"type": "integer", "minimum": 0},
        "misses": {"type": "integer", "minimum": 0},
        "evictions": {"type": "integer", "minimum": 0},
        "invalidations": {"type": "integer", "minimum": 0},
        "hit_rate": {"type": "number", "minimum": 0},
    },
    "additionalProperties": False,
}

_BYTES = {"type": "integer", "minimum": 0}

_RESIDENT_BYTES_SCHEMA = {
    "type": "object",
    "required": ["tables", "dictionaries"],
    "properties": {
        # Column bytes by dtype name: int16, int32, int64, float64 (a
        # string column is its int16 or int32 codes; its dictionary's
        # values are under "dictionaries").
        "tables": {"type": "object", "additionalProperties": _BYTES},
        "dictionaries": {
            "type": "object",
            "required": ["codes", "orders", "lexsorts", "values"],
            "properties": {
                "codes": _BYTES,
                "orders": _BYTES,
                "lexsorts": _BYTES,
                "values": _BYTES,
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

# Of the current configuration's indexes, those ever built: an index
# owes its sort until first read.
_INDEXES_SORTED_SCHEMA = {
    "type": "object",
    "required": ["sorted", "indexes"],
    "properties": {
        "sorted": {"type": "integer", "minimum": 0},
        "indexes": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

_STAGE_SCHEMA = {
    "type": "object",
    "required": ["seconds", "count"],
    "properties": {
        "seconds": {"type": "number", "minimum": 0},
        "count": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

_MEASUREMENT_SCHEMA = {
    "type": "object",
    "required": ["workload", "configuration", "kind", "queries",
                 "total_seconds", "timed_out", "per_query"],
    "properties": {
        "workload": {"type": "string"},
        "configuration": {"type": "string"},
        "kind": {"enum": ["A", "E", "H"]},
        "queries": {"type": "integer", "minimum": 0},
        "total_seconds": {"type": "number", "minimum": 0},
        "timed_out": {"type": "integer", "minimum": 0},
        "per_query": {"type": "array", "items": {"type": "number"}},
    },
    "additionalProperties": False,
}

RUN_REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "run", "fingerprints", "stages", "caches",
                 "metrics", "measurements"],
    "properties": {
        "schema": {"enum": ["repro.report/v1"]},
        "run": {
            "type": "object",
            "required": ["seed", "scale", "workload_size", "timeout",
                         "jobs", "experiments"],
            "properties": {
                "seed": {"type": "integer"},
                "scale": {"type": "number"},
                "workload_size": {"type": "integer"},
                "timeout": {"type": "number"},
                "jobs": {"type": "integer", "minimum": 1},
                "experiments": {
                    "type": "array", "items": {"type": "string"},
                },
            },
            "additionalProperties": False,
        },
        "fingerprints": {
            "type": "object",
            "additionalProperties": {"type": "string"},
        },
        "stages": {
            "type": "object",
            "additionalProperties": _STAGE_SCHEMA,
        },
        "caches": {
            "type": "object",
            "required": ["artifact", "databases"],
            "properties": {
                "artifact": {"type": "object"},
                "databases": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object",
                        "required": ["resident_bytes", "indexes",
                                     "measure_cache"],
                        "properties": {
                            "resident_bytes": _RESIDENT_BYTES_SCHEMA,
                            "indexes": _INDEXES_SORTED_SCHEMA,
                            # The measurement memo: a hit is an
                            # execution a repeated plan did not need.
                            "measure_cache": _CACHE_COUNTERS_SCHEMA,
                        },
                        "additionalProperties": _CACHE_COUNTERS_SCHEMA,
                    },
                },
            },
            "additionalProperties": False,
        },
        "metrics": {"type": "object"},
        "measurements": {"type": "array", "items": _MEASUREMENT_SCHEMA},
    },
    "additionalProperties": False,
}


def validate_run_report(report, path="$"):
    """Validate a decoded run report against :data:`RUN_REPORT_SCHEMA`."""
    return validate_instance(report, RUN_REPORT_SCHEMA, path)
