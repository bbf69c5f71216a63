#!/usr/bin/env python
"""Validate a wide-event spill or a span log against ``tests/event_schema.json``.

A dependency-free validator for the subset of JSON Schema the schema
uses (type / enum / required / additionalProperties / items / minimum /
minLength, including union types like ``["integer", "null"]``) — the
container has no ``jsonschema`` package, and the formats are small
enough that a hand-rolled checker stays readable.  One schema covers
both files: a spill line is a wide event whose ``spans`` array holds the
request's flat tracer records, and a line of an offline ``--trace`` file
is one such record (``properties.spans.items``).

Usable both ways:

* CLI (CI smoke jobs): ``python tests/validate_events.py FILE.jsonl``
  checks a spill when its first record carries a ``schema`` tag and a
  span log otherwise; it exits non-zero listing every violation;
* library (tests): ``from validate_events import validate_file,
  validate_event, validate_span``.

Beyond per-record conformance, :func:`validate_file` checks what the
schema language cannot express.  In a spill, event ids are unique (one
service run emits each request id once), every event has a non-null
``keep`` reason (the spill holds only the kept tail, so a ``keep: null``
record means the recorder wrote something it decided to drop), and every
event carries a ``spans`` array whose records link up.  In a span log,
the whole file's records link up.  Records link up when their ids are
unique and every non-null ``parent`` references a record among them.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict, List, Sequence, Tuple

SCHEMA_PATH = pathlib.Path(__file__).parent / "event_schema.json"

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def load_schema() -> Dict[str, Any]:
    return json.loads(SCHEMA_PATH.read_text())


def span_schema(schema: Dict[str, Any] = None) -> Dict[str, Any]:
    """The schema of one tracer record, as nested in the event schema."""
    return (schema or load_schema())["properties"]["spans"]["items"]


def _type_ok(value: Any, spec: Any) -> bool:
    types = spec if isinstance(spec, list) else [spec]
    return any(_TYPE_CHECKS[t](value) for t in types)


def _check(value: Any, schema: Dict[str, Any], path: str, errors: List[str]) -> None:
    if "type" in schema and not _type_ok(value, schema["type"]):
        errors.append(f"{path}: expected {schema['type']}, got {type(value).__name__}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum")
    if "minimum" in schema and isinstance(value, (int, float)) and (
        not isinstance(value, bool) and value < schema["minimum"]
    ):
        errors.append(f"{path}: {value!r} < minimum {schema['minimum']}")
    if "minLength" in schema and isinstance(value, str) and (
        len(value) < schema["minLength"]
    ):
        errors.append(f"{path}: shorter than minLength {schema['minLength']}")
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _check(item, schema["items"], f"{path}[{index}]", errors)
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", []):
            if name not in value:
                errors.append(f"{path}: missing required property {name!r}")
        extra = schema.get("additionalProperties", True)
        for name, item in value.items():
            if name in properties:
                _check(item, properties[name], f"{path}.{name}", errors)
            elif extra is False:
                errors.append(f"{path}: unexpected property {name!r}")
            elif isinstance(extra, dict):
                _check(item, extra, f"{path}.{name}", errors)


def validate_event(event: Dict[str, Any], schema: Dict[str, Any] = None) -> List[str]:
    """Violations of one wide event against the schema (empty = valid)."""
    errors: List[str] = []
    _check(event, schema or load_schema(), "$", errors)
    return errors


def validate_span(record: Dict[str, Any], schema: Dict[str, Any] = None) -> List[str]:
    """Violations of one tracer record against the schema (empty = valid)."""
    errors: List[str] = []
    _check(record, span_schema(schema), "$", errors)
    return errors


def link_errors(records: Sequence[Any]) -> List[str]:
    """Duplicate ids and dangling parents among tracer *records*."""
    errors: List[str] = []
    ids = set()
    for index, record in enumerate(records):
        record_id = record.get("id") if isinstance(record, dict) else None
        if isinstance(record_id, int):
            if record_id in ids:
                errors.append(f"record {index}: duplicate id {record_id}")
            ids.add(record_id)
    for index, record in enumerate(records):
        parent = record.get("parent") if isinstance(record, dict) else None
        if parent is not None and parent not in ids:
            errors.append(f"record {index}: parent {parent} references no record")
    return errors


def _read_jsonl(path: str, errors: List[str]) -> List[Tuple[int, Any]]:
    """(line number, parsed record) per non-blank line of a JSONL file."""
    records = []
    for lineno, line in enumerate(
        pathlib.Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            records.append((lineno, json.loads(line)))
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc})")
    return records


def validate_file(path: str) -> List[str]:
    """Violations across a whole JSONL spill or span log."""
    schema = load_schema()
    errors: List[str] = []
    records = _read_jsonl(path, errors)
    if not records:
        errors.append(f"{path}: file contains no records")
        return errors
    first = records[0][1]
    if isinstance(first, dict) and "schema" in first:
        _validate_spill(records, schema, errors)
    else:
        for lineno, record in records:
            for error in validate_span(record, schema):
                errors.append(f"line {lineno}: {error}")
        errors.extend(link_errors([record for _, record in records]))
    return errors


def _validate_spill(
    records: List[Tuple[int, Any]], schema: Dict[str, Any], errors: List[str]
) -> None:
    ids = set()
    for lineno, event in records:
        for error in validate_event(event, schema):
            errors.append(f"line {lineno}: {error}")
        if not isinstance(event, dict):
            continue
        event_id = event.get("id")
        if isinstance(event_id, int):
            if event_id in ids:
                errors.append(f"line {lineno}: duplicate id {event_id}")
            ids.add(event_id)
        if event.get("keep") is None:
            errors.append(
                f"line {lineno}: spilled event has no keep reason "
                "(the spill should hold only the kept tail)"
            )
        spans = event.get("spans")
        if spans is None:
            errors.append(f"line {lineno}: spilled event has no spans")
        elif isinstance(spans, list):
            for error in link_errors(spans):
                errors.append(f"line {lineno}: spans {error}")


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: validate_events.py FILE.jsonl", file=sys.stderr)
        return 2
    errors = validate_file(argv[0])
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"{argv[0]}: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print(f"{argv[0]}: valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
