"""Hand-rolled validation for the JSONL trace format (no external deps).

One trace record per line::

    {"seq": 12, "tag": 2, "mechanism": "jni:GetStringUTFChars",
     "location": "0x60000010",
     "src": {"kind": "iref", "base": 4259841, "len": 0, "name": ""},
     "dst": {"kind": "mem", "base": 1627390720, "len": 13, "name": ""}}

``tests/observability/test_report_cli.py`` validates every line of an
ephone trace against this.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple, Union

from repro.observability.ledger import LOC_KINDS

TRACE_SCHEMA = "ndroid_trace/v1"

_EDGE_FIELDS = {"seq": int, "tag": int, "mechanism": str, "location": str,
                "src": dict, "dst": dict}
_LOC_FIELDS = {"kind": str, "base": int, "len": int, "name": str}


def _validate_loc(loc: Dict, where: str) -> List[str]:
    errors = []
    for field, kind in _LOC_FIELDS.items():
        if field not in loc:
            errors.append(f"{where}: missing {field!r}")
        elif not isinstance(loc[field], kind) or isinstance(loc[field], bool):
            errors.append(f"{where}.{field}: expected {kind.__name__}, "
                          f"got {type(loc[field]).__name__}")
    kind_value = loc.get("kind")
    if isinstance(kind_value, str) and kind_value not in LOC_KINDS:
        errors.append(f"{where}.kind: unknown kind {kind_value!r}")
    return errors


def validate_record(record: Dict) -> List[str]:
    """Errors for one parsed trace record (empty list = valid)."""
    errors = []
    for field, kind in _EDGE_FIELDS.items():
        if field not in record:
            errors.append(f"missing {field!r}")
        elif not isinstance(record[field], kind) or \
                isinstance(record[field], bool):
            errors.append(f"{field}: expected {kind.__name__}, "
                          f"got {type(record[field]).__name__}")
    if isinstance(record.get("seq"), int) and record["seq"] < 0:
        errors.append("seq: must be >= 0")
    if isinstance(record.get("tag"), int) and record["tag"] <= 0:
        errors.append("tag: must be a non-clear label (> 0)")
    if isinstance(record.get("mechanism"), str) and not record["mechanism"]:
        errors.append("mechanism: must be non-empty")
    for side in ("src", "dst"):
        if isinstance(record.get(side), dict):
            errors.extend(_validate_loc(record[side], side))
    return errors


def validate_lines(lines: Iterable[str],
                   max_errors: int = 20) -> Tuple[int, List[str]]:
    """Validate raw JSONL lines; returns (record_count, errors)."""
    count = 0
    errors: List[str] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        count += 1
        try:
            record = json.loads(line)
        except ValueError as error:
            errors.append(f"line {number}: not JSON ({error})")
        else:
            if not isinstance(record, dict):
                errors.append(f"line {number}: expected an object")
            else:
                errors.extend(f"line {number}: {text}"
                              for text in validate_record(record))
        if len(errors) >= max_errors:
            errors.append("... (further errors suppressed)")
            break
    return count, errors


def validate_trace(source: Union[str, Iterable[str]],
                   max_errors: int = 20) -> Tuple[int, List[str]]:
    """Validate a trace file path or an iterable of lines."""
    if isinstance(source, str):
        with open(source) as handle:
            return validate_lines(handle, max_errors=max_errors)
    return validate_lines(source, max_errors=max_errors)
