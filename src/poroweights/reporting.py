"""JSON/CSV serialization of analysis reports.

Column orders are fixed and documented here; byte-identical reruns require
only suppressing the timestamp header.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from .intervals import Interval

POROSITY_COLUMNS = ["lo", "hi", "rho_minus", "rho_plus", "sigma"]
TRIPLE_COLUMNS = ["a", "b", "c", "value", "scale"]
WEIGHT_TABLE_COLUMNS = ["x", "distance", "weight"]
DIMENSION_COLUMNS = ["eps", "measure"]
DECAY_COLUMNS = ["eps", "measure", "bound"]
MATRIX_COLUMNS = [
    "set",
    "right_certified",
    "left_certified",
    "alpha",
    "plus_bounded",
    "plus_divergent",
    "minus_divergent",
    "agreement",
]


def jsonable(obj: Any) -> Any:
    """Recursively convert report objects into JSON-serialisable structures."""
    if isinstance(obj, Interval):
        return [obj.lo, obj.hi]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            if not f.repr:
                continue  # bulky row tables are exported as CSV instead
            out[f.name] = jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float):
        if obj != obj:
            return "nan"
        if obj == float("inf"):
            return "inf"
        if obj == float("-inf"):
            return "-inf"
        return obj
    return obj


def report_document(kind: str, payload: Any, timestamp: bool = True) -> dict:
    doc: dict[str, Any] = {"report": kind}
    if timestamp:
        doc["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    doc["body"] = jsonable(payload)
    return doc


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_json(doc))


def write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
