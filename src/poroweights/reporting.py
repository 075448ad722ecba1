"""JSON/CSV serialization of analysis reports.

Column orders are fixed and documented here; byte-identical reruns require
only suppressing the timestamp header.

A CSV file holds exactly the bytes ``csv.writer`` writes with the default
dialect on a file opened with ``newline=""``: each cell as ``str(value)``,
quoted only when it holds a comma, a quote or a line break (QUOTE_MINIMAL),
each line ended by ``\\r\\n``.  :func:`write_csv` formats rows of exact
``float`` cells itself, at the cost of their distinct values; a memo of at
most ``_MEMO_CAP`` floats and one batch of at most ``_BATCH_LINES`` lines is
held at any time.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import json
from itertools import chain, islice
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


# The bounds of write_csv: the distinct floats whose text it keeps, and the
# rows it reads, joins and writes at once.
_MEMO_CAP = 512
_BATCH_LINES = 64


def write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header and the rows, byte for byte as ``csv.writer`` would.

    ``rows`` is read once, ``_BATCH_LINES`` rows at a time.  A batch of
    tuples or lists whose cells are all exact floats (``type(x) is float``)
    is formatted here: ``str(x)`` is ``repr(x)``, which never needs quoting,
    so a line is the cells' text joined by commas.  Each distinct value of
    a batch is formatted once and kept for later batches; the memo is
    emptied before it would pass ``_MEMO_CAP`` values.  A batch that holds
    a zero (0.0 and -0.0 are one key) or more distinct values than the memo
    holds is formatted cell by cell.  Every other batch (str, bool, int or
    None cells, float subclasses such as ``np.float64``, other row types)
    goes to ``csv.writer`` unchanged.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        reprs: dict[float, str] = {}
        it = iter(rows)
        while batch := list(islice(it, _BATCH_LINES)):
            cells = list(chain.from_iterable(batch)) if set(map(type, batch)) <= {tuple, list} else None
            if cells is None or not set(map(type, cells)) <= {float}:
                writer.writerows(batch)
                continue
            distinct = set(cells)
            if 0.0 in distinct or len(distinct) > _MEMO_CAP:
                text = repr
            else:
                new = distinct.difference(reprs)
                if len(reprs) + len(new) > _MEMO_CAP:
                    reprs.clear()
                    new = distinct
                reprs.update(zip(new, map(repr, new)))
                text = reprs.__getitem__
            lines = [",".join(map(text, row)) for row in batch]
            lines.append("")
            fh.write("\r\n".join(lines))
