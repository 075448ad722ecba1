"""The report writers: CSV bytes as ``csv.writer`` writes them, the writer's
bounds, and the JSON documents.

``write_csv`` formats batches of exact-float rows itself; every file it
writes is compared byte for byte with the one ``csv.writer`` writes on a
file opened with ``newline=""``, on rows that mix floats with every other
cell type and cross the batch and memo bounds many times.
"""

import csv
import dataclasses
import datetime
import inspect
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import poroweights.reporting as reporting
from poroweights import Interval, Lattice, PorosityParams, ProbeFamily, certify
from poroweights.reporting import dump_json, jsonable, report_document, write_csv

COLUMNS = ["a", "b,c", 'd"e', "f"]
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, sys.float_info.min / 3,
                  sys.float_info.min, sys.float_info.max, -sys.float_info.max, 0.1, 1.0, -1.0, 1e16, 1e-7]
OTHER_CELLS = [0, 1, -1, True, False, None, np.float64(0.5), np.float64(-0.0), np.float64(math.nan),
               "", ",", '"', "\r", "\n", 'a,"b"\r\nc', " x ", "1.0"]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
others = st.one_of(st.sampled_from(OTHER_CELLS), st.text(max_size=4), st.integers(),
                   st.floats().map(np.float64))
float_rows = st.lists(floats, max_size=6).flatmap(lambda r: st.sampled_from([tuple(r), r]))
mixed_rows = st.lists(st.one_of(floats, others), min_size=1, max_size=6)
rows_of = st.lists(st.one_of(float_rows, float_rows, float_rows, mixed_rows, st.just(("",))), max_size=40)


def reference(path: Path, columns, rows) -> bytes:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    return path.read_bytes()


def written(path: Path, columns, rows) -> bytes:
    write_csv(path, columns, rows)
    return path.read_bytes()


def once(rows):
    """The rows as a generator: read once, as the CLI's row generators are."""
    yield from rows


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


class TestCsvBytes:
    @settings(max_examples=300, deadline=None)
    @given(rows=rows_of, cap=st.sampled_from([1, 2, 3, 8]), batch=st.sampled_from([1, 2, 3, 5]))
    def test_bytes_are_csv_writer_bytes(self, scratch, rows, cap, batch):
        # tiny bounds, so that a few rows cross the batch and the memo bound many times
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reporting, "_MEMO_CAP", cap)
            mp.setattr(reporting, "_BATCH_LINES", batch)
            got = written(scratch / "got.csv", COLUMNS, once(rows))
        assert got == reference(scratch / "want.csv", COLUMNS, rows)

    @settings(max_examples=100, deadline=None)
    @given(rows=rows_of)
    def test_bytes_are_csv_writer_bytes_at_the_real_bounds(self, scratch, rows):
        assert written(scratch / "got.csv", COLUMNS, once(rows)) == reference(scratch / "want.csv", COLUMNS, rows)

    @pytest.mark.parametrize("width", [1, 5, reporting._MEMO_CAP // reporting._BATCH_LINES + 3],
                             ids=["one-column", "five-columns", "wider-than-the-memo"])
    @pytest.mark.parametrize("mixed_every", [0, 97], ids=["all-float", "mixed"])
    def test_long_tables_cross_every_bound(self, tmp_path, width, mixed_every):
        # repeated values, zeros of both signs and one-off values, over
        # many batches and memo resets; a mixed row now and then
        rnd = random.Random(width)
        pool = [rnd.uniform(-8.0, 8.0) for _ in range(3 * reporting._MEMO_CAP)] + [0.0, -0.0]
        rows = []
        for n in range(40 * reporting._BATCH_LINES + 7):
            if mixed_every and n % mixed_every == 0:
                rows.append((n, True, None, np.float64(n / 7), "x,y", *[0.0] * width))
            else:
                rows.append(tuple(rnd.choice(pool) if rnd.random() < 0.8 else rnd.random() for _ in range(width)))
        assert len({x for r in rows for x in r if type(x) is float}) > 3 * reporting._MEMO_CAP
        got = written(tmp_path / "got.csv", COLUMNS, once(rows))
        assert got == reference(tmp_path / "want.csv", COLUMNS, rows)

    def test_the_traps(self, tmp_path):
        # 0.0 == -0.0 and 1 == 1.0 == True hash alike; np.float64 is a float
        # subclass that csv writes through str(); a row of one empty string
        # is written as a quoted empty field; an empty row as an empty line
        rows = [(0.0, -0.0), (-0.0, 0.0), (1.0, 1, True), (1, 1.0), (np.float64(0.5), 0.5),
                (0.5, np.float64(0.5)), ("",), (), [None], [-0.0], [0.0], (math.nan, -math.nan)]
        got = written(tmp_path / "got.csv", ["x"], once(rows))
        assert got == reference(tmp_path / "want.csv", ["x"], rows)
        assert got.split(b"\r\n")[1:3] == [b"0.0,-0.0", b"-0.0,0.0"]
        assert b"np.float64" not in got

    def test_rows_of_any_iterable_go_to_csv_writer(self, tmp_path):
        rows = [(1.5, 2.5), iter([3.5, 4.5]), "ab", range(3), (5.5,)]
        want = reference(tmp_path / "want.csv", ["x"], [(1.5, 2.5), [3.5, 4.5], "ab", range(3), (5.5,)])
        assert written(tmp_path / "got.csv", ["x"], once(rows)) == want


class TestCsvBounds:
    @pytest.mark.parametrize("width", [5, reporting._MEMO_CAP // reporting._BATCH_LINES + 3],
                             ids=["five-columns", "wider-than-the-memo"])
    def test_the_memo_never_holds_more_than_its_cap(self, tmp_path, width):
        # the memo is a local of write_csv: read it at every line the call runs
        held, zeros = [], []

        def watch(frame, event, arg):
            if event == "line" and "reprs" in frame.f_locals:
                held.append(len(frame.f_locals["reprs"]))
                zeros.append(0.0 in frame.f_locals["reprs"])
            return watch

        def calls(frame, event, arg):
            return watch if frame.f_code is write_csv.__code__ else None

        rnd = random.Random(1)
        pool = [rnd.random() for _ in range(2 * reporting._MEMO_CAP)]

        def draw():  # five columns from the pool, now and then a zero; wide rows of one-off values
            if width > 5:
                return rnd.random()
            return rnd.choice((0.0, -0.0)) if rnd.random() < 0.0005 else rnd.choice(pool)

        rows = [tuple(draw() for _ in range(width)) for _ in range(40 * reporting._BATCH_LINES)]
        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            write_csv(tmp_path / "got.csv", COLUMNS, once(rows))
        finally:
            sys.settrace(previous)
        assert (tmp_path / "got.csv").read_bytes() == reference(tmp_path / "want.csv", COLUMNS, rows)
        assert held and max(held) <= reporting._MEMO_CAP
        assert not any(zeros)
        if width == 5:
            assert max(held) > 5 * reporting._BATCH_LINES  # more than one batch can bring: kept across batches
            assert sum(b < a for a, b in zip(held, held[1:])) >= 5  # emptied, many times over
        else:
            assert max(held) == 0  # each batch holds more distinct values than the memo does

    def test_no_more_than_one_batch_of_lines_is_held_before_a_write(self, tmp_path):
        per_write, held = [], []
        lines = [0]

        class Recorder:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                per_write.append(text.count("\r\n"))
                lines[0] += per_write[-1]
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        class RecordedPath(type(tmp_path)):
            def open(self, *args, **kwargs):
                return Recorder(super().open(*args, **kwargs))

        def rows(count):
            rnd = random.Random(2)
            for n in range(count):
                held.append(n - (lines[0] - 1))  # rows read, less the lines written after the header
                yield tuple(rnd.random() for _ in range(5))

        count = 10 * reporting._BATCH_LINES + 3
        write_csv(RecordedPath(tmp_path / "got.csv"), COLUMNS, rows(count))
        assert sum(per_write) == count + 1
        assert max(per_write) == reporting._BATCH_LINES
        assert max(held) < reporting._BATCH_LINES
        assert reference(tmp_path / "want.csv", COLUMNS, rows(count)) == (tmp_path / "got.csv").read_bytes()

    def test_reporting_exports_no_new_public_function(self):
        # the tracer wraps every public name of the module, so a public helper
        # called per row or per batch would record a span for each call
        public = {name for name, obj in vars(reporting).items()
                  if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == reporting.__name__}
        assert public == {"jsonable", "report_document", "dump_json", "write_json", "write_csv"}


@dataclasses.dataclass(frozen=True)
class Holder:
    value: object
    hidden: object = dataclasses.field(default=math.nan, repr=False)


class TestJson:
    def test_non_finite_floats_become_strings_at_any_depth(self):
        body = {"a": [1.0, (math.nan, {"b": math.inf})], "c": -math.inf, "d": Holder([(-math.inf,)])}
        assert jsonable(body) == {"a": [1.0, ["nan", {"b": "inf"}]], "c": "-inf", "d": {"value": [["-inf"]]}}
        text = dump_json(report_document("k", body, timestamp=False))
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text)["body"]["a"][1][1] == {"b": "inf"}

    def test_negative_zero_stays_negative_zero(self):
        text = dump_json(report_document("k", {"z": -0.0, "i": Interval(-0.0, 1.0)}, timestamp=False))
        assert '"z": -0.0' in text
        assert math.copysign(1.0, json.loads(text)["body"]["z"]) == -1.0
        assert math.copysign(1.0, json.loads(text)["body"]["i"][0]) == -1.0

    def test_an_interval_becomes_its_pair(self):
        assert jsonable(Interval(-1.5, 2.0)) == [-1.5, 2.0]
        nested = {"at": (Interval(0.0, 2.5), Holder(Interval(-1.0, 1.0)))}
        assert jsonable(nested) == {"at": [[0.0, 2.5], {"value": [-1.0, 1.0]}]}

    def test_fields_without_repr_are_dropped(self):
        e = Lattice(0.0, 1.0, "two_sided")
        report = certify(e, PorosityParams(0.25, 0.25), ProbeFamily.default(e, Interval(-2.0, 2.0), anchor_cap=4))
        assert list(report.rows())  # the columns are there, and not exported
        doc = jsonable(report)
        assert "columns" not in doc
        assert list(doc) == [f.name for f in dataclasses.fields(report) if f.repr]
        assert jsonable(Holder(1)) == {"value": 1}

    def test_timestamp_false_omits_generated_at(self):
        assert report_document("k", {1.5: 2}, timestamp=False) == {"report": "k", "body": {"1.5": 2}}
        doc = report_document("k", 2)
        assert list(doc) == ["report", "generated_at", "body"]
        assert datetime.datetime.fromisoformat(doc["generated_at"]).utcoffset() == datetime.timedelta(0)
        assert dump_json(doc).endswith("}\n")
