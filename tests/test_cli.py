"""The command-line front end: exit codes, configuration errors, report files and the process pool."""

import contextlib
import csv
import io
import json

import pytest

from poroweights.cli import SUITE_IDS, main
from poroweights.presets import PRESET_NAMES
from poroweights.reporting import (
    DECAY_COLUMNS,
    DIMENSION_COLUMNS,
    MATRIX_COLUMNS,
    POROSITY_COLUMNS,
    TRIPLE_COLUMNS,
    WEIGHT_TABLE_COLUMNS,
)

from .test_golden import CANTOR6, CAPS, JOBS, W


def _reports(argv, out) -> tuple[int, dict[str, bytes]]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--no-timestamp", "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_process_pool_writes_the_same_reports(tmp_path):
    # the one fork in the CLI: suites mapped over a 2-process pool must write
    # what the in-process loop writes, byte for byte, with the same exit code
    argv = ("verify", *CANTOR6, *CAPS, "--window", "-2", "2", "--suite", "all")
    pooled = _reports([*argv, "--workers", "2"], tmp_path / "pooled")
    serial = _reports([*argv, "--workers", "1"], tmp_path / "serial")
    assert len(serial[1]) == 10
    assert pooled == serial


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--window", "1", "0"], "configuration error: window must satisfy lo < hi"),
        (["analyze", "--preset", "integers", "--set-file", "set.json"],
         "configuration error: give either --preset or --set-file, not both"),
        (["analyze", "--set-file", "missing.json"], "error: [Errno 2] No such file or directory"),
    ],
    ids=["empty-window", "preset-and-set-file", "missing-set-file"],
)
def test_configuration_errors_exit_2(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text('{"kind": "finite", "points": [0.0]}')
    code = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--window", "0", "5e-324"],
         "error: probe family is empty (probes too short to halve are left out)"),
        (["critical-alpha", "--window", "0", "1e-300"], "error: a value left the float range"),
    ],
    ids=["probes-too-short-to-halve", "weight-beyond-float-range"],
)
def test_sub_ulp_windows_exit_2(argv, message, tmp_path, capsys, monkeypatch):
    # gaps of 5e-324: no probe in (0, 5e-324) can be halved, and d^-alpha on
    # a 1e-300 window exceeds the largest float
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text('{"kind": "finite", "points": [0.0, 5e-324, -1.0]}')
    code = main([*argv, "--set-file", "set.json", "--anchor-cap", "8", "--random-probes", "20",
                 "--workers", "1", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_presets_lists_the_catalog(capsys):
    assert main(["presets"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == list(PRESET_NAMES)
    assert len(listed) == 8


def test_analyze_exits_1_when_porosity_fails(tmp_path):
    # at these caps a probe of the depth-6 Cantor iterate keeps sigma below
    # the default 1/2, so the certification fails and says so in its exit code
    argv = ("analyze", *CANTOR6, "--anchor-cap", "4", "--random-probes", "10", "--seed", "3", "--workers", "1")
    code, reports = _reports(argv, tmp_path)
    assert code == 1
    assert b'"passed": false' in reports["porosity_report.json"]


CSV_HEADERS = {
    "porosity_report.csv": POROSITY_COLUMNS,
    "a1_report.csv": TRIPLE_COLUMNS,
    "weight_table.csv": WEIGHT_TABLE_COLUMNS,
    "dimension_report.csv": DIMENSION_COLUMNS,
    "summary_matrix.csv": MATRIX_COLUMNS,
    "decay_measures.csv": DECAY_COLUMNS,
}
CSV_JOBS = ("analyze-integers", "a1-minus-geometric", "dimension-random",
            "verify-equivalence-integers", "verify-decay-cantor6")


def test_csv_headers_are_the_documented_columns(tmp_path):
    seen = {}
    for job in CSV_JOBS:
        _, reports = _reports([*JOBS[job], "--workers", "1"], tmp_path / job)
        seen.update({name: body for name, body in reports.items() if name.endswith(".csv")})
    assert sorted(seen) == sorted(CSV_HEADERS)
    for name, body in seen.items():
        assert next(csv.reader(io.StringIO(body.decode()))) == CSV_HEADERS[name], name


@pytest.mark.parametrize("job", ["analyze-random", "critical-alpha-two-sided-random", "a1-cantor6"])
def test_identical_runs_write_identical_bytes(job, tmp_path):
    argv = [*JOBS[job], "--workers", "1"]
    first = _reports(argv, tmp_path / "first")
    assert first[1]
    assert _reports(argv, tmp_path / "second") == first


@pytest.mark.parametrize("suite", [s for s in SUITE_IDS if s != "equivalence"])
@pytest.mark.parametrize("preset", ["integers", "naturals"])
def test_verify_exit_code_agrees_with_the_report(preset, suite, tmp_path):
    argv = ("verify", "--preset", preset, *CAPS, *W, "--suite", suite, "--workers", "1")
    code, reports = _reports(argv, tmp_path)
    body = json.loads(reports.pop(f"verify_{suite.replace('-', '_')}.json"))["body"]
    passed = body["passed"] if "passed" in body else not body["failures"]
    assert code == (0 if passed else 1)
    for name, raw in reports.items():  # the decay suite's measures
        rows = list(csv.reader(io.StringIO(raw.decode())))
        assert rows[0] == CSV_HEADERS[name] and all(len(r) == len(rows[0]) for r in rows), name
