"""The command-line front end: exit codes, configuration errors, report files and the process pool."""

import contextlib
import csv
import io
import json
import signal

import pytest

from poroweights import cli
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


FLOAT_FLOOR_SET = '{"kind": "finite", "points": [0.0, 5e-324, -1.0]}'


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


@pytest.mark.parametrize("gamma", ["nan", "1.5", "0"])
def test_verify_rejects_a_gamma_outside_the_unit_interval(gamma, tmp_path, capsys):
    # as analyze does through PorosityParams, before any suite runs
    argv = ("verify", "--preset", "integers", *CAPS, "--suite", "left-propagation", "--gamma", gamma)
    code = main([*argv, "--workers", "1", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: gamma must lie in (0, 1)")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--window", "0", "5e-324"],
         "error: probe family is empty (probes too short to halve are left out)"),
        (["a1", "--alpha", "2", "--window", "0", "1e-300"], "error: a value left the float range"),
    ],
    ids=["probes-too-short-to-halve", "weight-beyond-float-range"],
)
def test_sub_ulp_windows_exit_2(argv, message, tmp_path, capsys, monkeypatch):
    # gaps of 5e-324: no probe in (0, 5e-324) can be halved, and d^-2 at the
    # peaks of a 1e-300 window, near 2^-1022, exceeds the largest float
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text(FLOAT_FLOOR_SET)
    code = main([*argv, "--set-file", "set.json", "--anchor-cap", "8", "--random-probes", "20",
                 "--workers", "1", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("hi", ["1e-300", "5e-324"])
def test_critical_alpha_near_the_float_floor(hi, tmp_path, monkeypatch):
    # the triple ladder reached subnormal peaks, where d^-alpha overflowed
    # for alpha near 1; floored at 2^-1021 it reports an alpha for this
    # finite, hence porous, set
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text(FLOAT_FLOOR_SET)
    code, reports = _reports(["critical-alpha", "--set-file", "set.json", "--window", "0", hi,
                              "--workers", "1"], tmp_path / "out")
    assert code == 0
    alpha = json.loads(reports["critical_alpha.json"])["body"]["alpha"]
    assert 0.0 < alpha < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--window", "0", "1e300"],
         "error: lattice step 1.0 is below the float resolution at |x| = 1e+300"),
        (["analyze", "--window", "1e17", "1.0000000000001e17"],
         "error: lattice step 1.0 is below the float resolution at |x| = 1e+17"),
        (["dimension", "--window", "-68719476736", "68719476736"],
         "error: window (-68719476736.5, 68719476736.5) holds 137438953473 points, above the cap of 1000000"),
    ],
    ids=["window-beyond-resolution", "unit-step-below-an-ulp", "point-cap"],
)
def test_hostile_lattice_windows_exit_2(argv, message, tmp_path, capsys):
    # the first window hung in the index search, the second certified a
    # sigma above 1 from points that were not distinct, the third escaped
    # as a traceback with the exit code of a failed property
    code = main([*argv, "--preset", "integers", "--anchor-cap", "8", "--random-probes", "20",
                 "--workers", "1", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@contextlib.contextmanager
def _within(seconds):
    """Fail the test, rather than hang, when the body runs longer than ``seconds``."""
    def expire(_signum, _frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["critical-alpha", "--tol", "0"], "error: tol must lie in (0, 1), got 0.0"),
        (["critical-alpha", "--tol", "-1"], "error: tol must lie in (0, 1), got -1.0"),
        (["critical-alpha", "--tol", "nan"], "error: tol must lie in (0, 1), got nan"),
        (["analyze", "--anchor-cap", "0"], "error: anchor cap must be at least 1, got 0"),
        (["a1", "--alpha", "0.5", "--anchor-cap", "0"], "error: anchor cap must be at least 1, got 0"),
        (["dimension", "--eps-hi", "0.1", "--eps-lo", "0.01", "--eps-points", "1"],
         "error: --eps-points must be at least 2 to fit a slope, got 1"),
        (["dimension", "--eps-hi", "0.1", "--eps-lo", "0.01", "--eps-points", "0"],
         "error: --eps-points must be at least 2 to fit a slope, got 0"),
        (["a1", "--alpha", "0.5", "--octaves", "-2"], "error: octaves must be at least 1, got -2"),
        (["a1", "--alpha", "0.5", "--octaves", "0"], "error: octaves must be at least 1, got 0"),
        (["analyze", "--octaves", "-3"], "error: octaves must be at least 1, got -3"),
        (["analyze", "--random-probes", "-5"], "error: random probe count must not be negative, got -5"),
        (["a1", "--alpha", "inf"], "error: alpha must be positive and finite, got inf"),
    ],
    ids=["tol-zero", "tol-negative", "tol-nan", "analyze-anchor-cap-zero", "a1-anchor-cap-zero",
         "eps-points-one", "eps-points-zero", "a1-octaves-negative", "a1-octaves-zero",
         "analyze-octaves-negative", "random-probes-negative", "alpha-infinite"],
)
def test_hostile_numbers_exit_2(argv, message, tmp_path, capsys):
    # each of these hung, crashed with a traceback, or ran on a vacuous or
    # silently replaced value
    with _within(10):
        code = main([*argv, "--preset", "integers", "--workers", "1", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == message + "\n"
    assert not (tmp_path / "out").exists()


def test_critical_alpha_stops_where_the_midpoint_rounds_onto_an_end(tmp_path):
    # tol 1e-300 is below the float spacing near 1: the bisection stops at
    # the last midpoint strictly between its ends instead of looping
    with _within(10):
        code, reports = _reports(["critical-alpha", "--preset", "integers", "--tol", "1e-300",
                                  "--workers", "1"], tmp_path / "out")
    assert code == 0
    body = json.loads(reports["critical_alpha.json"])["body"]
    lo, hi = body["alpha"], 1.0
    assert 0.0 < lo < hi and 0.5 * (lo + hi) in (lo, hi)


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


@pytest.mark.parametrize("suite, builds", [("decay", 0), ("dimension", 0), ("hole-control", 1)])
def test_verify_builds_the_default_family_only_for_suites_that_read_it(suite, builds, tmp_path, monkeypatch):
    calls = []
    original = cli._probe_family
    monkeypatch.setattr(cli, "_probe_family", lambda cfg: calls.append(cfg) or original(cfg))
    argv = ("verify", "--preset", "integers", *CAPS, *W, "--suite", suite, "--workers", "1")
    code, _ = _reports(argv, tmp_path)
    assert code == 0
    assert len(calls) == builds


POROSITY_SUITES = ("left-propagation", "pore-transport", "decay")


@pytest.mark.parametrize("suite", POROSITY_SUITES)
def test_verify_runs_the_porosity_suites_at_a_certified_pair(suite, tmp_path):
    # the depth-6 Cantor iterate has sigma*(1/2) = 0, so the lemmas at gamma 1/2
    # failed; the sweep's pair with the largest admissible alpha is gamma 1/32
    argv = ("verify", *CANTOR6, "--seed", "101", "--suite", suite, "--workers", "1")
    code, reports = _reports(argv, tmp_path)
    params = json.loads(reports[f"verify_{suite.replace('-', '_')}.json"])["body"]["params"]
    assert code == 0
    assert params["gamma"] == 0.03125 and params["sigma"] == pytest.approx(0.7037, abs=1e-4)
    assert params["constants_rule"] == cli.SWEEP_RULE


def test_verify_gates_on_a_requested_pair(tmp_path):
    base = ("verify", *CANTOR6, *CAPS, "--suite", "left-propagation", "--workers", "1")
    (tmp_path / "refuted").mkdir()
    refuted = _reports([*base, "--sigma", "0.5", "--gamma", "0.5"], tmp_path / "refuted")
    assert refuted == (0, {})  # skipped: the set has no such pair
    code, reports = _reports([*base, "--sigma", "0.25", "--gamma", "0.0625"], tmp_path / "requested")
    params = json.loads(reports["verify_left_propagation.json"])["body"]["params"]
    assert code == 0
    assert params == {"gamma": 0.0625, "sigma": 0.25, "constants_rule": cli.REQUESTED_RULE}
