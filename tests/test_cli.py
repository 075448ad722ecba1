"""The command-line front end: exit codes, configuration errors and report files."""

import argparse
import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys

import pytest

import poroweights.porosity as porosity_module
import poroweights.suites as suites_module
from poroweights import ProbeFamily, cli
from poroweights.cli import SUITE_IDS, main
from poroweights.porosity import SweepResult, dimension_bound
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


def test_the_cli_runs_in_one_process():
    # every command runs in the process that parsed it: importing the front
    # end in a fresh interpreter loads no multiprocessing module
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    probe = "import sys, poroweights.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


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
    argv = ("verify", "--preset", "integers", *CAPS, "--suite", "left-propagation",
            "--sigma", "0.5", "--gamma", gamma)
    code = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: gamma must lie in (0, 1)")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["a1", "--alpha", "2", "--window", "0", "1e-300"], "error: a value left the float range"),
    ],
    ids=["weight-beyond-float-range"],
)
def test_sub_ulp_windows_exit_2(argv, message, tmp_path, capsys, monkeypatch):
    # d^-2 at the peaks of a 1e-300 window, near 2^-1022, exceeds the largest float
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text(FLOAT_FLOOR_SET)
    code = main([*argv, "--set-file", "set.json", "--anchor-cap", "8", "--random-probes", "20",
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_analyze_halves_the_probes_above_a_sub_ulp_window(tmp_path, monkeypatch):
    # no probe inside (0, 5e-324) can be halved, but the family's probes above
    # the window span can, so analyze certifies there; an empty family is a
    # library error (tests/test_porosity.py)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text(FLOAT_FLOOR_SET)
    argv = ["analyze", "--set-file", "set.json", "--window", "0", "5e-324", "--anchor-cap", "8",
            "--random-probes", "20"]
    code, reports = _reports(argv, tmp_path / "out")
    body = json.loads(reports["porosity_report.json"])["body"]
    assert code == 0
    assert body["passed"] and body["probe_count"] > 0


@pytest.mark.parametrize("hi", ["1e-300", "5e-324"])
def test_critical_alpha_near_the_float_floor(hi, tmp_path, monkeypatch):
    # the triple ladder reached subnormal peaks, where d^-alpha overflowed
    # for alpha near 1; floored at 2^-1021 it reports an alpha for this
    # finite, hence porous, set
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text(FLOAT_FLOOR_SET)
    code, reports = _reports(["critical-alpha", "--set-file", "set.json", "--window", "0", hi], tmp_path / "out")
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
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


EMPTY_CUTOFF_SET = ('{"kind": "cutoff", "point": 0.0, "side": "left", '
                    '"inner": {"kind": "lattice", "origin": 0.3, "step": 1.0, "extent": "right"}}')


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["analyze", "--sweep"], ["a1", "--alpha", "0.5"], ["critical-alpha"], ["dimension"],
     ["verify"]],
    ids=["analyze", "analyze-sweep", "a1", "critical-alpha", "dimension", "verify"],
)
def test_a_set_file_without_points_exits_2(argv, tmp_path, capsys, monkeypatch):
    # a cutoff that keeps no point of its lattice: analyze certified it and
    # exited 0, a1 and critical-alpha failed on their first distance
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.json").write_text(EMPTY_CUTOFF_SET)
    code = main([*argv, "--set-file", "empty.json", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "configuration error: empty.json: the set has no points\n"
    assert not (tmp_path / "out").exists()


EPS_ENDS = "error: --eps-hi and --eps-lo go together, and --eps-points needs both"
EPS_GRID = "error: need 0 < lo < hi < inf for the eps grid"


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
        (["verify", "--suite", "hole-control", "--eta", "inf", "--anchor-cap", "8", "--random-probes", "20"],
         "error: eta must be positive and finite, got inf"),
        (["verify", "--suite", "decay", "--eta", "-1"], "error: eta must be positive and finite, got -1.0"),
        (["verify", "--suite", "equivalence", "--eta", "nan"], "error: eta must be positive and finite, got nan"),
        (["dimension", "--eps-hi", "0.1", "--eps-points", "1"], EPS_ENDS),
        (["dimension", "--eps-lo", "0.01"], EPS_ENDS),
        (["dimension", "--eps-points", "5"], EPS_ENDS),
        (["a1", "--alpha", "0.5", "--table-points", "-3"], "error: --table-points must not be negative, got -3"),
        (["a1", "--alpha", "0.5", "--octaves", "3000"],
         "error: octaves must keep the triple ladder at or below octave 1021, got 3000 from octave -4"),
        (["dimension", "--eps-hi", "0.1", "--eps-lo", "-0.5"], EPS_GRID),
        (["dimension", "--eps-hi", "0.1", "--eps-lo", "0.1"], EPS_GRID),
        (["dimension", "--eps-hi", "inf", "--eps-lo", "0.1"], EPS_GRID),
        (["dimension", "--sigma", "2", "--gamma", "0.5"], "error: sigma must lie in (0, 1)"),
        (["dimension", "--sigma", "-1", "--gamma", "0.5"], "error: sigma must lie in (0, 1)"),
        (["dimension", "--sigma", "nan", "--gamma", "0.5"], "error: sigma must lie in (0, 1)"),
        (["dimension", "--sigma", "0.5", "--gamma", "1.5"], "error: gamma must lie in (0, 1)"),
        (["dimension", "--sigma", "0.5"], "error: --sigma and --gamma go together"),
        (["dimension", "--gamma", "0.5"], "error: --sigma and --gamma go together"),
        (["verify", "--suite", "left-propagation", "--sigma", "7", "--gamma", "0.5"],
         "error: sigma must lie in (0, 1)"),
        (["verify", "--suite", "left-propagation", "--sigma", "0.5"], "error: --sigma and --gamma go together"),
        (["verify", "--suite", "left-propagation", "--gamma", "0.5"], "error: --sigma and --gamma go together"),
        (["analyze", "--sweep", "--anchor-cap", "0", "--octaves", "-3", "--random-probes", "-5"],
         "error: anchor cap must be at least 1, got 0"),
        (["verify", "--suite", "equivalence", "--anchor-cap", "0"], "error: anchor cap must be at least 1, got 0"),
        (["analyze", "--sweep", "--octaves", "-3", "--random-probes", "-5"], "error: octaves must be at least 1, got -3"),
        (["critical-alpha", "--random-probes", "-5"], "error: random probe count must not be negative, got -5"),
        (["analyze", "--preset", "random_finite", "--random-span", "-5"],
         "error: --random-span must be positive and finite, got -5.0"),
        (["analyze", "--preset", "random_finite", "--random-span", "0"],
         "error: --random-span must be positive and finite, got 0.0"),
        (["analyze", "--preset", "random_finite", "--random-span", "inf"],
         "error: --random-span must be positive and finite, got inf"),
        (["critical-alpha", "--random-span", "nan"], "error: --random-span must be positive and finite, got nan"),
        (["analyze", "--workers", "0"], "error: --workers must be at least 1, got 0"),
        (["analyze", "--workers", "-3"], "error: --workers must be at least 1, got -3"),
        (["verify", "--suite", "equivalence", "--workers", "0"], "error: --workers must be at least 1, got 0"),
    ],
    ids=["tol-zero", "tol-negative", "tol-nan", "analyze-anchor-cap-zero", "a1-anchor-cap-zero",
         "eps-points-one", "eps-points-zero", "a1-octaves-negative", "a1-octaves-zero",
         "analyze-octaves-negative", "random-probes-negative", "alpha-infinite", "eta-infinite",
         "verify-decay-eta-negative", "verify-equivalence-eta-nan",
         "eps-hi-alone", "eps-lo-alone", "eps-points-alone", "table-points-negative", "a1-octaves-past-the-top",
         "eps-lo-negative", "eps-lo-equal-to-hi", "eps-hi-infinite", "dimension-sigma-above-one",
         "dimension-sigma-negative", "dimension-sigma-nan", "dimension-gamma-above-one", "dimension-sigma-alone",
         "dimension-gamma-alone", "verify-sigma-above-one", "verify-sigma-alone", "verify-gamma-alone",
         "analyze-sweep-three-counts", "verify-equivalence-anchor-cap-zero", "analyze-sweep-octaves-negative",
         "critical-alpha-random-probes-negative", "random-span-negative", "random-span-zero", "random-span-infinite",
         "random-span-nan", "workers-zero", "workers-negative", "verify-workers-zero"],
)
def test_hostile_numbers_exit_2(argv, message, tmp_path, capsys):
    # each of these hung, crashed with a traceback, or ran on a vacuous or
    # silently replaced value; the case's own options come last, so they win
    with _within(10):
        code = main([argv[0], "--preset", "integers", "--out", str(tmp_path / "out"), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == message + "\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--anchor-cap", "140000000000", "--window", "-68719476736", "68719476736"],
         "error: --anchor-cap must be at most 1000000, got 140000000000"),
        (["analyze", "--random-probes", "1000001"], "error: --random-probes must be at most 1000000, got 1000001"),
        (["a1", "--alpha", "0.5", "--preset", "random_finite", "--random-count", "100000000000"],
         "error: --random-count must be at most 1000000, got 100000000000"),
        (["a1", "--alpha", "0.5", "--table-points", "1000001"],
         "error: --table-points must be at most 1000000, got 1000001"),
        (["dimension", "--eps-hi", "1", "--eps-lo", "2^-20", "--eps-points", "1000001"],
         "error: --eps-points must be at most 1000000, got 1000001"),
    ],
    ids=["anchor-cap", "random-probes", "random-count", "table-points", "eps-points"],
)
def test_hostile_sizes_exit_2_before_the_set_is_built(argv, message, tmp_path, capsys, monkeypatch):
    # the anchor sampler, the random probes, the random preset, the weight
    # table and the eps grid loop this many times; the set loader fails the
    # test at once if a guard is missing
    def built(_args):
        raise AssertionError("the set was built before the size was checked")

    monkeypatch.setattr(cli, "_load_set", built)
    code = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == message + "\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "lo, plain",
    [("-1e3", "-1000"), ("-2^3", "-8"), ("-3*2^-4", "-.1875"), ("-1E+1", "-10")],
    ids=["exponent", "dyadic", "dyadic-mantissa", "exponent-upper"],
)
def test_negative_window_ends_in_any_spelling(lo, plain, tmp_path):
    # argparse took an argument starting with '-' for an option unless it
    # read like '-8' or '-.5': these exited 2 with 'expected 2 arguments'
    argv = ("analyze", "--preset", "integers", *CAPS)
    got = _reports([*argv, "--window", lo, "8"], tmp_path / "spelled")
    assert got[0] == 0
    assert got == _reports([*argv, "--window", plain, "8"], tmp_path / "plain")


def test_a_far_negative_window_end_is_a_number(tmp_path, capsys):
    # read as a number, -1e300 meets the lattice's resolution check
    code = main(["analyze", "--window", "-1e300", "0", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: lattice step 1.0 is below the float resolution at |x| = 1e+300\n"


def test_a_dyadic_window_end_beyond_the_float_range_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["analyze", "--window", "-2^1024", "0", "--out", str(tmp_path / "out")])
    assert exited.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --window: beyond the float range: '-2^1024'\n")


# a geometric branch with ratio 1.0001: a million cached points reach about
# -2.7e43, and a window reaching -1e300 needs about 6.9 million
SLOW_GEOMETRIC_SET = ('{"kind": "geometric_lattice", "ratio": 1.0001, '
                      '"lattice": {"kind": "lattice", "origin": 0.0, "step": 1.0, "extent": "right"}}')


def test_a_geometric_window_past_the_point_cap_exits_2(tmp_path, capsys, monkeypatch):
    # every query walked the chain on past the cached points, for minutes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "slow.json").write_text(SLOW_GEOMETRIC_SET)
    with _within(20):
        # -1e300, spelled in digits
        code = main(["analyze", "--set-file", "slow.json", "--window", "-1" + "0" * 300, "0", "--anchor-cap", "8",
                     "--random-probes", "20", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: window (-1e+300, -1.0001) holds 6908101 points, "
                            "above the cap of 1000000\n")
    assert not (tmp_path / "out").exists()


def test_critical_alpha_stops_where_the_midpoint_rounds_onto_an_end(tmp_path):
    # tol 1e-300 is below the float spacing near 1: the bisection stops at
    # the last midpoint strictly between its ends instead of looping
    with _within(10):
        code, reports = _reports(["critical-alpha", "--preset", "integers", "--tol", "1e-300"], tmp_path / "out")
    assert code == 0
    body = json.loads(reports["critical_alpha.json"])["body"]
    lo, hi = body["alpha"], 1.0
    assert 0.0 < lo < hi and 0.5 * (lo + hi) in (lo, hi)


def test_presets_lists_the_catalog(capsys):
    assert main(["presets"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == list(PRESET_NAMES)
    assert len(listed) == 8


@pytest.mark.parametrize("preset, side", [("naturals", "left"), ("reflected_naturals", "right"),
                                          ("reflected_geometric_naturals", "right")])
def test_analyze_sweep_refutes_a_side_the_set_lacks(preset, side, tmp_path, capsys):
    # none of these sets is porous on the swept side; at the gamma-grid floor
    # the refutation needs the probe scales above the window span that the
    # certification family adds
    code = main(["analyze", "--preset", preset, "--window", "-64", "64", "--sweep", "--side", side,
                 "--out", str(tmp_path)])
    assert code == 1
    assert "certified=False" in capsys.readouterr().out


@pytest.mark.parametrize("preset", [("--preset", "geometric_naturals"), CANTOR6],
                         ids=["geometric_naturals", "cantor6"])
def test_analyze_sweep_is_the_critical_alpha_sweep(preset, tmp_path):
    # one probe family certifies a side: analyze --sweep reads the table that
    # critical-alpha's porosity gate reads
    argv = (*preset, "--seed", "3")
    _, swept = _reports(["analyze", *argv, "--sweep", "--side", "right"], tmp_path / "analyze")
    _, searched = _reports(["critical-alpha", *argv, "--side", "plus", "--tol", "0.125"], tmp_path / "critical")
    table = json.loads(swept["porosity_sweep.json"])["body"]["table"]
    assert table == json.loads(searched["critical_alpha.json"])["body"]["porosity"]["table"]


# the pair that the fixed-pair check passed on reflected_geometric_naturals'
# right side at +-64 while the sweep refuted that side, when the check
# probed a family of its own with no scales above the window span
REFUTED_PAIR = (0.25, 0.03125)


def test_the_fixed_pair_check_agrees_with_the_sweep(tmp_path):
    # at default flags analyze and analyze --sweep probe one family, so a pair
    # passes exactly when the sweep's sigma*(gamma) reaches its sigma: at the
    # pair above, and at the admissible pair of every certified side
    for name in PRESET_NAMES:
        for side in ("right", "left", "two_sided"):
            argv = ("analyze", "--preset", name, "--side", side, "--format", "json")
            out = tmp_path / name / side
            body = json.loads(_reports([*argv, "--sweep"], out / "sweep")[1]["porosity_sweep.json"])["body"]
            sweep = SweepResult(side, tuple(map(tuple, body["table"])), body["best_gamma"], body["best_sigma"])
            pairs = [REFUTED_PAIR]
            if sweep.certified:
                admissible = sweep.admissible_params()
                pairs.append((admissible.sigma, admissible.gamma))
            for k, (sigma, gamma) in enumerate(pairs):
                code = _reports([*argv, "--sigma", repr(sigma), "--gamma", repr(gamma)], out / str(k))[0]
                assert code == (0 if dict(sweep.table)[gamma] >= sigma else 1), (name, side, sigma, gamma)
                if (name, side, k) == ("reflected_geometric_naturals", "right", 0):
                    assert code == 1


def test_analyze_exits_1_when_porosity_fails(tmp_path):
    # at these caps a probe of the depth-6 Cantor iterate keeps sigma below
    # the default 1/2, so the certification fails and says so in its exit code
    argv = ("analyze", *CANTOR6, "--anchor-cap", "4", "--random-probes", "10", "--seed", "3")
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
        _, reports = _reports(JOBS[job], tmp_path / job)
        seen.update({name: body for name, body in reports.items() if name.endswith(".csv")})
    assert sorted(seen) == sorted(CSV_HEADERS)
    for name, body in seen.items():
        assert next(csv.reader(io.StringIO(body.decode()))) == CSV_HEADERS[name], name


@pytest.mark.parametrize("job", CSV_JOBS)
def test_each_format_writes_its_own_reports_only(job, tmp_path):
    # --format json writes no CSV and --format csv no JSON; what each writes
    # is what --format both writes in that format
    argv = JOBS[job]
    code, both = _reports(argv, tmp_path / "both")
    for fmt in ("json", "csv"):
        want = {name: body for name, body in both.items() if name.endswith(f".{fmt}")}
        assert want
        assert _reports([*argv, "--format", fmt], tmp_path / fmt) == (code, want)


@pytest.mark.parametrize("job", ["analyze-random", "critical-alpha-two-sided-random", "a1-cantor6"])
def test_identical_runs_write_identical_bytes(job, tmp_path):
    argv = JOBS[job]
    first = _reports(argv, tmp_path / "first")
    assert first[1]
    assert _reports(argv, tmp_path / "second") == first


@pytest.mark.parametrize("suite", [s for s in SUITE_IDS if s != "equivalence"])
@pytest.mark.parametrize("preset", ["integers", "naturals"])
def test_verify_exit_code_agrees_with_the_report(preset, suite, tmp_path):
    argv = ("verify", "--preset", preset, *CAPS, *W, "--suite", suite)
    code, reports = _reports(argv, tmp_path)
    body = json.loads(reports.pop(f"verify_{suite.replace('-', '_')}.json"))["body"]
    passed = body["passed"] if "passed" in body else not body["failures"]
    assert code == (0 if passed else 1)
    for name, raw in reports.items():  # the decay suite's measures
        rows = list(csv.reader(io.StringIO(raw.decode())))
        assert rows[0] == CSV_HEADERS[name] and all(len(r) == len(rows[0]) for r in rows), name


@pytest.mark.parametrize("suite, builds", [("equivalence", 0), ("decay", 1), ("dimension", 1), ("hole-control", 1),
                                           ("sided-transport", 1), ("all", 1)])
def test_verify_builds_at_most_one_family(suite, builds, tmp_path, monkeypatch):
    # the family suites, the porosity constants and sided-transport read one
    # certification family; the equivalence matrix probes its own sets
    calls = []
    original = cli.certification_probes
    monkeypatch.setattr(cli, "certification_probes", lambda *a, **k: calls.append(a) or original(*a, **k))
    window = ("--window", "-2", "2") if suite in ("equivalence", "all") else W
    argv = ("verify", "--preset", "integers", *CAPS, *window, "--suite", suite)
    code, _ = _reports(argv, tmp_path)
    assert code == 0
    assert len(calls) == builds


def test_verify_sided_transport_lists_its_family_once(tmp_path, monkeypatch):
    # Phi and the checks are two passes over one listing of the family
    calls = {"bounds": 0, "distinct_probes": 0}

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    monkeypatch.setattr(ProbeFamily, "bounds", counted("bounds", ProbeFamily.bounds))
    distinct = counted("distinct_probes", porosity_module.distinct_probes)
    monkeypatch.setattr(porosity_module, "distinct_probes", distinct)
    monkeypatch.setattr(suites_module, "distinct_probes", distinct)
    argv = ("verify", "--preset", "integers", *CAPS, *W, "--suite", "sided-transport")
    code, _ = _reports(argv, tmp_path)
    assert code == 0
    assert calls == {"bounds": 1, "distinct_probes": 1}


def test_analyze_builds_one_family(tmp_path, monkeypatch):
    calls = []
    original = cli.certification_probes
    monkeypatch.setattr(cli, "certification_probes", lambda *a, **k: calls.append(a) or original(*a, **k))
    for extra in ((), ("--sweep",)):
        calls.clear()
        _reports(["analyze", "--preset", "integers", *CAPS, *W, *extra], tmp_path / str(len(extra)))
        assert len(calls) == 1


@pytest.mark.parametrize("preset, side", [("integers", "two_sided"), ("reflected_naturals", "plus")],
                         ids=["bisected", "refuted"])
def test_critical_alpha_builds_one_probe_family_and_one_triple_table(preset, side, tmp_path, monkeypatch):
    calls = {"probes": [], "triples": []}
    probes, table = cli.certification_probes, cli.TripleTable
    monkeypatch.setattr(cli, "certification_probes", lambda *a, **k: calls["probes"].append(a) or probes(*a, **k))
    monkeypatch.setattr(cli, "TripleTable", lambda *a: calls["triples"].append(a) or table(*a))
    argv = ("critical-alpha", "--preset", preset, *CAPS, *W, "--side", side, "--tol", "0.125")
    code, _ = _reports(argv, tmp_path)
    assert code == (0 if preset == "integers" else 1)
    assert (len(calls["probes"]), len(calls["triples"])) == (1, 1)


# the subcommands that read each family flag, each named in the flag's help
FAMILY_FLAGS = {
    "--anchor-cap": ("analyze", "verify", "critical-alpha", "a1"),
    "--random-probes": ("analyze", "verify", "critical-alpha"),
    "--octaves": ("a1", "critical-alpha"),
}
FAMILY_RUNS = {
    "analyze": ("analyze",),
    "a1": ("a1", "--alpha", "0.5"),
    "critical-alpha": ("critical-alpha", "--tol", "0.125"),
    "verify": ("verify", "--suite", "sided-transport"),
}
# below each default: 64 anchors, 200 random probes, 24 octaves
OFF_DEFAULT = {"--anchor-cap": "4", "--random-probes": "10", "--octaves": "8"}


def _flag_help(flag: str) -> str:
    p = argparse.ArgumentParser()
    cli._add_common(p)
    return next(a.help for a in p._actions if flag in a.option_strings)


@pytest.mark.parametrize("flag", sorted(FAMILY_FLAGS))
@pytest.mark.parametrize("command", sorted(FAMILY_RUNS))
def test_a_family_flag_moves_the_reports_of_the_subcommands_it_names(command, flag, tmp_path):
    # a flag whose help says a subcommand reads it sizes that subcommand's
    # family, so its reports move; the other subcommands' reports stay
    help_text = _flag_help(flag)
    assert "verify --suite equivalence does not read it" in help_text
    argv = (*FAMILY_RUNS[command], *CANTOR6, "--window", "-2", "2", "--format", "json")
    default = _reports(argv, tmp_path / "default")[1]
    flagged = _reports([*argv, flag, OFF_DEFAULT[flag]], tmp_path / "flagged")[1]
    assert default
    if command in FAMILY_FLAGS[flag]:
        assert f" {command}" in help_text
        assert flagged != default
    else:
        assert flagged == default


def test_verify_exits_2_where_phi_is_undefined(tmp_path, capsys, monkeypatch):
    # every half of the one probe (0, 4u) has holes u long, u the least
    # subnormal, and rho = u / 2 rounds to 0.0
    points = [k * 5e-324 for k in (0, 1, 2, 3, 4, 6, 8)]
    (tmp_path / "set.json").write_text(json.dumps({"kind": "finite", "points": points}))
    monkeypatch.setattr(cli, "_probes", lambda args: ProbeFamily(anchors=(0.0,), scales=(4 * 5e-324,),
                                                                 alignments=("left",)))
    code = main(["verify", "--set-file", str(tmp_path / "set.json"), "--suite", "sided-transport",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == ("error: Phi is undefined: every half and centred half of every probe "
                                       "has hole radius 0.0\n")


POROSITY_SUITES = ("left-propagation", "pore-transport", "decay")


@pytest.mark.parametrize("suite", POROSITY_SUITES)
def test_verify_runs_the_porosity_suites_at_a_certified_pair(suite, tmp_path):
    # the depth-6 Cantor iterate has sigma*(1/2) = 0, so the lemmas at gamma 1/2
    # failed; the sweep's pair with the largest admissible alpha is gamma 1/32
    argv = ("verify", *CANTOR6, "--seed", "101", "--suite", suite)
    code, reports = _reports(argv, tmp_path)
    params = json.loads(reports[f"verify_{suite.replace('-', '_')}.json"])["body"]["params"]
    assert code == 0
    assert params["gamma"] == 0.03125 and params["sigma"] == pytest.approx(0.7037, abs=1e-4)
    assert params["constants_rule"] == cli.SWEEP_RULE


def test_verify_runs_dimension_at_the_certified_pair(tmp_path):
    # run without a pair, its bound was null and the task could not fail;
    # at the pair of the porosity suites it bounds the fitted 0.505 by 0.911
    argv = ("verify", *CANTOR6, "--seed", "101", "--suite", "dimension")
    code, reports = _reports(argv, tmp_path)
    body = json.loads(reports["verify_dimension.json"])["body"]
    assert code == 0
    assert body["bound"] == pytest.approx(dimension_bound(19.0 / 27.0, 0.03125), abs=1e-6)
    assert body["bound"] == pytest.approx(0.9106, abs=1e-4)
    assert body["fitted_dimension"] == pytest.approx(0.5050, abs=1e-4) and body["passed"]


def test_verify_skips_dimension_where_the_right_sweep_refutes(tmp_path):
    argv = ("verify", "--preset", "reflected_naturals", *CAPS, *W, "--suite", "dimension")
    assert _reports(argv, tmp_path) == (0, {})


def test_verify_gates_on_a_requested_pair(tmp_path):
    base = ("verify", *CANTOR6, *CAPS, "--suite", "left-propagation")
    (tmp_path / "refuted").mkdir()
    refuted = _reports([*base, "--sigma", "0.5", "--gamma", "0.5"], tmp_path / "refuted")
    assert refuted == (0, {})  # skipped: the set has no such pair
    code, reports = _reports([*base, "--sigma", "0.25", "--gamma", "0.0625"], tmp_path / "requested")
    params = json.loads(reports["verify_left_propagation.json"])["body"]["params"]
    assert code == 0
    assert params == {"gamma": 0.0625, "sigma": 0.25, "constants_rule": cli.REQUESTED_RULE}
