"""Command-line front end: analyses, verification suites, and report export.

Reports always land in files (JSON and/or CSV); the terminal shows a one-look
summary.  Exit codes: 0 success/pass, 1 a checked property failed (witnesses
are in the written reports), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import muckenhoupt, porosity, presets as presets_mod
from .intervals import Interval
from .muckenhoupt import DEFAULT_TRIPLE_OCTAVES, TRIPLE_ANCHOR_CAP, TripleFamily, TripleTable, a1_constant, critical_alpha
from .porosity import (
    CERT_ANCHOR_CAP,
    CERT_RANDOM_PROBES,
    PorosityParams,
    ProbeFamily,
    certification_probes,
    certify,
    sweep_parameters,
)
from .reporting import (
    DECAY_COLUMNS,
    DIMENSION_COLUMNS,
    MATRIX_COLUMNS,
    POROSITY_COLUMNS,
    TRIPLE_COLUMNS,
    WEIGHT_TABLE_COLUMNS,
    report_document,
    write_csv,
    write_json,
)
from .sets import (
    DEFAULT_POINT_CAP,
    EmptySetError,
    PointCapExceeded,
    SetDescription,
    SetFormatError,
    distance,
    from_json,
)
from .suites import (
    _geometric_grid,
    check_eta,
    suite_decay,
    suite_dimension,
    suite_distance_envelope,
    suite_equivalence_matrix,
    suite_hole_control,
    suite_left_propagation,
    suite_pore_transport,
    suite_sided_transport,
)
from .weights import WeightSpec, evaluation_table

DEFAULT_EPS_POINTS = 24

_DYADIC = re.compile(r"^(?P<sign>[+-]?)(?:(?P<mant>\d+)\*)?2\^(?P<exp>[+-]?\d+)$")


def parse_number(text: str) -> float:
    """Parse a decimal or an exact dyadic string like '2^-5' or '3*2^-4'."""
    m = _DYADIC.match(text.strip())
    if m:
        mant = int(m.group("mant") or "1")
        try:
            value = mant * 2.0 ** int(m.group("exp"))
        except OverflowError as exc:
            raise argparse.ArgumentTypeError(f"beyond the float range: {text!r}") from exc
        return -value if m.group("sign") == "-" else value
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number or dyadic string: {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Takes every float or dyadic spelling for a value: argparse's own test, for
    '-8' or '-.5' only, read ``--window -1e3 8`` as a missing second value."""

    def _parse_optional(self, arg_string):
        if _DYADIC.match(arg_string.strip()):
            return None
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_common(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("set selection")
    g.add_argument("--preset", choices=presets_mod.PRESET_NAMES, help="built-in set")
    g.add_argument("--set-file", type=Path, help="JSON set description (schema: poroweights.sets.from_dict)")
    g.add_argument("--cantor-middle", type=parse_number, default=1.0 / 3.0)
    g.add_argument("--cantor-depth", type=int, default=10)
    g.add_argument("--random-count", type=int, default=48)
    g.add_argument("--random-span", type=parse_number, default=8.0)
    r = p.add_argument_group("run configuration")
    r.add_argument("--window", nargs=2, type=parse_number, default=(-64.0, 64.0), metavar=("LO", "HI"))
    unread = "; verify --suite equivalence does not read it"  # the matrix sizes its own families
    r.add_argument("--octaves", type=int, default=DEFAULT_TRIPLE_OCTAVES,
                   help=f"triple ladder octaves, read by a1 and critical-alpha{unread}")
    r.add_argument("--anchor-cap", type=int, default=CERT_ANCHOR_CAP,
                   help=f"anchor cap of the porosity probe family, read by analyze, verify and critical-alpha, and "
                        f"of the triple ladder, read by a1 and critical-alpha (at most {TRIPLE_ANCHOR_CAP}){unread}")
    r.add_argument("--random-probes", type=int, default=CERT_RANDOM_PROBES,
                   help=f"random probes of the porosity probe family, read by analyze, verify and critical-alpha{unread}")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", type=Path, default=Path("reports"))
    r.add_argument("--format", choices=("json", "csv", "both"), default="both")
    r.add_argument("--no-timestamp", action="store_true", help="omit the timestamp header for byte-identical reruns")
    r.add_argument("--workers", type=int, default=1, help="ignored: every command runs in one process")


def _load_set(args) -> SetDescription:
    if args.set_file is not None and args.preset is not None:
        raise SetFormatError("give either --preset or --set-file, not both")
    if args.set_file is not None:
        e = from_json(args.set_file.read_text())
        try:
            distance(e, 0.0)  # raises EmptySetError exactly when the set has no points
        except EmptySetError:
            raise SetFormatError(f"{args.set_file}: the set has no points") from None
        return e
    name = args.preset or "integers"
    return presets_mod.preset(
        name,
        cantor_middle=args.cantor_middle,
        cantor_depth=args.cantor_depth,
        random_count=args.random_count,
        random_span=args.random_span,
        seed=args.seed,
    )


def _config(args) -> None:
    """Check the run arguments, then set ``args.e`` (the set) and ``args.window`` (an Interval)."""
    lo, hi = args.window
    if not lo < hi:
        raise SetFormatError(f"window must satisfy lo < hi, got {args.window}")
    # each count is looped over, or materialised, that many times; the last two belong to a1 and dimension
    for flag in ("--anchor-cap", "--random-probes", "--random-count", "--table-points", "--eps-points"):
        count = getattr(args, flag[2:].replace("-", "_"), None)
        if count is not None and count > DEFAULT_POINT_CAP:
            raise ValueError(f"{flag} must be at most {DEFAULT_POINT_CAP}, got {count}")
    # the families' own checks, here so that a path which does not build a family refuses the value too
    if args.anchor_cap < 1:
        raise ValueError(f"anchor cap must be at least 1, got {args.anchor_cap}")
    if args.octaves < 1:
        raise ValueError(f"octaves must be at least 1, got {args.octaves}")
    if args.random_probes < 0:
        raise ValueError(f"random probe count must not be negative, got {args.random_probes}")
    # random_finite draws its points from (-span/2, span/2): at span 0 it is a singleton
    if not 0.0 < args.random_span < math.inf:
        raise ValueError(f"--random-span must be positive and finite, got {args.random_span}")
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    args.e = _load_set(args)
    args.window = Interval(lo, hi)


def _check_pair(args) -> None:
    """--sigma and --gamma go together, and must make a :class:`PorosityParams`."""
    if (args.sigma is None) != (args.gamma is None):
        raise ValueError("--sigma and --gamma go together")
    if args.sigma is not None:
        PorosityParams(args.sigma, args.gamma)


def _probes(args) -> ProbeFamily:
    """The porosity probe family of analyze, verify and critical-alpha."""
    return certification_probes(args.e, args.window, anchor_cap=args.anchor_cap,
                                random_count=args.random_probes, seed=args.seed)


def _triples(args) -> TripleTable:
    """The triple table of a1 and critical-alpha."""
    return TripleTable(args.e, TripleFamily.default(args.e, args.window, octaves=args.octaves,
                                                    anchor_cap=min(args.anchor_cap, TRIPLE_ANCHOR_CAP)))


def _emit(args, name: str, kind: str, payload, csv_spec=None) -> None:
    if args.format in ("json", "both"):
        write_json(args.out / f"{name}.json", report_document(kind, payload, not args.no_timestamp))
    if csv_spec is not None and args.format in ("csv", "both"):
        columns, rows = csv_spec
        write_csv(args.out / f"{name}.csv", columns, rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    _config(args)
    probes = _probes(args)
    if args.sweep:
        sweep = sweep_parameters(args.e, probes, args.side_porosity)
        _emit(args, "porosity_sweep", "porosity-sweep", sweep)
        print(f"sweep[{args.side_porosity}] best gamma={sweep.best_gamma} sigma*={sweep.best_sigma:.6g} certified={sweep.certified}")
        return 0 if sweep.certified else 1
    params = PorosityParams(args.sigma, args.gamma, args.side_porosity)
    report = certify(args.e, params, probes)
    _emit(args, "porosity_report", "porosity-certification", report, (POROSITY_COLUMNS, report.rows()))
    verdict = "PASS" if report.passed else "FAIL"
    print(f"porosity[{params.side}] sigma={params.sigma} gamma={params.gamma}: {verdict}")
    print(f"  probes={report.probe_count} worst sigma={report.worst_sigma:.6g} at {report.worst_interval.as_pair() if report.worst_interval else None}")
    return 0 if report.passed else 1


def cmd_a1(args) -> int:
    if args.table_points < 0:
        raise ValueError(f"--table-points must not be negative, got {args.table_points}")
    _config(args)
    w = WeightSpec(args.e, args.alpha)
    table = _triples(args)
    report = a1_constant(w, args.side, table)
    _emit(args, "a1_report", "a1-constant", report, (TRIPLE_COLUMNS, table.samples(args.side, w.alpha)))
    if args.table_points > 0 and args.format in ("csv", "both"):
        step = args.window.length / args.table_points
        xs = [args.window.lo + (k + 0.5) * step for k in range(args.table_points)]
        write_csv(args.out / "weight_table.csv", WEIGHT_TABLE_COLUMNS, evaluation_table(w, xs))
    print(f"a1[{args.side}] alpha={args.alpha}: lower bound {report.constant_lower_bound:.6g} "
          f"divergent={report.divergence_flag} nonintegrable={report.nonintegrable_count}")
    return 0 if report.bounded_evidence else 1


def cmd_critical_alpha(args) -> int:
    _config(args)
    result = critical_alpha(args.e, args.side, _probes(args), _triples(args), tol=args.tol)
    _emit(args, "critical_alpha", "critical-alpha", result)
    if result.alpha is None:
        print(f"critical-alpha[{args.side}]: none found ({result.note})")
        return 1
    print(f"critical-alpha[{args.side}] = {result.alpha:.6g} (grid tol {args.tol}; monotone={result.monotone})")
    return 0


def cmd_dimension(args) -> int:
    if (args.eps_hi is None) != (args.eps_lo is None) or (args.eps_hi is None and args.eps_points is not None):
        raise ValueError("--eps-hi and --eps-lo go together, and --eps-points needs both")
    _check_pair(args)
    _config(args)
    grid = None
    if args.eps_hi is not None:
        n = DEFAULT_EPS_POINTS if args.eps_points is None else args.eps_points
        if n < 2:
            raise ValueError(f"--eps-points must be at least 2 to fit a slope, got {n}")
        grid = _geometric_grid(args.eps_hi, args.eps_lo, n)
    report = suite_dimension(args.e, args.window, eps_grid=grid, regime=args.regime,
                             sigma=args.sigma, gamma=args.gamma)
    rows = zip(report.eps_grid, report.measures)
    _emit(args, "dimension_report", "dimension", report, (DIMENSION_COLUMNS, rows))
    print(f"dimension[{report.regime}]: fitted {report.fitted_dimension:.4f}"
          + (f" bound {report.bound:.4f}" if report.bound is not None else ""))
    return 0 if report.passed else 1


SUITE_IDS = (
    "distance-envelope",
    "hole-control",
    "left-propagation",
    "pore-transport",
    "decay",
    "dimension",
    "sided-transport",
    "equivalence",
)


# the suites that read the probe family's intervals
FAMILY_SUITES = {"distance-envelope", "hole-control", "left-propagation", "pore-transport"}


def _decay_interval(e: SetDescription, window: Interval) -> Interval:
    """Interval whose open left half contains set points, anchored near the window center."""
    c = window.center
    cands = [p for p in (e.nearest_leq(c), e.nearest_geq(c)) if p is not None]
    if not cands:
        raise SetFormatError("set has no points near the window; pass a different --window")
    p = min(cands, key=lambda q: abs(q - c))
    width = min((window.hi - p) / 3.0, p - window.lo, 8.0)
    if width <= 0:
        width = min(8.0, 0.25 * window.length)
    return Interval(p - width, p + 3.0 * width)


# the suites whose bounds presuppose right porosity: they run at one certified (sigma, gamma)
POROSITY_SUITES = {"left-propagation", "pore-transport", "decay", "dimension"}

SWEEP_RULE = "the right sweep's certified pair with the largest admissible alpha, ties to the larger gamma"
REQUESTED_RULE = "--sigma and --gamma as given, certified on the right sweep's probes"


def _porosity_constants(args, probes: ProbeFamily) -> Optional[dict]:
    """The certified (sigma, gamma) the porosity suites run at, with the rule that chose it; None if refuted."""
    e = args.e
    if args.sigma is not None:
        params = PorosityParams(args.sigma, args.gamma, "right")
        rule = REQUESTED_RULE
        if sweep_parameters(e, probes, "right", (params.gamma,)).best_sigma < params.sigma:
            print(f"sigma={params.sigma} gamma={params.gamma} is not certified on the right sweep's probes")
            return None
    else:
        sweep = sweep_parameters(e, probes, "right")
        if not sweep.certified:
            return None
        params = sweep.admissible_params()
        rule = SWEEP_RULE
    print(f"porosity constants: sigma={params.sigma:.6g} gamma={params.gamma} ({rule})")
    return {"sigma": params.sigma, "gamma": params.gamma, "constants_rule": rule}


def _run_one_suite(sid: str, args, probes, fam_intervals, gamma, sigma):
    e = args.e
    if sid == "distance-envelope":
        return suite_distance_envelope(e, fam_intervals)
    if sid == "hole-control":
        return suite_hole_control(e, fam_intervals, eta=args.eta)
    if sid == "left-propagation":
        return suite_left_propagation(e, gamma, fam_intervals)
    if sid == "pore-transport":
        return suite_pore_transport(e, gamma, fam_intervals)
    if sid == "decay":
        return suite_decay(e, sigma, gamma, _decay_interval(e, args.window))
    if sid == "dimension":
        return suite_dimension(e, args.window, sigma=sigma, gamma=gamma)
    if sid == "sided-transport":
        return suite_sided_transport(e, probes)
    if sid == "equivalence":
        cat = presets_mod.catalog(seed=args.seed, cantor_depth=8)
        return suite_equivalence_matrix(cat, args.window, seed=args.seed)
    raise ValueError(f"unknown suite {sid!r}")


def cmd_verify(args) -> int:
    _check_pair(args)
    check_eta(args.eta)  # every call, not only those that run hole-control
    _config(args)
    suite_ids = list(SUITE_IDS) if args.suite == "all" else [args.suite]
    # one family for every suite that reads probes; the equivalence matrix probes its own sets
    probes = None if suite_ids == ["equivalence"] else _probes(args)
    intervals = probes.intervals() if FAMILY_SUITES & set(suite_ids) else None
    constants = {"sigma": None, "gamma": None}
    if POROSITY_SUITES & set(suite_ids):
        found = _porosity_constants(args, probes)
        if found is None:
            gated = [s for s in suite_ids if s in POROSITY_SUITES]
            suite_ids = [s for s in suite_ids if s not in POROSITY_SUITES]
            print(f"skipping {gated}: right-sided porosity refuted on probes (their bounds presuppose it)")
        else:
            constants = found
    failed = []
    for sid in suite_ids:
        res = _run_one_suite(sid, args, probes, intervals, constants["gamma"], constants["sigma"])
        if sid in POROSITY_SUITES and sid != "dimension":  # a dimension report states its pair's bound
            res = replace(res, params={**res.params, **constants})
        _emit(args, f"verify_{sid.replace('-', '_')}", f"suite-{sid}", res)
        passed = res.passed
        marker = "PASS" if passed else "FAIL"
        extra = ""
        if sid == "equivalence":
            if args.format in ("csv", "both"):
                write_csv(args.out / "summary_matrix.csv", MATRIX_COLUMNS, (
                    (r.name, r.right_certified, r.left_certified, r.alpha, r.plus_bounded,
                     r.plus_divergent, r.minus_divergent, r.agreement)
                    for r in res.rows))
            extra = f" ({sum(1 for r in res.rows if r.agreement)}/{len(res.rows)} sets agree)"
        elif sid == "decay":
            if args.format in ("csv", "both"):
                write_csv(args.out / "decay_measures.csv", DECAY_COLUMNS,
                          [(eps, m, b) for (eps, m), b in zip(res.rows, res.bounds)])
            extra = f" (worst ratio {max(res.ratios):.4f} vs beta2={res.beta2})" if res.ratios else ""
        elif sid == "dimension":
            extra = f" (fitted {res.fitted_dimension:.4f}, bound {res.bound:.4f}, regime {res.regime})"
        elif hasattr(res, "checks"):
            extra = f" ({res.checks} checks, {len(res.failures)} failures)"
        print(f"  {sid:20s} {marker}{extra}")
        if not passed:
            failed.append(sid)
    if failed:
        print(f"failures: {failed} (witness data in {args.out})")
        return 1
    return 0


def cmd_presets(_args) -> int:
    for name in presets_mod.PRESET_NAMES:
        print(f"{name:30s} {presets_mod.PRESET_HELP[name]}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="poroweights",
        description="hole geometry of closed null sets and one-sided bounds of distance-power weights",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="certify or refute porosity parameters over a probe family")
    _add_common(p)
    p.add_argument("--sigma", type=parse_number, default=0.5)
    p.add_argument("--gamma", type=parse_number, default=0.5)
    p.add_argument("--side", dest="side_porosity", choices=porosity.SIDES, default="two_sided",
                   help="with --sweep, the two_sided certificate is not a verdict: a two-sided probe has sigma > 0 "
                        "at a small enough gamma")
    p.add_argument("--sweep", action="store_true",
                   help="search the parameter grid on the probe family, as critical-alpha and verify do")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("a1", help="sample one-sided constant lower bounds for a distance-power weight")
    _add_common(p)
    p.add_argument("--alpha", type=parse_number, required=True)
    p.add_argument("--side", choices=muckenhoupt.SIDES, default="plus")
    p.add_argument("--table-points", type=int, default=0,
                   help="also export weight_table.csv sampled on this many window points")
    p.set_defaults(fn=cmd_a1)

    p = sub.add_parser("critical-alpha", help="largest exponent with bounded evidence (bisection)")
    _add_common(p)
    p.add_argument("--side", choices=muckenhoupt.SIDES, default="plus")
    p.add_argument("--tol", type=parse_number, default=2.0 ** -8)
    p.set_defaults(fn=cmd_critical_alpha)

    p = sub.add_parser("dimension", help="fit the neighborhood-growth (box) dimension")
    _add_common(p)
    p.add_argument("--regime", choices=("auto", "fine", "structured"), default="auto")
    p.add_argument("--eps-hi", type=parse_number, default=None)
    p.add_argument("--eps-lo", type=parse_number, default=None)
    p.add_argument("--eps-points", type=int, default=None,
                   help=f"with --eps-hi and --eps-lo: grid points (default {DEFAULT_EPS_POINTS})")
    p.add_argument("--sigma", type=parse_number, default=None, help="compare against the decay bound from these constants")
    p.add_argument("--gamma", type=parse_number, default=None)
    p.set_defaults(fn=cmd_dimension)

    p = sub.add_parser("verify", help="run property suites")
    _add_common(p)
    p.add_argument("--suite", choices=SUITE_IDS + ("all",), default="all")
    p.add_argument("--sigma", type=parse_number, default=None,
                   help="with --gamma: run the porosity suites at this pair (default: a certified pair)")
    p.add_argument("--gamma", type=parse_number, default=None)
    p.add_argument("--eta", type=parse_number, default=2.0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("presets", help="list the built-in set catalog")
    p.set_defaults(fn=cmd_presets)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SetFormatError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, PointCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value left the float range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
