"""Command-line front end: analyses, verification suites, and report export.

Reports always land in files (JSON and/or CSV); the terminal shows a one-look
summary.  Exit codes: 0 success/pass, 1 a checked property failed (witnesses
are in the written reports), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, replace
from multiprocessing import Pool
from pathlib import Path
from typing import Optional

from . import presets as presets_mod
from .intervals import Interval
from .muckenhoupt import DEFAULT_TRIPLE_OCTAVES, TripleFamily, a1_constant, critical_alpha
from .porosity import (
    PorosityParams,
    ProbeFamily,
    certification_probes,
    certify,
    check_gamma,
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
from .sets import PointCapExceeded, SetDescription, SetFormatError, distance, from_json
from .suites import (
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

WORKERS_ENV = "POROWEIGHTS_WORKERS"

_DYADIC = re.compile(r"^(?P<sign>[+-]?)(?:(?P<mant>\d+)\*)?2\^(?P<exp>[+-]?\d+)$")


def parse_number(text: str) -> float:
    """Parse a decimal or an exact dyadic string like '2^-5' or '3*2^-4'."""
    m = _DYADIC.match(text.strip())
    if m:
        mant = int(m.group("mant") or "1")
        value = mant * 2.0 ** int(m.group("exp"))
        return -value if m.group("sign") == "-" else value
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number or dyadic string: {text!r}") from exc


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def _add_common(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("set selection")
    g.add_argument("--preset", choices=presets_mod.PRESET_NAMES, help="built-in set")
    g.add_argument("--set-file", type=Path, help="JSON set description (schema in README)")
    g.add_argument("--cantor-middle", type=parse_number, default=1.0 / 3.0)
    g.add_argument("--cantor-depth", type=int, default=10)
    g.add_argument("--random-count", type=int, default=48)
    g.add_argument("--random-span", type=parse_number, default=8.0)
    r = p.add_argument_group("run configuration")
    r.add_argument("--window", nargs=2, type=parse_number, default=(-64.0, 64.0), metavar=("LO", "HI"))
    r.add_argument("--octaves", type=int, default=None, help="probe scale octaves (default adapts to the set)")
    r.add_argument("--anchor-cap", type=int, default=128)
    r.add_argument("--random-probes", type=int, default=1000)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", type=Path, default=Path("reports"))
    r.add_argument("--format", choices=("json", "csv", "both"), default="both")
    r.add_argument("--no-timestamp", action="store_true", help="omit the timestamp header for byte-identical reruns")
    r.add_argument("--workers", type=int, default=_default_workers(), help=f"worker processes (default ${WORKERS_ENV} or 1)")


@dataclass
class RunConfig:
    e: SetDescription
    window: Interval
    octaves: Optional[int]
    anchor_cap: int
    random_probes: int
    seed: int
    out: Path
    fmt: str
    timestamp: bool
    workers: int


def _load_set(args) -> SetDescription:
    if args.set_file is not None and args.preset is not None:
        raise SetFormatError("give either --preset or --set-file, not both")
    if args.set_file is not None:
        return from_json(args.set_file.read_text())
    name = args.preset or "integers"
    return presets_mod.preset(
        name,
        cantor_middle=args.cantor_middle,
        cantor_depth=args.cantor_depth,
        random_count=args.random_count,
        random_span=args.random_span,
        seed=args.seed,
    )


def _config(args) -> RunConfig:
    lo, hi = args.window
    if not lo < hi:
        raise SetFormatError(f"window must satisfy lo < hi, got {args.window}")
    return RunConfig(
        e=_load_set(args),
        window=Interval(lo, hi),
        octaves=args.octaves,
        anchor_cap=args.anchor_cap,
        random_probes=args.random_probes,
        seed=args.seed,
        out=args.out,
        fmt=args.format,
        timestamp=not args.no_timestamp,
        workers=args.workers,
    )


def _probe_family(cfg: RunConfig) -> ProbeFamily:
    return ProbeFamily.default(
        cfg.e,
        cfg.window,
        octaves=cfg.octaves,
        anchor_cap=cfg.anchor_cap,
        random_count=cfg.random_probes,
        seed=cfg.seed,
    )


def _emit(cfg: RunConfig, name: str, kind: str, payload, csv_spec=None) -> None:
    if cfg.fmt in ("json", "both"):
        write_json(cfg.out / f"{name}.json", report_document(kind, payload, cfg.timestamp))
    if csv_spec is not None and cfg.fmt in ("csv", "both"):
        columns, rows = csv_spec
        write_csv(cfg.out / f"{name}.csv", columns, rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    cfg = _config(args)
    fam = _probe_family(cfg)
    if args.sweep:
        sweep = sweep_parameters(cfg.e, fam, args.side_porosity)
        _emit(cfg, "porosity_sweep", "porosity-sweep", sweep)
        print(f"sweep[{args.side_porosity}] best gamma={sweep.best_gamma} sigma*={sweep.best_sigma:.6g} certified={sweep.certified}")
        return 0 if sweep.certified else 1
    params = PorosityParams(args.sigma, args.gamma, args.side_porosity)
    report = certify(cfg.e, params, fam)
    rows = [(r.lo, r.hi, r.rho_minus, r.rho_plus, r.sigma) for r in report.rows]
    _emit(cfg, "porosity_report", "porosity-certification", report, (POROSITY_COLUMNS, rows))
    verdict = "PASS" if report.passed else "FAIL"
    print(f"porosity[{params.side}] sigma={params.sigma} gamma={params.gamma}: {verdict}")
    print(f"  probes={report.probe_count} worst sigma={report.worst_sigma:.6g} at {report.worst_interval.as_pair() if report.worst_interval else None}")
    print(f"  doubling estimate={report.phi_estimate:.6g} divergent={report.doubling.divergent}")
    return 0 if report.passed else 1


def cmd_a1(args) -> int:
    cfg = _config(args)
    w = WeightSpec(cfg.e, args.alpha)
    octaves = DEFAULT_TRIPLE_OCTAVES if args.octaves is None else args.octaves
    fam = TripleFamily.default(cfg.e, cfg.window, octaves=octaves, anchor_cap=min(cfg.anchor_cap, 32))
    report = a1_constant(w, args.side, fam)
    rows = [(t.a, t.b, t.c, t.value, t.scale) for t in report.samples]
    _emit(cfg, "a1_report", "a1-constant", report, (TRIPLE_COLUMNS, rows))
    if args.table_points > 0 and cfg.fmt in ("csv", "both"):
        step = cfg.window.length / args.table_points
        xs = [cfg.window.lo + (k + 0.5) * step for k in range(args.table_points)]
        write_csv(cfg.out / "weight_table.csv", WEIGHT_TABLE_COLUMNS, evaluation_table(w, xs))
    print(f"a1[{args.side}] alpha={args.alpha}: lower bound {report.constant_lower_bound:.6g} "
          f"divergent={report.divergence_flag} nonintegrable={report.nonintegrable_count}")
    return 0 if report.bounded_evidence else 1


def cmd_critical_alpha(args) -> int:
    cfg = _config(args)
    result = critical_alpha(cfg.e, args.side, cfg.window, tol=args.tol, probe_seed=cfg.seed)
    _emit(cfg, "critical_alpha", "critical-alpha", result)
    if result.alpha is None:
        print(f"critical-alpha[{args.side}]: none found ({result.note})")
        return 1
    print(f"critical-alpha[{args.side}] = {result.alpha:.6g} (grid tol {args.tol}; monotone={result.monotone})")
    return 0


def cmd_dimension(args) -> int:
    cfg = _config(args)
    grid = None
    if args.eps_hi is not None and args.eps_lo is not None:
        n = args.eps_points
        if n < 2:
            raise ValueError(f"--eps-points must be at least 2 to fit a slope, got {n}")
        ratio = (args.eps_lo / args.eps_hi) ** (1.0 / (n - 1))
        grid = [args.eps_hi * ratio ** k for k in range(n)]
    report = suite_dimension(cfg.e, cfg.window, eps_grid=grid, regime=args.regime,
                             sigma=args.sigma, gamma=args.gamma)
    rows = list(zip(report.eps_grid, report.measures))
    _emit(cfg, "dimension_report", "dimension", report, (DIMENSION_COLUMNS, rows))
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


# the suites that read the default probe family; the others build their own probes or none
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
POROSITY_SUITES = {"left-propagation", "pore-transport", "decay"}

SWEEP_RULE = "the right sweep's certified pair with the largest admissible alpha, ties to the larger gamma"
REQUESTED_RULE = "--sigma and --gamma as given, certified on the right sweep's probes"


def _porosity_constants(args, cfg: RunConfig) -> Optional[dict]:
    """The certified (sigma, gamma) the porosity suites run at, with the rule that chose it; None if refuted."""
    probes = certification_probes(cfg.e, cfg.window, seed=cfg.seed)
    if args.sigma is not None and args.gamma is not None:
        params = PorosityParams(args.sigma, args.gamma, "right")
        rule = REQUESTED_RULE
        if sweep_parameters(cfg.e, probes, "right", (params.gamma,)).best_sigma < params.sigma:
            print(f"sigma={params.sigma} gamma={params.gamma} is not certified on the right sweep's probes")
            return None
    else:
        if args.sigma is not None or args.gamma is not None:
            print("a lone --sigma or --gamma is ignored: the porosity suites run at a certified pair")
        sweep = sweep_parameters(cfg.e, probes, "right")
        if not sweep.certified:
            return None
        params = sweep.admissible_params()
        rule = SWEEP_RULE
    print(f"porosity constants: sigma={params.sigma:.6g} gamma={params.gamma} ({rule})")
    return {"sigma": params.sigma, "gamma": params.gamma, "constants_rule": rule}


def _run_one_suite(task) -> tuple[str, object]:
    sid, cfg, fam_intervals, gamma, eta, sigma = task
    e = cfg.e
    if sid == "distance-envelope":
        return sid, suite_distance_envelope(e, fam_intervals)
    if sid == "hole-control":
        return sid, suite_hole_control(e, fam_intervals, eta=eta)
    if sid == "left-propagation":
        return sid, suite_left_propagation(e, gamma, fam_intervals)
    if sid == "pore-transport":
        return sid, suite_pore_transport(e, gamma, fam_intervals)
    if sid == "decay":
        return sid, suite_decay(e, sigma, gamma, _decay_interval(e, cfg.window))
    if sid == "dimension":
        return sid, suite_dimension(e, cfg.window)
    if sid == "sided-transport":
        return sid, suite_sided_transport(e, cfg.window, seed=cfg.seed)
    if sid == "equivalence":
        cat = presets_mod.catalog(seed=cfg.seed, cantor_depth=8)
        return sid, suite_equivalence_matrix(cat, cfg.window, seed=cfg.seed)
    raise ValueError(f"unknown suite {sid!r}")


def cmd_verify(args) -> int:
    if args.gamma is not None:
        check_gamma(args.gamma)
    cfg = _config(args)
    suite_ids = list(SUITE_IDS) if args.suite == "all" else [args.suite]
    intervals = _probe_family(cfg).intervals() if FAMILY_SUITES & set(suite_ids) else None
    constants = {"sigma": None, "gamma": None}
    if POROSITY_SUITES & set(suite_ids):
        found = _porosity_constants(args, cfg)
        if found is None:
            gated = [s for s in suite_ids if s in POROSITY_SUITES]
            suite_ids = [s for s in suite_ids if s not in POROSITY_SUITES]
            print(f"skipping {gated}: right-sided porosity refuted on probes (their bounds presuppose it)")
        else:
            constants = found
    tasks = [(sid, cfg, intervals, constants["gamma"], args.eta, constants["sigma"]) for sid in suite_ids]
    if cfg.workers > 1 and len(tasks) > 1:
        with Pool(processes=min(cfg.workers, len(tasks))) as pool:
            results = pool.map(_run_one_suite, tasks)
    else:
        results = [_run_one_suite(t) for t in tasks]
    failed = []
    for sid, res in results:
        if sid in POROSITY_SUITES:
            res = replace(res, params={**res.params, **constants})
        _emit(cfg, f"verify_{sid.replace('-', '_')}", f"suite-{sid}", res)
        passed = res.passed
        marker = "PASS" if passed else "FAIL"
        extra = ""
        if sid == "equivalence":
            rows = [
                (r.name, r.right_certified, r.left_certified, r.alpha, r.plus_bounded,
                 r.plus_divergent, r.minus_divergent, r.agreement)
                for r in res.rows
            ]
            if cfg.fmt in ("csv", "both"):
                write_csv(cfg.out / "summary_matrix.csv", MATRIX_COLUMNS, rows)
            extra = f" ({sum(1 for r in res.rows if r.agreement)}/{len(res.rows)} sets agree)"
        elif sid == "decay":
            if cfg.fmt in ("csv", "both"):
                write_csv(cfg.out / "decay_measures.csv", DECAY_COLUMNS,
                          [(eps, m, b) for (eps, m), b in zip(res.rows, res.bounds)])
            extra = f" (worst ratio {max(res.ratios):.4f} vs beta2={res.beta2})" if res.ratios else ""
        elif sid == "dimension":
            extra = f" (fitted {res.fitted_dimension:.4f}, regime {res.regime})"
        elif hasattr(res, "checks"):
            extra = f" ({res.checks} checks, {len(res.failures)} failures)"
        print(f"  {sid:20s} {marker}{extra}")
        if not passed:
            failed.append(sid)
    if failed:
        print(f"failures: {failed} (witness data in {cfg.out})")
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
    ap = argparse.ArgumentParser(
        prog="poroweights",
        description="hole geometry of closed null sets and one-sided bounds of distance-power weights",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="certify or refute porosity parameters over a probe family")
    _add_common(p)
    p.add_argument("--sigma", type=parse_number, default=0.5)
    p.add_argument("--gamma", type=parse_number, default=0.5)
    p.add_argument("--side", dest="side_porosity", choices=("right", "left", "two_sided"), default="two_sided")
    p.add_argument("--sweep", action="store_true", help="search the parameter grid instead of checking fixed values")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("a1", help="sample one-sided constant lower bounds for a distance-power weight")
    _add_common(p)
    p.add_argument("--alpha", type=parse_number, required=True)
    p.add_argument("--side", choices=("plus", "minus", "two_sided"), default="plus")
    p.add_argument("--table-points", type=int, default=0,
                   help="also export weight_table.csv sampled on this many window points")
    p.set_defaults(fn=cmd_a1)

    p = sub.add_parser("critical-alpha", help="largest exponent with bounded evidence (bisection)")
    _add_common(p)
    p.add_argument("--side", choices=("plus", "minus", "two_sided"), default="plus")
    p.add_argument("--tol", type=parse_number, default=2.0 ** -8)
    p.set_defaults(fn=cmd_critical_alpha)

    p = sub.add_parser("dimension", help="fit the neighborhood-growth (box) dimension")
    _add_common(p)
    p.add_argument("--regime", choices=("auto", "fine", "structured"), default="auto")
    p.add_argument("--eps-hi", type=parse_number, default=None)
    p.add_argument("--eps-lo", type=parse_number, default=None)
    p.add_argument("--eps-points", type=int, default=24)
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
