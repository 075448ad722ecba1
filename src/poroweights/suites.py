"""Property suites: every quantitative inequality checked on structured sets.

Each suite quantifies over a declared finite probe family and reports per-probe
failures with replayable witness data; a pass is always relative to that
family.  Derived constants (doubling factor, transport exponents, decay pair,
admissible weight exponent) are recorded alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .intervals import Interval
from .muckenhoupt import A1Report, TripleFamily, a1_constant
from .porosity import (
    ProbeFamily,
    SweepResult,
    admissible_alpha,
    certification_probes,
    decay_constants,
    dimension_bound,
    doubling_witness,
    certify,
    left_propagation_check,
    pore_transport_check,
    rho,
    sweep_parameters,
)
from .sets import (
    CantorIterate,
    SetDescription,
    largest_component,
    min_component_length,
    neighborhood_measure,
    set_distance,
    to_dict,
    window_summary,
)
from .weights import WeightSpec, max_distance_on

REL_SLACK = 1e-12
MAX_FAILURES = 32


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    params: dict
    checks: int
    failures: tuple[dict, ...]
    constants: dict
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _fail(failures: list[dict], record: dict) -> None:
    if len(failures) < MAX_FAILURES:
        failures.append(record)


# ---------------------------------------------------------------------------
# distance versus hole radius
# ---------------------------------------------------------------------------


def suite_distance_envelope(e: SetDescription, probes: Sequence[Interval]) -> SuiteResult:
    """Check max_I d(., E) <= 2 (1 + d(I, E)/|I|) rho(I) on every probe.

    When the interval meets the set the separation term vanishes and the bound
    reduces to twice the hole radius.
    """
    failures: list[dict] = []
    checks = 0
    for i in probes:
        checks += 1
        worst = max_distance_on(e, i)
        bound = 2.0 * (1.0 + set_distance(e, i) / i.length) * rho(e, i)
        if worst > bound * (1.0 + REL_SLACK):
            _fail(failures, {"interval": i.as_pair(), "max_distance": worst, "bound": bound})
    return SuiteResult(
        suite="distance-envelope",
        params={},
        checks=checks,
        failures=tuple(failures),
        constants={},
    )


def suite_hole_control(e: SetDescription, probes: Sequence[Interval], eta: float = 2.0) -> SuiteResult:
    """On probes with d(I, E) <= eta |I|, check rho(I+) >= d(x, E)/(6 + 4 eta) on I+."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    c0 = 1.0 / (6.0 + 4.0 * eta)
    failures: list[dict] = []
    checks = skipped = 0
    for i in probes:
        if set_distance(e, i) > eta * i.length:
            skipped += 1
            continue
        checks += 1
        right = i.right_half
        lhs = rho(e, right)
        worst = max_distance_on(e, right)
        if lhs < c0 * worst * (1.0 - REL_SLACK):
            _fail(failures, {"interval": i.as_pair(), "rho_plus": lhs, "max_distance": worst, "c0": c0})
    return SuiteResult(
        suite="hole-control",
        params={"eta": eta},
        checks=checks,
        failures=tuple(failures),
        constants={"C0": c0},
        details={"skipped_separated": skipped},
    )


# ---------------------------------------------------------------------------
# hole propagation leftward
# ---------------------------------------------------------------------------


def suite_left_propagation(
    e: SetDescription,
    gamma: float,
    probes: Sequence[Interval],
) -> SuiteResult:
    """rho(I) <= ((gamma+1)/gamma) rho(left half) across the probe family."""
    failures: list[dict] = []
    checks = 0
    for i in probes:
        checks += 1
        chk = left_propagation_check(e, i, gamma)
        if not chk.ok:
            _fail(
                failures,
                {"interval": i.as_pair(), "rho": chk.rho_full, "bound": chk.bound},
            )
    return SuiteResult(
        suite="left-propagation",
        params={"gamma": gamma},
        checks=checks,
        failures=tuple(failures),
        constants={"factor": (gamma + 1.0) / gamma},
    )


def suite_pore_transport(
    e: SetDescription,
    gamma: float,
    probes: Sequence[Interval],
    counterexample_sizes: Sequence[int] = (5, 10, 20, 40, 80, 160, 320),
    counterexample_offset: float = 0.25,
) -> SuiteResult:
    """Scaled leftward comparison of right-half holes, plus its sharpness.

    Under the center-order precondition the bound must hold on every derived
    pair.  The suite also reproduces the failure mode: a family with the inner
    center to the *right* of the outer center where the raw inequality
    eventually breaks, confirming the precondition cannot be dropped.
    """
    theta1 = ((gamma + 1.0) / gamma) ** 2
    theta2 = math.log2((gamma + 1.0) / gamma)
    failures: list[dict] = []
    checks = 0
    for i in probes:
        quarter = 0.25 * i.length
        # inner centers stay strictly left of the outer center; the exact
        # equality case is rounding-fragile and adds nothing here
        inners = (
            i.left_half,
            Interval(i.lo, i.lo + quarter),
            Interval(i.lo + 0.5 * quarter, i.lo + 2.5 * quarter),
            Interval(i.lo + 0.25 * quarter, i.lo + 2.25 * quarter),
        )
        for j in inners:
            checks += 1
            chk = pore_transport_check(e, i, j, gamma)
            if not chk.ok:
                _fail(
                    failures,
                    {"outer": i.as_pair(), "inner": j.as_pair(), "lhs": chk.lhs, "rhs": chk.rhs},
                )
    # precondition sharpness: inner centered right of outer center
    t = counterexample_offset
    guard_ok = True
    raw_rows = []
    for n in counterexample_sizes:
        outer = Interval(-2.0 * n * (1.0 + t), 2.0 * n * (1.0 - t))
        inner = Interval(float(-n), float(n))
        try:
            pore_transport_check(e, outer, inner, gamma)
            guard_ok = False
        except ValueError:
            pass
        raw = pore_transport_check(e, outer, inner, gamma, enforce_center_order=False)
        raw_rows.append({"n": n, "lhs": raw.lhs, "rhs": raw.rhs, "ok": raw.ok})
    raw_breaks = any(not r["ok"] for r in raw_rows)
    if not guard_ok:
        _fail(failures, {"counterexample": "center-order guard did not trigger"})
    return SuiteResult(
        suite="pore-transport",
        params={"gamma": gamma, "offset": t},
        checks=checks,
        failures=tuple(failures),
        constants={"theta1": theta1, "theta2": theta2},
        details={"counterexample_rows": raw_rows, "counterexample_breaks": raw_breaks},
    )


# ---------------------------------------------------------------------------
# neighborhood measure decay
# ---------------------------------------------------------------------------

MEASURE_FLOOR = 1e-300


@dataclass(frozen=True)
class DecayReport:
    interval: Interval
    trimmed: Interval
    eps0: float
    beta1: float
    beta2: float
    rows: tuple[tuple[float, float], ...]  # (eps, measure)
    ratios: tuple[float, ...]
    fitted_rate: float
    bounds: tuple[float, ...]  # beta2**k * first measure
    passed: bool


def suite_decay(
    e: SetDescription,
    sigma: float,
    gamma: float,
    i: Interval,
    eps0: Optional[float] = None,
    depth: int = 8,
) -> DecayReport:
    """Geometric decay of |{d < eps} ^ trimmed window| under eps -> beta1*eps.

    Needs set points inside the left half; the window is trimmed at the middle
    of the widest right-half hole so shrinking neighborhoods keep clear of it.
    """
    if window_summary(e, i.left_half).first is None:
        raise ValueError("left half of the interval must contain set points")
    pore = largest_component(e, i.right_half)
    if pore is None:
        raise ValueError("right half carries no hole")
    rho_plus = 0.5 * pore.length
    trimmed = Interval(i.lo, pore.center)
    if eps0 is None:
        eps0 = 0.5 * rho_plus
    if not 0.0 < eps0 < rho_plus:
        raise ValueError("eps0 must lie in (0, rho of the right half)")
    beta1, beta2 = decay_constants(sigma, gamma)
    rows: list[tuple[float, float]] = []
    eps = eps0
    for _ in range(depth + 2):
        m = neighborhood_measure(e, trimmed, eps)
        rows.append((eps, m))
        if m < MEASURE_FLOOR:
            break
        eps *= beta1
    ratios = tuple(
        rows[k + 1][1] / rows[k][1] for k in range(len(rows) - 1) if rows[k][1] > 0.0
    )
    passed = all(r <= beta2 * (1.0 + REL_SLACK) for r in ratios)
    fitted = (rows[-1][1] / rows[0][1]) ** (1.0 / (len(rows) - 1)) if len(rows) > 1 and rows[-1][1] > 0 else 0.0
    bounds = tuple(rows[0][1] * beta2 ** k for k in range(len(rows)))
    return DecayReport(
        interval=i,
        trimmed=trimmed,
        eps0=eps0,
        beta1=beta1,
        beta2=beta2,
        rows=tuple(rows),
        ratios=ratios,
        fitted_rate=fitted,
        bounds=bounds,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# box dimension
# ---------------------------------------------------------------------------

DIMENSION_GRID_POINTS = 24
FINE_OCTAVES = 12
STRUCTURED_MIN_SPAN = 6.0  # octaves


@dataclass(frozen=True)
class DimensionReport:
    set_description: dict
    window: Interval
    regime: str
    eps_grid: tuple[float, ...]
    measures: tuple[float, ...]
    fitted_dimension: float
    bound: Optional[float]
    passed: bool


def _geometric_grid(hi: float, lo: float, n: int) -> list[float]:
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi for the eps grid")
    r = (lo / hi) ** (1.0 / (n - 1))
    return [hi * r ** k for k in range(n)]


def suite_dimension(
    e: SetDescription,
    window: Interval,
    eps_grid: Optional[Sequence[float]] = None,
    regime: str = "auto",
    points: int = DIMENSION_GRID_POINTS,
    sigma: Optional[float] = None,
    gamma: Optional[float] = None,
    tolerance: float = 0.05,
) -> DimensionReport:
    """Fit the neighborhood-growth exponent and compare against the decay bound.

    `fine` reads the literal eps -> 0 regime below the finest gap (finite and
    lattice sets fit 0).  `structured` reads the scale range the construction
    populates, which for a truncated self-similar iterate recovers the limit
    object's exponent.  `auto` picks `structured` only for such iterates.
    """
    finest = min_component_length(e, window)
    if eps_grid is None:
        span_octaves = math.log2((window.length / 8.0) / finest) if finest > 0 else 0.0
        if regime == "auto":
            regime = (
                "structured"
                if isinstance(e, CantorIterate) and span_octaves >= STRUCTURED_MIN_SPAN
                else "fine"
            )
        if regime == "structured":
            grid = _geometric_grid(window.length / 8.0, finest, points)
        elif regime == "fine":
            hi = 0.5 * finest
            grid = _geometric_grid(hi, hi * 2.0 ** -FINE_OCTAVES, points)
        else:
            raise ValueError("regime must be 'auto', 'fine', or 'structured'")
    else:
        grid = sorted(eps_grid, reverse=True)
        regime = "explicit"
    measures = [neighborhood_measure(e, window, eps) for eps in grid]
    xs = [math.log(eps) for eps, m in zip(grid, measures) if m > 0.0]
    ys = [math.log(m) for m in measures if m > 0.0]
    if len(xs) >= 2:
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = 1.0
    fitted = min(max(1.0 - slope, 0.0), 1.0)
    bound = dimension_bound(sigma, gamma) if sigma is not None and gamma is not None else None
    passed = True if bound is None else fitted <= bound + tolerance
    return DimensionReport(
        set_description=to_dict(e),
        window=window,
        regime=regime,
        eps_grid=tuple(grid),
        measures=tuple(measures),
        fitted_dimension=fitted,
        bound=bound,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# one-sided split of the two-sided condition
# ---------------------------------------------------------------------------


TRANSPORT_SLACK = 1e-12


def suite_sided_transport(
    e: SetDescription,
    window: Interval,
    seed: int = 0,
    probes: Optional[ProbeFamily] = None,
    gamma: float = 0.5,
    gamma0: float = 0.5,
) -> SuiteResult:
    """Constant transport between the two-sided and one-sided conditions.

    Per probe I, with Phi the doubling estimate over the family:

      forward:   sigma_right(I, gamma/Phi) >= sigma_two(left half, gamma)
                 sigma_left (I, gamma/Phi) >= sigma_two(right half, gamma)
      converse:  sigma_two(I, gamma0/2) >= sigma_side(I, gamma0)/2, the side
                 being the half with the larger hole radius.

    These pointwise inequalities carry the certification transport: a family
    closed under halving then converts a two-sided pass at (sigma, gamma) into
    one-sided passes at (sigma, gamma/Phi), and conversely into a two-sided
    pass at half the one-sided constants.
    """
    from .porosity import sigma_at

    fam = probes or certification_probes(e, window, seed=seed)
    intervals = fam.intervals()
    phi = doubling_witness(e, intervals).phi_estimate
    gamma_t = gamma / phi
    failures: list[dict] = []
    checks = 0
    for i in intervals:
        checks += 1
        fwd_r = sigma_at(e, i, gamma_t, "right")
        need_r = sigma_at(e, i.left_half, gamma, "two_sided")
        if fwd_r < need_r - TRANSPORT_SLACK:
            _fail(failures, {"direction": "forward-right", "interval": i.as_pair(), "got": fwd_r, "need": need_r})
        fwd_l = sigma_at(e, i, gamma_t, "left")
        need_l = sigma_at(e, i.right_half, gamma, "two_sided")
        if fwd_l < need_l - TRANSPORT_SLACK:
            _fail(failures, {"direction": "forward-left", "interval": i.as_pair(), "got": fwd_l, "need": need_l})
        side = "right" if rho(e, i.right_half) >= rho(e, i.left_half) else "left"
        conv = sigma_at(e, i, 0.5 * gamma0, "two_sided")
        need_c = 0.5 * sigma_at(e, i, gamma0, side)
        if conv < need_c - TRANSPORT_SLACK:
            _fail(failures, {"direction": "converse", "interval": i.as_pair(), "got": conv, "need": need_c})
    right = sweep_parameters(e, intervals, "right")
    left = sweep_parameters(e, intervals, "left")
    two = sweep_parameters(e, intervals, "two_sided")
    return SuiteResult(
        suite="sided-transport",
        params={"window": window.as_pair(), "seed": seed, "gamma": gamma, "gamma0": gamma0},
        checks=checks,
        failures=tuple(failures),
        constants={"phi": phi, "gamma_transported": gamma_t},
        details={
            "two_sided_certified": two.certified,
            "right_certified": right.certified,
            "left_certified": left.certified,
            "two_sided_best": (two.best_gamma, two.best_sigma),
            "right_best": (right.best_gamma, right.best_sigma),
            "left_best": (left.best_gamma, left.best_sigma),
        },
    )


# ---------------------------------------------------------------------------
# porosity <-> one-sided weight equivalence matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixRow:
    name: str
    right_certified: bool
    left_certified: bool
    best_gamma: Optional[float]
    best_sigma: Optional[float]
    alpha: float
    plus_bounded: bool
    plus_divergent: bool
    minus_divergent: bool
    agreement: bool


@dataclass(frozen=True)
class MatrixResult:
    rows: tuple[MatrixRow, ...]
    reports: dict
    window: Interval
    seed: int

    @property
    def passed(self) -> bool:
        return all(r.agreement for r in self.rows)


DIVERGENCE_PROBE_ALPHA = 0.5


def suite_equivalence_matrix(
    named_sets: Sequence[tuple[str, SetDescription]],
    window: Interval,
    seed: int = 0,
    octaves: int = 24,
) -> MatrixResult:
    """Cross-check: right-sided certification iff bounded '+' side evidence.

    Certified sets are probed at the admissible exponent constructed from
    their certified constants; refuted sets are probed at alpha = 1/2, where
    the scale ladder is deep enough for the divergence detector.
    """
    rows: list[MatrixRow] = []
    reports: dict = {}
    for name, e in named_sets:
        probes = certification_probes(e, window, seed=seed)
        sweep_r = sweep_parameters(e, probes, "right")
        sweep_l = sweep_parameters(e, probes, "left")
        fam = TripleFamily.default(e, window, octaves=octaves)
        if sweep_r.certified:
            params = sweep_r.params()
            alpha = admissible_alpha(params.sigma, params.gamma)
            rep = a1_constant(WeightSpec(e, alpha), "plus", fam)
            agreement = rep.bounded_evidence
        else:
            alpha = DIVERGENCE_PROBE_ALPHA
            rep = a1_constant(WeightSpec(e, alpha), "plus", fam)
            agreement = rep.divergence_flag
        rep_minus = a1_constant(WeightSpec(e, DIVERGENCE_PROBE_ALPHA), "minus", fam)
        rows.append(
            MatrixRow(
                name=name,
                right_certified=sweep_r.certified,
                left_certified=sweep_l.certified,
                best_gamma=sweep_r.best_gamma if sweep_r.certified else None,
                best_sigma=sweep_r.best_sigma if sweep_r.certified else None,
                alpha=alpha,
                plus_bounded=rep.bounded_evidence,
                plus_divergent=rep.divergence_flag,
                minus_divergent=rep_minus.divergence_flag,
                agreement=agreement,
            )
        )
        reports[name] = {"plus": rep, "minus": rep_minus, "sweep_right": sweep_r, "sweep_left": sweep_l}
    return MatrixResult(rows=tuple(rows), reports=reports, window=window, seed=seed)
