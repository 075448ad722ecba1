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
from .muckenhoupt import TripleFamily, TripleTable, a1_constant
from .porosity import (
    GAMMA_GRID,
    REL_SLACK,
    ProbeFamily,
    WindowStore,
    admissible_alpha,
    certification_probes,
    check_gamma,
    decay_constants,
    dimension_bound,
    doubling_witness,
    left_propagation_on,
    pore_transport_on,
    probe_windows,
    profile_of,
    sweep_result,
    sweep_sides,
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
    store = WindowStore(e)
    failures: list[dict] = []
    checks = 0
    for i in probes:
        checks += 1
        worst = max_distance_on(e, i)
        bound = 2.0 * (1.0 + set_distance(e, i) / i.length) * store.rho(i)
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
    store = WindowStore(e)
    failures: list[dict] = []
    checks = skipped = 0
    for i in probes:
        if set_distance(e, i) > eta * i.length:
            skipped += 1
            continue
        checks += 1
        right = i.right_half
        lhs = store.rho(right)
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
    store = WindowStore(e)
    failures: list[dict] = []
    checks = 0
    for i in probes:
        checks += 1
        chk = left_propagation_on(store, i, gamma)
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


COUNTEREXAMPLE_SIZES = (5, 10, 20, 40, 80, 160, 320)
COUNTEREXAMPLE_OFFSET = 0.25  # t: outer (-2n(1+t), 2n(1-t)) is centred 2tn left of inner (-n, n)


def suite_pore_transport(
    e: SetDescription,
    gamma: float,
    probes: Sequence[Interval],
) -> SuiteResult:
    """Scaled leftward comparison of right-half holes, plus its sharpness.

    Under the center-order precondition the bound must hold on every derived
    pair.  The suite also reproduces the failure mode: a family with the inner
    center to the *right* of the outer center where the raw inequality
    eventually breaks, confirming the precondition cannot be dropped.
    """
    theta1 = ((gamma + 1.0) / gamma) ** 2
    theta2 = math.log2((gamma + 1.0) / gamma)
    store = WindowStore(e)
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
            chk = pore_transport_on(store, i, j, gamma)
            if not chk.ok:
                _fail(
                    failures,
                    {"outer": i.as_pair(), "inner": j.as_pair(), "lhs": chk.lhs, "rhs": chk.rhs},
                )
    # precondition sharpness: inner centered right of outer center
    t = COUNTEREXAMPLE_OFFSET
    guard_ok = True
    raw_rows = []
    for n in COUNTEREXAMPLE_SIZES:
        outer = Interval(-2.0 * n * (1.0 + t), 2.0 * n * (1.0 - t))
        inner = Interval(float(-n), float(n))
        try:
            pore_transport_on(store, outer, inner, gamma)
            guard_ok = False
        except ValueError:
            pass
        raw = pore_transport_on(store, outer, inner, gamma, enforce_center_order=False)
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
DECAY_DEPTH = 8  # the decay table holds at most DECAY_DEPTH + 2 radii


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
    params: dict = field(default_factory=dict)


def suite_decay(
    e: SetDescription,
    sigma: float,
    gamma: float,
    i: Interval,
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
    eps0 = 0.5 * rho_plus
    beta1, beta2 = decay_constants(sigma, gamma)
    rows: list[tuple[float, float]] = []
    eps = eps0
    for _ in range(DECAY_DEPTH + 2):
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
        params={"sigma": sigma, "gamma": gamma},
    )


# ---------------------------------------------------------------------------
# box dimension
# ---------------------------------------------------------------------------

DIMENSION_GRID_POINTS = 24
FINE_OCTAVES = 12
STRUCTURED_MIN_SPAN = 6.0  # octaves
DIMENSION_TOLERANCE = 0.05  # fitted dimension may exceed the decay bound by this much


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
    sigma: Optional[float] = None,
    gamma: Optional[float] = None,
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
            grid = _geometric_grid(window.length / 8.0, finest, DIMENSION_GRID_POINTS)
        elif regime == "fine":
            hi = 0.5 * finest
            grid = _geometric_grid(hi, hi * 2.0 ** -FINE_OCTAVES, DIMENSION_GRID_POINTS)
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
    passed = True if bound is None else fitted <= bound + DIMENSION_TOLERANCE
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
    check_gamma(gamma)
    check_gamma(gamma0, "gamma0")
    fam = probes or certification_probes(e, window, seed=seed)
    intervals = fam.intervals()
    # both passes read one window store
    store = WindowStore(e)
    # pass 1: Phi needs the whole family before any check can run
    phi = doubling_witness(e, intervals, store).phi_estimate
    gamma_t = gamma / phi
    gamma_c = 0.5 * gamma0
    # pass 2: I, I- and I+ read from the store; per window one length profile
    # answers the sweep grid and the thresholds of the checks that count its holes
    doubled = [2.0 * g for g in GAMMA_GRID]
    worst = {side: [math.inf] * len(GAMMA_GRID) for side in ("right", "left", "two_sided")}
    failures: list[dict] = []
    checks = 0
    for i in intervals:
        checks += 1
        whole, left, right = probe_windows(store, i)
        rho_i, rho_l, rho_r = whole[2], left[2], right[2]
        on_left, on_right, on_whole = profile_of(left), profile_of(right), profile_of(whole)
        on_left.lower_along(worst["right"], doubled, rho_r)
        on_right.lower_along(worst["left"], doubled, rho_l)
        on_whole.lower_along(worst["two_sided"], doubled, rho_i)
        fwd_r, need_r = on_left.share(2.0 * gamma_t * rho_r), on_left.share(2.0 * gamma * rho_l)
        fwd_l, need_l = on_right.share(2.0 * gamma_t * rho_l), on_right.share(2.0 * gamma * rho_r)
        if fwd_r < need_r - REL_SLACK:
            _fail(failures, {"direction": "forward-right", "interval": i.as_pair(), "got": fwd_r, "need": need_r})
        if fwd_l < need_l - REL_SLACK:
            _fail(failures, {"direction": "forward-left", "interval": i.as_pair(), "got": fwd_l, "need": need_l})
        conv = on_whole.share(2.0 * gamma_c * rho_i)
        if rho_r >= rho_l:
            need_c = 0.5 * on_left.share(2.0 * gamma0 * rho_r)
        else:
            need_c = 0.5 * on_right.share(2.0 * gamma0 * rho_l)
        if conv < need_c - REL_SLACK:
            _fail(failures, {"direction": "converse", "interval": i.as_pair(), "got": conv, "need": need_c})
    right, left, two = (sweep_result(side, GAMMA_GRID, low) for side, low in worst.items())
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
        sweeps = sweep_sides(e, certification_probes(e, window, seed=seed), ("right", "left"))
        sweep_r, sweep_l = sweeps["right"], sweeps["left"]
        # one table feeds both sides: each triple window is summarised once
        table = TripleTable(e, TripleFamily.default(e, window, octaves=octaves))
        if sweep_r.certified:
            params = sweep_r.params()
            alpha = admissible_alpha(params.sigma, params.gamma)
            rep = a1_constant(WeightSpec(e, alpha), "plus", table, samples=False)
            agreement = rep.bounded_evidence
        else:
            alpha = DIVERGENCE_PROBE_ALPHA
            rep = a1_constant(WeightSpec(e, alpha), "plus", table, samples=False)
            agreement = rep.divergence_flag
        # no report writes the per-triple samples; kept, they would hold every triple of every set
        rep_minus = a1_constant(WeightSpec(e, DIVERGENCE_PROBE_ALPHA), "minus", table, samples=False)
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
        reports[name] = {
            "plus": rep,
            "minus": rep_minus,
            "sweep_right": sweep_r,
            "sweep_left": sweep_l,
        }
    return MatrixResult(rows=tuple(rows), reports=reports, window=window, seed=seed)
