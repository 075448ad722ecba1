"""Maximal hole radii and empirical certification of one-sided weak porosity.

The certification semantics are deliberately modest: a pass means the porosity
inequality held on every interval of the supplied probe family, never a proof
over all intervals.  Probe families are finite, deterministic surrogates for
the universal quantifier, built from set features (points and gap midpoints)
across dyadic scales, plus seeded random intervals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .intervals import Interval
from .scaling import LadderReport, octave_of, rising_prefix_maxima
from .sets import (
    SetDescription,
    max_component_length,
    min_component_length,
    window_summary,
)

SIDES = ("right", "left", "two_sided")
ALIGNMENTS = ("left", "center", "right")

GAMMA_GRID = tuple(2.0 ** -k for k in range(1, 13))

DEFAULT_ANCHOR_CAP = 128
DEFAULT_RANDOM_PROBES = 1000
MIN_OCTAVES = 12
MAX_OCTAVES = 40

REL_SLACK = 1e-12  # float slack for non-dyadic inputs; dyadic data is exact


@dataclass(frozen=True)
class PorosityParams:
    sigma: float
    gamma: float
    side: str = "two_sided"

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")


def rho(e: SetDescription, i: Interval) -> float:
    """Radius of the largest open subinterval of I free of set points.

    Computed as half the longest component of I \\ E; for closed sets this
    equals the supremum over centered pores (property-tested against a grid
    search).  Returns 0 only in the degenerate covered case, which no catalog
    set produces.
    """
    return 0.5 * max_component_length(e, i)


def _qualifying_fraction(e: SetDescription, region: Interval, threshold: float) -> float:
    qual, = window_summary(e, region).qualifying_lengths(region.lo, region.hi, (threshold,))
    return qual / region.length


def sigma_at(e: SetDescription, i: Interval, gamma: float, side: str) -> float:
    """Largest sigma for which the porosity items hold on this single interval.

    Only components at least as long as twice gamma times the reference hole
    radius count; the optimum collection is exactly those components.
    """
    if side == "right":
        threshold = 2.0 * gamma * rho(e, i.right_half)
        return _qualifying_fraction(e, i.left_half, threshold)
    if side == "left":
        threshold = 2.0 * gamma * rho(e, i.left_half)
        return _qualifying_fraction(e, i.right_half, threshold)
    if side == "two_sided":
        threshold = 2.0 * gamma * rho(e, i)
        return _qualifying_fraction(e, i, threshold)
    raise ValueError(f"side must be one of {SIDES}")


# ---------------------------------------------------------------------------
# probe families
# ---------------------------------------------------------------------------


def _sample_run_points(e: SetDescription, window: Interval, cap: int) -> list[float]:
    """Up to `cap` set points in the window, evenly strided, without materialising."""
    runs = e.runs_in(window.lo, window.hi)
    total = sum(r.count for r in runs)
    if total == 0:
        return []
    take = min(total, cap)
    picks: list[float] = []
    stride = total / take
    pos = 0.0
    offset = 0
    run_iter = iter(runs)
    run = next(run_iter)
    for _ in range(take):
        idx = int(pos)
        while idx >= offset + run.count:
            offset += run.count
            run = next(run_iter)
        picks.append(run.point(idx - offset))
        pos += stride
    return picks


def anchor_candidates(e: SetDescription, window: Interval, cap: int = DEFAULT_ANCHOR_CAP) -> list[float]:
    """Set points and gap midpoints in the window, capped by even striding."""
    pts = _sample_run_points(e, window, cap)
    mids: list[float] = []
    bounds = [window.lo] + pts + [window.hi]
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            mids.append(0.5 * (a + b))
    anchors = sorted(set(pts + mids))
    if len(anchors) > 2 * cap:
        stride = len(anchors) / (2 * cap)
        anchors = [anchors[int(i * stride)] for i in range(2 * cap)]
    return anchors


def default_scales(
    e: SetDescription,
    window: Interval,
    octaves: Optional[int] = None,
    headroom: int = 0,
) -> list[float]:
    """Dyadic scales from `headroom` octaves above the window span down past the finest gap."""
    k_max = math.ceil(math.log2(window.length)) + headroom
    if octaves is None:
        finest = min_component_length(e, window)
        k_min = math.floor(math.log2(finest)) - 2
        octaves = min(max(k_max - k_min + 1, MIN_OCTAVES), MAX_OCTAVES)
    return [2.0 ** k for k in range(k_max, k_max - octaves, -1)]


@dataclass(frozen=True)
class ProbeFamily:
    """Deterministic family of probe intervals.

    Anchor-aligned intervals place each anchor as a left endpoint, center, or
    right endpoint at every scale; `random_count` extra intervals are drawn
    reproducibly from the window with log-uniform lengths.
    """

    anchors: tuple[float, ...]
    scales: tuple[float, ...]
    alignments: tuple[str, ...] = ALIGNMENTS
    random_count: int = 0
    seed: int = 0
    window: Optional[Interval] = None

    @classmethod
    def default(
        cls,
        e: SetDescription,
        window: Interval,
        octaves: Optional[int] = None,
        anchor_cap: int = DEFAULT_ANCHOR_CAP,
        random_count: int = DEFAULT_RANDOM_PROBES,
        seed: int = 0,
        headroom: int = 0,
    ) -> "ProbeFamily":
        return cls(
            anchors=tuple(anchor_candidates(e, window, anchor_cap)),
            scales=tuple(default_scales(e, window, octaves, headroom)),
            random_count=random_count,
            seed=seed,
            window=window,
        )

    def intervals(self) -> list[Interval]:
        out: list[Interval] = []
        for a in self.anchors:
            for s in self.scales:
                for al in self.alignments:
                    if al == "left":
                        out.append(Interval(a, a + s))
                    elif al == "center":
                        out.append(Interval(a - 0.5 * s, a + 0.5 * s))
                    else:
                        out.append(Interval(a - s, a))
        if self.random_count and self.window is not None:
            rng = random.Random(self.seed)
            lg_lo = math.log2(min(self.scales)) if self.scales else 0.0
            lg_hi = math.log2(max(self.scales)) if self.scales else 4.0
            for _ in range(self.random_count):
                c = rng.uniform(self.window.lo, self.window.hi)
                half = 0.5 * 2.0 ** rng.uniform(lg_lo, lg_hi)
                out.append(Interval(c - half, c + half))
        return out

    def reflected(self) -> "ProbeFamily":
        return ProbeFamily(
            anchors=tuple(sorted(-a for a in self.anchors)),
            scales=self.scales,
            alignments=self.alignments,
            random_count=0,
            seed=self.seed,
            window=self.window.reflected() if self.window else None,
        )


CERT_HEADROOM = 12  # octaves of probe scale above the window span


def certification_probes(
    e: SetDescription,
    window: Interval,
    anchor_cap: int = 64,
    random_count: int = 200,
    seed: int = 0,
) -> ProbeFamily:
    """Probe family for parameter sweeps and porosity refutation.

    Scales reach well beyond the window span: at the gamma-grid floor of
    2**-12 a refutation needs probes whose reference-half hole radius times
    2*gamma exceeds the finest gap, which in-window scales cannot deliver.
    """
    return ProbeFamily.default(
        e,
        window,
        anchor_cap=anchor_cap,
        random_count=random_count,
        seed=seed,
        headroom=CERT_HEADROOM,
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeRow:
    lo: float
    hi: float
    rho_minus: float
    rho_plus: float
    sigma: float


@dataclass(frozen=True)
class DoublingPair:
    outer: Interval
    inner: Interval
    ratio: float


@dataclass(frozen=True)
class DoublingReport:
    """Observed hole-radius doubling behaviour over nested interval pairs."""

    phi_estimate: float
    worst_pair: Optional[DoublingPair]
    ladder: tuple[tuple[int, float], ...]
    divergent: bool
    witnesses: tuple[DoublingPair, ...] = ()


@dataclass(frozen=True)
class PorosityReport:
    params: PorosityParams
    probe_count: int
    worst_interval: Optional[Interval]
    worst_sigma: float
    phi_estimate: float
    passed: bool
    witnesses: tuple[tuple[Interval, float], ...]
    rows: tuple[ProbeRow, ...] = field(repr=False, default=())
    doubling: Optional[DoublingReport] = field(repr=False, default=None)


MAX_WITNESSES = 64


def doubling_witness(e: SetDescription, probes: Sequence[Interval]) -> DoublingReport:
    """Max ratio rho(I)/rho(J) over nested pairs with |I| = 2|J|.

    Pairs use J = left half, right half, and the centered half of each probe.
    Unbounded growth of the ratio across scales refutes two-sided porosity.
    """
    best: Optional[DoublingPair] = None
    samples: list[tuple[int, float]] = []
    rows: list[tuple[float, DoublingPair]] = []
    for i in probes:
        quarter = 0.25 * i.length
        halves = (
            i.left_half,
            i.right_half,
            Interval(i.center - quarter, i.center + quarter),
        )
        rho_outer = rho(e, i)
        for j in halves:
            rho_inner = rho(e, j)
            if rho_inner <= 0.0:
                continue
            pair = DoublingPair(i, j, rho_outer / rho_inner)
            samples.append((octave_of(i.length), pair.ratio))
            rows.append((i.length, pair))
            if best is None or pair.ratio > best.ratio:
                best = pair
    report = LadderReport.from_samples(samples)
    witnesses: tuple[DoublingPair, ...] = ()
    if report.divergent:
        rows.sort(key=lambda t: t[0])
        witnesses = tuple(t[1] for t in rising_prefix_maxima([(s, p, p.ratio) for s, p in rows]))[-16:]
    return DoublingReport(
        phi_estimate=best.ratio if best else 0.0,
        worst_pair=best,
        ladder=report.ladder,
        divergent=report.divergent,
        witnesses=witnesses,
    )


def certify(
    e: SetDescription,
    params: PorosityParams,
    probes: ProbeFamily | Sequence[Interval],
) -> PorosityReport:
    """Evaluate the porosity inequality on every probe; pass iff none dips below sigma."""
    intervals = probes.intervals() if isinstance(probes, ProbeFamily) else list(probes)
    if not intervals:
        raise ValueError("probe family is empty")
    rows: list[ProbeRow] = []
    witnesses: list[tuple[Interval, float]] = []
    worst: Optional[Interval] = None
    worst_sigma = math.inf
    for i in intervals:
        s = sigma_at(e, i, params.gamma, params.side)
        rows.append(
            ProbeRow(i.lo, i.hi, rho(e, i.left_half), rho(e, i.right_half), s)
        )
        if s < worst_sigma:
            worst_sigma = s
            worst = i
        if s < params.sigma and len(witnesses) < MAX_WITNESSES:
            witnesses.append((i, s))
    doubling = doubling_witness(e, intervals)
    return PorosityReport(
        params=params,
        probe_count=len(intervals),
        worst_interval=worst,
        worst_sigma=worst_sigma,
        phi_estimate=doubling.phi_estimate,
        passed=worst_sigma >= params.sigma,
        witnesses=tuple(witnesses),
        rows=tuple(rows),
        doubling=doubling,
    )


# ---------------------------------------------------------------------------
# parameter search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    side: str
    table: tuple[tuple[float, float], ...]  # (gamma, sigma_star)
    best_gamma: float
    best_sigma: float

    @property
    def certified(self) -> bool:
        return self.best_sigma > 0.0

    def params(self) -> PorosityParams:
        """Certifiable parameter pair; sigma is clipped into (0, 1)."""
        if not self.certified:
            raise ValueError("no certifiable parameters found")
        sigma = min(self.best_sigma, 1.0 - 2.0 ** -40)
        return PorosityParams(sigma=sigma, gamma=self.best_gamma, side=self.side)


def sweep_parameters(
    e: SetDescription,
    probes: ProbeFamily | Sequence[Interval],
    side: str,
    gammas: Sequence[float] = GAMMA_GRID,
) -> SweepResult:
    """sigma*(gamma) = min over probes of sigma_at, for gamma on a geometric grid.

    sigma_at is nonincreasing in gamma, so the best pair maximises sigma*
    (ties resolved toward the larger gamma).
    """
    intervals = probes.intervals() if isinstance(probes, ProbeFamily) else list(probes)
    if not intervals:
        raise ValueError("probe family is empty")
    worst = {g: math.inf for g in gammas}
    for i in intervals:
        if side == "right":
            region, reference = i.left_half, i.right_half
        elif side == "left":
            region, reference = i.right_half, i.left_half
        else:
            region, reference = i, i
        rho_ref = rho(e, reference)
        thresholds = [2.0 * g * rho_ref for g in gammas]
        quals = window_summary(e, region).qualifying_lengths(region.lo, region.hi, thresholds)
        denom = region.length
        for g, qual in zip(gammas, quals):
            s = qual / denom
            if s < worst[g]:
                worst[g] = s
    table = tuple((g, worst[g]) for g in gammas)
    best_gamma, best_sigma = max(table, key=lambda t: (t[1], t[0]))
    return SweepResult(side=side, table=table, best_gamma=best_gamma, best_sigma=best_sigma)


# ---------------------------------------------------------------------------
# constants derived from a certification
# ---------------------------------------------------------------------------


def decay_constants(sigma: float, gamma: float) -> tuple[float, float]:
    """(beta1, beta2) governing neighborhood-measure decay for a certified set.

    beta1 = gamma/4 and 1 - beta2 = min(3/8, sigma/2); shrinking the
    neighborhood radius by beta1 shrinks the trapped measure by beta2.
    """
    return gamma / 4.0, 1.0 - min(3.0 / 8.0, sigma / 2.0)


def decay_exponent(sigma: float, gamma: float) -> float:
    """alpha0 = log(beta2)/log(beta1); measures obey F(eps) <~ eps**alpha0."""
    beta1, beta2 = decay_constants(sigma, gamma)
    return math.log(beta2) / math.log(beta1)


def dimension_bound(sigma: float, gamma: float) -> float:
    """Upper bound 1 - alpha0 on the box dimension of a certified set."""
    return 1.0 - decay_exponent(sigma, gamma)


def admissible_alpha(sigma: float, gamma: float, fraction: float = 0.5) -> float:
    """Weight exponent safely below the decay exponent alpha0.

    Any alpha < alpha0 makes the geometric series in the one-sided average
    bound converge; `fraction` keeps clear of the edge.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    return min(fraction * decay_exponent(sigma, gamma), 0.95)


# ---------------------------------------------------------------------------
# single-interval inequality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropagationCheck:
    """Hole radius of I against the left-half propagation bound."""

    interval: Interval
    gamma: float
    rho_full: float
    rho_left: float
    bound: float
    ok: bool


def left_propagation_check(e: SetDescription, i: Interval, gamma: float) -> PropagationCheck:
    """Check rho(I) <= ((gamma+1)/gamma) * rho(left half of I)."""
    rho_full = rho(e, i)
    rho_left = rho(e, i.left_half)
    bound = (gamma + 1.0) / gamma * rho_left
    return PropagationCheck(
        interval=i,
        gamma=gamma,
        rho_full=rho_full,
        rho_left=rho_left,
        bound=bound,
        ok=rho_full <= bound * (1.0 + REL_SLACK),
    )


@dataclass(frozen=True)
class TransportCheck:
    """Right-half hole of an enclosing interval against the scaled bound from a
    sub-interval lying at least as far left."""

    outer: Interval
    inner: Interval
    gamma: float
    theta1: float
    theta2: float
    lhs: float
    rhs: float
    ok: bool


def pore_transport_check(
    e: SetDescription,
    outer: Interval,
    inner: Interval,
    gamma: float,
    enforce_center_order: bool = True,
) -> TransportCheck:
    """Check rho(outer right half) <= theta1 * (|outer|/|inner|)**theta2 * rho(inner right half).

    Requires inner contained in outer with center(inner) <= center(outer);
    the bound genuinely fails without the center condition, so violating it
    raises unless explicitly disabled for counterexample reproduction.
    """
    if not outer.contains_interval(inner):
        raise ValueError("inner interval must be contained in the outer interval")
    if enforce_center_order and inner.center > outer.center:
        raise ValueError("precondition violated: inner center must not exceed outer center")
    theta1 = ((gamma + 1.0) / gamma) ** 2
    theta2 = math.log2((gamma + 1.0) / gamma)
    lhs = rho(e, outer.right_half)
    rhs = theta1 * (outer.length / inner.length) ** theta2 * rho(e, inner.right_half)
    return TransportCheck(
        outer=outer,
        inner=inner,
        gamma=gamma,
        theta1=theta1,
        theta2=theta2,
        lhs=lhs,
        rhs=rhs,
        ok=lhs <= rhs * (1.0 + REL_SLACK),
    )
