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
from array import array
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .intervals import Interval
from .scaling import LadderReport, octave_of, rising_prefix_maxima
from .sets import (
    SetDescription,
    WindowSummary,
    max_component_length,
    min_component_length,
    sample_points,
    window_summary,
)

SIDES = ("right", "left", "two_sided")
ALIGNMENTS = ("left", "center", "right")

GAMMA_GRID = tuple(2.0 ** -k for k in range(1, 13))

DEFAULT_ANCHOR_CAP = 128
DEFAULT_RANDOM_PROBES = 1000
MIN_OCTAVES = 12
MAX_OCTAVES = 40

# Float slack for non-dyadic inputs (dyadic data is exact): relative on hole
# radii and measures, absolute on porosity fractions sigma in [0, 1].
REL_SLACK = 1e-12


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


# A summarised window: (window, its summary, its hole radius rho).
Rated = tuple[Interval, WindowSummary, float]


def _rated(e: SetDescription, memo: dict, lo: float, hi: float, j: Optional[Interval] = None) -> Rated:
    """The window (lo, hi), or ``j`` when given, rated; read from ``memo`` when an earlier probe summarised it."""
    r = memo.get((lo, hi))
    if r is None:
        j = Interval(lo, hi) if j is None else j
        s = window_summary(e, j)
        r = memo[lo, hi] = (j, s, 0.5 * s.max_length(lo, hi))
    return r


def probe_windows(
    e: SetDescription, i: Interval, whole: bool = True, halves: bool = True, memo: Optional[dict] = None
) -> tuple:
    """(I, I-, I+) of a probe, each summarised once; None for a part not asked for.

    Probes of one pass that pass the same ``memo`` share the summary of
    every window they have in common.
    """
    memo = {} if memo is None else memo
    left = right = None
    if halves:
        c = i.split_point
        left, right = _rated(e, memo, i.lo, c), _rated(e, memo, c, i.hi)
    return (_rated(e, memo, i.lo, i.hi, i) if whole else None), left, right


# (region, reference) of a side, as indices into (I, I-, I+): the part whose
# holes count, the part whose hole radius sets the threshold
_SPLIT = {"right": (1, 2), "left": (2, 1), "two_sided": (0, 0)}


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")


def porosity_fractions(region: Rated, thresholds: Sequence[float]) -> list[float]:
    """Per threshold, the share of the region covered by components at least that long."""
    j, s, _ = region
    length = j.length
    return [qual / length for qual in s.qualifying_lengths(j.lo, j.hi, thresholds)]


def _side_fractions(windows: tuple, side: str, gammas: Sequence[float]) -> list[float]:
    """sigma of the probe on a side at each gamma: thresholds 2 gamma rho(reference) on the region."""
    k_region, k_reference = _SPLIT[side]
    rho_ref = windows[k_reference][2]
    return porosity_fractions(windows[k_region], [2.0 * g * rho_ref for g in gammas])


def sigma_at(e: SetDescription, i: Interval, gamma: float, side: str) -> float:
    """Largest sigma for which the porosity items hold on this single interval.

    Only components at least as long as twice gamma times the reference hole
    radius count; the optimum collection is exactly those components.
    """
    _check_side(side)
    windows = probe_windows(e, i, whole=side == "two_sided", halves=side != "two_sided")
    return _side_fractions(windows, side, (gamma,))[0]


# ---------------------------------------------------------------------------
# probe families
# ---------------------------------------------------------------------------


def anchor_candidates(e: SetDescription, window: Interval, cap: int = DEFAULT_ANCHOR_CAP) -> list[float]:
    """Set points and gap midpoints in the window, capped by even striding."""
    pts = sample_points(e, window.lo, window.hi, cap)
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
    # 2.0 ** -1074 is the smallest positive float
    return [2.0 ** k for k in range(k_max, max(k_max - octaves, -1075), -1)]


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
        """The probes, less those too short to split at their position (see :func:`_splittable`)."""
        bounds: list[tuple[float, float]] = []
        for a in self.anchors:
            for s in self.scales:
                for al in self.alignments:
                    if al == "left":
                        bounds.append((a, a + s))
                    elif al == "center":
                        bounds.append((a - 0.5 * s, a + 0.5 * s))
                    else:
                        bounds.append((a - s, a))
        if self.random_count and self.window is not None:
            rng = random.Random(self.seed)
            lg_lo = math.log2(min(self.scales)) if self.scales else 0.0
            lg_hi = math.log2(max(self.scales)) if self.scales else 4.0
            for _ in range(self.random_count):
                c = rng.uniform(self.window.lo, self.window.hi)
                half = 0.5 * 2.0 ** rng.uniform(lg_lo, lg_hi)
                bounds.append((c - half, c + half))
        return [Interval(lo, hi) for lo, hi in bounds if _splittable(lo, hi)]


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


def _centred_half(i: Interval) -> Interval:
    quarter = 0.25 * i.length
    return Interval(i.center - quarter, i.center + quarter)


def _splittable(lo: float, hi: float) -> bool:
    """Whether (lo, hi) is an interval whose halves and centred half are intervals too.

    A probe a few ulps long fails: its rounded midpoint or quarter points
    land on an endpoint or on each other.
    """
    c = 0.5 * (lo + hi)
    quarter = 0.25 * (hi - lo)
    return lo < c < hi and c - quarter < c + quarter


_INNER = (None, lambda i: i.left_half, lambda i: i.right_half, _centred_half)


def _pair_ratios(radii: array) -> Iterator[tuple[int, int, float]]:
    """(probe index, inner index, rho(I)/rho(J)) over the pairs with rho(J) > 0, in probe order."""
    for n in range(0, len(radii), 4):
        outer = radii[n]
        for k in (1, 2, 3):
            inner = radii[n + k]
            if inner > 0.0:
                yield n // 4, k, outer / inner


def _probe_radii(e: SetDescription, i: Interval, windows: Optional[tuple] = None) -> tuple[float, ...]:
    """rho of a probe I, of its halves I- and I+ and of its centred half.

    The first three are read from the probe's ``probe_windows``, summarised
    here unless given.
    """
    whole, left, right = probe_windows(e, i) if windows is None else windows
    return whole[2], left[2], right[2], rho(e, _centred_half(i))


def _doubling_report(intervals: Sequence[Interval], radii: array) -> DoublingReport:
    """Reduce the radius columns: per probe rho(I), then rho of I-, I+ and the centred half."""

    def pair(t: tuple[int, int, float]) -> DoublingPair:
        i = intervals[t[0]]
        return DoublingPair(i, _INNER[t[1]](i), t[2])

    best = max(_pair_ratios(radii), key=lambda t: t[2], default=None)
    report = LadderReport.from_samples(
        (octave_of(intervals[n].length), ratio) for n, _, ratio in _pair_ratios(radii)
    )
    witnesses: tuple[DoublingPair, ...] = ()
    if report.divergent:
        rows = sorted(_pair_ratios(radii), key=lambda t: intervals[t[0]].length)
        witnesses = tuple(map(pair, rising_prefix_maxima(rows)[-16:]))
    return DoublingReport(
        phi_estimate=best[2] if best else 0.0,
        worst_pair=pair(best) if best else None,
        ladder=report.ladder,
        divergent=report.divergent,
        witnesses=witnesses,
    )


def doubling_witness(e: SetDescription, probes: Sequence[Interval]) -> DoublingReport:
    """Max ratio rho(I)/rho(J) over nested pairs with |I| = 2|J|.

    Pairs use J = left half, right half, and the centered half of each probe.
    Unbounded growth of the ratio across scales refutes two-sided porosity.
    """
    intervals = list(probes)
    radii = array("d")
    for i in intervals:
        radii.extend(_probe_radii(e, i))
    return _doubling_report(intervals, radii)


def _intervals(probes: ProbeFamily | Sequence[Interval]) -> list[Interval]:
    intervals = probes.intervals() if isinstance(probes, ProbeFamily) else list(probes)
    if not intervals:
        raise ValueError("probe family is empty (probes too short to halve are left out)")
    return intervals


def certify(
    e: SetDescription,
    params: PorosityParams,
    probes: ProbeFamily | Sequence[Interval],
) -> PorosityReport:
    """Evaluate the porosity inequality on every probe; pass iff none dips below sigma.

    Each probe summarises four windows once: I, its halves and its centred
    half; sigma, the row radii and the doubling ratios all read them.
    """
    intervals = _intervals(probes)
    rows: list[ProbeRow] = []
    witnesses: list[tuple[Interval, float]] = []
    worst: Optional[Interval] = None
    worst_sigma = math.inf
    radii = array("d")
    for i in intervals:
        windows = probe_windows(e, i)
        s, = _side_fractions(windows, params.side, (params.gamma,))
        whole, left, right = windows
        rows.append(ProbeRow(i.lo, i.hi, left[2], right[2], s))
        radii.extend(_probe_radii(e, i, windows))
        if s < worst_sigma:
            worst_sigma = s
            worst = i
        if s < params.sigma and len(witnesses) < MAX_WITNESSES:
            witnesses.append((i, s))
    doubling = _doubling_report(intervals, radii)
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


def lower_into(worst: list[float], values: Sequence[float]) -> None:
    """Running minimum: worst[k] = min(worst[k], values[k])."""
    for k, v in enumerate(values):
        if v < worst[k]:
            worst[k] = v


def sweep_result(side: str, gammas: Sequence[float], worst: Sequence[float]) -> SweepResult:
    """The sweep of a side from sigma*(gamma), the per-gamma minimum over the probes."""
    table = tuple(zip(gammas, worst))
    best_gamma, best_sigma = max(table, key=lambda t: (t[1], t[0]))
    return SweepResult(side=side, table=table, best_gamma=best_gamma, best_sigma=best_sigma)


def sweep_sides(
    e: SetDescription,
    probes: ProbeFamily | Sequence[Interval],
    sides: Sequence[str],
    gammas: Sequence[float] = GAMMA_GRID,
) -> dict[str, SweepResult]:
    """:func:`sweep_parameters` for several sides in one pass over the probes.

    Each distinct window is summarised once per call: the right and left
    sides share the summaries of I- and I+, and a half that recurs across
    anchors, scales and alignments (the right half of (a - s, a + s) is the
    left half of (a, a + 2s)) is summarised for its first probe only.
    """
    intervals = _intervals(probes)
    for side in sides:
        _check_side(side)
    worst = {side: [math.inf] * len(gammas) for side in sides}
    whole = "two_sided" in worst
    halves = "right" in worst or "left" in worst
    memo: dict = {}
    for i in intervals:
        windows = probe_windows(e, i, whole, halves, memo)
        for side, low in worst.items():
            lower_into(low, _side_fractions(windows, side, gammas))
    return {side: sweep_result(side, gammas, low) for side, low in worst.items()}


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
    return sweep_sides(e, probes, (side,), gammas)[side]


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
