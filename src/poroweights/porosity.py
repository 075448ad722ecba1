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
    LengthProfile,
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

# Windows per generation of a WindowStore: a pass holds at most twice as many.
STORE_CAP = 1024


class WindowStore:
    """The rated windows of one probe pass, keyed by ``(lo, hi)``, in two generations.

    A pass over anchors x dyadic scales x alignments meets most windows more
    than once: the halves of (a, a + 2s) are whole probes at scale s, and the
    centred half of (a - s, a + s) is the centred probe at scale s.  A window
    is summarised on its first query and read back while it is recent.  When
    the newer generation holds ``STORE_CAP`` windows the older one is dropped
    and the newer takes its place; a window read from the older generation
    moves to the newer.  So a pass holds at most ``2 * STORE_CAP`` windows,
    and summarises a window once while its recent windows fit the store.
    """

    __slots__ = ("e", "_new", "_old")

    def __init__(self, e: SetDescription):
        self.e = e
        self._new: dict = {}
        self._old: dict = {}

    def __len__(self) -> int:
        return len(self._new) + len(self._old)

    def rated(self, lo: float, hi: float, j: Optional[Interval] = None) -> Rated:
        """The window (lo, hi), or ``j`` when given, with its summary and hole radius."""
        key = (lo, hi)
        r = self._new.get(key)
        if r is None:
            r = self._old.get(key)
            if r is None:
                j = Interval(lo, hi) if j is None else j
                s = window_summary(self.e, j)
                r = (j, s, 0.5 * s.max_length(lo, hi))
            if len(self._new) >= STORE_CAP:
                self._old, self._new = self._new, {}
            self._new[key] = r
        return r

    def rho(self, i: Interval) -> float:
        """:func:`rho` of I, read from the store."""
        return self.rated(i.lo, i.hi, i)[2]


def probe_windows(store: WindowStore, i: Interval, whole: bool = True, halves: bool = True) -> tuple:
    """(I, I-, I+) of a probe, rated; None for a part not asked for.

    Every probe of a pass reads its windows from the pass's one ``store``,
    so a window the probes share (a half that is a whole probe at the next
    scale down, or the half of a neighbouring probe) is summarised once
    while the pass's recent windows fit the store.
    """
    left = right = None
    if halves:
        c = i.split_point
        left, right = store.rated(i.lo, c), store.rated(c, i.hi)
    return (store.rated(i.lo, i.hi, i) if whole else None), left, right


# (region, reference) of a side, as indices into (I, I-, I+): the part whose
# holes count, the part whose hole radius sets the threshold
_SPLIT = {"right": (1, 2), "left": (2, 1), "two_sided": (0, 0)}


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")


def check_gamma(gamma: float, name: str = "gamma") -> None:
    """Reject a gamma outside (0, 1), NaN included."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {gamma!r}")


def _check_gammas(gammas: Sequence[float]) -> tuple[float, ...]:
    gammas = tuple(gammas)
    if not gammas:
        raise ValueError("the gamma grid is empty")
    for g in gammas:
        check_gamma(g, "every gamma")
    return gammas


def _side_sigma(windows: tuple, side: str, gamma: float) -> float:
    """sigma of the probe on a side: the threshold 2 gamma rho(reference) on the region."""
    k_region, k_reference = _SPLIT[side]
    return profile_of(windows[k_region]).share(2.0 * gamma * windows[k_reference][2])


def profile_of(region: Rated) -> LengthProfile:
    """The :class:`LengthProfile` of a rated window."""
    j, s, _ = region
    return s.profile(j.lo, j.hi)


def sigma_at(e: SetDescription, i: Interval, gamma: float, side: str) -> float:
    """Largest sigma for which the porosity items hold on this single interval.

    Only components at least as long as twice gamma times the reference hole
    radius count; the optimum collection is exactly those components.
    """
    _check_side(side)
    check_gamma(gamma)
    windows = probe_windows(WindowStore(e), i, whole=side == "two_sided", halves=side != "two_sided")
    return _side_sigma(windows, side, gamma)


# ---------------------------------------------------------------------------
# probe families
# ---------------------------------------------------------------------------


def anchor_candidates(e: SetDescription, window: Interval, cap: int = DEFAULT_ANCHOR_CAP) -> list[float]:
    """Set points and gap midpoints in the window, capped by even striding."""
    if cap < 1:
        raise ValueError(f"anchor cap must be at least 1, got {cap}")
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
    elif octaves < 1:
        raise ValueError(f"octaves must be at least 1, got {octaves}")
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
        if random_count < 0:
            raise ValueError(f"random probe count must not be negative, got {random_count}")
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


def _probe_radii(store: WindowStore, i: Interval, windows: Optional[tuple] = None) -> tuple[float, ...]:
    """rho of a probe I, of its halves I- and I+ and of its centred half, all read from ``store``.

    The first three come from the probe's ``probe_windows``, read here unless given.
    """
    whole, left, right = probe_windows(store, i) if windows is None else windows
    return whole[2], left[2], right[2], store.rho(_centred_half(i))


def _doubling_report(intervals: Sequence[Interval], radii: array) -> DoublingReport:
    """Reduce the radius columns: per probe rho(I), then rho of I-, I+ and the centred half.

    One pass finds the first largest ratio and the finite per-octave
    maxima, with the octave of each probe computed once, on its first pair.
    The pairs are walked again, in length order, only for the witnesses of
    a divergent ladder.
    """

    def pair(t: tuple[int, int, float]) -> DoublingPair:
        i = intervals[t[0]]
        return DoublingPair(i, _INNER[t[1]](i), t[2])

    best: Optional[tuple[int, int, float]] = None
    best_ratio = 0.0
    top: dict[int, float] = {}
    for n, i in enumerate(intervals):
        outer = radii[4 * n]
        octave = None
        for k in (1, 2, 3):
            inner = radii[4 * n + k]
            if inner > 0.0:
                ratio = outer / inner
                if best is None or ratio > best_ratio:
                    best, best_ratio = (n, k, ratio), ratio
                if octave is None:
                    octave = octave_of(i.length)
                if math.isfinite(ratio):
                    t = top.get(octave)
                    if t is None or ratio > t:
                        top[octave] = ratio
    report = LadderReport.from_maxima(top)
    witnesses: tuple[DoublingPair, ...] = ()
    if report.divergent:
        rows = sorted(_pair_ratios(radii), key=lambda t: intervals[t[0]].length)
        witnesses = tuple(map(pair, rising_prefix_maxima(rows)[-16:]))
    return DoublingReport(
        phi_estimate=best_ratio,
        worst_pair=pair(best) if best else None,
        ladder=report.ladder,
        divergent=report.divergent,
        witnesses=witnesses,
    )


def doubling_witness(
    e: SetDescription, probes: Sequence[Interval], store: Optional[WindowStore] = None
) -> DoublingReport:
    """Max ratio rho(I)/rho(J) over nested pairs with |I| = 2|J|.

    Pairs use J = left half, right half, and the centered half of each probe.
    Unbounded growth of the ratio across scales refutes two-sided porosity.
    The probes read their windows from one :class:`WindowStore` (``store``,
    or a new one), so the centred half of (a - s, a + s), which is the
    centred probe at scale s, is summarised once while the pass's recent
    windows fit the store.
    """
    store = WindowStore(e) if store is None else store
    intervals = list(probes)
    radii = array("d")
    for i in intervals:
        radii.extend(_probe_radii(store, i))
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

    Each probe reads four windows, I, its halves and its centred half, from
    one :class:`WindowStore` for the pass; sigma, the row radii and the
    doubling ratios all read them.  A window shared between probes (a half
    that is a whole probe one scale down) is summarised once while the
    pass's recent windows fit the store.
    """
    intervals = _intervals(probes)
    store = WindowStore(e)
    rows: list[ProbeRow] = []
    witnesses: list[tuple[Interval, float]] = []
    worst: Optional[Interval] = None
    worst_sigma = math.inf
    radii = array("d")
    for i in intervals:
        windows = probe_windows(store, i)
        s = _side_sigma(windows, params.side, params.gamma)
        whole, left, right = windows
        rows.append(ProbeRow(i.lo, i.hi, left[2], right[2], s))
        radii.extend(_probe_radii(store, i, windows))
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
        return self._pair(self.best_gamma, self.best_sigma)

    def admissible_params(self) -> PorosityParams:
        """The certified pair with the largest :func:`admissible_alpha`, ties toward the larger gamma.

        ``params`` lands near the grid floor, where sigma* is largest but
        the proof's exponent log beta2 / log(gamma/4) is smallest; the
        lemmas that presuppose porosity run at this pair instead.
        """
        pairs = [self._pair(g, s) for g, s in self.table if s > 0.0]
        if not pairs:
            raise ValueError("no certifiable parameters found")
        return max(pairs, key=lambda p: (admissible_alpha(p.sigma, p.gamma), p.gamma))

    def _pair(self, gamma: float, sigma: float) -> PorosityParams:
        return PorosityParams(sigma=min(sigma, 1.0 - 2.0 ** -40), gamma=gamma, side=self.side)


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

    The probes read their windows from one :class:`WindowStore`: the right
    and left sides share the summaries of I- and I+, and a window that
    recurs across anchors, scales and alignments (the right half of
    (a - s, a + s) is the left half of (a, a + 2s)) is summarised once while
    the pass's recent windows fit the store.  The pass never holds more than
    ``2 * STORE_CAP`` windows, however large the family.  Per probe and side
    one :class:`LengthProfile` of the region answers the whole grid: the
    components at least 2 gamma rho(reference) long are a prefix of it, and
    each prefix is summed once.

    The profile is built only where some gamma could still lower its
    sigma*.  With L the region's longest component and |R| its length, a
    threshold above L leaves no component, so that share is exactly 0.0;
    any other threshold keeps the component of length L, so its share is at
    least ``L / |R|`` (fsum and the division round monotonically).  A probe
    whose ``L / |R|`` is not below sigma* at any gamma with a threshold up
    to L changes nothing, so it is skipped; the minimum does not depend on
    the order, and the table is the one every profile would give.
    ``gammas`` may come in any order; an empty grid, or a gamma outside
    (0, 1), raises ``ValueError``.
    """
    intervals = _intervals(probes)
    for side in sides:
        _check_side(side)
    gammas = _check_gammas(gammas)
    doubled = [2.0 * g for g in gammas]
    worst = {side: [math.inf] * len(gammas) for side in sides}
    reads = [(low, *_SPLIT[side]) for side, low in worst.items()]
    whole = "two_sided" in worst
    halves = "right" in worst or "left" in worst
    store = WindowStore(e)
    for i in intervals:
        windows = probe_windows(store, i, whole, halves)
        for low, k_region, k_reference in reads:
            region = windows[k_region]
            rho_ref = windows[k_reference][2]
            j, s, _ = region
            # the longest component, as the summary holds it: 2 * rho would round where it is subnormal
            longest = s.max_length(j.lo, j.hi)
            floor = longest / (j.hi - j.lo)
            lower = False
            for k, d in enumerate(doubled):
                if d * rho_ref > longest:
                    low[k] = 0.0
                elif floor < low[k]:
                    lower = True
            if lower:
                profile_of(region).lower_along(low, doubled, rho_ref)
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


ALPHA_FRACTION = 0.5  # share of the decay exponent an admissible alpha takes


def admissible_alpha(sigma: float, gamma: float) -> float:
    """Weight exponent safely below the decay exponent alpha0.

    Any alpha < alpha0 makes the geometric series in the one-sided average
    bound converge; `ALPHA_FRACTION` keeps clear of the edge.
    """
    return min(ALPHA_FRACTION * decay_exponent(sigma, gamma), 0.95)


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


def left_propagation_on(store: WindowStore, i: Interval, gamma: float) -> PropagationCheck:
    """Check rho(I) <= ((gamma+1)/gamma) * rho(left half of I), with hole radii read from ``store``."""
    rho_full = store.rho(i)
    rho_left = store.rho(i.left_half)
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


def pore_transport_on(
    store: WindowStore,
    outer: Interval,
    inner: Interval,
    gamma: float,
    enforce_center_order: bool = True,
) -> TransportCheck:
    """Check rho(outer right half) <= theta1 * (|outer|/|inner|)**theta2 * rho(inner right half).

    Hole radii are read from ``store``.  Requires inner contained in outer
    with center(inner) <= center(outer); the bound genuinely fails without
    the center condition, so violating it raises unless explicitly disabled
    for counterexample reproduction.
    """
    if not outer.contains_interval(inner):
        raise ValueError("inner interval must be contained in the outer interval")
    if enforce_center_order and inner.center > outer.center:
        raise ValueError("precondition violated: inner center must not exceed outer center")
    theta1 = ((gamma + 1.0) / gamma) ** 2
    theta2 = math.log2((gamma + 1.0) / gamma)
    lhs = store.rho(outer.right_half)
    rhs = theta1 * (outer.length / inner.length) ** theta2 * store.rho(inner.right_half)
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
