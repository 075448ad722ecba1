"""Maximal hole radii and empirical certification of one-sided weak porosity.

The certification semantics are deliberately modest: a pass means the porosity
inequality held on every interval of the supplied probe family, never a proof
over all intervals.  Probe families are finite, deterministic surrogates for
the universal quantifier, built from set features (points and gap midpoints)
across dyadic scales, plus seeded random intervals.
"""

from __future__ import annotations

import functools
import math
import random
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .intervals import Interval, _split
from .sets import (
    SetDescription,
    WindowSummary,
    max_component_length,
    min_component_length,
    sample_points,
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


# A summarised window: its bounds (lo, hi), its summary, its hole radius rho and its
# longest component, as the summary holds it (2 * rho would round where it is subnormal).
Rated = tuple[float, float, WindowSummary, float, float]

# Windows a pass's window_store holds; the least recently read is evicted past it.
STORE_CAP = 1024


def window_store(e: SetDescription) -> Callable[[float, float], Rated]:
    """``rated(lo, hi)``, the :data:`Rated` window (lo, hi) of one probe pass, cached.

    A pass over anchors x dyadic scales x alignments meets most windows more
    than once: the halves of (a, a + 2s) are whole probes at scale s, and
    the centred half of (a - s, a + s), which sided-transport reads for its
    doubling estimate, is the centred probe at scale s.  So a pass reads
    every window by its bounds through one ``rated``, which summarises a
    window on its first read and keeps the ``STORE_CAP`` (read when the pass
    starts) most recently read windows, evicting the least recently used:
    a window is summarised once while the windows read since it fit.
    """

    def rated(lo: float, hi: float) -> Rated:
        s = e.summary(lo, hi)
        longest = s.max_length(lo, hi)
        return lo, hi, s, 0.5 * longest, longest

    return functools.lru_cache(maxsize=STORE_CAP)(rated)


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
    """sigma of a probe's rated (I, I-, I+) on a side: the threshold 2 gamma rho(reference) on the region."""
    k_region, k_reference = _SPLIT[side]
    region = windows[k_region]
    return region[2].shares(region[0], region[1], (2.0 * gamma * windows[k_reference][3],))[0]


def sigma_at(e: SetDescription, i: Interval, gamma: float, side: str) -> float:
    """Largest sigma for which the porosity items hold on this single interval.

    Only components at least as long as twice gamma times the reference hole
    radius count; the optimum collection is exactly those components.
    """
    _check_side(side)
    check_gamma(gamma)
    rated = window_store(e)
    if side == "two_sided":
        return _side_sigma((rated(i.lo, i.hi),), side, gamma)
    c = i.split_point
    return _side_sigma((None, rated(i.lo, c), rated(c, i.hi)), side, gamma)


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


def default_scales(e: SetDescription, window: Interval, headroom: int = 0) -> list[float]:
    """Dyadic scales from `headroom` octaves above the window span down past the finest gap."""
    k_max = math.ceil(math.log2(window.length)) + headroom
    k_min = math.floor(math.log2(min_component_length(e, window))) - 2
    octaves = min(max(k_max - k_min + 1, MIN_OCTAVES), MAX_OCTAVES)
    # 2.0 ** -1074 is the smallest positive float
    return [2.0 ** k for k in range(k_max, max(k_max - octaves, -1075), -1)]


@dataclass(frozen=True)
class ProbeFamily:
    """Deterministic family of probe intervals.

    Anchor-aligned intervals place each anchor as a left endpoint, center, or
    right endpoint at every scale; `random_count` extra intervals are drawn
    reproducibly from the window with log-uniform lengths.  The family
    repeats intervals: the probe left-aligned at a, the one centred at
    a + s/2 and the one right-aligned at a + s are one interval whenever
    those points are anchors, as on a lattice (see :func:`distinct_probes`).
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
        anchor_cap: int = DEFAULT_ANCHOR_CAP,
        random_count: int = DEFAULT_RANDOM_PROBES,
        seed: int = 0,
        headroom: int = 0,
    ) -> "ProbeFamily":
        if random_count < 0:
            raise ValueError(f"random probe count must not be negative, got {random_count}")
        return cls(
            anchors=tuple(anchor_candidates(e, window, anchor_cap)),
            scales=tuple(default_scales(e, window, headroom)),
            random_count=random_count,
            seed=seed,
            window=window,
        )

    def bounds(self) -> list[tuple[float, float]]:
        """The probes as (lo, hi) pairs, less those too short to split (see :func:`_splittable`)."""
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
        return [b for b in bounds if _splittable(*b)]

    def intervals(self) -> list[Interval]:
        """:meth:`bounds`, each pair as an :class:`Interval`."""
        return [Interval(lo, hi) for lo, hi in self.bounds()]


def distinct_probes(probes: Sequence) -> tuple[list, array]:
    """The distinct probes of a family, (lo, hi) pairs or intervals, in first-occurrence
    order, and per probe its index among them.

    A pass evaluates each distinct probe once and reads its figures back for
    every occurrence: every figure of a probe depends on ``(lo, hi)`` alone.
    """
    first: dict = {}
    order = array("I", (first.setdefault(p, len(first)) for p in probes))
    return list(first), order


def _probe_pairs(probes: ProbeFamily | Sequence[Interval]) -> tuple[list, Callable[[int], Interval]]:
    """The probes as (lo, hi) pairs (:meth:`ProbeFamily.bounds` of a family), and probe k
    as an :class:`Interval`: the caller's own if it passed intervals, else built from its bounds."""
    if isinstance(probes, ProbeFamily):
        pairs = probes.bounds()
        interval = lambda k: Interval(*pairs[k])
    else:
        given = list(probes)
        pairs, interval = [(i.lo, i.hi) for i in given], given.__getitem__
    if not pairs:
        raise ValueError("probe family is empty (probes too short to halve are left out)")
    return pairs, interval


CERT_HEADROOM = 12  # octaves of probe scale above the window span
CERT_ANCHOR_CAP = 64  # the certification family's anchor cap and random probe count
CERT_RANDOM_PROBES = 200


def certification_probes(
    e: SetDescription,
    window: Interval,
    anchor_cap: int = CERT_ANCHOR_CAP,
    random_count: int = CERT_RANDOM_PROBES,
    seed: int = 0,
) -> ProbeFamily:
    """The one porosity probe family, read by certify, the sweeps, critical-alpha,
    sided-transport and the CLI's family suites.  None of them builds it: the
    caller sizes it, by ``anchor_cap`` and ``random_count``, and passes it in.

    Scales reach well beyond the window span: at the gamma-grid floor of
    2**-12 a refutation needs probes whose reference-half hole radius times
    2*gamma exceeds the finest gap, which in-window scales cannot deliver.
    """
    return ProbeFamily.default(e, window, anchor_cap=anchor_cap, random_count=random_count, seed=seed,
                               headroom=CERT_HEADROOM)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PorosityReport:
    """The porosity inequality over one probe family."""

    params: PorosityParams
    probe_count: int
    worst_interval: Optional[Interval]
    worst_sigma: float
    passed: bool
    witnesses: tuple[tuple[Interval, float], ...]
    # the pass's columns: the family's probes as (lo, hi) pairs, per probe its
    # index among the distinct probes, and per distinct probe sigma, rho(I-) and rho(I+)
    columns: tuple = field(repr=False, compare=False, default=((), (), ()))

    def rows(self) -> Iterator[tuple[float, float, float, float, float]]:
        """(lo, hi, rho_minus, rho_plus, sigma) per probe, in family order."""
        pairs, order, figures = self.columns
        for (lo, hi), n in zip(pairs, order):
            yield lo, hi, figures[3 * n + 1], figures[3 * n + 2], figures[3 * n]


MAX_WITNESSES = 64


def _splittable(lo: float, hi: float) -> bool:
    """Whether (lo, hi) is an interval whose halves and centred half are intervals too.

    A probe a few ulps long fails: its rounded midpoint or quarter points
    land on an endpoint or on each other.
    """
    c = 0.5 * (lo + hi)
    quarter = 0.25 * (hi - lo)
    return lo < c < hi and c - quarter < c + quarter


def certify(
    e: SetDescription,
    params: PorosityParams,
    probes: ProbeFamily | Sequence[Interval],
) -> PorosityReport:
    """Evaluate the porosity inequality on every probe; pass iff none dips below sigma.

    The probes are (lo, hi) pairs (see :meth:`ProbeFamily.bounds`), as
    :func:`certification_probes` lists them for the CLI; on one family,
    ``worst_sigma`` is the sweep's sigma* at ``params.gamma``.  Each distinct
    pair is split in place and reads its halves I- and I+, and I itself only
    on the two-sided side, through the ``rated`` of one :func:`window_store`.
    Its sigma is the share of the region at one threshold; sigma and the
    halves' hole radii go into columns, which the report keeps, with the
    pairs, for :meth:`PorosityReport.rows`.  The worst probe and the
    witnesses read the columns in family order, and only they become
    intervals (the caller's own, if it passed intervals).  The store holds
    at most ``STORE_CAP`` windows and evicts the least recently used, so a
    window shared between probes is summarised once while the windows read
    since it fit.  The doubling estimate Phi is read by sided-transport, in a
    pass of its own (:func:`poroweights.suites.suite_sided_transport`).
    """
    pairs, interval = _probe_pairs(probes)
    distinct, order = distinct_probes(pairs)
    rated = window_store(e)
    whole = params.side == "two_sided"
    windows = [None, None, None]  # the probe's rated I (two-sided only), I- and I+
    figures = array("d")  # per distinct probe: sigma, rho(I-) and rho(I+)
    for lo, hi in distinct:
        c = _split(lo, hi)
        windows[1], windows[2] = rated(lo, c), rated(c, hi)
        if whole:
            windows[0] = rated(lo, hi)
        figures.extend((_side_sigma(windows, params.side, params.gamma), windows[1][3], windows[2][3]))
    witnesses: list[tuple[Interval, float]] = []
    worst: Optional[int] = None
    worst_sigma = math.inf
    for k, n in enumerate(order):
        s = figures[3 * n]
        if s < worst_sigma:
            worst_sigma = s
            worst = k
        if s < params.sigma and len(witnesses) < MAX_WITNESSES:
            witnesses.append((interval(k), s))
    return PorosityReport(
        params=params,
        probe_count=len(pairs),
        worst_interval=None if worst is None else interval(worst),
        worst_sigma=worst_sigma,
        passed=worst_sigma >= params.sigma,
        witnesses=tuple(witnesses),
        columns=(pairs, order, figures),
    )


# ---------------------------------------------------------------------------
# parameter search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """sigma*(gamma) on one side over the gamma grid, and its best pair.

    ``certified`` is ``best_sigma > 0``.  On the two-sided side that flag is
    not a verdict: a two-sided probe always has sigma > 0 at a small enough
    gamma, and at window +-64 the flag certifies all 8 catalog sets, though
    four of them are porous on one side only.
    """

    side: str
    table: tuple[tuple[float, float], ...]  # (gamma, sigma_star)
    best_gamma: float
    best_sigma: float

    @property
    def certified(self) -> bool:
        return self.best_sigma > 0.0

    def admissible_params(self) -> PorosityParams:
        """The certified pair with the largest :func:`admissible_alpha`, ties toward the larger gamma.

        sigma is clipped into (0, 1).  Every constant derived from a certified
        side comes from this pair, not from the best sigma*, which lands near
        the grid floor where the exponent log beta2 / log(gamma/4) is smallest.
        """
        pairs = [PorosityParams(min(s, 1.0 - 2.0 ** -40), g, self.side) for g, s in self.table if s > 0.0]
        if not pairs:
            raise ValueError("no certifiable parameters found")
        return max(pairs, key=lambda p: (admissible_alpha(p.sigma, p.gamma), p.gamma))


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
    """:func:`sweep_parameters` for several sides in one pass over the distinct probes.

    sigma* is a minimum, so a repeated probe changes nothing: the probes are
    (lo, hi) pairs (see :meth:`ProbeFamily.bounds`), and each distinct pair
    is split in place and evaluated once, with no :class:`Interval` built.
    The probes read their windows through the ``rated`` of one
    :func:`window_store`, whose tuple carries each window's longest
    component: the right and left sides share the summaries of I- and I+,
    and a window that recurs across anchors, scales and alignments (the
    right half of (a - s, a + s) is the left half of (a, a + 2s)) is
    summarised once while the windows read since it fit the store.  The
    store evicts the least recently used window past ``STORE_CAP``, so the
    pass never holds more than ``STORE_CAP`` windows, however large the
    family.  Per probe and side
    at most one :meth:`WindowSummary.lower` call reads the region, summing
    each prefix of its components at most once.

    The grid is sorted by threshold once.  A probe's share does not rise
    with its threshold (fsum and the division by the window length round
    monotonically), so neither does sigma* along the sorted grid.  With L
    the region's longest component and |R| its length, a threshold above L
    leaves no component, so its share is exactly 0.0: these thresholds are a
    suffix of the grid, and the zeroed suffix of sigma* only grows.  Any
    other threshold keeps the component of length L, so its share is at
    least ``L / |R|``: a probe whose ``L / |R|`` is not below sigma* at the
    smallest threshold reads no share.  The others read down the grid from
    the largest unzeroed threshold, and a share v skips each lower one where
    sigma* is at most v, as its share is at least v; a memoised region first
    tries a proven lower bound on its share, which skips as a share would
    (:meth:`WindowSummary.lower`).
    So the table is the one every share would give, in any probe order and
    on any grid, and once every side is zeroed on the whole grid the pass
    stops.  ``gammas`` may come in any order; an empty grid, or a gamma
    outside (0, 1), raises ``ValueError``.
    """
    pairs = _probe_pairs(probes)[0]
    for side in sides:
        _check_side(side)
    gammas = _check_gammas(gammas)
    sides = tuple(dict.fromkeys(sides))
    order = sorted(range(len(gammas)), key=gammas.__getitem__)
    rank = sorted(range(len(gammas)), key=order.__getitem__)  # of each gamma in the sorted grid
    doubled = [2.0 * gammas[k] for k in order]
    # per side: sigma* along the sorted grid, the start of its zeroed suffix, and (region, reference)
    reads = [[[math.inf] * len(gammas), len(gammas), *_SPLIT[side]] for side in sides]
    live = len(reads)  # sides not yet zeroed on the whole grid
    whole = "two_sided" in sides
    halves = "right" in sides or "left" in sides
    rated = window_store(e)
    windows = [None, None, None]  # the probe's rated I, I- and I+, as far as the sides read them
    for lo, hi in dict.fromkeys(pairs):
        if halves:
            c = _split(lo, hi)
            windows[1], windows[2] = rated(lo, c), rated(c, hi)
        if whole:
            windows[0] = rated(lo, hi)
        for read in reads:
            low, zeroed, k_region, k_reference = read
            region = windows[k_region]
            rho_ref = windows[k_reference][3]
            longest = region[4]
            n = zeroed
            while n and doubled[n - 1] * rho_ref > longest:
                n -= 1
            if n < zeroed:
                low[n:zeroed] = [0.0] * (zeroed - n)
                read[1] = zeroed = n
                if not n:
                    live -= 1
            if zeroed and longest / (region[1] - region[0]) < low[0]:
                region[2].lower(region[0], region[1], low, zeroed, doubled, rho_ref)
        if not live:
            break
    return {side: sweep_result(side, gammas, [low[n] for n in rank]) for side, (low, *_) in zip(sides, reads)}


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

