"""Independent numeric oracles used by the test suite.

These deliberately avoid the package's closed-form paths: integrals come from
adaptive quadrature of the pointwise distance, hole radii from a grid search,
dimensions from literal box counting.  The component walk is the slow path
the window summaries replaced, the slice compression the one the run index
of finite point sets replaced, and the per-function loops at the end are
the ones the probe and triple tables replaced; all are kept to check the
fast paths bit for bit.  So are the summary every variant built from its
runs before lattices, reflections and geometric-plus-lattice sets answered
in closed form, and the per-sample reductions the one-pass A1 scan and
doubling report replaced.  The one-sided maximal averages at the end are
the paper's own definition of A1 (M w <= C w), sampled, and bound the
triple values from above.
"""

import math
from bisect import bisect_left, bisect_right
from math import fsum
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from poroweights.intervals import Interval
from poroweights.muckenhoupt import POROSITY_SIDE, A1Report, TripleFamily, TripleSample
from poroweights.porosity import (
    GAMMA_GRID,
    MAX_WITNESSES,
    REL_SLACK,
    DoublingPair,
    DoublingReport,
    PorosityReport,
    ProbeRow,
    SweepResult,
    certification_probes,
)
from poroweights.scaling import LadderReport, octave_of, rising_prefix_maxima
from poroweights.sets import Run, SetDescription, WindowSummary, sample_points
from poroweights.suites import MAX_FAILURES, SuiteResult
from poroweights.weights import WeightSpec, _power_piece, _segment_integral, _segment_peak, integrate

mp.mp.dps = 40


def quad_oracle(e, alpha, i):
    """Adaptive quadrature of d(., E)^(-alpha) over the interval.

    Knots sit at set points and profile kinks; singular pieces are tamed with
    the power substitution x = base +- t^k, after which tanh-sinh converges
    for every alpha in (0, 1).  Distances are evaluated relative to the
    piece's base point: quadrature nodes approach the singular points far
    below float (and even mpf) resolution of the absolute coordinate, but the
    offset t^k itself stays exactly representable.
    """
    pts = e.points_in(i.lo, i.hi)
    ext = list(pts)
    p = e.nearest_leq(i.lo)
    if p is not None:
        ext = [p] + ext
    q = e.nearest_geq(i.hi)
    if q is not None:
        ext = ext + [q]
    mids = [0.5 * (u + v) for u, v in zip(ext[:-1], ext[1:])]
    knots = sorted(set([i.lo, i.hi] + pts + [m for m in mids if i.lo < m < i.hi]))
    singular = set(pts + [r for r in (p, q) if r is not None])

    def dist_at(base, offset):
        """min over nearby set points c of |(base - c) + offset|, exactly."""
        xf = float(mp.mpf(base) + offset)
        cands = [c for c in (e.nearest_leq(xf), e.nearest_geq(xf)) if c is not None]
        return min(abs((mp.mpf(base) - mp.mpf(c)) + offset) for c in cands)

    def f_plain(x):
        return dist_at(float(x), x - mp.mpf(float(x))) ** (-alpha)

    k = max(2, math.ceil(3.0 / (1.0 - alpha)))
    total = mp.mpf(0)
    for u, v in zip(knots[:-1], knots[1:]):
        if not u < v:
            continue
        left_sing, right_sing = u in singular, v in singular

        def from_base(base, sign, length):
            span = mp.mpf(length) ** (mp.mpf(1) / k)
            return mp.quad(
                lambda t: dist_at(base, sign * t ** k) ** (-alpha) * k * t ** (k - 1),
                [0, span],
            )

        if left_sing and right_sing:
            m = 0.5 * (u + v)
            total += from_base(u, 1, m - u) + from_base(v, -1, v - m)
        elif left_sing:
            total += from_base(u, 1, v - u)
        elif right_sing:
            total += from_base(v, -1, v - u)
        else:
            total += mp.quad(f_plain, [u, v])
    return float(total)


def rho_grid_oracle(e, i, n=2000):
    """Discretised sup over pore centers of min(dist to ends, dist to the set)."""
    pts = np.array(e.points_in(i.lo - i.length, i.hi + i.length) or [math.inf])
    ys = i.lo + (np.arange(1, n) / n) * i.length
    d = np.abs(ys[:, None] - pts[None, :]).min(axis=1)
    s = np.minimum(np.minimum(ys - i.lo, i.hi - ys), d)
    return float(s.max())


def box_count_dimension(e, window, deltas):
    """Slope fit of log N(delta) vs log(1/delta) counting occupied delta-cells."""
    xs, ys = [], []
    for delta in deltas:
        n_cells = int(math.ceil(window.length / delta))
        occupied = set()
        for p in e.points_in(window.lo, window.hi):
            occupied.add(min(int((p - window.lo) / delta), n_cells - 1))
        if occupied:
            xs.append(math.log(1.0 / delta))
            ys.append(math.log(len(occupied)))
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# generator walk over the components of I \ E
#
# The query path before window summaries: every query re-derives the interior
# runs from `runs_in` and walks its components one by one.  The summary
# engine must agree with it bit for bit.
# ---------------------------------------------------------------------------

def _interior_runs(e, i):
    """Runs of set points strictly inside the open interval, trimmed by index."""
    return _trimmed(e.runs_in(i.lo, i.hi), i.lo, i.hi)


def _trimmed(runs, lo, hi):
    """The runs of the closed window [lo, hi] less the points on its ends, trimmed by index."""
    out = []
    for r in runs:
        first, count = r.first, r.count
        if r.start == lo:
            first, count = first + 1, count - 1
        if count > 0 and r.end == hi:
            count -= 1
        if count > 0:
            out.append(Run(r.base, r.step, first, count, r.shift))
    return out


# ---------------------------------------------------------------------------
# slice compression of a finite point set
#
# The path before the run index: the runs of a window compress the slice of
# points it holds, and its summary is built from them afresh.  The run index
# and the summaries memoised on it must agree with it bit for bit.
# ---------------------------------------------------------------------------

def compressed_runs(e, lo, hi):
    """``Run.compress`` of the points of a finite point set in [lo, hi]."""
    pts = e._pts()
    return Run.compress(list(pts[bisect_left(pts, lo):bisect_right(pts, hi)]))


def compressed_summary(e, i):
    """A fresh :class:`WindowSummary` of the compressed runs inside I."""
    return WindowSummary.of(_trimmed(compressed_runs(e, i.lo, i.hi), i.lo, i.hi))


# ---------------------------------------------------------------------------
# the summary built from runs
#
# Every variant's summary before lattices answered in closed form,
# reflections mirrored their inner summary and geometric-plus-lattice sets
# handed windows right of their geometric points to their lattice: the runs
# of the closed window, trimmed by index.  Each variant's ``summary`` must
# agree with it, and raise where it raises.
# ---------------------------------------------------------------------------

def summary_from_runs(e, lo, hi):
    return WindowSummary.of(_trimmed(e.runs_in(lo, hi), lo, hi))


def iter_components(e, i):
    """("span", a, b) and ("cells", start, step, m) items covering I \\ E."""
    prev = i.lo
    for r in _interior_runs(e, i):
        if r.start > prev:
            yield ("span", prev, r.start)
        if r.count >= 2:
            yield ("cells", r.start, r.step, r.count - 1)
        prev = r.end
    if i.hi > prev:
        yield ("span", prev, i.hi)


def component_lengths(e, i):
    """(length, multiplicity) pairs over the components of I \\ E."""
    for item in iter_components(e, i):
        if item[0] == "span":
            yield (item[2] - item[1], 1)
        else:
            yield (item[2], item[3])


def max_component_walk(e, i):
    best = 0.0
    for length, _ in component_lengths(e, i):
        if length > best:
            best = length
    return best


def rho_walk(e, i):
    return 0.5 * max_component_walk(e, i)


def min_component_walk(e, i):
    best = math.inf
    for length, _ in component_lengths(e, i):
        if 0 < length < best:
            best = length
    return best if best is not math.inf else i.length


def largest_component_walk(e, i):
    best = None
    for item in iter_components(e, i):
        if item[0] == "span":
            cand = Interval(item[1], item[2])
        else:
            cand = Interval(item[1], item[1] + item[2])
        if best is None or cand.length > best.length:
            best = cand
    return best


def _qualifying_fraction_walk(e, region, threshold):
    qual = fsum(length * count for length, count in component_lengths(e, region) if length >= threshold)
    return qual / region.length


def _region_and_reference(i, side):
    if side == "right":
        return i.left_half, i.right_half
    if side == "left":
        return i.right_half, i.left_half
    return i, i


def sigma_at_walk(e, i, gamma, side):
    region, reference = _region_and_reference(i, side)
    return _qualifying_fraction_walk(e, region, 2.0 * gamma * rho_walk(e, reference))


def sweep_table_walk(e, intervals, side, gammas):
    worst = {g: math.inf for g in gammas}
    for i in intervals:
        region, reference = _region_and_reference(i, side)
        summary = list(component_lengths(e, region))
        rho_ref = rho_walk(e, reference)
        for g in gammas:
            threshold = 2.0 * g * rho_ref
            s = fsum(length * count for length, count in summary if length >= threshold) / region.length
            if s < worst[g]:
                worst[g] = s
    return tuple((g, worst[g]) for g in gammas)


def integrate_walk(w, j):
    e, alpha = w.e, w.alpha
    terms = []
    p_prev = e.nearest_leq(j.lo)
    pos = j.lo
    for r in _interior_runs(e, j):
        if r.start > pos:
            terms.append(_segment_integral(pos, r.start, p_prev, r.start, alpha))
        if r.count >= 2:
            cell = 2.0 * _power_piece(0.0, 0.5 * r.step, alpha)
            terms.append((r.count - 1) * cell)
        p_prev = r.end
        pos = r.end
    p_next = e.nearest_geq(j.hi)
    if j.hi > pos:
        terms.append(_segment_integral(pos, j.hi, p_prev, p_next, alpha))
    if any(t == math.inf for t in terms):
        return math.inf
    return fsum(terms)


def max_distance_walk(e, j):
    best = 0.0
    p_prev = e.nearest_leq(j.lo)
    pos = j.lo
    for r in _interior_runs(e, j):
        if r.start > pos:
            best = max(best, _segment_peak(pos, r.start, p_prev, r.start))
        if r.count >= 2:
            best = max(best, 0.5 * r.step)
        p_prev = r.end
        pos = r.end
    p_next = e.nearest_geq(j.hi)
    if j.hi > pos:
        best = max(best, _segment_peak(pos, j.hi, p_prev, p_next))
    return best


# ---------------------------------------------------------------------------
# per-function loops the probe and triple tables replaced
#
# Each probe query below re-derives its windows through the walk above, and
# each triple value is recomputed at every exponent; the tables must agree
# with them bit for bit.
# ---------------------------------------------------------------------------

def doubling_witness_walk(e, probes):
    best = None
    samples = []
    rows = []
    for i in probes:
        quarter = 0.25 * i.length
        halves = (i.left_half, i.right_half, Interval(i.center - quarter, i.center + quarter))
        rho_outer = rho_walk(e, i)
        for j in halves:
            rho_inner = rho_walk(e, j)
            if rho_inner <= 0.0:
                continue
            pair = DoublingPair(i, j, rho_outer / rho_inner)
            samples.append((octave_of(i.length), pair.ratio))
            rows.append((i.length, pair))
            if best is None or pair.ratio > best.ratio:
                best = pair
    report = LadderReport.from_samples(samples)
    witnesses = ()
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


def certify_walk(e, params, intervals):
    rows = []
    witnesses = []
    worst = None
    worst_sigma = math.inf
    for i in intervals:
        s = sigma_at_walk(e, i, params.gamma, params.side)
        rows.append(ProbeRow(i.lo, i.hi, rho_walk(e, i.left_half), rho_walk(e, i.right_half), s))
        if s < worst_sigma:
            worst_sigma = s
            worst = i
        if s < params.sigma and len(witnesses) < MAX_WITNESSES:
            witnesses.append((i, s))
    doubling = doubling_witness_walk(e, intervals)
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


def sweep_walk(e, intervals, side, gammas=GAMMA_GRID):
    table = sweep_table_walk(e, intervals, side, gammas)
    best_gamma, best_sigma = max(table, key=lambda t: (t[1], t[0]))
    return SweepResult(side=side, table=table, best_gamma=best_gamma, best_sigma=best_sigma)


def sided_transport_walk(e, window, seed, fam, gamma=0.5, gamma0=0.5):
    intervals = fam.intervals()
    phi = doubling_witness_walk(e, intervals).phi_estimate
    gamma_t = gamma / phi
    failures = []
    checks = 0

    def fail(record):
        if len(failures) < MAX_FAILURES:
            failures.append(record)

    for i in intervals:
        checks += 1
        fwd_r = sigma_at_walk(e, i, gamma_t, "right")
        need_r = sigma_at_walk(e, i.left_half, gamma, "two_sided")
        if fwd_r < need_r - REL_SLACK:
            fail({"direction": "forward-right", "interval": i.as_pair(), "got": fwd_r, "need": need_r})
        fwd_l = sigma_at_walk(e, i, gamma_t, "left")
        need_l = sigma_at_walk(e, i.right_half, gamma, "two_sided")
        if fwd_l < need_l - REL_SLACK:
            fail({"direction": "forward-left", "interval": i.as_pair(), "got": fwd_l, "need": need_l})
        side = "right" if rho_walk(e, i.right_half) >= rho_walk(e, i.left_half) else "left"
        conv = sigma_at_walk(e, i, 0.5 * gamma0, "two_sided")
        need_c = 0.5 * sigma_at_walk(e, i, gamma0, side)
        if conv < need_c - REL_SLACK:
            fail({"direction": "converse", "interval": i.as_pair(), "got": conv, "need": need_c})
    right, left, two = (sweep_walk(e, intervals, s) for s in ("right", "left", "two_sided"))
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


def triple_value_walk(w, a, b, c, side):
    if side == "plus":
        num, d = integrate_walk(w, Interval(a, b)), max_distance_walk(w.e, Interval(b, c))
    else:
        num, d = integrate_walk(w, Interval(b, c)), max_distance_walk(w.e, Interval(a, b))
    if num == math.inf:
        return math.inf
    den = math.inf if d == 0.0 else d ** -w.alpha
    return num / (c - a) / den


def a1_samples_walk(w, side, family):
    """TripleSample per triple of each one-sided scan, plus before minus."""
    sides = ("plus", "minus") if side == "two_sided" else (side,)
    return tuple(
        TripleSample(a, b, c, triple_value_walk(w, a, b, c, s), scale)
        for s in sides
        for a, b, c, scale in family.triples(s)
    )


def critical_alpha_grid_walk(e, side, window, tol, octaves, probe_seed=0):
    """The (alpha, bounded) bisection grid, every scan recomputed from scratch."""
    probes = certification_probes(e, window, seed=probe_seed).intervals()
    if not sweep_walk(e, probes, POROSITY_SIDE[side]).certified:
        return ()
    family = TripleFamily.default(e, window, octaves=octaves)
    sides = ("plus", "minus") if side == "two_sided" else (side,)
    grid = []
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        ok = True
        for s in sides:
            samples = a1_samples_walk(WeightSpec(e, mid), s, family)
            finite = [(round(math.log2(t.scale)), t.value) for t in samples if math.isfinite(t.value)]
            if len(finite) < len(samples) or LadderReport.from_samples(finite).divergent:
                ok = False
        grid.append((mid, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return tuple(grid)


# ---------------------------------------------------------------------------
# per-sample reductions
#
# The A1 scan and the doubling report before their one-pass reductions: a
# sample per triple or per nested pair, then one generator pass each for the
# best value, the octave ladder and the witnesses.
# ---------------------------------------------------------------------------

def scan_side_walk(alpha, side, table):
    """The report of one one-sided scan, every triple kept as a sample."""
    samples = []
    nonint = 0
    best = None
    for (a, b, c, s), v in zip(table.rows(side).triples, table.values(side, alpha)):
        t = TripleSample(a, b, c, v, s)
        samples.append(t)
        if v == math.inf:
            nonint += 1
            continue
        if best is None or v > best.value:
            best = t
    ladder = LadderReport.from_samples(
        (round(math.log2(t.scale)), t.value) for t in samples if math.isfinite(t.value)
    )
    witnesses = ()
    if ladder.divergent:
        rows = sorted(
            ((t.scale, t, t.value) for t in samples if math.isfinite(t.value)),
            key=lambda r: (r[0], r[2]),
        )
        witnesses = tuple(r[1] for r in rising_prefix_maxima(rows))[-16:]
    return A1Report(
        side=side,
        alpha=alpha,
        triple_count=len(samples),
        constant_lower_bound=best.value if best else 0.0,
        best=best,
        divergence_flag=ladder.divergent,
        ladder=ladder.ladder,
        growth_per_octave=ladder.growth_per_octave,
        witnesses=witnesses,
        nonintegrable_count=nonint,
        samples=tuple(samples),
    )


def _pair_ratios_walk(radii):
    for n in range(0, len(radii), 4):
        outer = radii[n]
        for k in (1, 2, 3):
            inner = radii[n + k]
            if inner > 0.0:
                yield n // 4, k, outer / inner


def doubling_report_walk(intervals, radii):
    """The doubling report of radius columns (rho of I, I-, I+ and the centred half per probe)."""
    inner_of = (None, lambda i: i.left_half, lambda i: i.right_half,
                lambda i: Interval(i.center - 0.25 * i.length, i.center + 0.25 * i.length))

    def pair(t):
        i = intervals[t[0]]
        return DoublingPair(i, inner_of[t[1]](i), t[2])

    best = max(_pair_ratios_walk(radii), key=lambda t: t[2], default=None)
    report = LadderReport.from_samples(
        (octave_of(intervals[n].length), ratio) for n, _, ratio in _pair_ratios_walk(radii)
    )
    witnesses = ()
    if report.divergent:
        rows = sorted(_pair_ratios_walk(radii), key=lambda t: intervals[t[0]].length)
        witnesses = tuple(map(pair, rising_prefix_maxima(rows)[-16:]))
    return DoublingReport(
        phi_estimate=best[2] if best else 0.0,
        worst_pair=pair(best) if best else None,
        ladder=report.ladder,
        divergent=report.divergent,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# one-sided maximal averages (certified lower bounds)
# ---------------------------------------------------------------------------

FILL_PER_OCTAVE = 64
DEFAULT_SPAN = 1024.0
BREAKPOINT_SAMPLES = 256


def _candidate_offsets(e: SetDescription, x: float, side: str, span: float, per_octave: int) -> list[float]:
    lo, hi = (x - span, x) if side == "minus" else (x, x + span)
    offs = {abs(x - p) for p in sample_points(e, lo, hi, BREAKPOINT_SAMPLES)}
    octaves = max(1, int(math.log2(span)) + 20)
    for j in range(octaves * per_octave + 1):
        offs.add(span * 2.0 ** (-j / per_octave))
    return sorted(h for h in offs if h > 0.0)


def maximal_average(
    w: WeightSpec,
    x: float,
    side: str,
    h_candidates: Optional[Sequence[float]] = None,
    span: float = DEFAULT_SPAN,
    per_octave: int = FILL_PER_OCTAVE,
) -> float:
    """Certified lower bound of a one-sided maximal average of the weight at x.

    Side ``"plus"`` is the forward average sup_h (1/h) int_x^{x+h} w, side
    ``"minus"`` the backward one over (x - h, x).  Candidates are
    breakpoint-aligned offsets plus a geometric fill-in grid; the supremum of
    the piecewise-smooth average sits near breakpoints, but only a lower bound
    is ever claimed.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    hs = list(h_candidates) if h_candidates is not None else _candidate_offsets(w.e, x, side, span, per_octave)
    best = 0.0
    for h in hs:
        v = integrate(w, Interval(x, x + h) if side == "plus" else Interval(x - h, x)) / h
        if v > best:
            best = v
    return best
