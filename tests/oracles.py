"""Independent numeric oracles used by the test suite.

These deliberately avoid the package's closed-form paths: integrals come from
adaptive quadrature of the pointwise distance, hole radii from a grid search,
dimensions from literal box counting.  The component walk at the end is the
slow path the window summaries replaced, kept to check them bit for bit.
"""

import math
from math import fsum

import mpmath as mp
import numpy as np

from poroweights.intervals import Interval
from poroweights.sets import Run
from poroweights.weights import _power_piece, _segment_integral, _segment_peak

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
    """Runs of set points strictly inside the open interval."""
    out = []
    for r in e.runs_in(i.lo, i.hi):
        start, step, count = r.start, r.step, r.count
        if start == i.lo:
            start += step
            count -= 1
        if count > 0:
            last = start + (count - 1) * step if count > 1 else start
            if last == i.hi:
                count -= 1
        if count > 0:
            out.append(Run(start, step, count))
    return out


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
