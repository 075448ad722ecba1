"""Window summaries agree bit for bit with the component walk they replaced.

Every query that reads a summary (hole radius, porosity fraction, sweep
table, shortest component, weight integral, distance peak, widest
component) is compared with ``==`` against the generator walk kept in
``tests/oracles.py``.  Each window is queried twice, so the second pass
answers from the memo of a finite point set.
"""

import copy
import math
import pickle
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from poroweights import (
    CantorIterate,
    FinitePoints,
    GeometricPlusLattice,
    Interval,
    Lattice,
    Reflect,
    Translate,
    WeightSpec,
    integrate,
    rho,
    sigma_at,
    sweep_parameters,
    to_dict,
)
from poroweights.porosity import GAMMA_GRID, SIDES
from poroweights.sets import largest_component, min_component_length, window_summary
from poroweights.weights import max_distance_on

from . import oracles

ALPHAS = (0.1, 0.5, 0.9, 1.0, 1.5)
MIDDLES = (1.0 / 3.0, 0.5, 0.2)
GRID_STEPS = (1.0, 0.25, 0.1, 1.0 / 3.0)
WINDOWS_PER_SET = 6


@st.composite
def windows(draw, pts):
    """Windows whose endpoints are set points, gap midpoints or random values."""
    mids = [0.5 * (p + q) for p, q in zip(pts, pts[1:])]
    endpoint = st.one_of(
        st.sampled_from(pts),
        st.sampled_from(mids) if mids else st.nothing(),
        st.floats(pts[0] - 1.0, pts[-1] + 1.0),
    )
    out = []
    for _ in range(WINDOWS_PER_SET):
        x, y = sorted((draw(endpoint), draw(endpoint)))
        if not x < y:
            y = x + 0.5
        out.append(Interval(x, y))
    return out


def halvable(i):
    return i.lo < i.center < i.hi


def check_window(e, i):
    assert rho(e, i) == oracles.rho_walk(e, i)
    assert min_component_length(e, i) == oracles.min_component_walk(e, i)
    assert max_distance_on(e, i) == oracles.max_distance_walk(e, i)
    assert largest_component(e, i) == oracles.largest_component_walk(e, i)
    assert (window_summary(e, i).first is None) == (not oracles._interior_runs(e, i))
    for alpha in ALPHAS:
        w = WeightSpec(e, alpha)
        assert integrate(w, i) == oracles.integrate_walk(w, i)
    for side in SIDES:
        for g in GAMMA_GRID:
            if side == "two_sided" or halvable(i):
                assert sigma_at(e, i, g, side) == oracles.sigma_at_walk(e, i, g, side)
            else:  # the one-sided items need both halves
                with pytest.raises(ValueError, match="cannot halve"):
                    sigma_at(e, i, g, side)


def check_set(e, ws):
    for _ in range(2):
        for i in ws:
            check_window(e, i)
        for side in SIDES:
            probes = ws if side == "two_sided" else [i for i in ws if halvable(i)]
            if probes:
                table = sweep_parameters(e, probes, side).table
                assert table == oracles.sweep_table_walk(e, probes, side, GAMMA_GRID)
            if len(probes) < len(ws):
                with pytest.raises(ValueError, match="cannot halve"):
                    sweep_parameters(e, ws, side)


class TestAgainstWalk:
    @settings(max_examples=80, deadline=None)
    @given(raw=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40), data=st.data())
    def test_random_float_points(self, raw, data):
        e = FinitePoints(raw)
        check_set(e, data.draw(windows(list(e.points))))

    @settings(max_examples=60, deadline=None)
    @given(
        ks=st.lists(st.integers(-40, 40), min_size=1, max_size=60),
        h=st.sampled_from(GRID_STEPS),
        data=st.data(),
    )
    def test_integer_grid_points(self, ks, h, data):
        e = FinitePoints([k * h for k in ks])
        check_set(e, data.draw(windows(list(e.points))))

    @settings(max_examples=40, deadline=None)
    @given(
        depth=st.integers(0, 8),
        middle=st.sampled_from(MIDDLES),
        span=st.sampled_from([(0.0, 1.0), (-1.5, 2.0)]),
        data=st.data(),
    )
    def test_cantor_iterates(self, depth, middle, span, data):
        e = CantorIterate(span[0], span[1], middle, depth)
        check_set(e, data.draw(windows(list(e.points_in(span[0], span[1])))))

    @settings(max_examples=30, deadline=None)
    @given(
        raw=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20),
        wrap=st.sampled_from(["reflect", "translate", "lattice", "geometric"]),
        data=st.data(),
    )
    def test_variants_without_memo(self, raw, wrap, data):
        base = FinitePoints(raw)
        e = {
            "reflect": Reflect(base),
            "translate": Translate(base, 0.375),
            "lattice": Lattice(raw[0], 0.75, "right"),
            "geometric": GeometricPlusLattice(2.0, Lattice(0.0, 1.0, "right")),
        }[wrap]
        pts = e.points_in(-25.0, 25.0) or [0.0]
        check_set(e, data.draw(windows(pts)))

    def test_windows_too_short_to_halve(self):
        # the midpoint of (0, 5e-324) rounds onto an endpoint; the one-sided
        # items reject such a window by name, everything else answers it
        e = FinitePoints([0.0, 5e-324, -1.0])
        check_set(e, [Interval(0.0, 5e-324), Interval(-1.0, 5e-324), Interval(-1.0, 0.0)])

    def test_run_end_rounding_onto_the_next_point(self):
        # the first run's computed end, start + 3 * 0.1, rounds onto the next
        # point, so a run other than the final one can end at hi; the memo key
        # compares only the final run's end with hi, so such windows bypass it
        pts = [-0.0426891024500626, 0.0573108975499374, 0.1573108975499374,
               0.2573108975499374, 0.25731089754993747, 0.2573108975499375]
        e = FinitePoints(pts)
        assert e.runs_in(pts[0], pts[-2])[0].end == pts[-2]
        ws = [Interval(-0.1, p) for p in pts[1:]] + [Interval(p, 0.3) for p in pts[:-1]]
        check_set(e, ws + [Interval(pts[0], pts[-2]), Interval(pts[1], pts[-2])])


class TestMemoHygiene:
    def _queried(self, e):
        for i in (Interval(0.0, 1.0), Interval(0.25, 0.75), Interval(-1.0, 1.0 / 3.0)):
            rho(e, i)
            sigma_at(e, i, 0.25, "right")
            integrate(WeightSpec(e, 0.5), i)
        assert e.__dict__.get("_windows"), "queries should have filled the memo"
        return e

    def test_cantor_pickles_like_a_fresh_instance(self):
        fresh = CantorIterate(0.0, 1.0, 1.0 / 3.0, 6)
        used = self._queried(CantorIterate(0.0, 1.0, 1.0 / 3.0, 6))
        assert pickle.dumps(used) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(used))
        assert clone == used and "_windows" not in clone.__dict__
        assert rho(clone, Interval(0.0, 1.0)) == rho(fresh, Interval(0.0, 1.0))

    def test_value_semantics_ignore_the_memo(self):
        for make in (lambda: CantorIterate(0.0, 1.0, 0.5, 4), lambda: FinitePoints([0.0, 0.5, 2.0])):
            fresh, used = make(), self._queried(make())
            assert used == fresh
            assert hash(used) == hash(fresh)
            assert repr(used) == repr(fresh)
            assert to_dict(used) == to_dict(fresh)
            assert pickle.dumps(used) == pickle.dumps(fresh)
            assert "_windows" not in copy.deepcopy(used).__dict__

    def test_memo_is_freed_with_its_set(self):
        e = self._queried(CantorIterate(0.0, 1.0, 1.0 / 3.0, 6))
        ref = weakref.ref(e)
        del e  # no reference cycle: freed without waiting for the cyclic collector
        assert ref() is None

    def test_concurrent_queries_agree(self):
        """The memo takes no lock: racing threads may build an entry twice, never a wrong one."""
        ws = [Interval(0.05 * k, 0.05 * k + 0.3 + 0.01 * k) for k in range(14)]

        def answers(e):
            return [(rho(e, i), sigma_at(e, i, 0.125, "right"), integrate(WeightSpec(e, 0.5), i),
                     max_distance_on(e, i)) for i in ws]

        expected = answers(CantorIterate(0.0, 1.0, 1.0 / 3.0, 7))
        shared = CantorIterate(0.0, 1.0, 1.0 / 3.0, 7)
        results: list = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(answers(shared))) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * len(threads)

    def test_empty_windows_share_no_state(self):
        e = FinitePoints([0.0])
        s = window_summary(e, Interval(1.0, 2.0))
        assert s.first is None and s.longest == 0.0 and s.shortest == math.inf and s.peak(1.0, 2.0) == 0.0
        for alpha in ALPHAS:
            integrate(WeightSpec(e, alpha), Interval(1.0, 2.0))
        assert s._groups is None and not s._integrals
