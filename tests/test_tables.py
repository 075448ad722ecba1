"""Probe and triple tables agree bit for bit with the loops they replaced.

Every report is compared with ``==`` against the per-function loops kept in
``tests/oracles.py``, which re-derive each window through the component walk
and recompute each triple at every exponent.  A second group counts window
summaries, so the work the tables save cannot quietly come back.
"""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import poroweights.sets as sets_module
from poroweights import (
    CantorIterate,
    FinitePoints,
    GeometricPlusLattice,
    Interval,
    Lattice,
    PorosityParams,
    ProbeFamily,
    Reflect,
    Translate,
    TripleFamily,
    WeightSpec,
    a1_constant,
    certify,
    critical_alpha,
    doubling_witness,
    sweep_parameters,
    sweep_sides,
)
from poroweights.muckenhoupt import SIDES as A1_SIDES
from poroweights.porosity import SIDES
from poroweights.suites import suite_sided_transport

from . import oracles

WINDOW = Interval(-4.0, 4.0)
NATURALS = Lattice(0.0, 1.0, "right")

BASES = {
    "integers": Lattice(0.0, 1.0, "two_sided"),
    "naturals": NATURALS,
    "lattice-third": Lattice(0.25, 1.0 / 3.0, "left"),
    "geometric_naturals": GeometricPlusLattice(2.0, NATURALS),
    "cantor": CantorIterate(-1.0, 2.0, 1.0 / 3.0, 5),
}


@st.composite
def point_sets(draw):
    """Catalog-like sets, random finite sets, and reflects and translates of either."""
    e = draw(st.one_of(
        st.sampled_from(sorted(BASES)).map(BASES.__getitem__),
        # gaps stay well above the anchors' ulp, so every triple has a < b < c
        st.lists(st.integers(-6000, 6000).map(lambda k: k / 1000), min_size=1, max_size=12).map(FinitePoints),
    ))
    wrap = draw(st.sampled_from(["none", "reflect", "translate"]))
    if wrap == "reflect":
        e = Reflect(e)
    elif wrap == "translate":
        e = Translate(e, draw(st.floats(-2.0, 2.0)))
    return e


def small_family(e, seed):
    return ProbeFamily.default(e, WINDOW, octaves=4, anchor_cap=4, random_count=8, seed=seed)


class TestProbeTable:
    @settings(max_examples=40, deadline=None)
    @given(e=point_sets(), side=st.sampled_from(SIDES), gamma=st.sampled_from([0.5, 0.125, 2.0 ** -9]),
           seed=st.integers(0, 3))
    def test_certify_matches_the_loop(self, e, side, gamma, seed):
        intervals = small_family(e, seed).intervals()
        params = PorosityParams(0.25, gamma, side)
        assert certify(e, params, intervals) == oracles.certify_walk(e, params, intervals)

    @settings(max_examples=25, deadline=None)
    @given(
        e=st.sampled_from([NATURALS, Reflect(NATURALS)]),
        shift=st.sampled_from([0.0, 0.375, -1.0 / 3.0]),
        centre=st.floats(-0.5, 0.5),
        top=st.integers(14, 24),
    )
    def test_doubling_witnesses_on_divergent_families(self, e, shift, centre, top):
        # rho(I) / rho(the half holding the lattice) doubles with every octave
        e = Translate(e, shift) if shift else e
        fam = [Interval(centre - 2.0 ** n, centre + 2.0 ** n) for n in range(1, top)]
        report = doubling_witness(e, fam)
        assert report == oracles.doubling_witness_walk(e, fam)
        assert report.divergent and report.witnesses

    @settings(max_examples=40, deadline=None)
    @given(e=point_sets(), seed=st.integers(0, 3))
    def test_sweeps_match_the_loop_on_every_side(self, e, seed):
        intervals = small_family(e, seed).intervals()
        together = sweep_sides(e, intervals, SIDES)
        pair = sweep_sides(e, intervals, ("right", "left"))
        for side in SIDES:
            expected = oracles.sweep_walk(e, intervals, side)
            assert together[side] == expected
            assert sweep_parameters(e, intervals, side) == expected
            if side != "two_sided":
                assert pair[side] == expected

    @settings(max_examples=25, deadline=None)
    @given(e=point_sets(), seed=st.integers(0, 3), gamma=st.sampled_from([0.5, 0.25]))
    def test_sided_transport_matches_the_loop(self, e, seed, gamma):
        fam = small_family(e, seed)
        got = suite_sided_transport(e, WINDOW, seed=seed, probes=fam, gamma=gamma)
        assert got == oracles.sided_transport_walk(e, WINDOW, seed, fam, gamma=gamma)


class TestTripleTable:
    @settings(max_examples=30, deadline=None)
    @given(e=point_sets(), side=st.sampled_from(A1_SIDES), alpha=st.sampled_from([0.25, 0.5, 0.9, 1.0, 1.5]))
    def test_a1_samples_match_the_scan(self, e, side, alpha):
        fam = TripleFamily.default(e, WINDOW, octaves=6, anchor_cap=4)
        w = WeightSpec(e, alpha)
        assert a1_constant(w, side, fam).samples == oracles.a1_samples_walk(w, side, fam)

    @settings(max_examples=12, deadline=None)
    @given(
        e=st.one_of(
            st.sampled_from(["integers", "naturals", "geometric_naturals"]).map(BASES.__getitem__),
            st.lists(st.integers(-3000, 3000).map(lambda k: k / 1000), min_size=1, max_size=6).map(FinitePoints),
        ),
        reflect=st.booleans(),
        side=st.sampled_from(A1_SIDES),
    )
    def test_critical_alpha_grid_matches_the_bisection(self, e, reflect, side):
        e = Reflect(e) if reflect else e
        window = Interval(-2.0, 2.0)
        got = critical_alpha(e, side, window, tol=0.125, octaves=8)
        assert got.grid == oracles.critical_alpha_grid_walk(e, side, window, tol=0.125, octaves=8)


@pytest.fixture
def summaries(monkeypatch):
    """Counter of ``window_summary`` calls from every module that reads summaries."""
    count = [0]
    original = sets_module.window_summary

    def counted(e, i):
        count[0] += 1
        return original(e, i)

    for name, module in list(sys.modules.items()):
        if name.startswith("poroweights") and getattr(module, "window_summary", None) is original:
            monkeypatch.setattr(module, "window_summary", counted)
    return count


class TestWorkCounts:
    SETS = [BASES["integers"], BASES["geometric_naturals"], CantorIterate(0.0, 1.0, 1.0 / 3.0, 6)]

    @pytest.mark.parametrize("e", SETS, ids=["integers", "geometric_naturals", "cantor6"])
    def test_certify_summarises_four_windows_per_probe(self, e, summaries):
        intervals = small_family(e, 1).intervals()
        for side in SIDES:
            summaries[0] = 0
            certify(e, PorosityParams(0.25, 0.25, side), intervals)
            assert 0 < summaries[0] <= 4 * len(intervals)

    @pytest.mark.parametrize("e", SETS, ids=["integers", "geometric_naturals", "cantor6"])
    def test_right_and_left_sweeps_share_the_halves(self, e, summaries):
        intervals = small_family(e, 1).intervals()
        sweep_sides(e, intervals, ("right", "left"))
        assert 0 < summaries[0] <= 2 * len(intervals)

    @pytest.mark.parametrize(
        "side, e",
        [("plus", NATURALS), ("minus", Reflect(NATURALS)), ("two_sided", BASES["integers"])],
        ids=A1_SIDES,
    )
    def test_critical_alpha_work_does_not_grow_with_the_steps(self, side, e, summaries):
        counts = []
        for tol in (2.0 ** -3, 2.0 ** -6):
            summaries[0] = 0
            result = critical_alpha(e, side, Interval(-8.0, 8.0), tol=tol)
            assert len(result.grid) == -math.log2(tol)  # every step ran
            counts.append(summaries[0])
        assert counts[0] == counts[1] > 0
