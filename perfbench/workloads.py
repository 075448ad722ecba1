"""Workload definitions: job lists, expected verdicts and set-up specs.

A job is one `poroweights` CLI invocation.  Each job yields one verdict,
except the `equivalence` suite, which yields one verdict per catalog row.
Every expectation names where it comes from: the theory, when the theory
decides the outcome, or the seed-commit run, when it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

# Every job gets these, so the process pool never runs and reruns are byte-identical.
PINNED_ARGS = ("--no-timestamp", "--workers", "1")

# Tiny caps for the smoke mode of the self-tests (verdicts are not checked there).
# The equivalence suite takes no caps from the command line; it stays full size.
SMOKE_ARGS = ("--window", "-2", "2", "--anchor-cap", "4", "--random-probes", "10", "--octaves", "4",
              "--cantor-depth", "3")
SMOKE_TOL = ("--tol", "0.25")

WINDOW = (-64.0, 64.0)
WIDE = 2.0 ** 36


@dataclass(frozen=True)
class Job:
    """One CLI call with its expected verdict.

    `check(body)` returns one boolean per verdict from the JSON report
    `report`; `why` says where the expectation comes from.  `seed_defect`
    describes the known wrong behaviour of the seed commit, if any: such a
    verdict still counts as failed, but does not make the run incorrect.
    """

    argv: str
    exit_code: int
    report: str
    check: Callable[[dict], list[bool]]
    why: str
    verdicts: int = 1
    seed_defect: Optional[Callable[[int, dict], bool]] = None

    def args(self, seed: int, smoke: bool = False) -> list[str]:
        out = self.argv.split() + list(PINNED_ARGS) + ["--seed", str(seed)]
        if smoke:
            out += list(SMOKE_ARGS)
            if out[0] == "critical-alpha":
                out += list(SMOKE_TOL)
        return out


@dataclass(frozen=True)
class SetupSpec:
    """A preset and the window and probe caps its jobs use."""

    preset: str
    window: tuple[float, float] = WINDOW
    cantor_depth: int = 10
    anchor_cap: int = 128
    random_probes: int = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]
    setup: tuple[SetupSpec, ...]
    catalog: bool = False  # set-up also builds the depth-8 equivalence catalog


def _one(ok: bool) -> list[bool]:
    return [bool(ok)]


def _no_failures(body: dict) -> list[bool]:
    return _one(body["failures"] == [])


BISECTION_TOP = 1.0 - 2.0 ** -8  # bisection on (0, 1) at the default tol 2^-8, every step bounded

LATTICE = Workload(
    name="lattice",
    why="lattice sets answer window queries from O(1) runs, so rho/sigma_at/integrate call counts set the time; a probe or triple table shows here",
    jobs=(
        Job("analyze --preset integers", 0, "porosity_report.json",
            lambda b: _one(b["passed"]),
            "theory: on the unit lattice every interval keeps at least half its length in cells of length >= rho, so (1/2, 1/2) holds"),
        Job("analyze --preset geometric_naturals --sweep --side right", 0, "porosity_sweep.json",
            lambda b: _one(b["best_sigma"] > 0.0),
            "theory: geometric_naturals is right weakly porous (paper catalog), so some grid gamma certifies"),
        Job(f"analyze --preset integers --window {-int(WIDE)} {int(WIDE)}", 0, "porosity_report.json",
            lambda b: _one(b["passed"]),
            "theory: as for the default window; the lattice is translation invariant"),
        Job("critical-alpha --preset naturals", 0, "critical_alpha.json",
            lambda b: _one(b["alpha"] == BISECTION_TOP),
            "theory: d(., N)^-alpha is A1+ for every alpha < 1, so every bisection step is bounded"),
        Job("critical-alpha --preset geometric_naturals", 0, "critical_alpha.json",
            lambda b: _one(b["alpha"] == BISECTION_TOP),
            "seed commit: every bisection step bounded; the triple family does not depend on --seed"),
        Job("verify --preset geometric_naturals --suite sided-transport", 0, "verify_sided_transport.json",
            _no_failures,
            "theory: the transport inequalities hold on every interval"),
    ),
    setup=(
        SetupSpec("integers"),
        SetupSpec("integers", window=(-WIDE, WIDE)),
        SetupSpec("geometric_naturals"),
        SetupSpec("naturals"),
    ),
)

CANTOR = Workload(
    name="cantor",
    why="finite point sets re-compress and walk O(n) runs on every query; a compiled window index shows here",
    jobs=(
        Job("analyze --preset cantor --anchor-cap 16 --random-probes 100", 1, "porosity_report.json",
            lambda b: _one(not b["passed"] and b["worst_sigma"] <= 8.0 / 27.0 + 1e-12),
            "seed commit: the anchor probe (2/3, 19/24) has sigma 8/27 < 1/2; anchor probes do not depend on --seed"),
        Job("a1 --preset cantor --alpha 0.5", 0, "a1_report.json",
            lambda b: _one(not b["divergence_flag"] and b["nonintegrable_count"] == 0
                           and math.isclose(b["constant_lower_bound"], 22.397897095921678, rel_tol=1e-9)),
            "theory: alpha < 1 on a finite set gives a bounded constant; the lower bound is the seed value (seed-independent family)"),
        Job("analyze --preset random_finite", 1, "porosity_report.json",
            lambda b: _one(not b["passed"] and b["worst_sigma"] < 0.5),
            "seed commit: fails on seeds 0-12; 48 uniform points always hold a tight cluster beside a wide gap"),
        Job("critical-alpha --preset random_finite", 0, "critical_alpha.json",
            lambda b: _one(b["alpha"] is not None and 0.0 < b["alpha"] < 1.0),
            "theory: a finite set is porous on both sides, so some alpha in (0, 1) is bounded; its value depends on --seed"),
    ),
    setup=(
        SetupSpec("cantor", anchor_cap=16, random_probes=100),
        SetupSpec("random_finite"),
    ),
)


def _left_propagation_defect(exit_code: int, body: dict) -> bool:
    return exit_code == 1 and len(body["failures"]) > 0


SUITES = Workload(
    name="suites",
    why="runs the property suites and the paper's equivalence cross-check, which materialise points and use max_distance_on/set_distance",
    jobs=(
        Job("verify --preset integers --suite equivalence", 0, "verify_equivalence.json",
            lambda b: [bool(r["agreement"]) for r in b["rows"]],
            "theory: the paper's equivalence, right weak porosity iff bounded A1+ evidence, holds on every catalog row",
            verdicts=8),
        Job("verify --preset cantor --cantor-depth 6 --suite left-propagation", 0, "verify_left_propagation.json",
            _no_failures,
            "theory: the lemma holds at certified constants; the seed runs it at gamma 0.5 where the set has none",
            seed_defect=_left_propagation_defect),
        Job("verify --preset cantor --cantor-depth 6 --suite distance-envelope", 0, "verify_distance_envelope.json",
            _no_failures,
            "theory: max d <= 2 (1 + d(I, E)/|I|) rho(I) holds on every interval"),
        Job("verify --preset cantor --cantor-depth 6 --suite decay", 0, "verify_decay.json",
            lambda b: _one(b["passed"]),
            "seed commit: passes (worst ratio 0.461 against beta2 0.75); the decay interval does not depend on --seed"),
        Job("verify --preset cantor --cantor-depth 6 --suite dimension", 0, "verify_dimension.json",
            lambda b: _one(b["regime"] == "structured"
                           and math.isclose(b["fitted_dimension"], 0.5050409334200516, rel_tol=1e-9)),
            "seed commit: the depth-6 structured fit is 0.50504 (seed-independent), below log 2/log 3"),
        Job("verify --preset geometric_naturals --suite hole-control", 0, "verify_hole_control.json",
            _no_failures,
            "theory: rho(I+) >= d(x, E)/(6 + 4 eta) on I+ holds whenever d(I, E) <= eta |I|"),
    ),
    setup=(
        SetupSpec("integers"),
        SetupSpec("cantor", cantor_depth=6),
        SetupSpec("geometric_naturals"),
    ),
    catalog=True,
)

WORKLOADS = {w.name: w for w in (LATTICE, CANTOR, SUITES)}
