"""Built-in catalog of structured sets used across analyses and suites."""

from __future__ import annotations

import random

from .sets import (
    CantorIterate,
    FinitePoints,
    GeometricPlusLattice,
    Lattice,
    Reflect,
    SetDescription,
)

PRESET_NAMES = (
    "integers",
    "naturals",
    "reflected_naturals",
    "geometric_naturals",
    "reflected_geometric_naturals",
    "singleton",
    "cantor",
    "random_finite",
)

PRESET_HELP = {
    "integers": "unit lattice over the whole line",
    "naturals": "unit lattice on [0, inf)",
    "reflected_naturals": "unit lattice on (-inf, 0]",
    "geometric_naturals": "naturals joined with -2**m, m >= 1 (doubling holes leftward)",
    "reflected_geometric_naturals": "mirror image of geometric_naturals",
    "singleton": "the single point {0}",
    "cantor": "endpoints of the depth-n middle-fraction removal on (0, 1)",
    "random_finite": "seeded uniform points on a symmetric span",
}


def preset(
    name: str,
    cantor_middle: float = 1.0 / 3.0,
    cantor_depth: int = 10,
    random_count: int = 48,
    random_span: float = 8.0,
    seed: int = 0,
) -> SetDescription:
    if name == "integers":
        return Lattice(0.0, 1.0, "two_sided")
    if name == "naturals":
        return Lattice(0.0, 1.0, "right")
    if name == "reflected_naturals":
        return Reflect(Lattice(0.0, 1.0, "right"))
    if name == "geometric_naturals":
        return GeometricPlusLattice(2.0, Lattice(0.0, 1.0, "right"))
    if name == "reflected_geometric_naturals":
        return Reflect(GeometricPlusLattice(2.0, Lattice(0.0, 1.0, "right")))
    if name == "singleton":
        return FinitePoints([0.0])
    if name == "cantor":
        return CantorIterate(0.0, 1.0, cantor_middle, cantor_depth)
    if name == "random_finite":
        rng = random.Random(seed)
        half = 0.5 * random_span
        return FinitePoints(sorted(rng.uniform(-half, half) for _ in range(random_count)))
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def catalog(seed: int = 0, cantor_depth: int = 10) -> list[tuple[str, SetDescription]]:
    """The eight-set cross-check catalog."""
    return [(name, preset(name, cantor_depth=cantor_depth, seed=seed)) for name in PRESET_NAMES]
