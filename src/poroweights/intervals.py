"""Open intervals on the real line.

Everything downstream treats intervals as open; the sets under study have
Lebesgue measure zero, so endpoint membership never changes a measure or an
integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _split(lo: float, hi: float) -> float:
    """:attr:`Interval.split_point` of (lo, hi), for a caller that holds the bounds only."""
    c = 0.5 * (lo + hi)
    if not lo < c < hi:
        raise ValueError(f"cannot halve ({lo!r}, {hi!r}): its midpoint rounds onto an endpoint")
    return c


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    """Bounded open interval (lo, hi) with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got ({self.lo}, {self.hi})")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got ({self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def center(self) -> float:
        """Split point ``0.5 * (lo + hi)``, rounded to the nearest float.

        It is the true midpoint only when that midpoint is representable
        (e.g. both endpoints on a common dyadic grid); otherwise it lies one
        rounding step off it.
        """
        return 0.5 * (self.lo + self.hi)

    @property
    def split_point(self) -> float:
        """:attr:`center`, checked to lie strictly inside.

        Raises ``ValueError`` when the interval is too short to halve: its
        midpoint rounds onto an endpoint, e.g. on (0, 5e-324).
        """
        return _split(self.lo, self.hi)

    @property
    def left_half(self) -> "Interval":
        """Open left split (lo, center); see :attr:`split_point`.

        Its length is exactly ``length / 2`` only when the midpoint is
        representable; see :attr:`center`.
        """
        return Interval(self.lo, self.split_point)

    @property
    def right_half(self) -> "Interval":
        """Open right split (center, hi); endpoint conventions are immaterial for null sets.

        Its length is exactly ``length / 2`` only when the midpoint is
        representable; see :attr:`center`.
        """
        return Interval(self.split_point, self.hi)

    def reflected(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def as_pair(self) -> tuple[float, float]:
        return (self.lo, self.hi)

