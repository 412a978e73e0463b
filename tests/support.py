"""Helpers that only the tests use.

``pset_from_tuples`` is the one way the tests build point sets by hand.  The
scalar helpers below left the package because no shipped path calls them;
they stay here as small oracles for the array code.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from dignet.gf2 import BitVector
from dignet.interlace import interlace_digits
from dignet.sequence import DyadicPoint, PointSet


def pset_from_tuples(
    rows: Iterable[Sequence[int]], precision: int, provenance: str = ""
) -> PointSet:
    """Point set whose point n has the numerators rows[n] over 2^precision."""
    return PointSet([tuple(r) for r in rows], precision, provenance)


def values(pset: PointSet) -> list[tuple[float, ...]]:
    """Coordinates as floats, one tuple per point."""
    scale = 2.0**-pset.precision
    return [tuple(v * scale for v in row) for row in pset.numerators.tolist()]


def digit_vector(n: int, m: int) -> BitVector:
    """Least-significant-first binary digits of n, as a length-m vector."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if n >> m:
        raise ValueError(f"index {n} does not fit in {m} digits")
    return BitVector(n, m)


def interlace_point(point: DyadicPoint) -> DyadicPoint:
    """Interlace all coordinates of a point into a single coordinate."""
    return DyadicPoint(
        (interlace_digits(point.numerators, point.precision),),
        point.dimension * point.precision,
    )
