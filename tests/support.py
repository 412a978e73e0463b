"""Helpers that only the tests use.

``pset_from_tuples`` is the one way the tests build point sets by hand.  The
helpers below left the package because no shipped path calls them; they stay
here as small oracles: the scalar ones for the array code, the dense rho
arrays as a vector form of ``rho_coefficient`` that shares no code with it,
the pairwise-cosine Fourier sum as the oracle of the Gram form in
``fourier_truncated``, and the per-t scan and per-block sequence check as
the oracles of the one-search ``minimal_t``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from dignet.gf2 import rank
from dignet.interlace import interlace_digits
from dignet.measures import WeightScheme
from dignet.niederreiter import GeneratingMatrixSet
from dignet.quality import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckOutcome,
    NetQualityReport,
    check_order_alpha_t,
)
from dignet.sequence import DyadicPoint, PointSet
from dignet.walshlab import (
    _stacked_transpose,
    reverse_bits,
    rho_coefficient,
    walsh_eval,
)


def pset_from_tuples(
    rows: Iterable[Sequence[int]], precision: int, provenance: str = ""
) -> PointSet:
    """Point set whose point n has the numerators rows[n] over 2^precision."""
    return PointSet([tuple(r) for r in rows], precision, provenance)


def values(pset: PointSet) -> list[tuple[float, ...]]:
    """Coordinates as floats, one tuple per point."""
    scale = 2.0**-pset.precision
    return [tuple(v * scale for v in row) for row in pset.numerators.tolist()]


def digit_vector(n: int, m: int) -> int:
    """Least-significant-first binary digits of n as an m-bit vector: n itself."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if n >> m:
        raise ValueError(f"index {n} does not fit in {m} digits")
    return n


def interlace_point(point: DyadicPoint) -> DyadicPoint:
    """Interlace all coordinates of a point into a single coordinate."""
    return DyadicPoint(
        (interlace_digits(point.numerators, point.precision),),
        point.dimension * point.precision,
    )


def rho_array(k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Elementwise closed-form rho over integer arrays (broadcasting)."""
    k = np.asarray(k, dtype=np.int64)
    l = np.asarray(l, dtype=np.int64)
    a1 = np.frexp(k.astype(np.float64))[1].astype(np.int64)
    b1 = np.frexp(l.astype(np.float64))[1].astype(np.int64)
    kp = np.where(k > 0, k - np.left_shift(np.int64(1), np.maximum(a1 - 1, 0)), 0)
    lp = np.where(l > 0, l - np.left_shift(np.int64(1), np.maximum(b1 - 1, 0)), 0)
    a2 = np.frexp(kp.astype(np.float64))[1].astype(np.int64)
    b2 = np.frexp(lp.astype(np.float64))[1].astype(np.int64)
    kpp = np.where(kp > 0, kp - np.left_shift(np.int64(1), np.maximum(a2 - 1, 0)), -1)
    lpp = np.where(lp > 0, lp - np.left_shift(np.int64(1), np.maximum(b2 - 1, 0)), -1)
    conditions = [
        (k == 0) & (l == 0),
        (k == 0) | (l == 0),
        (k == l) & (kp == 0),
        k == l,
        (kp == lp) & (kp > 0),
        kpp == l,
        lpp == k,
    ]
    choices = [
        np.ones_like(a1, dtype=np.float64),
        np.zeros_like(a1, dtype=np.float64),
        np.ldexp(1.0, -2 * a1 - 1),
        np.ldexp(1.0, 1 - 2 * a1),
        np.ldexp(3.0, -a1 - b1 - 1),
        np.ldexp(-3.0, -a1 - a2 - 1),
        np.ldexp(-3.0, -b1 - b2 - 1),
    ]
    return np.select(conditions, choices, default=0.0)


def rho_table(count: int) -> np.ndarray:
    """Dense (count x count) table of rho_coefficient values."""
    if count < 1:
        raise ValueError("count must be positive")
    idx = np.arange(count, dtype=np.int64)
    return rho_array(idx[:, None], idx[None, :])


def mu(k: int) -> int:
    """Bit-length weight: position of the most significant one bit.

    mu(0) = 0 and mu(k) = floor(log2 k) + 1 for k >= 1.  Extended to
    index vectors by summation; governs the decay of the Walsh
    correlation coefficients.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    return k.bit_length()


def walsh_eval_vector(indices: tuple[int, ...], point: DyadicPoint) -> int:
    """Product of coordinatewise Walsh evaluations; +1 or -1."""
    if len(indices) != len(point.numerators):
        raise ValueError(
            f"index vector has {len(indices)} coordinates, "
            f"point has {len(point.numerators)}"
        )
    sign = 1
    for k, num in zip(indices, point.numerators):
        sign *= walsh_eval(k, num, point.precision)
    return sign


def walsh_signs(k: int, numerators: np.ndarray, precision: int) -> np.ndarray:
    """Vectorized walsh_eval for one index against many numerators."""
    width = max(precision, k.bit_length())
    if width > 64:
        raise ValueError("combined digit width exceeds 64")
    nums = np.asarray(numerators, dtype=np.uint64) << np.uint64(width - precision)
    parity = np.bitwise_count(nums & np.uint64(reverse_bits(k, width))) & np.uint64(1)
    return 1.0 - 2.0 * parity.astype(np.float64)


def rho_vector(indices_k: tuple[int, ...], indices_l: tuple[int, ...]) -> float:
    """Product of coordinatewise correlation coefficients."""
    if len(indices_k) != len(indices_l):
        raise ValueError("index vectors must have equal dimension")
    out = 1.0
    for k, l in zip(indices_k, indices_l):
        out *= rho_coefficient(k, l)
        if out == 0.0:
            return 0.0
    return out


def dual_rank(gset: GeneratingMatrixSet, bound_bits: int) -> int:
    """Rank of the stacked transposed system at the given digit bound."""
    return rank(_stacked_transpose(gset, bound_bits))


def fourier_pairwise_squared(pset: PointSet, scheme: WeightScheme, trunc: int) -> float:
    """Truncated frequency sum over point pairs, one cosine per pair and h.

    Per coordinate the pair factor is 1 + sum_h 2*w(h)*cos(2*pi*h*t) with
    t = {x - y} taken exactly from the numerators; the factors multiply over
    coordinates and the pairs n < p are summed row by row with math.fsum.
    Dense (N, N) arrays, so only for small sets.
    """
    n, d = pset.size, pset.dimension
    hs = np.arange(1, trunc + 1, dtype=np.float64)
    weights = scheme.inverse_weight_sq(hs)
    k_zero = 1.0 + 2.0 * float(weights.sum())
    mask = np.uint64((1 << pset.precision) - 1)
    prod = np.ones((n, n))
    for col in pset.numerators.T:
        t = ((col[:, None] - col[None, :]) & mask).astype(np.float64)
        angles = (2.0 * math.pi * 2.0**-pset.precision) * t
        factor = np.ones_like(angles)
        for h0 in range(0, trunc, 64):
            cosines = np.cos(angles[..., None] * hs[h0 : h0 + 64])
            factor += 2.0 * (cosines @ weights[h0 : h0 + 64])
        prod *= factor
    upper = math.fsum(prod[i, i + 1 :].sum() for i in range(n))
    total = n * k_zero**d + 2.0 * upper
    return scheme.prefactor(d) * (total / (n * n) - 1.0)


def scan_minimal_t(mats, alpha: int, *, node_cap: int = 10_000_000) -> NetQualityReport:
    """Minimal t by one fixed-t check per t, scanning upward from zero.

    The witness is the failing check's at t - 1, kept only when every
    smaller t failed conclusively.
    """
    mats = list(mats)
    m = mats[0].ncols
    witness = None
    exhaustive = True
    for t in range(alpha * m + 1):
        out = check_order_alpha_t(mats, alpha, t, node_cap=node_cap)
        if out.status == PASS:
            return NetQualityReport(alpha, m, len(mats), t, exhaustive,
                                    witness if (t > 0 and exhaustive) else None)
        exhaustive = exhaustive and out.status == FAIL
        witness = out.witness
    raise AssertionError("unreachable: the empty check at t = alpha*m passes")


def verify_sequence_property(
    gset: GeneratingMatrixSet,
    alpha: int,
    t: int,
    m_max: int,
    *,
    node_cap: int = 10_000_000,
) -> CheckOutcome:
    """Check the order-alpha property of every leading block up to m_max.

    For each m with alpha*m > t and m <= m_max, the upper-left
    (alpha*m) x m submatrices must pass the order-alpha check at quality t.
    The scan runs over increasing m and stops at the first failure, whose
    witness is returned; an inconclusive block makes the aggregate
    inconclusive unless a later block fails outright.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    if gset.rows < alpha * m_max or gset.cols < m_max:
        raise ValueError(
            f"matrix extent {gset.rows}x{gset.cols} does not cover "
            f"{alpha * m_max}x{m_max}"
        )
    total_nodes = 0
    saw_inconclusive = False
    for m in range(1, m_max + 1):
        if alpha * m <= t:
            continue
        subs = [mat.submatrix(alpha * m, m) for mat in gset.matrices]
        out = check_order_alpha_t(subs, alpha, t, node_cap=node_cap)
        total_nodes += out.nodes
        if out.status == FAIL:
            return CheckOutcome(FAIL, out.witness, total_nodes)
        if out.status == INCONCLUSIVE:
            saw_inconclusive = True
    status = INCONCLUSIVE if saw_inconclusive else PASS
    return CheckOutcome(status, None, total_nodes)
