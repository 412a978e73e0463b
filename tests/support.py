"""Helpers that only the tests use.

``pset_from_tuples`` is the one way the tests build point sets by hand.  The
helpers below left the package because no shipped path calls them; they stay
here as small oracles and share no code with the paths they check: the
scalar GF(2), interlacing, digital-shift and block-splitting ones for the
array code, the scalar Walsh characters and the closed-form
``rho_coefficient`` with the direct dual-net scan for the Walsh series, the
dense rho arrays as a vector form of ``rho_coefficient``, the
pairwise-cosine Fourier sum as the oracle of the Gram form in
``fourier_truncated``, the per-t scan and per-block sequence check as
the oracles of the one-search ``minimal_t``, the dict-based search as
the oracle of the list-indexed one that ``minimal_t`` runs, and two
Python-int forms of the exact d <= 2 kernel as the oracles of its array
pass: the closed forms, the one sweep and the one-point extension that
the pass ran before it became arrays, composed as
``reference_prefix_totals``, and the moment, running-sum and four-field
Fenwick helpers that the sweep replaced, composed as
``reference_pair_totals``.
"""

from __future__ import annotations

import io
import json
import locale
import math
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from dignet import sequence
from dignet.gf2 import BitMatrix, echelon_insert
from dignet.measures import WeightScheme
from dignet.niederreiter import GeneratingMatrixSet
from dignet.quality import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckOutcome,
    NetQualityReport,
    _Dependent,
    _NodeCap,
    check_order_alpha_t,
)
from dignet.sequence import DyadicPoint, PointSet
from dignet.walshlab import _stacked_transpose


def pset_from_tuples(
    rows: Iterable[Sequence[int]], precision: int, provenance: str = ""
) -> PointSet:
    """Point set whose point n has the numerators rows[n] over 2^precision."""
    return PointSet([tuple(r) for r in rows], precision, provenance)


def values(pset: PointSet) -> list[tuple[float, ...]]:
    """Coordinates as floats, one tuple per point."""
    scale = 2.0**-pset.precision
    return [tuple(v * scale for v in row) for row in pset.numerators.tolist()]


def same_points(a: PointSet, b: PointSet) -> bool:
    """Whether two sets hold the same numerator rows at the same precision."""
    return a.precision == b.precision and a.numerators.tolist() == b.numerators.tolist()


def traced_peak(fn) -> int:
    """Peak bytes that Python's tracer sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def recorded_blocks(monkeypatch, size: int) -> list[bytes]:
    """Make the points reader read ``size`` bytes at a time, and return the
    list of the blocks it cuts, in reading order."""
    blocks = []
    cut = sequence._blocks

    def recorded(read):
        for block in cut(read):
            blocks.append(block)
            yield block

    monkeypatch.setattr(sequence, "_COUNT_BLOCK", size)
    monkeypatch.setattr(sequence, "_blocks", recorded)
    return blocks


def unseekable(data: bytes) -> io.BytesIO:
    """A binary stream of ``data`` whose ``seekable()`` is False, as a pipe's
    is, so that the points reader joins its rows instead of counting them."""
    stream = io.BytesIO(data)
    stream.seekable = lambda: False
    return stream


def encoded(text: str) -> bytes:
    """``text`` in the encoding that the points reader decodes its bytes in."""
    return text.encode(locale.getpreferredencoding(False))


def decodes(data: bytes, encoding: str) -> bool:
    """Whether ``encoding`` decodes ``data``."""
    try:
        data.decode(encoding)
    except UnicodeDecodeError:
        return False
    return True


# ---------------------------------------------------------------------------
# GF(2) matrices and matrix files.
# ---------------------------------------------------------------------------


def identity(n: int) -> BitMatrix:
    """The n x n identity matrix over Z2."""
    return BitMatrix([1 << i for i in range(n)], n)


def zeros(nrows: int, ncols: int) -> BitMatrix:
    """The all-zero matrix of the given shape."""
    return BitMatrix([0] * nrows, ncols)


def entry(m: BitMatrix, i: int, j: int) -> int:
    """Row i, column j of m, 0 or 1."""
    if not 0 <= j < m.ncols:
        raise IndexError(f"column {j} out of range for {m.ncols} columns")
    return (m.row_masks[i] >> j) & 1


def matvec(m: BitMatrix, bits: int) -> int:
    """Matrix-vector product over Z2 of a vector packed into ``bits``.

    Bit i of the result is the parity of ``row_i AND bits``.
    """
    if bits < 0 or bits >> m.ncols:
        raise ValueError(f"vector 0x{bits:x} does not fit in {m.ncols} columns")
    out = 0
    for i, r in enumerate(m.row_masks):
        out |= ((r & bits).bit_count() & 1) << i
    return out


def rank(m: BitMatrix) -> int:
    """Rank over Z2 by plain Gauss-Jordan column sweeps."""
    rows = list(m.row_masks)
    found = 0
    for col in range(m.ncols - 1, -1, -1):
        pivot = next(
            (k for k in range(found, len(rows)) if (rows[k] >> col) & 1), None
        )
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for k in range(len(rows)):
            if k != found and (rows[k] >> col) & 1:
                rows[k] ^= rows[found]
        found += 1
    return found


def save_matrix_set(gset: GeneratingMatrixSet, path: str | Path) -> None:
    """Write a matrix set as the JSON that ``load_matrix_set`` reads."""
    Path(path).write_text(json.dumps(gset.to_json_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Points: digits, interlacing, digital shifts and prefix blocks.
# ---------------------------------------------------------------------------


def digit_vector(n: int, m: int) -> int:
    """Least-significant-first binary digits of n as an m-bit vector: n itself."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if n >> m:
        raise ValueError(f"index {n} does not fit in {m} digits")
    return n


def interlace_digits(numerators: Sequence[int], precision: int) -> int:
    """Weave len(numerators) digit streams of the given precision into one.

    Returns the numerator of the interlaced value at precision
    len(numerators) * precision: output digit r + (a-1)*alpha is digit a of
    stream r.
    """
    alpha = len(numerators)
    if alpha < 1:
        raise ValueError("need at least one input stream")
    for v in numerators:
        if v < 0 or v >> precision:
            raise ValueError(f"numerator {v} out of range for precision {precision}")
    out = 0
    width = alpha * precision
    for a in range(1, precision + 1):
        for r, num in enumerate(numerators, start=1):
            bit = (num >> (precision - a)) & 1
            out |= bit << (width - (r + (a - 1) * alpha))
    return out


def interlace_vector(point: DyadicPoint, alpha: int) -> DyadicPoint:
    """Blockwise interlacing: coordinate j comes from input block j."""
    if alpha < 1:
        raise ValueError(f"interlacing factor must be positive, got {alpha}")
    d = len(point.numerators)
    if d % alpha:
        raise ValueError(f"dimension {d} is not a multiple of alpha={alpha}")
    nums = tuple(
        interlace_digits(point.numerators[j : j + alpha], point.precision)
        for j in range(0, d, alpha)
    )
    return DyadicPoint(nums, alpha * point.precision)


def interlace_pointset(pset: PointSet, alpha: int) -> PointSet:
    """Every point interlaced with ``interlace_vector``."""
    rows = [interlace_vector(p, alpha).numerators for p in pset.points]
    return PointSet(
        rows,
        alpha * pset.precision,
        provenance=f"{pset.provenance} interlaced alpha={alpha}",
    )


def interlace_point(point: DyadicPoint) -> DyadicPoint:
    """Interlace all coordinates of a point into a single coordinate."""
    return DyadicPoint(
        (interlace_digits(point.numerators, point.precision),),
        len(point.numerators) * point.precision,
    )


def digital_shift(pset: PointSet, shift: DyadicPoint) -> PointSet:
    """XOR every point with the shift, both zero-padded to the larger precision."""
    if len(shift.numerators) != pset.dimension:
        raise ValueError(
            f"shift dimension {len(shift.numerators)} does not match point set "
            f"{pset.dimension}"
        )
    w = max(pset.precision, shift.precision)
    sigma = [s << (w - shift.precision) for s in shift.numerators]
    rows = [
        [(v << (w - pset.precision)) ^ s for v, s in zip(row, sigma)]
        for row in pset.numerators.tolist()
    ]
    return PointSet(rows, w, provenance=f"{pset.provenance} + digital shift")


def block_decomposition(total: int) -> list[int]:
    """Exponents m_1 > m_2 > ... with total = sum of 2^{m_i}."""
    if total < 1:
        raise ValueError(f"need a positive total, got {total}")
    return [b for b in range(total.bit_length() - 1, -1, -1) if (total >> b) & 1]


def tail_shift_vector(
    gset: GeneratingMatrixSet, block_index: int, total: int, precision: int
) -> DyadicPoint:
    """Digital shift carried by block ``block_index`` of an N-point prefix.

    Splitting N = 2^{m_1} + ... + 2^{m_r} (m_1 > ... > m_r) cuts the first N
    sequence points into consecutive blocks of those sizes.  Block i equals
    the 2^{m_i}-point net shifted by the image of the high digits shared by
    all its indices, which is exactly the sequence point at index
    2^{m_1} + ... + 2^{m_{i-1}}: C_j times its digit vector, one ``matvec``
    per coordinate.  Blocks are numbered from 1.
    """
    exponents = block_decomposition(total)
    if not 1 <= block_index <= len(exponents):
        raise ValueError(
            f"block index {block_index} out of range for {len(exponents)} blocks"
        )
    base = sum(1 << e for e in exponents[: block_index - 1])
    return DyadicPoint(
        tuple(
            reverse_bits(matvec(mat.submatrix(precision, mat.ncols), base), precision)
            for mat in gset.matrices
        ),
        precision,
    )


# ---------------------------------------------------------------------------
# Walsh characters, correlation coefficients and dual nets.
# ---------------------------------------------------------------------------


def reverse_bits(value: int, width: int) -> int:
    """Reverse the low `width` bits of `value`."""
    if value < 0 or width < 0:
        raise ValueError("value and width must be nonnegative")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def walsh_eval(k: int, numerator: int, precision: int) -> int:
    """Evaluate the k-th dyadic Walsh function at numerator / 2**precision.

    Returns +1 or -1: the sign is the parity of the pairing between the
    binary digits of the coordinate and the binary digits of k.  Digits
    of the argument beyond its stated precision are zero, so any k is
    accepted.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if numerator < 0 or numerator >> precision:
        raise ValueError("numerator out of range for precision")
    width = max(precision, k.bit_length())
    scaled = numerator << (width - precision)
    return -1 if (scaled & reverse_bits(k, width)).bit_count() & 1 else 1


def rho_coefficient(k: int, l: int) -> float:
    """Walsh correlation coefficient of the periodic-L2 kernel weights.

    rho(k, l) = sum over h in Z of beta(h,k) * conj(beta(h,l)) / r(h)^2
    with beta(h,k) the Fourier coefficient of the k-th Walsh function
    and 1/r(h)^2 = 6/(4 pi^2 h^2) for h != 0.  Closed form by bit
    structure, writing a1 > a2 for the two leading bit positions of k
    (1-based), k' = k - 2^(a1-1), k'' = k' - 2^(a2-1), and b1, b2, l',
    l'' likewise for l:

      1                    if k = l = 0
      0                    if exactly one of k, l is 0
      2^(-2*a1 - 1)        if k = l with a single one bit
      2^(1 - 2*a1)         if k = l with two or more one bits
      3 * 2^(-a1 - b1 - 1) if k' = l' > 0 and k != l
      -3 * 2^(-a1 - a2 - 1) if k'' = l
      -3 * 2^(-b1 - b2 - 1) if k = l''
      0                    otherwise

    All values are exact dyadic rationals; the result is symmetric in
    (k, l).
    """
    if k < 0 or l < 0:
        raise ValueError("indices must be nonnegative")
    if k == 0 and l == 0:
        return 1.0
    if k == 0 or l == 0:
        return 0.0
    a1 = k.bit_length()
    b1 = l.bit_length()
    kp = k - (1 << (a1 - 1))
    lp = l - (1 << (b1 - 1))
    if k == l:
        return math.ldexp(1.0, -2 * a1 - 1) if kp == 0 else math.ldexp(1.0, 1 - 2 * a1)
    if kp == lp and kp > 0:
        return math.ldexp(3.0, -a1 - b1 - 1)
    if kp > 0:
        a2 = kp.bit_length()
        if kp - (1 << (a2 - 1)) == l:
            return math.ldexp(-3.0, -a1 - a2 - 1)
    if lp > 0:
        b2 = lp.bit_length()
        if lp - (1 << (b2 - 1)) == k:
            return math.ldexp(-3.0, -b1 - b2 - 1)
    return 0.0


def dual_net_members(
    gset: GeneratingMatrixSet, bound_bits: int | None = None
) -> list[tuple[int, ...]]:
    """All index vectors below 2**bound_bits annihilated by the net, sorted.

    A direct scan: (k_1, ..., k_d) is a member when the XOR of the matrix
    rows selected by the digits of every k_j is zero (digit a of k_j picks
    row a of C_j; rows past the matrix are zero).  Each coordinate's XOR
    images of all its indices are tabulated, the first d - 1 coordinates
    are combined exhaustively, and the last is looked up by image.
    `bound_bits` defaults to the row count.
    """
    if bound_bits is None:
        bound_bits = gset.rows
    images = []
    for mat in gset.matrices:
        image = [0]
        for a in range(bound_bits):
            row = mat.row_masks[a] if a < mat.nrows else 0
            image += [x ^ row for x in image]
        images.append(image)
    partial = [((), 0)]
    for image in images[:-1]:
        partial = [(ks + (k,), acc ^ x) for ks, acc in partial for k, x in enumerate(image)]
    last = defaultdict(list)
    for k, x in enumerate(images[-1]):
        last[x].append(k)
    return sorted(ks + (k,) for ks, acc in partial for k in last[acc])


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


def _square_pair_sum(xs: Sequence[int]) -> int:
    """Sum of (x_i - x_k)^2 from the first two moments."""
    return 2 * len(xs) * sum(x * x for x in xs) - 2 * sum(xs) ** 2


def _abs_pair_sum(xs: Sequence[int]) -> int:
    """Sum of |x_i - x_k| over ascending xs: each value weighted by its rank."""
    n = len(xs)
    return 2 * sum(x * (2 * r - n + 1) for r, x in enumerate(xs))


def _sweep_totals(
    xs: Sequence[int], ys: Sequence[int], ranks: Sequence[int], precision: int
) -> list[int]:
    """[sum g(U1), sum g(U2), sum g(U1) g(U2)] of the points listed in
    ascending x order, in one sweep; ``ranks`` holds each point's place in
    descending y order.

    Against an earlier point k, u = x - x_k >= 0 and v = y - y_k, and
    g(u) = a + c*x_k + x_k^2 with a = x(x - 2^w) and c = 2^w - 2x.  So
    each sum over the earlier points is a combination of their moments
    S_ij = sum x_k^i y_k^j: nine running sums (i, j <= 2) give the sums of
    g(u), v, v^2, g(u) v and g(u) v^2, and |v| = v - 2v[y_k > y] leaves
    the sums of v and g(u) v over the earlier points above y.  A Fenwick
    tree over the y ranks holds their six moments T_ij (i <= 2, j <= 1)
    packed into one non-negative int: the count in b bits, b the bit
    length of N, x and y in w + b, xy and x^2 in 2w + b, and x^2 y on top.
    A field's sum over N points stays below 2^(its bits), so no field
    carries into the next.  Each pair is met once, at its later point, and
    every summand is even in (u, v), so the totals are twice the sweep's.
    """
    n = len(xs)
    period = 1 << precision
    b = n.bit_length()
    low, high = precision + b, 2 * precision + b
    at01, at11 = b + low, b + 2 * low
    at20, at21 = at11 + high, at11 + 2 * high
    count_mask, low_mask, high_mask = (1 << b) - 1, (1 << low) - 1, (1 << high) - 1
    tree = [0] * (n + 1)
    s00 = s10 = s20 = s01 = s11 = s21 = s02 = s12 = s22 = 0
    gu = v1 = v2 = v_above = guv1 = guv2 = guv_above = 0
    for x, y, r in zip(xs, ys, ranks):
        xx = x * x
        a = xx - period * x
        c = period - 2 * x
        g0 = a * s00 + c * s10 + s20
        g1 = a * s01 + c * s11 + s21
        g2 = a * s02 + c * s12 + s22
        gu += g0
        p = y * s00 - s01
        v1 += p
        v2 += y * (p - s01) + s02
        q = y * g0 - g1
        guv1 += q
        guv2 += y * (q - g1) + g2
        # The earlier points with y_k >= y hold the ranks below r; a tie
        # has v = 0 and adds nothing.
        acc = 0
        j = r
        while j:
            acc += tree[j]
            j &= j - 1
        if acc:
            t00 = acc & count_mask
            t01 = (acc >> at01) & low_mask
            v_above += y * t00 - t01
            h0 = a * t00 + c * ((acc >> b) & low_mask) + ((acc >> at20) & high_mask)
            h1 = a * t01 + c * ((acc >> at11) & high_mask) + (acc >> at21)
            guv_above += y * h0 - h1
        xy, yy, xxy = x * y, y * y, xx * y
        s00, s10, s20 = s00 + 1, s10 + x, s20 + xx
        s01, s11, s21 = s01 + y, s11 + xy, s21 + xxy
        s02, s12, s22 = s02 + yy, s12 + x * yy, s22 + xx * yy
        packed = 1 | x << b | y << at01 | xy << at11 | xx << at20 | xxy << at21
        j = r + 1
        while j <= n:
            tree[j] += packed
            j += j & -j
    return [
        2 * gu,
        2 * (v2 - period * (v1 - 2 * v_above)),
        2 * (guv2 - period * (guv1 - 2 * guv_above)),
    ]


def _extend_totals(
    totals: Sequence[int], columns: np.ndarray, q: int, precision: int
) -> list[int]:
    """Pair totals of the first q + 1 points from those of the first q.

    Point q pairs with itself at g(0) = 0 and, g being even, with each
    earlier point twice: 2 * g(U) against each, O(q), as |U| (|U| - 2^w).
    """
    period = 1 << precision
    gs = []
    for col in columns:
        a = int(col[q])
        gs.append([u * (u - period) for u in [abs(a - x) for x in col[:q].tolist()]])
    out = [t + 2 * sum(g) for t, g in zip(totals, gs)]
    if len(gs) == 2:
        out.append(totals[2] + 2 * sum(u * v for u, v in zip(*gs)))
    return out


def reference_prefix_totals(pset: PointSet, counts: Sequence[int]) -> list[list[int]]:
    """The exact pair totals of each prefix pset[:n], counts rising
    (d <= 2), by the Python-int pass that ``measures._pair_totals`` ran
    before its array form: a count one more than the previous one extends
    its totals by one point (``_extend_totals``), any other recounts them
    from the prefix's stable orders, by the two closed forms for d = 1
    (``_square_pair_sum``, ``_abs_pair_sum``) and by ``_sweep_totals`` for
    d = 2.
    """
    w = pset.precision
    columns = pset.numerators.T
    orders = [np.argsort(col, kind="stable") for col in columns]
    totals = [0] * (2 * len(columns) - 1)
    out, done = [], 0
    for n in counts:
        if n == done + 1:
            totals = _extend_totals(totals, columns, done, w)
        else:
            picks = [order[order < n] for order in orders]
            if len(picks) == 1:
                xs = columns[0][picks[0]].tolist()
                totals = [_square_pair_sum(xs) - (1 << w) * _abs_pair_sum(xs)]
            else:
                by_x, by_y = picks
                rank = np.empty(n, dtype=np.intp)
                rank[by_y] = np.arange(n - 1, -1, -1)
                totals = _sweep_totals(
                    columns[0][by_x].tolist(), columns[1][by_x].tolist(),
                    rank[by_x].tolist(), w,
                )
        done = n
        out.append(totals)
    return out


def _square_square_pair_sum(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Sum of (x_i - x_k)^2 (y_i - y_k)^2 from centred moments.

    With X = N*x - sum(x) and Y likewise, the odd cross terms vanish and the
    sum is (2N m22 + 2 m20 m02 + 4 m11^2) / N^4, an exact division.
    """
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    cx = [n * x - sx for x in xs]
    cy = [n * y - sy for y in ys]
    m11 = sum(a * b for a, b in zip(cx, cy))
    m22 = sum((a * b) ** 2 for a, b in zip(cx, cy))
    m20 = sum(a * a for a in cx)
    m02 = sum(b * b for b in cy)
    return (2 * n * m22 + 2 * m20 * m02 + 4 * m11 * m11) // n**4


def _square_abs_pair_sum(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Sum of (x_i - x_k)^2 |y_i - y_k| over pairs listed in ascending y
    order: one pass with six running sums."""
    c0 = sy = sx = sxy = sx2 = sx2y = 0
    total = 0
    for x, y in zip(xs, ys):
        x2 = x * x
        total += x2 * (y * c0 - sy) - 2 * x * (y * sx - sxy) + y * sx2 - sx2y
        c0 += 1
        sy += y
        sx += x
        sxy += x * y
        sx2 += x2
        sx2y += x2 * y
    return 2 * total


def _abs_abs_pair_sum(
    xs: Sequence[int], ys: Sequence[int], ranks: Sequence[int], precision: int
) -> int:
    """Sum of |x_i - x_k| |y_i - y_k| as the signed sum minus twice the
    discordant pairs' share.

    The pairs are listed in ascending x order, and ``ranks`` holds each
    one's place in descending y order.  The discordant sum is a 2-D
    dominance sum: points enter in x order and a Fenwick tree over the y
    ranks holds four non-negative accumulators (count, sum x, sum y,
    sum xy), packed into one integer: the lower three fields hold at most
    N * (2^w - 1) < 2^width, so they never carry into each other, and
    sum xy sits on top.
    """
    n = len(xs)
    signed = 2 * (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys))
    width = precision + n.bit_length()
    field = (1 << width) - 1
    tree = [0] * (n + 1)
    discordant = 0
    for x, y, r in zip(xs, ys, ranks):
        # Earlier points (x_k <= x) with y_k >= y hold the ranks below r.
        acc = 0
        j = r
        while j:
            acc += tree[j]
            j &= j - 1
        if acc:
            cnt = acc & field
            sx = (acc >> width) & field
            sy = (acc >> 2 * width) & field
            sxy = acc >> 3 * width
            discordant += x * y * cnt - x * sy - y * sx + sxy
        packed = 1 | x << width | y << 2 * width | x * y << 3 * width
        j = r + 1
        while j <= n:
            tree[j] += packed
            j += j & -j
    return signed - 4 * discordant


def reference_pair_totals(pset: PointSet) -> list[int]:
    """[sum g(U1), sum g(U2), sum g(U1) g(U2)] over all ordered pairs of a
    d = 2 set, g(U) = U^2 - 2^w |U| on the numerators, by the helpers that
    the one sweep ``_sweep_totals`` replaced.

    Each coordinate's total comes from its first two moments and its
    rank-weighted sorted values; the product total from centred moments,
    two running-sum passes in y and in x order, and a Fenwick tree of four
    packed sums.  Ties give zero products, so any order of tied values is
    exact.
    """
    period = 1 << pset.precision
    by_x, by_y = (np.argsort(col, kind="stable") for col in pset.numerators.T)
    xs, ys = pset.numerators[by_x].T.tolist()
    xs_by_y, ys_by_y = pset.numerators[by_y].T.tolist()
    n = len(xs)
    totals = [
        2 * n * sum(v * v for v in own)
        - 2 * sum(own) ** 2
        - period * 2 * sum(v * (2 * r - n + 1) for r, v in enumerate(own))
        for own in (xs, ys_by_y)
    ]
    rank = np.empty(n, dtype=np.intp)
    rank[by_y] = np.arange(n - 1, -1, -1)
    totals.append(
        _square_square_pair_sum(xs, ys)
        - period * (_square_abs_pair_sum(xs_by_y, ys_by_y) + _square_abs_pair_sum(ys, xs))
        + period**2 * _abs_abs_pair_sum(xs, ys, rank[by_x].tolist(), pset.precision)
    )
    return totals


def reference_search(
    mats: list[BitMatrix],
    alpha: int,
    bound: int,
    node_cap: int,
    first_only: bool,
) -> tuple[int, tuple[tuple[int, int], ...] | None, int]:
    """Depth-first search over maximal selections of counted weight <= bound.

    The dict-based form of ``quality._search``, kept as its oracle: the
    same traversal, one ``echelon_insert`` and one node-cap check per row
    insertion.

    A dependency ends the search when ``first_only``; otherwise it lowers
    the bound to its weight - 1 and the search backtracks, each frame
    reading the bound as it starts.  Returns the final bound, the last
    dependent selection found (or None) and the number of row insertions.
    Raises :class:`_NodeCap` past ``node_cap`` insertions, and ValueError
    when the matrices have fewer than alpha*m rows: a selection may reach
    down to row alpha*m, and a row that is not there cannot be checked.
    """
    d = len(mats)
    depth_cap = alpha * mats[0].ncols
    if mats[0].nrows < depth_cap:
        raise ValueError(
            f"order {alpha} needs {depth_cap} rows for m = {mats[0].ncols}, "
            f"but the matrices have {mats[0].nrows}"
        )
    # rows[j][i] is row i (1-based) of matrix j.
    rows = [[0, *mat.row_masks[:depth_cap]] for mat in mats]
    pivots: dict[int, int] = {}
    chosen: list[tuple[int, int]] = []
    witness = None
    nodes = 0

    def insert(j: int, i: int, weight: int) -> int:
        """Add row i of matrix j to the basis; return its pivot, or -1."""
        nonlocal nodes, bound, witness
        nodes += 1
        if nodes > node_cap:
            raise _NodeCap
        chosen.append((j, i))
        lead = echelon_insert(pivots, rows[j][i])
        if lead < 0:
            witness = tuple(chosen)
            chosen.pop()
            if first_only:
                raise _Dependent
            bound = weight - 1
        return lead

    def undo(lead: int) -> None:
        del pivots[lead]
        chosen.pop()

    def next_coord(j: int, weight: int) -> None:
        if j < d and weight < bound:
            counted(j, 0, depth_cap, weight)

    def counted(j: int, depth: int, hi: int, weight: int) -> None:
        # Spend another counted slot first (heavier selections fail sooner).
        # The range reads the bound once: a dependency found under row i
        # weighs at least weight + i, so the lowered bound still admits i - 1.
        for i in range(min(hi, bound - weight), 0, -1):
            lead = insert(j, i, weight + i)
            if lead >= 0:
                if depth + 1 == alpha:
                    frees = []
                    for f in range(i - 1, 0, -1):
                        free = insert(j, f, weight + i)
                        if free < 0:
                            break
                        frees.append(free)
                    else:
                        next_coord(j + 1, weight + i)
                    for free in reversed(frees):
                        undo(free)
                else:
                    counted(j, depth + 1, i - 1, weight + i)
                undo(lead)
        next_coord(j + 1, weight)

    try:
        next_coord(0, 0)
    except _Dependent:
        pass
    return bound, witness, nodes


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
