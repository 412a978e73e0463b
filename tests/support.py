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
the oracles of the one-search ``minimal_t``, and the dict-based search as
the oracle of the list-indexed one that ``minimal_t`` runs.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

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
