"""Walsh-function analysis of digital nets.

Dyadic Walsh characters, the bit-length weight mu, closed-form Walsh
correlation coefficients for the periodic-L2 Fourier weights, dual-net
enumeration over Z2, and a truncated Walsh-series evaluator for the
squared periodic L2 discrepancy of digital nets.  The series' double sum
over dual members runs through the pair engine of ``measures``, the one
that also serves the d >= 3 kernel and the Fourier oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError
from .gf2 import BitMatrix, nullspace_basis, rank
from .measures import PERIODIC_L2, MeasureReport, _pair_sum
from .niederreiter import GeneratingMatrixSet
from .sequence import DyadicPoint


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


def mu(k: int) -> int:
    """Bit-length weight: position of the most significant one bit.

    mu(0) = 0 and mu(k) = floor(log2 k) + 1 for k >= 1.  Extended to
    index vectors by summation; governs the decay of the Walsh
    correlation coefficients.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    return k.bit_length()


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


def _pairing_signs(values: np.ndarray, mask: int) -> np.ndarray:
    """1 - 2 * parity(popcount(values & mask)) as floats: +1 or -1 each."""
    parity = np.bitwise_count(values & np.uint64(mask)) & np.uint64(1)
    return 1.0 - 2.0 * parity.astype(np.float64)


def walsh_signs(k: int, numerators: np.ndarray, precision: int) -> np.ndarray:
    """Vectorized walsh_eval for one index against many numerators."""
    width = max(precision, k.bit_length())
    if width > 64:
        raise ValueError("combined digit width exceeds 64")
    nums = np.asarray(numerators, dtype=np.uint64) << np.uint64(width - precision)
    return _pairing_signs(nums, reverse_bits(k, width))


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


def _rho_array(k: np.ndarray, l: np.ndarray) -> np.ndarray:
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
    return _rho_array(idx[:, None], idx[None, :])


MAX_DUAL_BITS = 24


def _stacked_transpose(gset: GeneratingMatrixSet, bound_bits: int) -> BitMatrix:
    """Stack the transposed generating matrices column blocks side by side.

    The resulting m x (d * bound_bits) system maps packed digit vectors
    (bound_bits digits per coordinate) to the XOR of the transposed
    matrix images; its nullspace is the truncated dual net.  Digit a of
    coordinate j sits at column j * bound_bits + a - 1.  Matrix rows
    beyond the physical row count contribute nothing, so those digits
    are free.
    """
    m = gset.cols
    masks = []
    for r in range(m):
        mask = 0
        for j, mat in enumerate(gset.matrices):
            base = j * bound_bits
            for a in range(min(bound_bits, len(mat.row_masks))):
                if (mat.row_masks[a] >> r) & 1:
                    mask |= 1 << (base + a)
        masks.append(mask)
    return BitMatrix(masks, gset.dimension * bound_bits)


def _dual_member_coords(
    gset: GeneratingMatrixSet, bound_bits: int, max_members: int
) -> list[np.ndarray]:
    """Members of the truncated dual net as one int64 index array per coordinate."""
    d = gset.dimension
    total_bits = d * bound_bits
    if bound_bits < 1:
        raise ValueError("bound_bits must be positive")
    if total_bits > MAX_DUAL_BITS:
        raise BudgetError(
            f"dual-net enumeration over {total_bits} digit positions "
            f"exceeds the limit of {MAX_DUAL_BITS}"
        )
    stacked = _stacked_transpose(gset, bound_bits)
    basis = nullspace_basis(stacked)
    if 1 << len(basis) > max_members:
        raise BudgetError(
            f"dual net has 2^{len(basis)} members within the bound, "
            f"more than the cap of {max_members}"
        )
    combos = [0]
    for vec in basis:
        combos.extend([c ^ vec.bits for c in combos])
    combos.sort()
    box_mask = (1 << bound_bits) - 1
    return [
        np.array([(c >> (j * bound_bits)) & box_mask for c in combos], dtype=np.int64)
        for j in range(d)
    ]


def dual_net_members(
    gset: GeneratingMatrixSet,
    bound_bits: int | None = None,
    *,
    max_members: int = 8192,
) -> list[tuple[int, ...]]:
    """All index vectors below 2**bound_bits annihilated by the net.

    A vector (k_1, ..., k_d) is a member when the XOR over coordinates
    of the transposed generating matrix applied to the digit vector of
    k_j is zero.  Digits beyond the matrices' row count are
    unconstrained.  `bound_bits` defaults to the row count.  Raises
    BudgetError when the enumeration would exceed MAX_DUAL_BITS digit
    positions or `max_members` members.
    """
    if bound_bits is None:
        bound_bits = gset.rows
    coords = _dual_member_coords(gset, bound_bits, max_members)
    return sorted(zip(*(c.tolist() for c in coords)))


def dual_rank(gset: GeneratingMatrixSet, bound_bits: int) -> int:
    """Rank of the stacked transposed system at the given digit bound."""
    return rank(_stacked_transpose(gset, bound_bits))


# Rows of dual members per block of the Walsh series' pair sum.
_WALSH_BLOCK = 512


def walsh_series_l2(
    gset: GeneratingMatrixSet,
    *,
    bound_bits: int | None = None,
    shift: DyadicPoint | None = None,
    max_members: int = 8192,
) -> MeasureReport:
    """Squared periodic L2 discrepancy of a digital net by Walsh series.

    Evaluates the truncated double sum of rho over the dual net
    (excluding the zero vector), scaled by the weight-scheme prefactor.
    With a digital shift sigma, every term is multiplied by the Walsh
    signs of sigma at both index vectors.  rho is symmetric and the signs
    square to 1, so the double sum is the diagonal plus twice the pairs
    k < l, which the pair engine of ``measures`` sums; every term is an
    exact dyadic times a power of 3, so only the sums round.  The report's
    truncation metadata carries the member count and a crude tail
    estimate: the sum of 2^(-mu(k) - mu(l)) over enumerated pairs whose
    combined weight exceeds the cap level, bound_bits plus the smallest
    nonzero member weight, scaled by the prefactor.
    """
    if bound_bits is None:
        bound_bits = gset.rows
    d = gset.dimension
    if shift is not None and len(shift.numerators) != d:
        raise ValueError(
            f"shift has {len(shift.numerators)} coordinates, net has {d}"
        )
    coords = _dual_member_coords(gset, bound_bits, max_members)
    count = len(coords[0])

    signs = None
    if shift is not None:
        signs = np.ones(count, dtype=np.float64)
        for ks, numerator in zip(coords, shift.numerators):
            signs *= _member_shift_signs(ks, numerator, shift.precision)

    def block_terms(rows: slice, cols: slice) -> list[np.ndarray]:
        prod = _rho_array(coords[0][rows, None], coords[0][None, cols])
        for ks in coords[1:]:
            prod *= _rho_array(ks[rows, None], ks[None, cols])
        if signs is not None:
            prod *= signs[rows, None] * signs[None, cols]
        return [prod]

    diagonal = np.prod([_rho_array(ks, ks) for ks in coords], axis=0)
    upper = _pair_sum(count, block_terms, _WALSH_BLOCK, 1)[0]
    total = math.fsum(diagonal.tolist()) + 2.0 * upper

    prefactor = PERIODIC_L2.prefactor(d)
    squared = prefactor * (total - 1.0)

    mus = np.sum([np.frexp(ks.astype(np.float64))[1] for ks in coords], axis=0)
    nonzero = mus[mus > 0]
    cap_level = bound_bits + (int(nonzero.min()) if nonzero.size else 0)
    weights = np.ldexp(1.0, -mus)
    order = np.argsort(mus, kind="stable")
    mus_sorted = mus[order]
    prefix = np.concatenate(([0.0], np.cumsum(weights[order])))
    below_idx = np.searchsorted(mus_sorted, cap_level - mus, side="right")
    pair_mass_below = float(np.dot(weights, prefix[below_idx]))
    total_mass = float(weights.sum())
    tail_estimate = prefactor * max(total_mass * total_mass - pair_mass_below, 0.0)

    return MeasureReport(
        measure="periodic-l2",
        method="walsh",
        value=math.sqrt(max(squared, 0.0)),
        squared=squared,
        size=1 << gset.cols,
        dimension=d,
        truncation={
            "bound_bits": bound_bits,
            "cap_level": cap_level,
            "tail_estimate": tail_estimate,
            "members": count,
        },
        generator=gset.describe(),
    )


def _member_shift_signs(ks: np.ndarray, numerator: int, precision: int) -> np.ndarray:
    """Walsh signs wal_k(sigma_j) for an array of indices at one coordinate.

    Digit i of k pairs with digit i + 1 of sigma_j, which is bit i of the
    numerator reversed over its precision; digits of k beyond the precision
    pair with zeros.
    """
    if precision > 64:
        raise ValueError(f"shift precision {precision} exceeds 64")
    return _pairing_signs(ks.astype(np.uint64), reverse_bits(numerator, precision))
