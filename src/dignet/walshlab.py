"""Walsh-function analysis of digital nets.

Dyadic Walsh characters, closed-form Walsh correlation coefficients for
the periodic-L2 Fourier weights, dual-net enumeration over Z2, and a
truncated Walsh-series evaluator for the squared periodic L2 discrepancy
of digital nets.  The series' double sum over the M dual members is not
taken pair by pair: rho(k, l) is nonzero only on four relations between
the bit structures of k and l, each a product f(k) g(l), so the sum splits
into grouped joins over the 4^d relation vectors, O(4^d M log M) at most,
accumulated as an exact rational and rounded once.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import BudgetError
from .gf2 import BitMatrix, nullspace_basis
from .measures import PERIODIC_L2, MeasureReport
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
    masks = [0] * gset.cols
    for j, mat in enumerate(gset.matrices):
        block = mat.submatrix(min(bound_bits, mat.nrows), mat.ncols).transpose()
        for r, column in enumerate(block.row_masks):
            masks[r] |= column << (j * bound_bits)
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
        combos.extend([c ^ vec for c in combos])
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


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """int.bit_length of each entry of a nonnegative int64 array below 2^53."""
    return np.frexp(values.astype(np.float64))[1].astype(np.int64)


def _relation_patterns(ks: np.ndarray) -> list[tuple]:
    """The relations on which rho(k, l) is nonzero at one coordinate, factored.

    Each is (c, row keys, row exponents, column keys, column exponents) over
    the members' indices ks: on the pairs whose row key of k equals the
    column key of l (-1 marks an index outside), it contributes
    c * 2^-(row exponent of k) * 2^-(column exponent of l).  In the notation
    of ``rho_coefficient``:

      EQ    k = l          2^(-2*a1 - 1), and 1 at k = 0
      TAIL  k' = l' > 0    3 * 2^(-a1 - 1) * 2^(-b1)
      DOWN  l = k'' > 0    -3 * 2^(-a1 - a2 - 1)
      UP    k = l'' > 0    -3 * 2^(-b1 - b2 - 1)

    TAIL also holds at k = l with k' > 0, where rho is 2^(1 - 2*a1); EQ
    carries that value minus TAIL's 3 * 2^(-2*a1 - 1) there, so the four
    terms add up to rho(k, l) for every pair.
    """
    a1 = _bit_lengths(ks)
    tail = np.where(ks > 0, ks - (1 << np.maximum(a1 - 1, 0)), 0)
    a2 = _bit_lengths(tail)
    tail2 = np.where(tail > 0, tail - (1 << np.maximum(a2 - 1, 0)), 0)
    zero = np.zeros_like(ks)
    tail_key = np.where(tail > 0, tail, -1)
    down_key, down_exp = np.where(tail2 > 0, tail2, -1), a1 + a2 + 1
    nonzero_key = np.where(ks > 0, ks, -1)
    return [
        (1, ks, np.where(ks > 0, 2 * a1 + 1, 0), ks, zero),
        (3, tail_key, a1 + 1, tail_key, a1),
        (-3, down_key, down_exp, nonzero_key, zero),
        (-3, nonzero_key, zero, down_key, down_exp),
    ]


def _key_sums(side: tuple, signs: np.ndarray) -> tuple[list[int], int]:
    """Sums of s * 2^-e per packed key, in key order, as ints over 2^-scale.

    The weights s * 2^(scale - e) are Python ints, so no sum can wrap.
    """
    ids, packed, exps = side
    _, groups = np.unique(packed, return_inverse=True)
    scale = int(exps.max())
    sums = np.zeros(int(groups.max()) + 1, dtype=object)
    np.add.at(sums, groups, signs[ids].astype(object) << (scale - exps).astype(object))
    return sums.tolist(), scale


def _relation_sum(coords: list[np.ndarray], signs: np.ndarray, bits: int) -> Fraction:
    """Exact sum over ordered member pairs (k, l) of prod_j rho(k_j, l_j) s_k s_l.

    The product of the coordinates' four-term sums (``_relation_patterns``)
    expands into one grouped join per vector of relations: the sum over
    packed keys of the row weights summed per key times the column weights
    summed per key.  A side of a join is (member ids, packed keys, exponent
    sums).  The vectors are walked coordinate by coordinate, dropping rows
    and columns whose key has no partner on the other side, so a relation
    prefix that no pair satisfies ends its branch.
    """
    relations = [_relation_patterns(ks) for ks in coords]

    def refine(side: tuple, keys: np.ndarray, exps: np.ndarray) -> tuple:
        ids, packed, total = side
        inside = keys[ids] >= 0
        ids = ids[inside]
        return ids, (packed[inside] << bits) | keys[ids], total[inside] + exps[ids]

    def join(j: int, const: int, rows: tuple, cols: tuple) -> Fraction:
        if j == len(relations):  # both sides now hold the same keys
            (rs, r_scale), (cs, c_scale) = _key_sums(rows, signs), _key_sums(cols, signs)
            pairs = sum(map(operator.mul, rs, cs))
            return Fraction(const * pairs, 1 << (r_scale + c_scale))
        total = Fraction(0)
        for c, row_keys, row_exps, col_keys, col_exps in relations[j]:
            r, k = refine(rows, row_keys, row_exps), refine(cols, col_keys, col_exps)
            r_kept, k_kept = np.isin(r[1], k[1]), np.isin(k[1], r[1])
            if r_kept.any():
                rows_in = tuple(a[r_kept] for a in r)
                cols_in = tuple(a[k_kept] for a in k)
                total += join(j + 1, const * c, rows_in, cols_in)
        return total

    everyone = np.arange(len(coords[0]))
    start = (everyone, everyone * 0, everyone * 0)
    return join(0, 1, start, start)


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
    signs of sigma at both index vectors.  Per coordinate rho(k, l) is
    nonzero on four key relations only (k = l, k' = l', l = k'', k = l''),
    each a product f(k) g(l); the double sum is therefore a signed sum of
    grouped joins over the 4^d relation vectors, at most O(4^d M log M)
    for M members, and the branches that no pair reaches are skipped.
    Every term is +-3^c * 2^-e, so the sum is an exact rational and the
    result is rounded once: the value is exact over the enumerated members.
    The report's truncation metadata carries the member count and a crude
    tail estimate: the sum of 2^(-mu(k) - mu(l)), mu the summed bit lengths
    of an index vector, over enumerated pairs whose combined weight exceeds
    the cap level, bound_bits plus the smallest nonzero member weight,
    scaled by the prefactor.
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

    signs = np.ones(count, dtype=np.int64)
    if shift is not None:
        for ks, numerator in zip(coords, shift.numerators):
            signs *= _member_shift_signs(ks, numerator, shift.precision)

    total = _relation_sum(coords, signs, bound_bits)
    squared = float(Fraction(1, 3**d) * (total - 1))

    prefactor = PERIODIC_L2.prefactor(d)
    mus = np.sum([_bit_lengths(ks) for ks in coords], axis=0)
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
    """Walsh signs wal_k(sigma_j), +1 or -1, for indices at one coordinate.

    Digit i of k pairs with digit i + 1 of sigma_j, which is bit i of the
    numerator reversed over its precision; digits of k beyond the precision
    pair with zeros.
    """
    if precision > 64:
        raise ValueError(f"shift precision {precision} exceeds 64")
    mask = np.uint64(reverse_bits(numerator, precision))
    return 1 - 2 * (np.bitwise_count(ks.astype(np.uint64) & mask) & 1).astype(np.int64)
