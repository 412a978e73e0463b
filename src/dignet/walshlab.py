"""Walsh-series evaluation of the squared periodic L2 discrepancy of digital nets.

The series sums rho(k, l), the Walsh correlation coefficients of the
periodic-L2 Fourier weights, over ordered pairs of members of the dual net
below a digit bound; the members come from a nullspace over Z2.  The double
sum over the M members is not taken pair by pair: rho(k, l) is nonzero only
on four relations between the bit structures of k and l, each a product
f(k) g(l), so the sum splits into grouped joins over the 4^d relation
vectors, O(4^d M log M) at most, accumulated as an exact rational and
rounded once.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import BudgetError, check_budget
from .gf2 import BitMatrix, nullspace_basis
from .measures import PERIODIC_L2, MeasureReport
from .niederreiter import GeneratingMatrixSet


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


def _walsh_bytes(members: int, dimension: int) -> int:
    """Upper bound on the bytes ``walsh_series_l2`` holds at once for M members.

    Per member and coordinate, 170 bytes: the int64 member index and the
    eight int64 arrays of ``_relation_patterns`` (72), and one level of the
    join in ``_relation_sum``: a refined row side and column side of three
    int64 arrays each, their kept subsets and two bool masks (98).
    Per member once, 280 bytes: the join's start side (24) and the deepest
    level's scratch (256).  Of that scratch at most 180 bytes are traced:
    the leaf keeps the row side of ``_key_sums`` as a list of Python ints
    below 2^97 (48) while it builds the column side's unique, inverse and
    object arrays (132), and np.isin's sort scratch elsewhere is at most 80.
    64 more cover the sort buffers and hash sets that numpy allocates
    outside Python's tracer.  The enumeration before the sum and the tail
    estimate after it hold less.  64 KiB covers the objects whose count
    does not grow with M.
    """
    return members * (170 * dimension + 280) + (64 << 10)


def _dual_member_coords(gset: GeneratingMatrixSet, bound_bits: int) -> list[np.ndarray]:
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
    need = _walsh_bytes(1 << len(basis), d)
    check_budget(need, f"the Walsh series over 2^{len(basis)} dual-net members "
                       f"at d={d} needs about {need} bytes")
    combos = [0]
    for vec in basis:
        combos.extend([c ^ vec for c in combos])
    combos.sort()
    box_mask = (1 << bound_bits) - 1
    return [
        np.array([(c >> (j * bound_bits)) & box_mask for c in combos], dtype=np.int64)
        for j in range(d)
    ]


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """int.bit_length of each entry of a nonnegative int64 array below 2^53."""
    return np.frexp(values.astype(np.float64))[1].astype(np.int64)


def _relation_patterns(ks: np.ndarray) -> list[tuple]:
    """The relations on which rho(k, l) is nonzero at one coordinate, factored.

    Each is (c, row keys, row exponents, column keys, column exponents) over
    the members' indices ks: on the pairs whose row key of k equals the
    column key of l (-1 marks an index outside), it contributes
    c * 2^-(row exponent of k) * 2^-(column exponent of l).  Here a1 > a2
    are the two leading one-bit positions of k (1-based), k' = k - 2^(a1-1)
    and k'' = k' - 2^(a2-1), and b1, b2, l', l'' likewise for l:

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


def _key_sums(side: tuple) -> tuple[list[int], int]:
    """Sums of 2^-e per packed key, in key order, as ints over 2^-scale.

    The weights 2^(scale - e) are Python ints, so no sum can wrap.
    """
    _, packed, exps = side
    _, groups = np.unique(packed, return_inverse=True)
    scale = int(exps.max())
    sums = np.zeros(int(groups.max()) + 1, dtype=object)
    np.add.at(sums, groups, 1 << (scale - exps).astype(object))
    return sums.tolist(), scale


def _relation_sum(coords: list[np.ndarray], bits: int) -> Fraction:
    """Exact sum over ordered member pairs (k, l) of prod_j rho(k_j, l_j).

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
            (rs, r_scale), (cs, c_scale) = _key_sums(rows), _key_sums(cols)
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
) -> MeasureReport:
    """Squared periodic L2 discrepancy of a digital net by Walsh series.

    Evaluates the truncated double sum of rho over the dual net
    (excluding the zero vector), scaled by the weight-scheme prefactor.
    Per coordinate rho(k, l) is nonzero on four key relations only (k = l,
    k' = l', l = k'', k = l''; see ``_relation_patterns``), each a product
    f(k) g(l); the double sum is therefore a signed sum of grouped joins
    over the 4^d relation vectors, at most O(4^d M log M) for M members,
    and the branches that no pair reaches are skipped.
    Every term is +-3^c * 2^-e, so the sum is an exact rational and the
    result is rounded once: the value is exact over the enumerated members.
    The report's truncation metadata carries the member count and a crude
    tail estimate: the sum of 2^(-mu(k) - mu(l)), mu the summed bit lengths
    of an index vector, over enumerated pairs whose combined weight exceeds
    the cap level, bound_bits plus the smallest nonzero member weight,
    scaled by the prefactor.
    The member count M = 2^rank is known from the nullspace basis; when its
    bound ``_walsh_bytes`` exceeds ``errors.BUDGET_BYTES`` (1 GiB) the
    request is refused with ``BudgetError`` before any member is enumerated.
    """
    if bound_bits is None:
        bound_bits = gset.rows
    d = gset.dimension
    coords = _dual_member_coords(gset, bound_bits)
    count = len(coords[0])
    total = _relation_sum(coords, bound_bits)
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

