"""Periodic L2 discrepancy and diaphony of dyadic point sets.

Both measures are quadratic forms in exponential sums with per-frequency
weights.  Summing the weighted Fourier series per coordinate collapses the
series into the closed-form pairwise kernel factor

    K1(x, y) = 1 + c * B2({x - y})

with c = 3 for the periodic L2 discrepancy and c = 2*pi^2 for diaphony,
where B2(t) = t^2 - t + 1/6.  The closed form is a derivation this package
owns; the test suite gates it against the truncated exponential-sum
evaluator (``fourier_truncated``), which is kept free of kernel shortcuts.

The kernel pair sum is exact for d <= 2 and takes O(N log N): with
u = x - y, B2({u}) = u^2 - |u| + 1/6, so the pair sums reduce to sums of
moments over the numerators (Heinrich, Math. Comp. 65, 1996).  With
g(U) = U^2 - W|U| on numerators at W = 2^w, a coordinate's total sum g
comes from its moments and its values weighted by rank, and the d = 2
product total is Q - W(R + S) + W^2 V, where Q = sum U1^2 U2^2 comes from
moments, R = sum U1^2 |U2| and S = sum |U1| U2^2 from prefix sums in y and
in x order, and V = sum |U1| |U2| from prefix sums and one dominance pass,
a wavelet-tree build over the bits of the x ranks that counts and sums
the earlier points in y order with a smaller x rank.  The passes are
numpy arrays: each sum is taken modulo 2^64 by int64 wrap-around and
modulo primes small enough that no int64 sum overflows, as many as its
bound needs, and the residues are joined by the Chinese remainder
theorem.  The squared measure over its prefactor is then a polynomial in
c, c*A for d = 1 and c*A + c^2*B for d = 2, whose coefficients are exact
non-negative rationals rounded once, so the cancellation in T/N^2 - 1
never happens in floats.
The prefixes of one set share one pass (``prefix_kernel_measures``): each
coordinate is sorted once for all of them, and a count one more than the
previous one (2^m after 2^m - 1) extends the previous pair totals by its
new point in O(N).

The four kernel entry points differ only in the schemes and counts they
pass to one report path, ``_kernel_reports``: it checks the counts and the
exact pass's memory budget and yields one ``MeasureReport`` per scheme and
count, from the exact coefficients (d <= 2) or the float engine (d >= 3).

The other pairwise sums, the d >= 3 kernel and the Fourier oracle, run
through one float engine, ``_pair_sum``, on one fixed grid of ``_STRIP``-row
strips.  A strip callable supplies the summands; the engine sums them over
pairs n < p once (every caller's summand is symmetric in the pair and each
adds its own diagonal) and accumulates with math.fsum over per-row partial
sums, so results do not depend on ``threads``, which only the d >= 3 kernel
uses.  That kernel's summands are products over the coordinates of
1 + c/6 + c*t(t - 1), t the exact coordinate difference mod 1, with t(t - 1)
formed once per coordinate for all schemes.  The Fourier oracle shares no
summand code with it: its pair factors are Gram products of per-point
cosine and sine features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import check_budget
from .sequence import PointSet

__all__ = [
    "MeasureReport",
    "WeightScheme",
    "PERIODIC_L2",
    "DIAPHONY",
    "periodic_l2",
    "diaphony",
    "both_kernel_measures",
    "prefix_kernel_measures",
    "fourier_truncated",
]


@dataclass(frozen=True)
class WeightScheme:
    """Frequency weights of one measure.

    ``kernel_coeff`` is the constant c in the collapsed kernel factor
    1 + c*B2, ``prefactor_base`` the per-dimension global scale (the full
    prefactor is prefactor_base**d).
    """

    name: str
    kernel_coeff: float
    prefactor_base: float

    def prefactor(self, dimension: int) -> float:
        return self.prefactor_base**dimension

    def inverse_weight_sq(self, freqs: np.ndarray) -> np.ndarray:
        """1 / weight(h)^2 for an integer frequency array."""
        h = np.asarray(freqs, dtype=np.float64)
        out = np.ones_like(h)
        nz = h != 0.0
        if self.name == "periodic-l2":
            # r(h) = 2*pi*|h|/sqrt(6) for h != 0
            out[nz] = 6.0 / (4.0 * math.pi**2 * h[nz] ** 2)
        else:
            # rho factor max(1, |h|)
            out[nz] = 1.0 / h[nz] ** 2
        return out


PERIODIC_L2 = WeightScheme("periodic-l2", 3.0, 1.0 / 3.0)
DIAPHONY = WeightScheme("diaphony", 2.0 * math.pi**2, 1.0)


@dataclass(slots=True)
class MeasureReport:
    """Result of one measure evaluation."""

    measure: str
    method: str
    value: float
    squared: float
    size: int
    dimension: int
    truncation: dict | None = None
    generator: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure,
            "method": self.method,
            "value": self.value,
            "squared": self.squared,
            "N": self.size,
            "d": self.dimension,
            "truncation": self.truncation,
            "generator": self.generator,
        }


# The pair engine's one tiling: each strip callable call gets this many rows
# (fewer in the last strip) and the columns from the strip's first row on.
# It bounds the d >= 3 kernel's temporaries to O(_STRIP * N) per worker.  It
# also fixes the Fourier oracle's Gram shapes: BLAS results can depend on a
# call's shape and an entry's place in it, and on this grid each Gram entry
# comes from the one GEMM of its strip.
_STRIP = 64


def _pair_sum(
    count: int,
    strip_terms: Callable[[slice, slice], Sequence[np.ndarray]],
    threads: int,
) -> list[float]:
    """Sum over pairs n < p < count of each summand array of ``strip_terms``.

    The rows are cut into strips of ``_STRIP``; ``strip_terms(rows, cols)``
    gets one strip and the columns from its first row on, and returns one
    (rows, cols) array per sum, its entry [a, b] the summand of pair
    (rows.start + a, cols.start + b).  Each row sums its own strictly upper
    part in column order, and ``threads`` workers share the strips, so the
    fsum-ed totals do not depend on ``threads``.
    """

    def run_strip(i0: int) -> list[list[float]]:
        i1 = min(i0 + _STRIP, count)
        terms = strip_terms(slice(i0, i1), slice(i0, count))
        return [[term[a, a + 1 :].sum() for a in range(i1 - i0)] for term in terms]

    starts = range(0, count, _STRIP)
    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            strip_rows = list(pool.map(run_strip, starts))
    else:
        strip_rows = [run_strip(i0) for i0 in starts]
    return [
        math.fsum(row for rows in term_rows for row in rows)
        for term_rows in zip(*strip_rows)
    ]


def _float_kernel_squared(
    numerators: np.ndarray,
    precision: int,
    schemes: Sequence[WeightScheme],
    threads: int,
) -> list[float]:
    """Squared kernel measures of the (N, d) numerator rows from the float
    O(N^2 d) pair engine.

    Each scheme's summand is prod_j (1 + c/6 + c*q_j) with q_j = t(t - 1)
    and t = {x_j - y_j} taken exactly as numerators mod 2^precision.
    """
    n, d = numerators.shape
    columns = np.ascontiguousarray(numerators.T)
    mask = np.uint64((1 << precision) - 1)
    scale = 2.0**-precision
    factors = [(1.0 + s.kernel_coeff / 6.0, s.kernel_coeff) for s in schemes]

    def strip_terms(rows: slice, cols: slice) -> list[np.ndarray]:
        prods: list[np.ndarray] = []
        for col in columns:
            diff = (col[rows, None] - col[None, cols]) & mask
            t = diff.astype(np.float64) * scale
            q = t * (t - 1.0)
            if not prods:
                prods = [base + c * q for base, c in factors]
            else:
                for prod, (base, c) in zip(prods, factors):
                    prod *= base + c * q
        return prods

    upper_sums = _pair_sum(n, strip_terms, threads)
    return [
        s.prefactor(d) * ((n * base**d + 2.0 * upper) / (n * n) - 1.0)
        for s, (base, _), upper in zip(schemes, factors, upper_sums)
    ]


# ---------------------------------------------------------------------------
# Exact pair sums for d <= 2.  With integer numerators x, y at precision w
# and U = x - y, B2({U / 2^w}) = 1/6 + g(U) / 4^w where
# g(U) = U^2 - 2^w * |U|.  Every total below runs over all N^2 ordered pairs
# and is an exact integer, although its parts are numpy passes: each sum of
# products is taken modulo 2^64, which int64 arithmetic gives by wrapping,
# and modulo primes small enough that no int64 sum of the passes overflows
# (``_moduli``); ``_crt`` joins the residues.  A sum gets only the moduli
# that its bound needs.  The sums that need an order take their points
# already in it; ties give zero products in each of them, so any order of
# tied values is exact.
# ---------------------------------------------------------------------------

_WRAP = 1 << 64


def _is_prime(m: int) -> bool:
    """Miller-Rabin with the bases 2, 7 and 61: exact for odd 61 < m < 4.7e9."""
    d, s = m - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, m)
        if x == 1:
            continue
        for _ in range(s):
            if x == m - 1:
                break
            x = x * x % m
        else:
            return False
    return True


def _moduli(size: int, bits: int) -> list[int]:
    """2^64, then the largest primes below 2^L until the product of the
    moduli reaches 2^bits, b being the bit length of ``size``.

    L = min((63 - b) // 2, 61 - 2b) keeps each int64 sum of a pass over
    up to ``size`` points exact modulo a prime: a sum of products of two
    residues stays below 2^(b + 2L) <= 2^63, and a sum of products of a
    residue and a count of magnitude at most 4 * size below
    2^(2b + 2 + L) <= 2^63.
    """
    b = size.bit_length()
    cand = 1 + (1 << min((63 - b) // 2, 61 - 2 * b))
    out = [_WRAP]
    while _count(out, bits) is None:
        cand -= 2
        if cand < 64:
            raise ValueError(f"the primes below 2^L cannot cover {bits} bits at N={size}")
        if _is_prime(cand):
            out.append(cand)
    return out


def _count(moduli: Sequence[int], bits: int) -> int | None:
    """How many leading moduli it takes for their product to reach 2^bits,
    None if all of them fall short.  A pass's moduli reach the largest
    bound of its sums, so every sum of the pass finds its count."""
    prod = 1
    for k, m in enumerate(moduli, 1):
        prod *= m
        if prod >> bits:
            return k
    return None


def _crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """The integer of least magnitude with the given residues modulo the
    leading moduli, built digit by digit in mixed radix (Garner)."""
    total, prod = 0, 1
    for r, m in zip(residues, moduli):
        total += prod * ((r - total) * pow(prod, -1, m) % m)
        prod *= m
    return total - prod if 2 * total > prod else total


def _mod(a: np.ndarray, m: int) -> np.ndarray:
    """An integer array reduced modulo m; int64 arithmetic already wraps
    modulo 2^64, so uint64 values keep their bits there and are viewed as
    int64 residues by the caller."""
    return a if m == _WRAP else a % m


def _before(a: np.ndarray, m: int) -> np.ndarray:
    """Each entry's sum of the entries before it, modulo m."""
    out = np.cumsum(a)
    out -= a
    return _mod(out, m)


def _line_residue(n: int, sum1: int, sum2: int, ramped: int, period: int) -> int:
    """Residue of sum g(U) over all ordered pairs of n values, from their
    sum, their sum of squares and ``ramped``, the sum over ascending values
    of v_r * (2r - n + 1): sum U^2 = 2n*sum2 - 2*sum1^2, and
    sum |U| = 2*ramped."""
    return 2 * n * sum2 - 2 * sum1 * sum1 - 2 * period * ramped


def _dominance(ranks: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """For each point j of a sequence, the count of the earlier points
    k < j with ranks[k] < ranks[j], and the sum of their values as its low
    and high 32-bit halves: exact int64 sums below 2^31 points.

    ``ranks`` is a permutation of range(n).  A top-down stable partition
    over the bits of the ranks (a wavelet-tree build) finds them: before
    the level of bit t the sequence is ordered by ranks >> (t + 1) and
    otherwise as given, so the places [h*2^(t+1), (h+1)*2^(t+1)) hold the
    points of node h.  A point whose bit t is 1 gains the zeros that
    precede it in its node; they are exactly its earlier points whose rank
    agrees with its own above bit t and is below it at bit t, so each pair
    counts at the one level where the two ranks part.  The node's zeros
    then move ahead of its ones, each side keeping its order.  After the
    last level each point sits at its rank.
    """
    n = len(ranks)
    places = np.arange(n)
    cols = [ranks, (values & np.uint64(0xFFFFFFFF)).view(np.int64),
            (values >> np.uint64(32)).view(np.int64), *np.zeros((3, n), np.int64)]
    for t in reversed(range((n - 1).bit_length())):
        half = 1 << t
        ones = (cols[0] & half).astype(bool)
        zeros = ~ones
        start = places & -2 * half
        for k in range(3):
            part = zeros * cols[k] if k else zeros
            before = np.cumsum(part)
            before -= part
            before -= before[start]
            if k:
                before *= ones
                cols[3 + k] += before
            else:
                zeros_before = before
                cols[3] += before * ones
        # Zeros keep their order from the node's start, ones follow its
        # half zeros (a node with ones holds all of them).
        del part, before
        place = places - start
        place += half
        place -= 2 * zeros_before
        place *= ones
        place += start
        place += zeros_before
        del ones, zeros, start, zeros_before
        order = np.empty(n, np.int64)
        order[place] = places
        del place
        for k in range(6):
            cols[k] = cols[k][order]
    return [col[ranks] for col in cols[3:]]


def _line_total(xs: np.ndarray, precision: int, moduli: Sequence[int]) -> int:
    """sum g(U) over all ordered pairs of the ascending values xs."""
    n = len(xs)
    ramp = 2 * np.arange(n) - n + 1
    residues = []
    for m in moduli[: _count(moduli, 2 * precision + 2 * n.bit_length() + 2)]:
        x = _mod(xs, m).view(np.int64)
        residues.append(_line_residue(
            n, int(x.sum()), int(_mod(x * x, m).sum()), int((x * ramp).sum()), 1 << precision
        ))
    return _crt(residues, moduli)


def _plane_totals(
    columns: np.ndarray, orders: Sequence[np.ndarray], n: int, precision: int,
    moduli: Sequence[int],
) -> list[int]:
    """[sum g(U1), sum g(U2), sum g(U1) g(U2)] of the first n points, in
    the stable orders by x and by y filtered from the set's ``orders``.

    With W = 2^w, sum g(U1) g(U2) = Q - W (R + S) + W^2 V for the sums
    over ordered pairs Q = U1^2 U2^2, R = U1^2 |U2|, S = |U1| U2^2 and
    V = |U1| |U2|.  Q comes from the moments M_ab = sum x^a y^b.  R is
    twice the sum over pairs k < j in y order of (x_j - x_k)^2 (y_j - y_k),
    which the sums of (x_j - x_k)^2 over k < j and over k > j give:
    R/2 = sum_j y_j ((2j - n) x_j^2 - 4 x_j X_j + 2 Z_j) + 2 M10 M11 - M20 M01,
    X_j and Z_j the sums of x and x^2 over k < j; S likewise in x order.
    With L_j = sum over k < j of |x_j - x_k| and A_j the same over all k,
    V/2 = sum_j y_j (2 L_j - A_j).  L_j = x_j (2 c_j - j) + X_j - 2 s_j comes
    from the one 2-D step, ``_dominance``: c_j and s_j are the count and
    the sum of x of the points k < j whose x rank r_k is below r_j.  With
    X'_r the sum of x over the x ranks below r,
    A_j = x_j (2 r_j - n) + M10 - 2 X'_(r_j), so that
    2 L_j - A_j = x_j (4 c_j - 2 r_j - (2j - n)) + 2 X_j - 4 s_j - M10
    + 2 X'_(r_j).  T, V, R + S and Q get the moduli of their bounds
    n^2 W^2, n^2 W^3 and n^2 W^4, with 2 bits for the sign.
    """
    by_x, by_y = (order[order < n] for order in orders)
    period, b = 1 << precision, n.bit_length()
    two, three, four = (_count(moduli, k * precision + 2 * b + 2) for k in (2, 3, 4))
    x, y = (col[by_y] for col in columns)
    at = np.empty(n, np.int64)
    at[by_y] = np.arange(n)
    to_y = at[by_x]
    at[by_x] = np.arange(n)
    rank = at[by_y]
    del by_x, by_y, at
    ramp = 2 * np.arange(n) - n
    coeff = -2 * rank
    coeff -= ramp
    count, low, high = _dominance(rank, x)
    del rank
    coeff += 4 * count
    del count
    sums: list[list[int]] = [[], [], [], [], []]  # T1, T2, V, R + S, Q
    for i, m in enumerate(moduli[:four]):
        X, Y = (_mod(col, m).view(np.int64) for col in (x, y))
        X2, Y2, XY = _mod(X * X, m), _mod(Y * Y, m), _mod(X * Y, m)
        m10, m01, m20, m02, m11 = (int(a.sum()) for a in (X, Y, X2, Y2, XY))
        sums[4].append(2 * n * int((X2 * Y2).sum()) - 4 * int((X2 * Y).sum()) * m01
                       - 4 * int((X * Y2).sum()) * m10 + 2 * m20 * m02 + 4 * m11 * m11)
        if i >= three:
            continue
        xs = _before(X, m)
        r = (int((ramp * _mod(X2 * Y, m)).sum()) - 4 * int((XY * xs).sum())
             + 2 * int((Y * _before(X2, m)).sum()) + 2 * m10 * m11 - m20 * m01)
        del X2
        Xo, Yo = X[to_y], Y[to_y]
        s = (int((ramp * _mod(Xo * Y2[to_y], m)).sum())
             - 4 * int((XY[to_y] * _before(Yo, m)).sum())
             + 2 * int((Xo * _before(Y2[to_y], m)).sum()) + 2 * m01 * m11 - m02 * m10)
        del Y2
        sums[3].append(2 * (r + s))
        if i >= two:
            continue
        v = (int((coeff * XY).sum()) + 2 * int((Y * xs).sum())
             - 4 * (int((Y * _mod(high, m)).sum()) << 32) - 4 * int((Y * _mod(low, m)).sum())
             - m10 * m01 + 2 * int((Yo * _before(Xo, m)).sum()))
        sums[2].append(2 * v)
        sums[1].append(_line_residue(n, m01, m02, int((Y * (ramp + 1)).sum()), period))
        sums[0].append(_line_residue(n, m10, m20, int((Xo * (ramp + 1)).sum()), period))
    t1, t2, v, rs, q = (_crt(residues, moduli) for residues in sums)
    return [t1, t2, q - period * rs + period * period * v]


def _recount_totals(
    columns: np.ndarray, orders: Sequence[np.ndarray], n: int, precision: int,
    moduli: Sequence[int],
) -> list[int]:
    """Pair totals of the first n points in O(N log N).

    Each coordinate's order over the first n points is filtered from the
    whole set's ``orders`` (one argsort per coordinate) in place of a sort.
    One coordinate takes ``_line_total``, two ``_plane_totals``.
    """
    if len(orders) == 1:
        return [_line_total(columns[0][orders[0][orders[0] < n]], precision, moduli)]
    return _plane_totals(columns, orders, n, precision, moduli)


def _extend_totals(
    totals: Sequence[int], columns: np.ndarray, q: int, precision: int,
    moduli: Sequence[int],
) -> list[int]:
    """Pair totals of the first q + 1 points from those of the first q.

    Point q pairs with itself at g(0) = 0 and, g being even, with each
    earlier point twice: 2 * g(U) against each, O(q), as |U| (|U| - 2^w).
    Each sum of g gets the moduli of its bound q W^2, the sum of products
    those of q W^4.
    """
    period, b = 1 << precision, q.bit_length()
    need = [_count(moduli, k * precision + b + 2) for k in (2, 4)[: len(columns)]]
    gaps = [np.maximum(col[:q], col[q]) - np.minimum(col[:q], col[q]) for col in columns]
    sums: list[list[int]] = [[] for _ in totals]
    for i, m in enumerate(moduli[: need[-1]]):
        # 2^w modulo m as an int64: its signed form modulo 2^64.
        shift = period % m - (period % m >> 63 << 64)
        gs = [_mod(u * (u - shift), m) for u in (_mod(gap, m).view(np.int64) for gap in gaps)]
        if i < need[0]:
            for out, g in zip(sums, gs):
                out.append(int(g.sum()))
        if len(gs) == 2:
            sums[2].append(int((gs[0] * gs[1]).sum()))
    return [t + 2 * _crt(s, moduli) for t, s in zip(totals, sums)]


def _pair_totals(pset: PointSet, counts: Sequence[int]) -> Iterator[list[int]]:
    """Exact pair totals of each prefix pset[:n], counts rising (d <= 2).

    The totals are sum g(U_j) for each coordinate j and, for d = 2, then
    sum g(U_1) g(U_2).  A count one more than the previous one extends that
    count's totals by one point (``_extend_totals``); any other count
    recomputes them (``_recount_totals``) from one argsort per coordinate
    of the whole set, made once per pass, as are the moduli.
    """
    w = pset.precision
    columns = pset.numerators.T
    orders = [np.argsort(col, kind="stable") for col in columns]
    moduli = _moduli(pset.size, 2 * len(columns) * w + 2 * pset.size.bit_length() + 2)
    totals = [0] * (2 * len(columns) - 1)
    done = 0
    for n in counts:
        if n == done + 1:
            totals = _extend_totals(totals, columns, done, w, moduli)
        else:
            totals = _recount_totals(columns, orders, n, w, moduli)
        done = n
        yield totals


def _exact_kernel_bytes(size: int, dimension: int) -> int:
    """Upper bound on the bytes the exact d <= 2 pass holds at once for N points.

    Every array the pass makes has at most N entries of 8 bytes or fewer,
    so the bound counts arrays.  Held through the pass: the d argsort
    orders; each prefix is a row view of the set's numerators and not a
    copy.  A d = 1 recount (``_line_total``) holds 5 more: the values, the
    ramp of rank weights and, per modulus, the residues, their squares and
    those reduced.  A d = 2 recount peaks in a level of ``_dominance``
    at 19 and two one-byte masks: the values in y order, the x ranks, the
    map to x order, the ramp and the coefficients of V; the places, six
    columns and the last order; the node starts, the zeros before each
    point, one weighted column, its sums and their gather at the node
    starts.  An extension (``_extend_totals``) holds fewer: d gaps, and per
    modulus d residues, d values of g and two products.  The bound allows
    one array more at d = 1 and two at d = 2, and 64 KiB for the objects
    whose count does not grow with N.
    """
    arrays = 21 if dimension == 2 else 6
    return size * 8 * (dimension + arrays) + (64 << 10)


def _kernel_coefficients(
    pset: PointSet, counts: Sequence[int]
) -> Iterator[list[Fraction]]:
    """Exact coefficients of c^k, k = 1..d, in T/N^2 - 1 for each prefix
    pset[:n], counts rising (d <= 2).

    T is the kernel pair sum over all ordered pairs, so the coefficient of
    c^k is the mean over pairs of the sum, over k-subsets of coordinates, of
    the product of B2({x_j - y_j}).  Each is non-negative, being a sum of
    squared exponential sums with positive weights.  With B2 = 1/6 + g/4^w
    per coordinate, the first is d/6 plus the mean of g(U_1) + ... over
    4^w, and at d = 2 the second is 1/36 + (first - 1/3)/6 plus the mean of
    g(U_1) g(U_2) over 16^w.
    """
    d = pset.dimension
    unit = 1 << 2 * pset.precision

    def coefficients(n: int, totals: list[int]) -> list[Fraction]:
        first = Fraction(d, 6) + Fraction(sum(totals[:d]), unit * n * n)
        second = (first / 6 - Fraction(1, 36) + Fraction(t, unit * unit * n * n)
                  for t in totals[d:])
        return [first, *second]

    return map(coefficients, counts, _pair_totals(pset, counts))


def _report(
    pset: PointSet,
    scheme: WeightScheme,
    method: str,
    squared: float,
    size: int,
    truncation: dict | None = None,
) -> MeasureReport:
    """The report of the prefix pset[:size]."""
    return MeasureReport(
        measure=scheme.name,
        method=method,
        value=math.sqrt(max(squared, 0.0)),
        squared=squared,
        size=size,
        dimension=pset.dimension,
        truncation=truncation,
        generator=pset.provenance or None,
    )


def _kernel_reports(
    pset: PointSet,
    schemes: Sequence[WeightScheme],
    counts: Sequence[int],
    threads: int,
) -> Iterator[tuple[MeasureReport, ...]]:
    """The kernel report of each scheme for each prefix pset[:n]: one exact
    pass (``_kernel_coefficients``) for d <= 2, and for d >= 3 the float
    engine on each prefix's row view."""
    counts = list(counts)
    if any(a >= b for a, b in zip([0, *counts], counts)) or (
        counts and counts[-1] > pset.size
    ):
        raise ValueError(
            f"counts must rise strictly within [1, {pset.size}], got {counts}"
        )
    d, w = pset.dimension, pset.precision
    if d <= 2:
        need = _exact_kernel_bytes(pset.size, d)
        check_budget(need, f"the exact kernel at N={pset.size}, d={d}, w={w} "
                           f"needs about {need} bytes")
        exact = _kernel_coefficients(pset, counts)

        # A count's values live in its own call, so that none is held
        # through the next count's recount.
        def squared(n: int) -> list[float]:
            coeffs = [float(a) for a in next(exact)]
            return [
                s.prefactor(d)
                * sum(a * s.kernel_coeff ** (k + 1) for k, a in enumerate(coeffs))
                for s in schemes
            ]
    else:

        def squared(n: int) -> list[float]:
            return _float_kernel_squared(pset.numerators[:n], w, schemes, threads)

    for n in counts:
        yield tuple(
            _report(pset, s, "kernel", sq, n) for s, sq in zip(schemes, squared(n))
        )


def periodic_l2(pset: PointSet, *, threads: int = 1) -> MeasureReport:
    """Periodic L2 discrepancy via the closed-form pairwise kernel."""
    return next(_kernel_reports(pset, [PERIODIC_L2], [pset.size], threads))[0]


def diaphony(pset: PointSet, *, threads: int = 1) -> MeasureReport:
    """Diaphony via the closed-form pairwise kernel."""
    return next(_kernel_reports(pset, [DIAPHONY], [pset.size], threads))[0]


def both_kernel_measures(
    pset: PointSet, *, threads: int = 1
) -> tuple[MeasureReport, MeasureReport]:
    """Periodic L2 discrepancy and diaphony in one pass over the pairs."""
    return next(_kernel_reports(pset, (PERIODIC_L2, DIAPHONY), [pset.size], threads))


def prefix_kernel_measures(
    pset: PointSet, counts: Sequence[int], *, threads: int = 1
) -> Iterator[tuple[MeasureReport, MeasureReport]]:
    """Periodic L2 discrepancy and diaphony of each prefix pset[:n].

    ``counts`` must rise strictly within [1, N].  The reports come one
    count at a time, so a caller can time each, and each pair is == to
    ``both_kernel_measures`` of that prefix.  For d <= 2 the prefixes share
    one exact pass: each coordinate is sorted once, and a count one more
    than the previous one extends that prefix's pair totals by its new
    point in O(N) instead of recomputing them in O(N log N); a set whose
    bound ``_exact_kernel_bytes`` exceeds ``errors.BUDGET_BYTES`` is refused
    with ``BudgetError`` before the pass.  For d >= 3 each prefix runs the
    float engine.
    """
    return _kernel_reports(pset, (PERIODIC_L2, DIAPHONY), counts, threads)


def _fourier_bytes(size: int, dimension: int, trunc: int) -> int:
    """Upper bound on the bytes ``fourier_truncated`` allocates at once.

    The d feature matrices, one coordinate's phase and angle scratch while
    they are built, and one strip's factor product plus its strip Gram.
    """
    features = 8 * size * 2 * trunc
    return dimension * features + features + 2 * 8 * _STRIP * size


def _fourier_features(
    column: np.ndarray, hs: np.ndarray, scale: np.ndarray, precision: int
) -> np.ndarray:
    """(N, 2H) rows scale * (cos, sin)(2*pi*h*x_n) for one coordinate.

    The phase h * x_n mod 2^precision is reduced exactly in integers: uint64
    products wrap mod 2^64, which 2^precision divides, so masking the low
    bits gives the residue and only the final angle is rounded.
    """
    mask = np.uint64((1 << precision) - 1)
    phases = (column[:, None] * hs[None, :]) & mask
    angles = phases.astype(np.float64)
    angles *= 2.0 * math.pi * 2.0**-precision
    trunc = hs.size
    out = np.empty((column.size, 2 * trunc))
    np.cos(angles, out=out[:, :trunc])
    np.sin(angles, out=out[:, trunc:])
    out *= np.tile(scale, 2)
    return out


def fourier_truncated(
    pset: PointSet, scheme: WeightScheme, trunc: int
) -> MeasureReport:
    """Truncated frequency-sum evaluator, the measures' independent oracle.

    Evaluates the defining sum over h in {-trunc..trunc}^d minus the origin,
    reorganized over point pairs: the weighted exponential sums collapse to
    the truncated cosine kernel 1 + sum_h 2*w(h)*cos(2*pi*h*(x - y)) per
    coordinate, an exact finite reordering, not the closed form.  With
    cos(a - b) = cos a cos b + sin a sin b each coordinate's kernel is
    1 + F[n] . F[p] for a feature matrix F whose row n holds
    sqrt(2*w(h)) * (cos, sin)(2*pi*h*x_n), h = 1..trunc.  Each phase
    h*x_n mod 2^w is reduced exactly in integers before one rounding to an
    angle.

    ``truncation`` holds H = trunc and ``tail_bound``, a rigorous bound
    0 <= exact^2 - fourier^2 <= tail_bound on what the truncation drops.
    The squared measure is prefactor * sum over h != 0 of W(h)*|S(h)/N|^2,
    W(h) = prod_j w(h_j) with w(0) = 1 and w(h) = kappa/h^2 otherwise, and
    every dropped term lies in [0, prefactor * W(h)] because |S(h)| <= N.
    Per coordinate the weights sum to A = 1 + 2*sum_{h>=1} w(h) = 1 + c/6,
    and those with |h| <= H to A - tau, tau = 2*kappa*sum_{h>H} h^-2, so
    the dropped weights sum to A^d - (A - tau)^d <= d * A^(d-1) * tau.  As
    1/h^2 is below its integral over [h - 1/2, h + 1/2], sum_{h>H} h^-2 <
    1/(H + 1/2), and the bound uses 1/H: tail_bound = prefactor * d *
    A^(d-1) * 2*kappa/H.  Taking 1/H leaves a relative margin of 1/(2H);
    the formula's float operations, pi and the two powers included, err by
    at most a few dozen units of 2^-53 relative, which cannot use it up
    while H < 2^45, and the memory budget keeps H below 2^26.

    Cost: O(N*trunc*d) cosines and sines plus O(N^2*trunc*d) BLAS flops, one
    GEMM per strip of the pair engine's grid and coordinate.  The engine
    runs on one worker, since the GEMMs already use the BLAS threads.
    Memory: the features' N*2*trunc*d*8 bytes plus one strip's (_STRIP, N)
    product and Gram.  A request whose bound (``_fourier_bytes``) exceeds
    ``errors.BUDGET_BYTES`` (1 GiB) is refused with ``BudgetError`` before
    anything is allocated.
    """
    if trunc < 1:
        raise ValueError(f"truncation bound must be >= 1, got {trunc}")
    n = pset.size
    d = pset.dimension
    need = _fourier_bytes(n, d, trunc)
    check_budget(need, f"the Fourier oracle at N={n}, d={d}, trunc={trunc} "
                       f"needs about {need} bytes")
    hs = np.arange(1, trunc + 1, dtype=np.uint64)
    weights = scheme.inverse_weight_sq(hs)
    k_zero = 1.0 + 2.0 * float(weights.sum())
    scale = np.sqrt(2.0 * weights)
    features = [
        _fourier_features(col, hs, scale, pset.precision)
        for col in pset.numerators.T
    ]

    def strip_terms(rows: slice, cols: slice) -> list[np.ndarray]:
        prod = None
        for feats in features:
            gram = feats[rows] @ feats[cols].T
            gram += 1.0
            if prod is None:
                prod = gram
            else:
                prod *= gram
        return [prod]

    upper = _pair_sum(n, strip_terms, 1)[0]
    total = n * k_zero**d + 2.0 * upper
    squared = scheme.prefactor(d) * (total / (n * n) - 1.0)
    kappa = float(scheme.inverse_weight_sq(np.ones(1))[0])
    full = 1.0 + scheme.kernel_coeff / 6.0
    tail_bound = scheme.prefactor(d) * d * full ** (d - 1) * 2.0 * kappa / trunc
    return _report(pset, scheme, "fourier", squared, n,
                   truncation={"H": trunc, "tail_bound": tail_bound})
