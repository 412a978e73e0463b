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
u = x - y, B2({u}) = u^2 - |u| + 1/6, so the pair sums reduce to integer
moments, sorted running sums and one Fenwick tree over the numerators
(Heinrich, Math. Comp. 65, 1996).  The squared measure over its prefactor
is then a polynomial in c, c*A for d = 1 and c*A + c^2*B for d = 2, whose
coefficients are exact non-negative rationals rounded once, so the
cancellation in T/N^2 - 1 never happens in floats.  The prefixes of one set
share one pass (``prefix_kernel_measures``): each coordinate is sorted once
for all of them, and a count one more than the previous one (2^m after
2^m - 1) extends the previous pair totals by its new point in O(N).

The other pairwise sums, the d >= 3 kernel and the Fourier oracle, run
through one float engine, ``_pair_sum``, on one fixed grid of ``_STRIP``-row
strips.  A strip callable supplies the summands; the engine sums them over
pairs n < p once (every caller's summand is symmetric in the pair and each
adds its own diagonal) and accumulates with math.fsum over per-row partial
sums, so results do not depend on ``threads``, which only the d >= 3 kernel
uses.  That kernel's summands come from the coordinate differences
(``_difference_factors``).  The Fourier oracle shares no summand code with
it: its pair factors are Gram products of per-point cosine and sine
features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BUDGET_BYTES, BudgetError
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


@dataclass
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


def _difference_factors(
    numerators: np.ndarray,
    precision: int,
    factor_fns: Sequence[Callable[[np.ndarray], np.ndarray]],
) -> Callable[[slice, slice], list[np.ndarray]]:
    """Strip callable of prod_j fn(t_j), one array per factor function, where
    t_j = {x_j - y_j} is taken exactly as numerators mod 2^precision."""
    columns = np.ascontiguousarray(numerators.T)
    mask = np.uint64((1 << precision) - 1)
    scale = 2.0**-precision

    def strip_terms(rows: slice, cols: slice) -> list[np.ndarray]:
        prods: list[np.ndarray] = []
        for col in columns:
            diff = (col[rows, None] - col[None, cols]) & mask
            t = diff.astype(np.float64) * scale
            if not prods:
                prods = [fn(t) for fn in factor_fns]
            else:
                for prod, fn in zip(prods, factor_fns):
                    prod *= fn(t)
        return prods

    return strip_terms


def _float_kernel_squared(
    numerators: np.ndarray,
    precision: int,
    schemes: Sequence[WeightScheme],
    threads: int,
) -> list[float]:
    """Squared kernel measures of the (N, d) numerator rows from the float
    O(N^2 d) pair engine."""
    n, d = numerators.shape

    def make_factor(coeff: float) -> Callable[[np.ndarray], np.ndarray]:
        base = 1.0 + coeff / 6.0

        def factor(t: np.ndarray) -> np.ndarray:
            return base + coeff * (t * (t - 1.0))

        return factor

    fns = [make_factor(s.kernel_coeff) for s in schemes]
    upper_sums = _pair_sum(n, _difference_factors(numerators, precision, fns), threads)
    out = []
    for scheme, upper in zip(schemes, upper_sums):
        diag = n * (1.0 + scheme.kernel_coeff / 6.0) ** d
        total = diag + 2.0 * upper
        out.append(scheme.prefactor(d) * (total / (n * n) - 1.0))
    return out


# ---------------------------------------------------------------------------
# Exact pair sums for d <= 2.  With integer numerators x, y at precision w
# and U = x - y, B2({U / 2^w}) = 1/6 + g(U) / 4^w where
# g(U) = U^2 - 2^w * |U|.  Every sum below runs over all N^2 ordered pairs
# and is an exact Python integer.  The sums that need an order take their
# points already in it; ties give zero products in each of them, so any
# order of tied values is exact.
# ---------------------------------------------------------------------------


def _square_pair_sum(xs: Sequence[int]) -> int:
    """Sum of (x_i - x_k)^2 from the first two moments."""
    return 2 * len(xs) * sum(x * x for x in xs) - 2 * sum(xs) ** 2


def _abs_pair_sum(xs: Sequence[int]) -> int:
    """Sum of |x_i - x_k| over ascending xs: each value weighted by its rank."""
    n = len(xs)
    return 2 * sum(x * (2 * r - n + 1) for r, x in enumerate(xs))


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


def _recount_totals(
    columns: np.ndarray, orders: Sequence[np.ndarray], n: int, precision: int
) -> list[int]:
    """Pair totals of the first n points in O(N log N).

    Each coordinate's order over the first n points is filtered from the
    whole set's ``orders`` (one argsort per coordinate) in place of a sort.
    """
    period = 1 << precision
    picks = [order[order < n] for order in orders]
    own = [col[pick].tolist() for col, pick in zip(columns, picks)]
    totals = [_square_pair_sum(xs) - period * _abs_pair_sum(xs) for xs in own]
    if len(own) == 2:
        (by_x, by_y), (xs, ys) = picks, own
        ys_by_x = columns[1][by_x].tolist()
        xs_by_y = columns[0][by_y].tolist()
        rank = np.empty(n, dtype=np.intp)
        rank[by_y] = np.arange(n - 1, -1, -1)
        totals.append(
            _square_square_pair_sum(xs, ys_by_x)
            - period
            * (_square_abs_pair_sum(xs_by_y, ys) + _square_abs_pair_sum(ys_by_x, xs))
            + period**2 * _abs_abs_pair_sum(xs, ys_by_x, rank[by_x].tolist(), precision)
        )
    return totals


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


def _pair_totals(pset: PointSet, counts: Sequence[int]) -> Iterator[list[int]]:
    """Exact pair totals of each prefix pset[:n], counts rising (d <= 2).

    The totals are sum g(U_j) for each coordinate j and, for d = 2, then
    sum g(U_1) g(U_2).  A count one more than the previous one extends that
    count's totals by one point (``_extend_totals``); any other count
    recomputes them (``_recount_totals``) from one argsort per coordinate
    of the whole set, made once per pass.
    """
    w = pset.precision
    columns = pset.numerators.T
    orders = [np.argsort(col, kind="stable") for col in columns]
    totals = [0] * (2 * len(columns) - 1)
    done = 0
    for n in counts:
        if n == done + 1:
            totals = _extend_totals(totals, columns, done, w)
        else:
            totals = _recount_totals(columns, orders, n, w)
        done = n
        yield totals


def _exact_kernel_bytes(size: int, dimension: int, precision: int) -> int:
    """Upper bound on the bytes the exact d <= 2 pass holds at once for N points.

    A list entry holding an int below 2^k takes 8 + 24 + 4 * (k // 30 + 1)
    bytes (CPython's 30-bit digits); b is the bit length of N.  Per point,
    held through the pass, 32 * d: the argsort orders and their picks take
    16 * d of it, and the rest is margin, since each prefix is a row view
    of the set's numerators and not a copy.  Then the larger of two
    steps.  A recount (``_recount_totals``) holds a list of
    w-bit ints per coordinate and 8 bytes of index temporaries; at d = 2
    also two more such lists, the rank array, and the larger of its two
    phases: the centred moments, two (w + b + 1)-bit lists, or the ranks
    as b-bit ints with the Fenwick tree of (5w + 4b)-bit packed sums.  An
    extension (``_extend_totals``) holds d lists of (2w + 1)-bit g values
    and one coordinate's list of w-bit differences.  64 KiB covers the
    objects whose count does not grow with N.
    """
    def entry(bits: int) -> int:
        return 8 + 24 + 4 * (bits // 30 + 1)

    d, w, b = dimension, precision, size.bit_length()
    recount = d * entry(w) + 8
    if d == 2:
        recount += 2 * entry(w) + 8 + max(
            2 * entry(w + b + 1), entry(b) + entry(5 * w + 4 * b)
        )
    extend = d * entry(2 * w + 1) + entry(w)
    return size * (32 * d + max(recount, extend)) + (64 << 10)


def _kernel_coefficients(
    pset: PointSet, counts: Sequence[int]
) -> Iterator[list[Fraction]]:
    """Exact coefficients of c^k, k = 1..d, in T/N^2 - 1 for each prefix
    pset[:n], counts rising (d <= 2).

    T is the kernel pair sum over all ordered pairs, so the coefficient of
    c^k is the mean over pairs of the sum, over k-subsets of coordinates, of
    the product of B2({x_j - y_j}).  Each is non-negative, being a sum of
    squared exponential sums with positive weights.
    """
    d = pset.dimension
    period = 1 << pset.precision
    for n, totals in zip(counts, _pair_totals(pset, counts)):
        pairs = n * n
        g = sum(totals[:d])
        first = Fraction(d, 6) + Fraction(g, period**2 * pairs)
        if d < 2:
            yield [first]
            continue
        second = Fraction(
            period**4 * pairs + 6 * period**2 * g + 36 * totals[2],
            36 * period**4 * pairs,
        )
        yield [first, second]


def _prefix_kernel_squared(
    pset: PointSet,
    schemes: Sequence[WeightScheme],
    counts: Sequence[int],
    threads: int,
) -> Iterator[list[float]]:
    """The squared kernel measures of each prefix pset[:n]: exact pair sums
    for d <= 2, the float engine on each prefix's row view above."""
    counts = list(counts)
    if any(a >= b for a, b in zip([0, *counts], counts)) or (
        counts and counts[-1] > pset.size
    ):
        raise ValueError(
            f"counts must rise strictly within [1, {pset.size}], got {counts}"
        )
    d = pset.dimension
    exact = None
    if d <= 2:
        need = _exact_kernel_bytes(pset.size, d, pset.precision)
        if need > BUDGET_BYTES:
            raise BudgetError(
                f"the exact kernel at N={pset.size}, d={d}, w={pset.precision} "
                f"needs about {need} bytes, over its budget of {BUDGET_BYTES}"
            )
        exact = _kernel_coefficients(pset, counts)
    for n in counts:
        if exact is None:
            yield _float_kernel_squared(
                pset.numerators[:n], pset.precision, schemes, threads
            )
            continue
        coeffs = [float(a) for a in next(exact)]
        out = []
        for scheme in schemes:
            c = scheme.kernel_coeff
            poly = sum(a * c ** (k + 1) for k, a in enumerate(coeffs))
            out.append(scheme.prefactor(d) * poly)
        yield out


def _kernel_squared(
    pset: PointSet, schemes: Sequence[WeightScheme], threads: int
) -> list[float]:
    """Squared kernel measures of the whole set: the one-count pass."""
    return next(_prefix_kernel_squared(pset, schemes, [pset.size], threads))


def _report(
    pset: PointSet,
    scheme: WeightScheme,
    method: str,
    squared: float,
    *,
    size: int | None = None,
    truncation: dict | None = None,
) -> MeasureReport:
    """The report of pset, or of its prefix pset[:size] when size is given."""
    return MeasureReport(
        measure=scheme.name,
        method=method,
        value=math.sqrt(max(squared, 0.0)),
        squared=squared,
        size=pset.size if size is None else size,
        dimension=pset.dimension,
        truncation=truncation,
        generator=pset.provenance or None,
    )


def periodic_l2(pset: PointSet, *, threads: int = 1) -> MeasureReport:
    """Periodic L2 discrepancy via the closed-form pairwise kernel."""
    squared = _kernel_squared(pset, [PERIODIC_L2], threads)[0]
    return _report(pset, PERIODIC_L2, "kernel", squared)


def diaphony(pset: PointSet, *, threads: int = 1) -> MeasureReport:
    """Diaphony via the closed-form pairwise kernel."""
    squared = _kernel_squared(pset, [DIAPHONY], threads)[0]
    return _report(pset, DIAPHONY, "kernel", squared)


def both_kernel_measures(
    pset: PointSet, *, threads: int = 1
) -> tuple[MeasureReport, MeasureReport]:
    """Periodic L2 discrepancy and diaphony in one pass over the pairs."""
    return next(prefix_kernel_measures(pset, [pset.size], threads=threads))


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
    schemes = (PERIODIC_L2, DIAPHONY)
    for n, (sq_l2, sq_dia) in zip(
        counts, _prefix_kernel_squared(pset, schemes, counts, threads)
    ):
        yield (
            _report(pset, PERIODIC_L2, "kernel", sq_l2, size=n),
            _report(pset, DIAPHONY, "kernel", sq_dia, size=n),
        )


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
    if need > BUDGET_BYTES:
        raise BudgetError(
            f"the Fourier oracle at N={n}, d={d}, trunc={trunc} needs about "
            f"{need} bytes, over its budget of {BUDGET_BYTES}"
        )
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
    return _report(pset, scheme, "fourier", squared, truncation={"H": trunc})
