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
moments over the numerators (Heinrich, Math. Comp. 65, 1996): closed
forms for d = 1, and for d = 2 one sweep in x order, in which u >= 0, so
that running moments give every part but those in |v|, and one Fenwick
tree over the y ranks the sums that split |v| by sign.  The squared
measure over its prefactor is then a polynomial in c, c*A for d = 1 and
c*A + c^2*B for d = 2, whose coefficients are exact non-negative rationals
rounded once, so the cancellation in T/N^2 - 1 never happens in floats.
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


def _recount_totals(
    columns: np.ndarray, orders: Sequence[np.ndarray], n: int, precision: int
) -> list[int]:
    """Pair totals of the first n points in O(N log N).

    Each coordinate's order over the first n points is filtered from the
    whole set's ``orders`` (one argsort per coordinate) in place of a sort.
    One coordinate takes its two closed forms, two take one sweep in x
    order (``_sweep_totals``).
    """
    picks = [order[order < n] for order in orders]
    if len(picks) == 1:
        xs = columns[0][picks[0]].tolist()
        return [_square_pair_sum(xs) - (1 << precision) * _abs_pair_sum(xs)]
    by_x, by_y = picks
    rank = np.empty(n, dtype=np.intp)
    rank[by_y] = np.arange(n - 1, -1, -1)
    return _sweep_totals(
        columns[0][by_x].tolist(),
        columns[1][by_x].tolist(),
        rank[by_x].tolist(),
        precision,
    )


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
    steps.  A recount (``_recount_totals``) holds a list of w-bit ints per
    coordinate and 8 bytes of index temporaries; at d = 2 also the rank
    array, the ranks as b-bit ints and the sweep's Fenwick tree of
    (9w + 6b)-bit packed sums.  An extension (``_extend_totals``) holds d
    lists of (2w + 1)-bit g values and one coordinate's list of w-bit
    differences.  64 KiB covers the objects whose count does not grow
    with N.
    """
    def entry(bits: int) -> int:
        return 8 + 24 + 4 * (bits // 30 + 1)

    d, w, b = dimension, precision, size.bit_length()
    recount = d * entry(w) + 8
    if d == 2:
        recount += 8 + entry(b) + entry(9 * w + 6 * b)
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
        need = _exact_kernel_bytes(pset.size, d, w)
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
