from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dignet.cli import construct_matrices, study_rows
from dignet.errors import BUDGET_BYTES, BudgetError, PrecisionError
from dignet.interlace import interlace_matrices
from dignet.measures import (
    DIAPHONY,
    PERIODIC_L2,
    _STRIP,
    MeasureReport,
    WeightScheme,
    _exact_kernel_bytes,
    _float_kernel_squared,
    _fourier_bytes,
    _kernel_coefficients,
    _pair_totals,
    both_kernel_measures,
    diaphony,
    fourier_truncated,
    periodic_l2,
    prefix_kernel_measures,
)
from dignet.niederreiter import build_matrices
from dignet.sequence import PointSet, generate_points
from support import (
    fourier_pairwise_squared,
    pset_from_tuples,
    reference_pair_totals,
    traced_peak,
    values,
)

# ---------------------------------------------------------------------------
# Independent oracle: literal sum over the frequency box, one h vector at a
# time, straight from the definitions.  Slow but with no shared code paths.
# ---------------------------------------------------------------------------


def _inv_weight_sq(scheme: WeightScheme, h: int) -> float:
    if h == 0:
        return 1.0
    if scheme.name == "periodic-l2":
        return 6.0 / (4.0 * math.pi**2 * h * h)
    return 1.0 / (h * h)


def _direct_box_squared(pset: PointSet, scheme: WeightScheme, bound: int) -> float:
    coords = values(pset)
    n = len(coords)
    d = len(coords[0])
    total = 0.0
    for hvec in itertools.product(range(-bound, bound + 1), repeat=d):
        if all(h == 0 for h in hvec):
            continue
        expsum = sum(
            cmath.exp(2j * math.pi * sum(h * x for h, x in zip(hvec, pt)))
            for pt in coords
        )
        wsq = 1.0
        for h in hvec:
            wsq *= _inv_weight_sq(scheme, h)
        total += wsq * abs(expsum / n) ** 2
    return scheme.prefactor(d) * total


def _fraction_coefficients(pset: PointSet) -> list[Fraction]:
    """Coefficients of c^k, k = 1..d, in T/N^2 - 1 by an exact pair loop.

    T sums prod_j (1 + c*B2({x_j - y_j})) over all ordered pairs, with
    every difference taken mod 1 as a Fraction; expanding the product makes
    the coefficient of c^k the k-th elementary symmetric sum of the B2
    values, averaged over pairs.
    """
    period = 1 << pset.precision
    d = pset.dimension
    totals = [Fraction(0)] * (d + 1)
    rows = pset.numerators.tolist()
    for p in rows:
        for q in rows:
            elem = [Fraction(1)] + [Fraction(0)] * d
            for a, b in zip(p, q):
                t = Fraction((a - b) % period, period)
                b2 = t * t - t + Fraction(1, 6)
                for k in range(d, 0, -1):
                    elem[k] += elem[k - 1] * b2
            totals = [s + e for s, e in zip(totals, elem)]
    return [s / pset.size**2 for s in totals[1:]]


def _random_pset(rng: random.Random, n: int, d: int, w: int) -> PointSet:
    rows = [tuple(rng.getrandbits(w) for _ in range(d)) for _ in range(n)]
    return pset_from_tuples(rows, w, provenance="random")


def _torus_shift(pset: PointSet, offsets: tuple[int, ...]) -> PointSet:
    w = pset.precision
    period = 1 << w
    rows = [
        tuple((v + o) % period for v, o in zip(row, offsets))
        for row in pset.numerators.tolist()
    ]
    return pset_from_tuples(rows, w, provenance=pset.provenance)


# ---------------------------------------------------------------------------
# Exact small kernel values.
# ---------------------------------------------------------------------------


def test_periodic_l2_single_point():
    rng = random.Random(41)
    for _ in range(5):
        pset = _random_pset(rng, 1, 1, 8)
        rep = periodic_l2(pset)
        assert rep.value == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)
        assert rep.squared == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_periodic_l2_two_point_example():
    pset = pset_from_tuples([(0,), (1,)], 1)
    assert periodic_l2(pset).value == pytest.approx(1.0 / math.sqrt(24.0), rel=1e-12)


def test_diaphony_single_point():
    pset = pset_from_tuples([(3,)], 4)
    assert diaphony(pset).value == pytest.approx(math.pi / math.sqrt(3.0), rel=1e-12)


def test_diaphony_two_point_example():
    pset = pset_from_tuples([(0,), (1,)], 1)
    assert diaphony(pset).value == pytest.approx(math.pi / math.sqrt(12.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Exact pair sums (d <= 2) against the Fraction pair-loop oracle.
# ---------------------------------------------------------------------------

_TOP = (1 << 64) - 1

_EXACT_CASES = {
    "one-point-d1": ([(5,)], 4),
    "one-point-d2": ([(5, 9)], 4),
    "two-point-d1": ([(0,), (1,)], 1),
    "two-point-d2": ([(0, 3), (2, 1)], 2),
    "duplicates-d1": ([(3,), (3,), (7,), (3,)], 3),
    "duplicates-d2": ([(3, 5), (3, 5), (6, 1), (3, 5), (6, 1)], 3),
    "ties-in-x-only": ([(4, 1), (4, 6), (4, 3), (0, 7), (4, 0)], 3),
    "ties-in-y-only": ([(1, 4), (6, 4), (3, 4), (7, 0), (0, 4)], 3),
    "precision-64-d1": ([(_TOP,), (_TOP - 1,), (0,), (1 << 63,)], 64),
    "precision-64-d2": (
        [(_TOP, _TOP - 1), (_TOP - 1, _TOP), (0, _TOP), (_TOP, 1), (_TOP, _TOP)],
        64,
    ),
}


@pytest.mark.parametrize("case", sorted(_EXACT_CASES))
def test_exact_coefficients_equal_fraction_oracle(case):
    rows, w = _EXACT_CASES[case]
    pset = pset_from_tuples(rows, w)
    got = next(_kernel_coefficients(pset, [pset.size]))
    assert all(isinstance(a, Fraction) for a in got)
    want = _fraction_coefficients(pset)
    assert got == want
    assert all(a >= 0 for a in got)
    # Periodic L2: c = 3 and prefactor 3^-d are rational, so the squared
    # value is exact; the reported float may only differ by rounding.
    exact = sum(a * 3 ** (k + 1) for k, a in enumerate(want))
    exact /= Fraction(3) ** pset.dimension
    assert periodic_l2(pset).squared == pytest.approx(float(exact), rel=4e-16, abs=0)


@st.composite
def _dyadic_sets(draw):
    d = draw(st.integers(1, 2))
    w = draw(st.integers(1, 64))
    coord = st.integers(0, (1 << w) - 1)
    rows = draw(
        st.lists(st.tuples(*[coord] * d), min_size=1, max_size=9)
    )
    return pset_from_tuples(rows, w)


@settings(max_examples=150, deadline=None)
@given(_dyadic_sets())
def test_exact_coefficients_property(pset):
    assert next(_kernel_coefficients(pset, [pset.size])) == _fraction_coefficients(pset)


@st.composite
def _tied_prefix_sets(draw):
    """A d <= 2 set of 2..300 points whose coordinates repeat: every value
    comes from a pool of at most 12 per coordinate, the ends included."""
    d = draw(st.integers(1, 2))
    w = draw(st.sampled_from([1, 8, 36, 52, 63, 64]))
    n = draw(st.integers(2, 300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = (1 << w) - 1
    pools = [
        [0, top] + [rng.getrandbits(w) for _ in range(rng.randint(0, 10))]
        for _ in range(d)
    ]
    rows = [tuple(rng.choice(pool) for pool in pools) for _ in range(n)]
    return pset_from_tuples(rows, w)


@settings(max_examples=60, deadline=None)
@given(_tied_prefix_sets())
def test_extended_pair_totals_equal_recount(pset):
    n = pset.size
    recount = next(_pair_totals(pset, [n]))
    assert list(_pair_totals(pset, [n - 1, n]))[1] == recount
    # Every count extends the one before it, from the empty set on.
    assert list(_pair_totals(pset, range(1, n + 1)))[-1] == recount


@st.composite
def _tied_plane_sets(draw):
    """A d = 2 set of 1..300 points whose coordinates repeat, as in
    ``_tied_prefix_sets``, and rising counts no two of them consecutive,
    so that every count past 1 is a recount."""
    w = draw(st.sampled_from([1, 2, 3, 5, 36, 52, 63, 64]))
    n = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = (1 << w) - 1
    pools = [
        [0, top] + [rng.getrandbits(w) for _ in range(rng.randint(0, 10))]
        for _ in range(2)
    ]
    rows = [tuple(rng.choice(pool) for pool in pools) for _ in range(n)]
    counts = []
    for c in sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=5))):
        if not counts or c > counts[-1] + 1:
            counts.append(c)
    return pset_from_tuples(rows, w), counts


@settings(max_examples=80, deadline=None)
@given(_tied_plane_sets())
def test_sweep_totals_equal_reference(case):
    pset, counts = case
    for n, totals in zip(counts, _pair_totals(pset, counts)):
        prefix = PointSet(pset.numerators[:n], pset.precision)
        assert totals == reference_pair_totals(prefix), n


def test_sweep_totals_equal_reference_on_a_net():
    # A 2^13-point net at w = 26 and its first 5,000 points: Fenwick paths
    # of full length, and packed sums of 13 and 14-bit counts.
    pset = generate_points(construct_matrices(2, 2, 13), 1 << 13)
    counts = [5000, pset.size]
    for n, totals in zip(counts, _pair_totals(pset, counts)):
        prefix = PointSet(pset.numerators[:n], pset.precision)
        assert totals == reference_pair_totals(prefix), n


@pytest.mark.parametrize("d", [1, 2])
def test_prefix_pass_equals_fraction_oracle(d):
    # Consecutive pairs (2, 3), (7, 8) and (100, 101) take the one-point
    # extension; the rest recount.  w = 8 makes ties likely at 101 points.
    rng = random.Random(17 + d)
    pset = _random_pset(rng, 101, d, 8)
    counts = [2, 3, 7, 8, 100, 101]
    coeffs = list(_kernel_coefficients(pset, counts))
    reports = list(prefix_kernel_measures(pset, counts))
    for n, got, (l2, dia) in zip(counts, coeffs, reports):
        prefix = PointSet(pset.numerators[:n], pset.precision)
        want = _fraction_coefficients(prefix)
        assert got == want
        assert (l2.size, dia.size) == (n, n)
        exact = sum(a * 3 ** (k + 1) for k, a in enumerate(want)) / Fraction(3) ** d
        assert l2.squared == pytest.approx(float(exact), rel=4e-16, abs=0)
        assert [r.squared for r in (l2, dia)] == [
            r.squared for r in both_kernel_measures(prefix)
        ]


@pytest.mark.parametrize("d", [1, 2])
def test_study_rows_equal_per_row_kernel_measures(d):
    counts = [7, 8, 40, 63, 64, 100, 127, 128]
    rows = study_rows(d, 2, counts)
    full = generate_points(construct_matrices(d, 2, 7), 128)
    assert [r.n for r in rows] == counts
    for row in rows:
        prefix = PointSet(full.numerators[: row.n], full.precision, full.provenance)
        l2, dia = both_kernel_measures(prefix)
        assert (row.per_l2, row.diaphony) == (l2.value, dia.value)


def test_prefix_pass_float_engine_d3():
    gset = interlace_matrices(build_matrices(6, 6, 6), 2)
    pset = generate_points(gset, 40)
    counts = [5, 6, 40]
    for n, reports in zip(counts, prefix_kernel_measures(pset, counts)):
        prefix = PointSet(pset.numerators[:n], pset.precision, pset.provenance)
        assert reports == both_kernel_measures(prefix)


@pytest.mark.parametrize("counts", [[3, 3], [4, 2], [0, 2], [2, 9]])
def test_prefix_pass_refuses_counts_that_do_not_rise_within_n(counts):
    pset = _random_pset(random.Random(5), 8, 2, 6)
    with pytest.raises(ValueError, match="rise strictly"):
        list(prefix_kernel_measures(pset, counts))


def test_float_engine_agrees_with_exact_path_d2():
    gset = interlace_matrices(build_matrices(4, 11, 11), 2)
    pset = generate_points(gset, 2048)
    assert pset.dimension == 2
    schemes = [PERIODIC_L2, DIAPHONY]
    exact = both_kernel_measures(pset)
    floats = _float_kernel_squared(pset.numerators, pset.precision, schemes, 1)
    for scheme, rep, got in zip(schemes, exact, floats):
        scale = scheme.prefactor(2) * (1.0 + scheme.kernel_coeff / 6.0) ** 2
        assert abs(got - rep.squared) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# Invariances.
# ---------------------------------------------------------------------------


def test_torus_shift_invariance():
    rng = random.Random(43)
    for _ in range(10):
        d = rng.randint(1, 3)
        pset = _random_pset(rng, rng.randint(2, 20), d, 10)
        offsets = tuple(rng.getrandbits(10) for _ in range(d))
        shifted = _torus_shift(pset, offsets)
        for fn in (periodic_l2, diaphony):
            a = fn(pset).squared
            b = fn(shifted).squared
            assert b == pytest.approx(a, rel=1e-12)


def test_d1_proportionality_pi_sqrt2():
    rng = random.Random(47)
    for _ in range(20):
        pset = _random_pset(rng, rng.randint(1, 32), 1, 12)
        l2 = periodic_l2(pset).value
        f = diaphony(pset).value
        assert math.pi * math.sqrt(2.0) * l2 == pytest.approx(f, rel=1e-12)


def test_squared_values_nonnegative_on_good_nets():
    gset = interlace_matrices(build_matrices(4, 8, 8), 2)
    pset = generate_points(gset, 256, 16)
    for fn in (periodic_l2, diaphony):
        rep = fn(pset)
        assert rep.squared >= -1e-9 * pset.size
        assert rep.value == math.sqrt(max(rep.squared, 0.0))


# ---------------------------------------------------------------------------
# Fourier evaluator.
# ---------------------------------------------------------------------------


def test_fourier_single_point_h1():
    pset = pset_from_tuples([(5,)], 4)
    rep = fourier_truncated(pset, DIAPHONY, 1)
    assert rep.squared == pytest.approx(2.0, rel=1e-12)
    assert rep.truncation["H"] == 1
    assert rep.method == "fourier"


def test_fourier_tail_bound_holds_on_random_sets():
    # 0 <= kernel^2 - fourier^2 <= tail_bound, up to the rounding of the
    # two values, which is far below the scale prefactor * (1 + c/6)^d.
    rng = random.Random(61)
    for d in (1, 2, 3):
        for trunc in (1, 4, 16):
            for _ in range(4):
                pset = _random_pset(rng, rng.randint(1, 24), d, 10)
                for scheme, kernel in ((PERIODIC_L2, periodic_l2), (DIAPHONY, diaphony)):
                    rep = fourier_truncated(pset, scheme, trunc)
                    gap = kernel(pset).squared - rep.squared
                    slack = 1e-12 * scheme.prefactor(d) * (1 + scheme.kernel_coeff / 6) ** d
                    assert -slack <= gap <= rep.truncation["tail_bound"] + slack


@pytest.mark.parametrize("scheme", [PERIODIC_L2, DIAPHONY], ids=lambda s: s.name)
@pytest.mark.parametrize("trunc", [1, 8, 64])
def test_fourier_tail_bound_is_tight_for_one_point(scheme, trunc):
    # One point has |S(h)| = N at every h, so the truncation drops the whole
    # tail 2*kappa*sum_{h>H} h^-2 > 2*kappa/(H + 1) at d = 1: the gap comes
    # within a factor H/(H + 1) of the bound's 2*kappa/H.
    pset = pset_from_tuples([(5,)], 4)
    rep = fourier_truncated(pset, scheme, trunc)
    gap = periodic_l2(pset).squared if scheme is PERIODIC_L2 else diaphony(pset).squared
    gap -= rep.squared
    bound = rep.truncation["tail_bound"]
    assert trunc / (trunc + 1) * bound - 1e-12 <= gap <= bound


def test_fourier_monotone_in_truncation():
    rng = random.Random(53)
    pset = _random_pset(rng, 6, 2, 8)
    for scheme in (PERIODIC_L2, DIAPHONY):
        last = -math.inf
        for bound in (1, 2, 4, 8, 16, 32):
            cur = fourier_truncated(pset, scheme, bound).squared
            assert cur >= last - 1e-12
            last = cur


def test_fourier_matches_direct_box_enumeration():
    rng = random.Random(59)
    for d, bound in ((1, 8), (2, 4)):
        for _ in range(3):
            pset = _random_pset(rng, rng.randint(2, 6), d, 6)
            for scheme in (PERIODIC_L2, DIAPHONY):
                got = fourier_truncated(pset, scheme, bound).squared
                want = _direct_box_squared(pset, scheme, bound)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_kernel_gated_by_fourier_tail_bound_d1():
    rng = random.Random(61)
    bound = 512
    for scheme in (PERIODIC_L2, DIAPHONY):
        coeff = 6.0 / (4.0 * math.pi**2) if scheme.name == "periodic-l2" else 1.0
        tail = scheme.prefactor(1) * 2.0 * coeff / bound
        for _ in range(5):
            pset = _random_pset(rng, rng.randint(1, 16), 1, 10)
            kern = (periodic_l2 if scheme is PERIODIC_L2 else diaphony)(pset).squared
            four = fourier_truncated(pset, scheme, bound).squared
            assert abs(kern - four) <= tail


def test_fourier_validation():
    pset = pset_from_tuples([(0,)], 1)
    with pytest.raises(ValueError):
        fourier_truncated(pset, DIAPHONY, 0)


def _pair_factor_scale(scheme: WeightScheme, d: int, trunc: int) -> float:
    """prefactor^d * k_zero^d, the size of the largest pair factor."""
    k_zero = 1.0 + 2.0 * sum(_inv_weight_sq(scheme, h) for h in range(1, trunc + 1))
    return (scheme.prefactor_base * k_zero) ** d


@pytest.mark.parametrize("w", [1, 8, 53, 64])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fourier_gram_matches_pairwise_cosine_oracle(d, w):
    # w = 64 makes h * x wrap in uint64 before the phase is masked.
    rng = random.Random(1000 * d + w)
    for trunc in (1, 7, 64, 128):
        pset = _random_pset(rng, rng.randint(2, 40), d, w)
        for scheme in (PERIODIC_L2, DIAPHONY):
            got = fourier_truncated(pset, scheme, trunc).squared
            want = fourier_pairwise_squared(pset, scheme, trunc)
            assert abs(got - want) <= 1e-15 * _pair_factor_scale(scheme, d, trunc)


def test_fourier_exact_under_precision_refinement():
    # x / 2^w and (x * 2^k) / 2^(w+k) are the same point.  The phases are
    # reduced in integers, so the angles, and with them the value, agree
    # bit for bit.
    rng = random.Random(73)
    for d, w in ((1, 1), (2, 8), (1, 20), (2, 53), (1, 60)):
        pset = _random_pset(rng, 30, d, w)
        base = fourier_truncated(pset, DIAPHONY, 128).squared
        for k in sorted({1, 64 - w}):
            rows = [tuple(v << k for v in row) for row in pset.numerators.tolist()]
            finer = pset_from_tuples(rows, w + k)
            assert fourier_truncated(finer, DIAPHONY, 128).squared == base


def test_fourier_refuses_over_budget_before_allocating():
    # Features of 3 points at trunc 2e7 take 960 MB, over the 1 GiB budget
    # with the phase scratch; the frequency array alone would be 160 MB.
    pset = pset_from_tuples([(1,), (2,), (3,)], 2)

    def refuse():
        with pytest.raises(BudgetError):
            fourier_truncated(pset, DIAPHONY, 2 * 10**7)

    assert traced_peak(refuse) < 1 << 20


def test_fourier_budget_covers_features_and_block():
    assert _fourier_bytes(512, 2, 128) < BUDGET_BYTES // 100
    # The features alone, N * 2H * d * 8 bytes, count against the budget.
    assert _fourier_bytes(16384, 4, 512) > 16384 * 2 * 512 * 4 * 8
    assert _fourier_bytes(16384, 4, 1024) > BUDGET_BYTES


@pytest.mark.parametrize("threads", [1, 2])
def test_kernel_memory_is_strips_per_worker(threads):
    # The d >= 3 kernel holds a few (_STRIP, N) arrays per worker, whatever
    # N is: at most 8 of them, 8 bytes an entry.
    n = 4096
    pset = _random_pset(random.Random(83), n, 3, 30)
    peak = traced_peak(lambda: both_kernel_measures(pset, threads=threads))
    assert peak <= threads * 8 * _STRIP * n * 8


def test_kernel_threads_leave_values_unchanged():
    # More than one strip, so that two workers share them.
    pset = _random_pset(random.Random(97), 3 * _STRIP + 5, 3, 30)
    one = both_kernel_measures(pset, threads=1)
    assert both_kernel_measures(pset, threads=2) == one


def test_fourier_memory_within_its_bound():
    n, d, trunc = 4096, 2, 64
    pset = _random_pset(random.Random(89), n, d, 40)
    peak = traced_peak(lambda: fourier_truncated(pset, DIAPHONY, trunc))
    assert peak <= _fourier_bytes(n, d, trunc)


@pytest.mark.parametrize(
    "d, w, n",
    [(1, 20, 4096), (1, 64, 4096), (2, 1, 100), (2, 32, 2048), (2, 64, 4096)],
)
def test_exact_kernel_bytes_bound_the_traced_peak(d, w, n):
    # The one-count pass recounts; a study's counts also extend 2^m - 1 to
    # 2^m.  At w = 64 the packed Fenwick sums are the largest ints.
    pset = _random_pset(random.Random(101), n, d, w)
    counts = [n // 2 - 1, n // 2, n - 1, n]
    for run in (
        lambda: both_kernel_measures(pset),
        lambda: list(prefix_kernel_measures(pset, counts)),
    ):
        assert traced_peak(run) <= _exact_kernel_bytes(n, d, w)


def test_prefix_pass_holds_no_more_than_the_one_count_pass():
    # Each prefix is a row view of the set: copying the numerators of the
    # prefixes below N cost 24 bytes a point, about 200 KB over the
    # one-count pass here.
    n = 1 << 13
    pset = _random_pset(random.Random(107), n, 2, 64)

    def prefix_pass():
        for _ in prefix_kernel_measures(pset, [n // 2 - 1, n // 2, n - 1, n]):
            pass

    assert traced_peak(prefix_pass) <= traced_peak(lambda: both_kernel_measures(pset))


def test_exact_kernel_refuses_over_its_budget(monkeypatch):
    # The point-set budget admits 2^26 points at d = 2 (1 GiB of numerators);
    # the exact pass over them would need over 16 times that.
    assert _exact_kernel_bytes(1 << 26, 2, 52) > 16 * BUDGET_BYTES
    assert _exact_kernel_bytes(8192, 2, 52) < BUDGET_BYTES // 100
    pset = _random_pset(random.Random(103), 64, 2, 30)
    need = _exact_kernel_bytes(64, 2, 30)
    monkeypatch.setattr("dignet.errors.BUDGET_BYTES", need - 1)
    with pytest.raises(BudgetError, match=f"N=64, d=2, w=30 needs about {need} bytes"):
        both_kernel_measures(pset)
    with pytest.raises(BudgetError):
        next(prefix_kernel_measures(pset, [32, 64]))
    monkeypatch.setattr("dignet.errors.BUDGET_BYTES", need)
    assert both_kernel_measures(pset)[0].size == 64


# ---------------------------------------------------------------------------
# Determinism and plumbing.
# ---------------------------------------------------------------------------


def test_reproducible_across_threads_and_blocks():
    # Only the d >= 3 kernel runs the threaded strip engine; each set spans
    # several strips, the last one partial.
    rng = random.Random(67)
    for d, w, n in ((3, 16, 300), (4, 53, 333), (3, 64, 700)):
        pset = _random_pset(rng, n, d, w)
        base = [r.squared for r in both_kernel_measures(pset)]
        for threads in (1, 2, 4):
            both = [r.squared for r in both_kernel_measures(pset, threads=threads)]
            assert both == base, (d, w, n, threads)
            assert periodic_l2(pset, threads=threads).squared == base[0]
            assert diaphony(pset, threads=threads).squared == base[1]


# float.hex() of (per-l2, diaphony) .squared for the first n points of the
# d-dimensional set generated below, n in _PINNED_COUNTS: d <= 2 runs the
# exact path and d >= 3 the float engine over three strips.
_PINNED_COUNTS = [1, 2, 5, 64, 65, 130]
_PINNED = {
    1: [("0x1.5555555555555p-3", "0x1.a51a6625307d2p+1"),
        ("0x1.2aaaaaaaaaaaap-4", "0x1.707719608a6d9p+0"),
        ("0x1.9f92c5f92c5f9p-7", "0x1.0058b5dc66286p-2"),
        ("0x1.d5caaaaaaaaaap-14", "0x1.21ca86c31fba6p-9"),
        ("0x1.2e13a6e3c8d22p-13", "0x1.74ac19fc72350p-9"),
        ("0x1.3cad72e6ef6b0p-15", "0x1.86af6c72ec033p-11")],
    2: [("0x1.1c71c71c71c72p-3", "0x1.16728f351a921p+4"),
        ("0x1.00e38e38e38e3p-4", "0x1.0bfe6bdaa0480p+3"),
        ("0x1.1aa0dcba98765p-6", "0x1.582494b0319b7p+1"),
        ("0x1.ed4ef1192c71cp-13", "0x1.201e93d1e2b75p-4"),
        ("0x1.0f457c1eff1f2p-12", "0x1.2362e17d1588ep-4"),
        ("0x1.ddd1cbb06ec35p-14", "0x1.2ef647ab61908p-5")],
    3: [("0x1.684bda12f684ap-4", "0x1.37c9051dec61dp+6"),
        ("0x1.4d97b425ed096p-5", "0x1.349a0302db713p+5"),
        ("0x1.eeef5c00a9e87p-7", "0x1.e14bc3a07a9f2p+3"),
        ("0x1.7c70ee9d00d08p-12", "0x1.7ac27dc7e28d8p-1"),
        ("0x1.829d8be1107b2p-12", "0x1.79d610851b3ecp-1"),
        ("0x1.cce20a7eb1096p-14", "0x1.3877b04aa9e5cp-2")],
    4: [("0x1.9add3c0ca4586p-5", "0x1.51ab5431d46fdp+8"),
        ("0x1.83da781948b0ep-6", "0x1.50ca1739a5950p+7"),
        ("0x1.485a84c763766p-7", "0x1.0f8d90d49aa6cp+6"),
        ("0x1.de62cd2e82a11p-12", "0x1.4236c940b8992p+2"),
        ("0x1.e613662585ca3p-12", "0x1.3f1ea30006566p+2"),
        ("0x1.2b1bd5fa12064p-12", "0x1.707aec888c7fcp+1")],
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kernel_squared_values_pinned_to_the_bit(d, threads):
    # The prefix counts extend (1 -> 2, 64 -> 65) and recount (5, 64, 130).
    pset = generate_points(construct_matrices(d, 2, 8), 130)
    want = dict(zip(_PINNED_COUNTS, _PINNED[d]))

    def hexes(reports):
        return tuple(r.squared.hex() for r in reports)

    prefixes = prefix_kernel_measures(pset, _PINNED_COUNTS, threads=threads)
    assert [hexes(r) for r in prefixes] == _PINNED[d]
    for n in (65, 130):
        prefix = PointSet(pset.numerators[:n], pset.precision, pset.provenance)
        assert hexes(both_kernel_measures(prefix, threads=threads)) == want[n]
        assert hexes([periodic_l2(prefix, threads=threads),
                      diaphony(prefix, threads=threads)]) == want[n]


def test_both_kernel_measures_match_individual_calls():
    rng = random.Random(71)
    pset = _random_pset(rng, 40, 2, 12)
    l2, dia = both_kernel_measures(pset)
    assert l2.squared == periodic_l2(pset).squared
    assert dia.squared == diaphony(pset).squared


def test_measure_report_json():
    pset = pset_from_tuples([(1,)], 2, provenance="demo")
    rep = periodic_l2(pset)
    data = rep.to_json_dict()
    assert data["measure"] == "periodic-l2"
    assert data["method"] == "kernel"
    assert data["N"] == 1 and data["d"] == 1
    assert data["generator"] == "demo"
    assert data["truncation"] is None
    assert data["value"] == pytest.approx(math.sqrt(data["squared"]), rel=1e-15)


def test_precision_limit():
    # The refusal happens when the set is built, before any measure runs.
    for numerators in ((0,), (0, 1), (0, 1, 2)):
        with pytest.raises(PrecisionError):
            periodic_l2(pset_from_tuples([numerators], 65))


def test_weight_scheme_values():
    import numpy as np

    hs = np.array([0, 1, -2, 3])
    w_l2 = PERIODIC_L2.inverse_weight_sq(hs)
    assert w_l2[0] == 1.0
    assert w_l2[1] == pytest.approx(6.0 / (4.0 * math.pi**2), rel=1e-15)
    assert w_l2[2] == pytest.approx(6.0 / (16.0 * math.pi**2), rel=1e-15)
    w_dia = DIAPHONY.inverse_weight_sq(hs)
    assert w_dia.tolist() == [1.0, 1.0, 0.25, pytest.approx(1.0 / 9.0, rel=1e-15)]
