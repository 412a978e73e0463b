from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dignet.cli import construct_matrices
from dignet.errors import BudgetError
from dignet.gf2 import BitMatrix, rank
from dignet.interlace import interlace_matrices
from dignet.measures import periodic_l2
from dignet.niederreiter import GeneratingMatrixSet, build_matrices
from dignet.sequence import DyadicPoint, digital_shift, generate_points
from dignet.walshlab import (
    _key_sums,
    dual_net_members,
    reverse_bits,
    rho_coefficient,
    walsh_eval,
    walsh_series_l2,
)
from support import (
    dual_rank,
    mu,
    pset_from_tuples,
    rho_table,
    rho_vector,
    walsh_eval_vector,
    walsh_signs,
)

# ---------------------------------------------------------------------------
# Independent oracle: rho(k,l) = sum_h beta(h,k) conj(beta(h,l)) / r(h)^2 with
# beta computed by exact piecewise integration of exp(2 pi i h x) against the
# Walsh step functions on a dyadic grid.  No shared code with the closed form.
# ---------------------------------------------------------------------------


def _oracle_walsh_sign(k: int, cell: int, grid_bits: int) -> int:
    rev = int(format(cell, f"0{grid_bits}b")[::-1], 2)
    return -1 if bin(k & rev).count("1") % 2 else 1


def _oracle_rho_matrix(count: int, grid_bits: int = 5, trunc: int = 4096) -> np.ndarray:
    grid = 1 << grid_bits
    steps = np.array(
        [[_oracle_walsh_sign(k, s, grid_bits) for s in range(grid)] for k in range(count)],
        dtype=float,
    )
    hs = np.arange(1, trunc + 1)
    upper = np.exp(2j * np.pi * np.outer(hs, (np.arange(grid) + 1) / grid))
    lower = np.exp(2j * np.pi * np.outer(hs, np.arange(grid) / grid))
    beta = ((upper - lower) / (2j * np.pi * hs)[:, None]) @ steps.T
    weights = 6.0 / (4.0 * np.pi**2 * hs.astype(float) ** 2)
    table = 2.0 * np.real((beta * weights[:, None]).conj().T @ beta)
    table[0, 0] += 1.0
    return table


@pytest.fixture(scope="module")
def oracle_rho_32() -> np.ndarray:
    return _oracle_rho_matrix(32)


# ---------------------------------------------------------------------------
# Walsh evaluation.
# ---------------------------------------------------------------------------


def test_reverse_bits():
    assert reverse_bits(0b1101, 4) == 0b1011
    assert reverse_bits(1, 5) == 16
    with pytest.raises(ValueError):
        reverse_bits(8, 3)


def test_walsh_eval_examples():
    rng = random.Random(5)
    for _ in range(10):
        assert walsh_eval(0, rng.getrandbits(8), 8) == 1
    assert walsh_eval(1, 1, 1) == -1
    assert walsh_eval(3, 1, 2) == -1
    assert walsh_eval_vector((1, 1), DyadicPoint((1, 1), 1)) == 1


def test_walsh_eval_high_index_digits_are_zero():
    assert walsh_eval(4, 1, 1) == 1
    assert walsh_eval(5, 1, 1) == -1


def test_walsh_eval_vector_dimension_mismatch():
    with pytest.raises(ValueError):
        walsh_eval_vector((1, 2, 3), DyadicPoint((0, 0), 4))


def test_walsh_multiplicativity():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randrange(256)
        x = rng.getrandbits(8)
        y = rng.getrandbits(8)
        assert walsh_eval(k, x ^ y, 8) == walsh_eval(k, x, 8) * walsh_eval(k, y, 8)


def test_walsh_signs_matches_scalar():
    rng = random.Random(11)
    nums = np.array([rng.getrandbits(6) for _ in range(40)], dtype=np.uint64)
    for k in (0, 1, 5, 19, 200):
        expect = [walsh_eval(k, int(n), 6) for n in nums]
        assert walsh_signs(k, nums, 6).tolist() == expect


def test_mu():
    assert mu(0) == 0
    assert mu(1) == 1
    assert mu(7) == 3
    assert mu(8) == 4
    rng = random.Random(13)
    for _ in range(50):
        k = rng.randrange(1, 1 << 20)
        assert mu(k) == int(math.floor(math.log2(k))) + 1


# ---------------------------------------------------------------------------
# Correlation coefficients.
# ---------------------------------------------------------------------------


def test_rho_frozen_values():
    cases = {
        (0, 0): 1.0,
        (5, 0): 0.0,
        (0, 9): 0.0,
        (1, 1): 1 / 8,
        (2, 2): 1 / 32,
        (3, 3): 1 / 8,
        (4, 4): 1 / 128,
        (7, 7): 1 / 32,
        (3, 5): 3 / 64,
        (5, 3): 3 / 64,
        (3, 9): 3 / 128,
        (3, 17): 3 / 256,
        (7, 1): -3 / 64,
        (1, 7): -3 / 64,
        (13, 1): -3 / 256,
        (15, 3): -3 / 256,
        (1, 2): 0.0,
        (2, 3): 0.0,
        (5, 2): 0.0,
        (2, 4): 0.0,
    }
    for (k, l), want in cases.items():
        assert rho_coefficient(k, l) == want, (k, l)


def test_rho_against_beta_integral_oracle(oracle_rho_32):
    for k in range(32):
        for l in range(32):
            got = rho_coefficient(k, l)
            assert got == pytest.approx(oracle_rho_32[k, l], abs=1e-6), (k, l)


def test_rho_zero_cases_against_oracle(oracle_rho_32):
    zero_pairs = 0
    for k in range(32):
        for l in range(32):
            if rho_coefficient(k, l) == 0.0 and (k or l):
                assert abs(oracle_rho_32[k, l]) < 1e-6
                zero_pairs += 1
    assert zero_pairs > 700


def test_rho_symmetry_and_envelope():
    table = rho_table(128)
    assert np.array_equal(table, table.T)
    mus = np.array([mu(k) for k in range(128)])
    envelope = np.ldexp(2.0, -(mus[:, None] + mus[None, :]))
    ratio = np.abs(table) / envelope
    assert ratio.max() == pytest.approx(1.0, rel=1e-12)


def test_rho_table_matches_scalar():
    table = rho_table(64)
    for k in range(64):
        for l in range(64):
            assert table[k, l] == rho_coefficient(k, l)


def test_rho_vector():
    assert rho_vector((0, 0), (0, 0)) == 1.0
    assert rho_vector((1, 0), (1, 5)) == 0.0
    assert rho_vector((1, 3), (1, 5)) == (1 / 8) * (3 / 64)
    with pytest.raises(ValueError):
        rho_vector((1, 2), (1,))


# ---------------------------------------------------------------------------
# Dual nets.
# ---------------------------------------------------------------------------


def _brute_dual(gset, bound_bits):
    """Direct scan: XOR of generating-matrix rows selected by index digits."""
    d = gset.dimension
    members = []
    for combo in range(1 << (d * bound_bits)):
        acc = 0
        ks = []
        for j in range(d):
            k = (combo >> (j * bound_bits)) & ((1 << bound_bits) - 1)
            ks.append(k)
            masks = gset.matrices[j].row_masks
            for a in range(min(bound_bits, len(masks))):
                if (k >> a) & 1:
                    acc ^= masks[a]
        if acc == 0:
            members.append(tuple(ks))
    members.sort()
    return members


def test_dual_identity_example():
    gset = build_matrices(1, 2, 2)
    assert dual_net_members(gset, 2) == [(0,)]


def test_dual_members_match_brute_scan():
    cases = [
        (build_matrices(1, 3, 3), 3),
        (build_matrices(1, 3, 3), 6),
        (build_matrices(2, 3, 3), 3),
        (build_matrices(2, 2, 2), 6),
        (interlace_matrices(build_matrices(4, 2, 2), 2), 5),
    ]
    for gset, bound in cases:
        got = dual_net_members(gset, bound, max_members=1 << 12)
        assert got == _brute_dual(gset, bound)


def test_dual_member_count_matches_rank():
    cases = [
        build_matrices(1, 4, 4),
        build_matrices(2, 4, 4),
        build_matrices(3, 3, 3),
        interlace_matrices(build_matrices(4, 3, 3), 2),
    ]
    for gset in cases:
        bound = gset.rows
        members = dual_net_members(gset, bound, max_members=1 << 13)
        nullity = gset.dimension * bound - dual_rank(gset, bound)
        assert len(members) == 1 << nullity
        stacked = BitMatrix.from_rows(
            [
                [
                    gset.matrices[j].entry(a, r)
                    for j in range(gset.dimension)
                    for a in range(bound)
                ]
                for r in range(gset.cols)
            ]
        )
        assert rank(stacked) == dual_rank(gset, bound)


def test_dual_budget_errors():
    with pytest.raises(BudgetError):
        dual_net_members(build_matrices(3, 9, 9), 9)
    with pytest.raises(BudgetError):
        dual_net_members(build_matrices(2, 2, 2), 12)
    with pytest.raises(BudgetError):
        walsh_series_l2(build_matrices(2, 2, 2), bound_bits=12)


def test_character_property_exhaustive():
    cases = [
        build_matrices(1, 4, 4),
        build_matrices(2, 3, 3),
        build_matrices(4, 2, 2),
        build_matrices(8, 2, 2),
        interlace_matrices(build_matrices(4, 2, 2), 2),
        interlace_matrices(build_matrices(6, 2, 2), 3),
        interlace_matrices(build_matrices(2, 5, 5), 2),
    ]
    for gset in cases:
        d = gset.dimension
        bound = gset.rows
        assert d * bound <= 16
        pset = generate_points(gset, 1 << gset.cols)
        members = set(dual_net_members(gset, bound, max_members=1 << 16))
        box_mask = (1 << bound) - 1
        sign_tables = []
        for j in range(d):
            nums = pset.numerators[:, j]
            sign_tables.append(
                np.stack([walsh_signs(k, nums, pset.precision) for k in range(1 << bound)])
            )
        combos = np.arange(1 << (d * bound))
        prod = np.ones((combos.size, pset.size))
        for j in range(d):
            idx = (combos >> (j * bound)) & box_mask
            prod *= sign_tables[j][idx]
        means = prod.mean(axis=1)
        for combo, mean in zip(combos.tolist(), means.tolist()):
            ks = tuple((combo >> (j * bound)) & box_mask for j in range(d))
            assert mean == (1.0 if ks in members else 0.0), (gset.describe(), ks)


# ---------------------------------------------------------------------------
# Walsh series for digital nets, gated by the kernel evaluator.
# ---------------------------------------------------------------------------


def test_series_matches_kernel_on_nets():
    cases = [
        (build_matrices(1, 2, 2), 6),
        (build_matrices(1, 4, 4), 8),
        (build_matrices(2, 2, 2), 6),
        (build_matrices(2, 3, 3), 7),
        (build_matrices(2, 4, 4), 8),
        (interlace_matrices(build_matrices(4, 2, 2), 2), 6),
    ]
    for gset, bound in cases:
        report = walsh_series_l2(gset, bound_bits=bound)
        kernel = periodic_l2(generate_points(gset, 1 << gset.cols))
        err = abs(report.squared - kernel.squared)
        assert err <= report.truncation["tail_estimate"], gset.describe()
        assert err <= 0.25 * 2.0**-bound, gset.describe()
        assert report.method == "walsh"
        assert report.size == 1 << gset.cols


def test_series_zero_shift_is_identity():
    gset = build_matrices(2, 3, 3)
    plain = walsh_series_l2(gset, bound_bits=7)
    shifted = walsh_series_l2(gset, bound_bits=7, shift=DyadicPoint((0, 0), 3))
    assert shifted.squared == plain.squared


def test_series_with_shift_matches_kernel_of_shifted_net():
    rng = random.Random(17)
    for dim, m in ((1, 3), (2, 3), (2, 4)):
        gset = build_matrices(dim, m, m)
        pset = generate_points(gset, 1 << m)
        for _ in range(3):
            sigma = DyadicPoint(
                tuple(rng.getrandbits(m) for _ in range(dim)), m
            )
            report = walsh_series_l2(gset, bound_bits=m + 4, shift=sigma)
            kernel = periodic_l2(digital_shift(pset, sigma))
            err = abs(report.squared - kernel.squared)
            assert err <= report.truncation["tail_estimate"]
            assert err <= 0.25 * 2.0 ** -(m + 4)


@pytest.mark.parametrize("shift", [None, (5, 3)], ids=["plain", "shifted"])
def test_series_matches_scalar_double_sum(shift):
    """The series against an independent double sum over the dual members.

    The oracle takes rho from a table of scalar ``rho_coefficient`` values
    and the shift signs from scalar ``walsh_eval``, and sums every ordered
    pair; 1,024 members cross the series' block boundary.
    """
    gset = construct_matrices(2, 2, 4)
    bound = 7
    sigma = None if shift is None else DyadicPoint(shift, 3)
    members = dual_net_members(gset, bound)
    assert len(members) == 1024
    indices = range(1 << bound)
    table = np.array([[rho_coefficient(k, l) for l in indices] for k in indices])
    terms = np.ones((len(members), len(members)))
    for column in zip(*members):
        ks = np.array(column)
        terms *= table[ks[:, None], ks[None, :]]
    if sigma is not None:
        signs = np.array(
            [
                math.prod(walsh_eval(k, s, 3) for k, s in zip(ks, sigma.numerators))
                for ks in members
            ],
            dtype=np.float64,
        )
        terms *= signs[:, None] * signs[None, :]
    expected = (math.fsum(terms.ravel().tolist()) - 1.0) / 9.0
    got = walsh_series_l2(gset, bound_bits=bound, shift=sigma).squared
    assert abs(got - expected) <= 1e-14 * abs(expected)


def _fraction_series(gset, bound, sigma):
    """The series rounded once from a brute-force ``Fraction`` double sum.

    Every ordered pair of dual members contributes prod_j rho(k_j, l_j)
    times the Walsh signs of the shift at both members, all from scalar
    ``rho_coefficient`` and ``walsh_eval``.
    """
    members = dual_net_members(gset, bound, max_members=1 << 10)
    signs = [
        1
        if sigma is None
        else math.prod(
            walsh_eval(k, s, sigma.precision) for k, s in zip(ks, sigma.numerators)
        )
        for ks in members
    ]
    total = Fraction(0)
    for ks, sign_k in zip(members, signs):
        for ls, sign_l in zip(members, signs):
            term = sign_k * sign_l
            for k, l in zip(ks, ls):
                rho = rho_coefficient(k, l)
                if rho == 0.0:
                    break
                term *= Fraction(rho)
            else:
                total += term
    return float(Fraction(1, 3**gset.dimension) * (total - 1))


@pytest.mark.parametrize(
    "dim, alpha, m, bound, shift",
    [
        (1, 1, 3, 6, None),
        (1, 2, 4, 8, (101,)),
        (1, 3, 3, 9, None),
        (1, 2, 8, 16, None),
        (1, 2, 8, 16, (77,)),
        (2, 1, 3, 5, (99, 45)),
        (2, 2, 4, 6, None),
        (2, 2, 4, 6, (118, 23)),
        (2, 3, 3, 5, (70, 51)),
        (3, 1, 3, 3, None),
        (3, 2, 2, 3, (96, 33, 80)),
        (3, 3, 2, 3, (127, 64, 40)),
    ],
)
def test_series_equals_fraction_oracle(dim, alpha, m, bound, shift):
    gset = construct_matrices(dim, alpha, m)
    sigma = None if shift is None else DyadicPoint(shift, 7)
    got = walsh_series_l2(gset, bound_bits=bound, shift=sigma).squared
    assert got == _fraction_series(gset, bound, sigma)


@st.composite
def _small_nets(draw):
    """Random generating matrices with d * bound <= 8 and a random shift."""
    dim = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 6))
    bound = draw(st.integers(1, 8 // dim))
    masks = st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)
    matrices = [BitMatrix(draw(masks), cols) for _ in range(dim)]
    gset = GeneratingMatrixSet(dim, 1, 0, matrices, [])
    shift = draw(st.none() | st.lists(st.integers(0, 63), min_size=dim, max_size=dim))
    return gset, bound, None if shift is None else DyadicPoint(tuple(shift), 6)


@settings(max_examples=60, deadline=None)
@given(_small_nets())
def test_series_equals_fraction_oracle_on_random_nets(case):
    gset, bound, sigma = case
    got = walsh_series_l2(gset, bound_bits=bound, shift=sigma).squared
    assert got == _fraction_series(gset, bound, sigma)


def test_key_sums_exact_past_int64():
    """Group sums that would wrap in int64 come back as exact Python ints."""
    ids = np.arange(5)
    keys = np.array([0, 0, 0, 0, 1])
    exps = np.array([0, 0, 0, 62, 1])
    signs = np.array([1, 1, 1, 1, -1])
    sums, scale = _key_sums((ids, keys, exps), signs)
    assert scale == 62
    assert sums == [3 * 2**62 + 1, -(2**61)]


def test_series_shift_dimension_mismatch():
    gset = build_matrices(2, 3, 3)
    with pytest.raises(ValueError):
        walsh_series_l2(gset, shift=DyadicPoint((0,), 3))


def test_series_shift_precision_limit():
    gset = build_matrices(2, 3, 3)
    with pytest.raises(ValueError, match="exceeds 64"):
        walsh_series_l2(gset, shift=DyadicPoint((1, 1 << 64), 65))


# ---------------------------------------------------------------------------
# Truncated double Walsh series for arbitrary point sets.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rho_1024() -> np.ndarray:
    return rho_table(1 << 10)


def test_rho_absolute_mass_bound(rho_1024):
    assert np.abs(rho_1024).sum() <= 2.5 + 1e-9


def test_general_series_converges_to_kernel(rho_1024):
    bound_bits = 10
    size = 1 << bound_bits
    rng = random.Random(19)
    ks = np.arange(size, dtype=np.uint64)
    for d in (1, 2):
        tail = (
            (1 / 3**d)
            * d
            * 3.0
            * (bound_bits + 2)
            * 2.0**-bound_bits
            * 2.5 ** (d - 1)
        )
        for _ in range(3):
            n = rng.randint(2, 8)
            nums = [
                [rng.getrandbits(bound_bits) for _ in range(n)] for _ in range(d)
            ]
            pset = pset_from_tuples(zip(*nums), bound_bits)
            pair_factor = np.ones((n, n))
            for j in range(d):
                revs = np.array(
                    [reverse_bits(v, bound_bits) for v in nums[j]], dtype=np.uint64
                )
                signs = 1.0 - 2.0 * (
                    np.bitwise_count(ks[:, None] & revs[None, :]) & np.uint64(1)
                ).astype(float)
                pair_factor *= signs.T @ rho_1024 @ signs
            series = (pair_factor - 1.0).sum() / (3**d * n * n)
            kernel = periodic_l2(pset).squared
            assert abs(series - kernel) <= tail
            assert abs(series - kernel) <= 1e-3
