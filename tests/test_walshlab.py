from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dignet.cli import construct_matrices
from dignet.errors import BUDGET_BYTES, BudgetError
from dignet.gf2 import BitMatrix
from dignet.interlace import interlace_matrices
from dignet.measures import periodic_l2
from dignet.niederreiter import GeneratingMatrixSet, build_matrices
from dignet.sequence import DyadicPoint, generate_points
from dignet.walshlab import _dual_member_coords, _key_sums, _walsh_bytes, walsh_series_l2
from support import (
    dual_net_members,
    dual_rank,
    entry,
    mu,
    pset_from_tuples,
    rank,
    reverse_bits,
    rho_coefficient,
    rho_table,
    rho_vector,
    traced_peak,
    walsh_eval,
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


def _members(gset, bound_bits):
    """The series' own enumeration, as sorted index vectors."""
    coords = _dual_member_coords(gset, bound_bits)
    return sorted(zip(*(c.tolist() for c in coords)))


def test_dual_identity_example():
    gset = build_matrices(1, 2, 2)
    assert _members(gset, 2) == dual_net_members(gset, 2) == [(0,)]


def test_dual_members_match_brute_scan():
    cases = [
        (build_matrices(1, 3, 3), 3),
        (build_matrices(1, 3, 3), 6),
        (build_matrices(2, 3, 3), 3),
        (build_matrices(2, 2, 2), 6),
        (interlace_matrices(build_matrices(4, 2, 2), 2), 5),
    ]
    for gset, bound in cases:
        assert _members(gset, bound) == dual_net_members(gset, bound)


def test_dual_member_count_matches_rank():
    cases = [
        build_matrices(1, 4, 4),
        build_matrices(2, 4, 4),
        build_matrices(3, 3, 3),
        interlace_matrices(build_matrices(4, 3, 3), 2),
    ]
    for gset in cases:
        bound = gset.rows
        members = _members(gset, bound)
        nullity = gset.dimension * bound - dual_rank(gset, bound)
        assert len(members) == 1 << nullity
        stacked = BitMatrix.from_rows(
            [
                [
                    entry(gset.matrices[j], a, r)
                    for j in range(gset.dimension)
                    for a in range(bound)
                ]
                for r in range(gset.cols)
            ]
        )
        assert rank(stacked) == dual_rank(gset, bound)


def test_dual_budget_errors():
    with pytest.raises(BudgetError, match="digit positions"):
        walsh_series_l2(build_matrices(3, 9, 9), bound_bits=9)

    def refuse():
        # 2^22 members at d=2 need about 2.6 GB, over the 1 GiB budget; the
        # refusal comes before any member is enumerated.
        with pytest.raises(BudgetError, match=f"2\\^22 .* over its budget of {BUDGET_BYTES}"):
            walsh_series_l2(build_matrices(2, 2, 2), bound_bits=12)

    assert traced_peak(refuse) < 1 << 20


@pytest.mark.parametrize(
    "gset, bound, members",
    [
        (build_matrices(1, 1, 1), 14, 8192),
        (build_matrices(2, 3, 3), 3, 8),
        (interlace_matrices(build_matrices(4, 5, 5), 2), 9, 8192),
        (build_matrices(3, 2, 2), 4, 1024),
        (build_matrices(3, 3, 3), 6, 32768),
    ],
    ids=["d1", "d2-tiny", "d2-bench", "d3-small", "d3"],
)
def test_walsh_bytes_bounds_the_traced_peak(gset, bound, members):
    # The untraced first call also runs numpy's lazy imports.
    assert walsh_series_l2(gset, bound_bits=bound).truncation["members"] == members
    peak = traced_peak(lambda: walsh_series_l2(gset, bound_bits=bound))
    assert peak <= _walsh_bytes(members, gset.dimension)


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
        members = set(_members(gset, bound))
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


def test_series_matches_scalar_double_sum():
    """The series against an independent double sum over the dual members.

    The oracle takes rho from a table of scalar ``rho_coefficient`` values
    and sums every ordered pair of the directly scanned members; 1,024
    members cross the series' block boundary.
    """
    gset = construct_matrices(2, 2, 4)
    bound = 7
    members = dual_net_members(gset, bound)
    assert len(members) == 1024
    indices = range(1 << bound)
    table = np.array([[rho_coefficient(k, l) for l in indices] for k in indices])
    terms = np.ones((len(members), len(members)))
    for column in zip(*members):
        ks = np.array(column)
        terms *= table[ks[:, None], ks[None, :]]
    expected = (math.fsum(terms.ravel().tolist()) - 1.0) / 9.0
    got = walsh_series_l2(gset, bound_bits=bound).squared
    assert abs(got - expected) <= 1e-14 * abs(expected)


def _fraction_series(gset, bound):
    """The series rounded once from a brute-force ``Fraction`` double sum.

    Every ordered pair of directly scanned dual members contributes
    prod_j rho(k_j, l_j), from the scalar ``rho_coefficient``.
    """
    members = dual_net_members(gset, bound)
    total = Fraction(0)
    for ks in members:
        for ls in members:
            term = Fraction(1)
            for k, l in zip(ks, ls):
                rho = rho_coefficient(k, l)
                if rho == 0.0:
                    break
                term *= Fraction(rho)
            else:
                total += term
    return float(Fraction(1, 3**gset.dimension) * (total - 1))


@pytest.mark.parametrize(
    "dim, alpha, m, bound",
    [
        (1, 1, 3, 6),
        (1, 3, 3, 9),
        (1, 2, 8, 16),
        (2, 2, 4, 6),
        (3, 1, 3, 3),
    ],
)
def test_series_equals_fraction_oracle(dim, alpha, m, bound):
    gset = construct_matrices(dim, alpha, m)
    got = walsh_series_l2(gset, bound_bits=bound).squared
    assert got == _fraction_series(gset, bound)


@st.composite
def _small_nets(draw):
    """Random generating matrices with d * bound <= 8."""
    dim = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 6))
    bound = draw(st.integers(1, 8 // dim))
    masks = st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)
    matrices = [BitMatrix(draw(masks), cols) for _ in range(dim)]
    return GeneratingMatrixSet(dim, 1, 0, matrices, []), bound


@settings(max_examples=60, deadline=None)
@given(_small_nets())
def test_series_equals_fraction_oracle_on_random_nets(case):
    gset, bound = case
    got = walsh_series_l2(gset, bound_bits=bound).squared
    assert got == _fraction_series(gset, bound)


def test_key_sums_exact_past_int64():
    """Group sums that would wrap in int64 come back as exact Python ints."""
    ids = np.arange(5)
    keys = np.array([0, 0, 0, 0, 1])
    exps = np.array([0, 0, 0, 62, 1])
    sums, scale = _key_sums((ids, keys, exps))
    assert scale == 62
    assert sums == [3 * 2**62 + 1, 2**61]


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
