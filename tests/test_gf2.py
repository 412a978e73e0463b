from __future__ import annotations

import itertools
import random

import pytest

from dignet.gf2 import BitMatrix, nullspace_basis
from support import entry, identity, matvec, rank, zeros


def _random_matrix(rng: random.Random, nrows: int, ncols: int) -> BitMatrix:
    return BitMatrix([rng.getrandbits(ncols) for _ in range(nrows)], ncols)


def _subset_xor_independent(rows: list[int]) -> bool:
    """Brute force: no nonempty subset XORs to the zero vector."""
    for k in range(1, len(rows) + 1):
        for subset in itertools.combinations(rows, k):
            acc = 0
            for v in subset:
                acc ^= v
            if acc == 0:
                return False
    return True


def _independent(rows: list[int], ncols: int) -> bool:
    """Rows linearly independent over Z2: full row rank (the empty family too)."""
    return rank(BitMatrix(rows, ncols)) == len(rows)


def test_matvec_example():
    m = BitMatrix.from_rows([[1, 1], [0, 1]])
    assert matvec(m, 0b01) == 0b01


def test_matvec_identity():
    rng = random.Random(7)
    for n in (1, 3, 8, 33):
        eye = identity(n)
        v = rng.getrandbits(n)
        assert matvec(eye, v) == v


def test_matvec_dimension_mismatch():
    m = identity(3)
    for v in (0b1000, -1):
        with pytest.raises(ValueError):
            matvec(m, v)


def test_matvec_is_linear():
    rng = random.Random(11)
    for _ in range(50):
        r = rng.randint(1, 20)
        c = rng.randint(1, 20)
        m = _random_matrix(rng, r, c)
        u = rng.getrandbits(c)
        v = rng.getrandbits(c)
        assert matvec(m, u ^ v) == matvec(m, u) ^ matvec(m, v)


def test_rank_examples():
    assert rank(BitMatrix.from_rows([[1, 1], [1, 1]])) == 1
    assert rank(identity(4)) == 4
    assert rank(zeros(3, 5)) == 0


def test_rank_transpose_and_bounds():
    rng = random.Random(13)
    for _ in range(100):
        r = rng.randint(1, 16)
        c = rng.randint(1, 16)
        m = _random_matrix(rng, r, c)
        k = rank(m)
        assert k == rank(m.transpose())
        assert 0 <= k <= min(r, c)


def test_rows_independent_examples():
    assert _independent([0b01, 0b10], 2)
    assert not _independent([0b11, 0b11], 2)
    assert _independent([], 2)


def test_rows_independent_rejects_zero_vector():
    assert not _independent([0], 3)


def test_rows_independent_matches_subset_xor_bruteforce():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 10)
        k = rng.randint(1, min(12, n + 2))
        rows = [rng.getrandbits(n) for _ in range(k)]
        assert _independent(rows, n) == _subset_xor_independent(rows)


def test_string_round_trip():
    m = BitMatrix.from_strings(["110", "011", "101"])
    assert m.to_strings() == ["110", "011", "101"]
    assert entry(m, 0, 0) == 1 and entry(m, 0, 2) == 0
    assert BitMatrix.from_strings(m.to_strings()) == m


def test_transpose_involution():
    rng = random.Random(19)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        assert m.transpose().transpose() == m


def test_submatrix():
    m = BitMatrix.from_strings(["1101", "0110", "1011"])
    s = m.submatrix(2, 3)
    assert s.to_strings() == ["110", "011"]
    with pytest.raises(ValueError):
        m.submatrix(4, 2)


def test_column_mask():
    m = BitMatrix.from_strings(["10", "11", "01"])
    assert m.column_mask(0) == 0b011
    assert m.column_mask(1) == 0b110


def test_nullspace_basis_annihilates_and_has_right_dimension():
    rng = random.Random(23)
    for _ in range(60):
        r = rng.randint(1, 10)
        c = rng.randint(1, 10)
        m = _random_matrix(rng, r, c)
        basis = nullspace_basis(m)
        assert len(basis) == c - rank(m)
        for v in basis:
            assert 0 <= v < 1 << c
            assert matvec(m, v) == 0
        assert _independent(basis, c)


def test_nullspace_exhaustive_small():
    rng = random.Random(29)
    for _ in range(20):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = _random_matrix(rng, r, c)
        basis = nullspace_basis(m)
        spanned = {0}
        for v in basis:
            spanned |= {x ^ v for x in spanned}
        brute = {x for x in range(1 << c) if matvec(m, x) == 0}
        assert spanned == brute


def test_bitvector_validation():
    # Vectors are plain ints; the checks sit where 0/1 entries become bits.
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[0, 2]])
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError):
        BitMatrix.from_rows([])
    with pytest.raises(ValueError):
        BitMatrix([0b100], 2)
    assert BitMatrix.from_rows([[1, 0, 1]]).row_masks == (0b101,)
