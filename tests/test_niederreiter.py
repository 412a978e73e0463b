from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dignet.cli import construct_matrices
from dignet.gf2 import BitMatrix
from dignet.niederreiter import (
    GeneratingMatrixSet,
    build_matrices,
    is_irreducible,
    is_primitive,
    laurent_expand,
    load_matrix_set,
    poly_divmod,
    poly_mul,
    poly_pow,
    primitive_polynomials,
    save_matrix_set,
)

# ---------------------------------------------------------------------------
# Independent oracles.  These work on coefficient lists (index = degree) and
# never touch the bitmask arithmetic under test.
# ---------------------------------------------------------------------------


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _mask_to_list(mask: int) -> list[int]:
    return [(mask >> i) & 1 for i in range(mask.bit_length())]


def _list_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] ^= bj
    return _trim(out)


def _list_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(1, len(num))
    while len(_trim(num)) - 1 >= dd and _trim(num):
        shift = len(num) - 1 - dd
        quot[shift] ^= 1
        for j, c in enumerate(den):
            num[shift + j] ^= c
        _trim(num)
    return _trim(quot), num


def _oracle_is_irreducible(mask: int) -> bool:
    deg = mask.bit_length() - 1
    if deg < 1:
        return False
    me = _mask_to_list(mask)
    for f in range(2, mask):
        fdeg = f.bit_length() - 1
        if 1 <= fdeg < deg:
            _, rem = _list_divmod(me, _mask_to_list(f))
            if not rem:
                return False
    return True


def _oracle_is_primitive(mask: int) -> bool:
    """Irreducible and x has multiplicative order 2^e - 1, by direct stepping."""
    deg = mask.bit_length() - 1
    if deg < 1 or not mask & 1:
        return False
    if not _oracle_is_irreducible(mask):
        return False
    target = (1 << deg) - 1
    me = _mask_to_list(mask)
    cur = _list_divmod([0, 1], me)[1]
    for k in range(1, target + 1):
        if cur == [1]:
            return k == target
        cur = _list_divmod(_list_mul(cur, [0, 1]), me)[1]
    return False


def _oracle_primitive_list(count: int) -> list[int]:
    out = [0b10]
    degree = 1
    while len(out) < count:
        for mask in range(1 << degree, 1 << (degree + 1)):
            if _oracle_is_primitive(mask):
                out.append(mask)
                if len(out) == count:
                    return out
        degree += 1
    return out


def _oracle_laurent(pmask: int, power: int, offset: int, length: int) -> list[int]:
    e = pmask.bit_length() - 1
    num = [0] * (e - offset - 1 + length) + [1]
    den = _mask_to_list(pmask)
    for _ in range(power - 1):
        den = _list_mul(den, _mask_to_list(pmask))
    quot, _ = _list_divmod(num, den)
    quot = quot + [0] * (length - len(quot))
    return [quot[length - l] for l in range(1, length + 1)]


# ---------------------------------------------------------------------------
# Polynomial arithmetic.
# ---------------------------------------------------------------------------


def test_poly_mul_and_divmod_round_trip():
    import random

    rng = random.Random(5)
    for _ in range(200):
        a = rng.getrandbits(10)
        b = rng.getrandbits(10) | (1 << 10)
        prod = poly_mul(a, b)
        q, r = poly_divmod(prod, b)
        assert q == a and r == 0
        q2, r2 = poly_divmod(a, b)
        assert q2 == 0 and r2 == a


def test_poly_pow():
    # (x + 1)^2 = x^2 + 1 over Z2
    assert poly_pow(0b11, 2) == 0b101
    assert poly_pow(0b11, 3) == 0b1111
    assert poly_pow(0b111, 0) == 1


def test_poly_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(0b101, 0)


# ---------------------------------------------------------------------------
# Primitive polynomials.
# ---------------------------------------------------------------------------


def test_primitive_polynomials_frozen_prefix():
    # x, x+1, x^2+x+1, x^3+x+1, x^3+x^2+1
    assert primitive_polynomials(5) == [0b10, 0b11, 0b111, 0b1011, 0b1101]
    assert primitive_polynomials(1) == [0b10]


def test_primitive_polynomials_match_oracle_through_degree_six():
    # 1 + 1 + 1 + 2 + 2 + 6 + 6 polynomials cover degrees up to 6.
    want = _oracle_primitive_list(19)
    got = primitive_polynomials(19)
    assert got == want
    assert max(p.bit_length() - 1 for p in got) == 6


def test_primitivity_tests_match_oracle_exhaustively():
    for mask in range(2, 1 << 7):
        assert is_irreducible(mask) == _oracle_is_irreducible(mask), bin(mask)
        assert is_primitive(mask) == _oracle_is_primitive(mask), bin(mask)


def test_irreducible_but_not_primitive():
    # x^4 + x^3 + x^2 + x + 1 divides x^5 + 1, so x has order 5 < 15.
    assert is_irreducible(0b11111)
    assert not is_primitive(0b11111)


def test_primitive_polynomials_rejects_bad_count():
    with pytest.raises(ValueError):
        primitive_polynomials(0)


# ---------------------------------------------------------------------------
# Laurent expansion.
# ---------------------------------------------------------------------------


def _bits(value: int, length: int) -> list[int]:
    return [(value >> i) & 1 for i in range(length)]


def test_laurent_frozen_examples():
    assert _bits(laurent_expand(0b10, 3, 0, 5), 5) == [0, 0, 1, 0, 0]
    assert _bits(laurent_expand(0b11, 1, 0, 4), 4) == [1, 1, 1, 1]
    assert _bits(laurent_expand(0b111, 1, 1, 6), 6) == [0, 1, 1, 0, 1, 1]


def test_laurent_matches_oracle_on_grid():
    for pmask in (0b10, 0b11, 0b111, 0b1011, 0b1101, 0b10011):
        e = pmask.bit_length() - 1
        for power in range(1, 5):
            for offset in range(e):
                for length in (1, 3, 8, 17):
                    got = laurent_expand(pmask, power, offset, length)
                    assert got >> length == 0
                    assert _bits(got, length) == _oracle_laurent(pmask, power, offset, length)


def test_laurent_remultiplication_contract():
    # p^power times the prefix (read as a polynomial) must reproduce the
    # numerator exactly in all coefficients of degree >= e*power.
    for pmask in (0b11, 0b111, 0b1011):
        e = pmask.bit_length() - 1
        for power in range(1, 4):
            for offset in range(e):
                length = 12
                bits = laurent_expand(pmask, power, offset, length)
                prefix_poly = 0
                for l in range(1, length + 1):
                    prefix_poly |= ((bits >> (l - 1)) & 1) << (length - l)
                back = poly_mul(poly_pow(pmask, power), prefix_poly)
                num = 1 << (e - offset - 1 + length)
                assert (back ^ num) >> (e * power) == 0


def test_laurent_validation():
    with pytest.raises(ValueError):
        laurent_expand(1, 1, 0, 4)  # constant polynomial
    with pytest.raises(ValueError):
        laurent_expand(0b111, 0, 0, 4)
    with pytest.raises(ValueError):
        laurent_expand(0b111, 1, 2, 4)


# ---------------------------------------------------------------------------
# Matrix construction.
# ---------------------------------------------------------------------------


def test_build_matrices_one_dimension_is_identity():
    gset = build_matrices(1, 5, 5)
    assert gset.matrices[0] == BitMatrix.identity(5)
    assert gset.t == 0
    assert gset.alpha == 1


def test_build_matrices_two_dimensions_frozen():
    gset = build_matrices(2, 3, 3)
    assert gset.matrices[0] == BitMatrix.identity(3)
    assert gset.matrices[1] == BitMatrix.from_rows([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
    assert gset.t == 0


def test_build_matrices_t_accumulates_degrees():
    # degrees 1, 1, 2, 3, 3 give t = 0 + 0 + 1 + 2 + 2
    assert build_matrices(5, 4, 4).t == 5
    assert build_matrices(3, 4, 4).t == 1


def test_build_matrices_upper_triangular_with_unit_diagonal():
    gset = build_matrices(4, 9, 9)
    for m in gset.matrices:
        for k in range(m.nrows):
            for l in range(m.ncols):
                if k > l:
                    assert m.entry(k, l) == 0
                elif k == l:
                    assert m.entry(k, l) == 1


def test_build_matrices_rectangular_extent():
    gset = build_matrices(2, 6, 4)
    assert gset.rows == 6 and gset.cols == 4
    # row masks must agree with the square construction on shared columns
    square = build_matrices(2, 6, 6)
    for a, b in zip(gset.matrices, square.matrices):
        assert a == b.submatrix(6, 4)


def test_build_matrices_validation():
    with pytest.raises(ValueError):
        build_matrices(0, 3, 3)
    with pytest.raises(ValueError):
        build_matrices(2, 0, 3)


# ---------------------------------------------------------------------------
# JSON round trip.
# ---------------------------------------------------------------------------


def test_matrix_set_json_round_trip(tmp_path):
    gset = build_matrices(3, 6, 3)
    path = tmp_path / "mats.json"
    save_matrix_set(gset, path)
    data = json.loads(path.read_text())
    assert data["dimension"] == 3
    assert data["rows"] == 6 and data["cols"] == 3
    assert data["polynomials"] == [0b10, 0b11, 0b111]
    assert all(len(rows) == 6 and all(len(r) == 3 for r in rows) for r_idx, rows in enumerate(data["matrices"]))
    loaded = load_matrix_set(path)
    assert loaded.matrices == gset.matrices
    assert loaded.t == gset.t and loaded.alpha == gset.alpha


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6))
def test_matrix_set_json_round_trip_property(dimension, alpha, m):
    gset = construct_matrices(dimension, alpha, m)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mats.json"
        save_matrix_set(gset, path)
        loaded = load_matrix_set(path)
    assert loaded.matrices == gset.matrices
    assert (loaded.t, loaded.alpha) == (gset.t, gset.alpha)


def test_matrix_set_json_rejects_malformed(tmp_path):
    gset = build_matrices(2, 3, 3)
    data = gset.to_json_dict()
    del data["matrices"]
    with pytest.raises(ValueError):
        GeneratingMatrixSet.from_json_dict(data)
    data2 = gset.to_json_dict()
    data2["rows"] = 99
    with pytest.raises(ValueError):
        GeneratingMatrixSet.from_json_dict(data2)


def test_matrix_set_shape_consistency():
    gset = build_matrices(2, 3, 3)
    with pytest.raises(ValueError):
        GeneratingMatrixSet(
            dimension=2,
            alpha=1,
            t=0,
            matrices=[gset.matrices[0], BitMatrix.identity(4)],
            polynomials=gset.polynomials,
        )
