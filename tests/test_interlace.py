from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dignet.interlace import interlace_matrices
from dignet.gf2 import BitMatrix
from dignet.niederreiter import GeneratingMatrixSet, build_matrices
from dignet.sequence import DyadicPoint, generate_points
from support import (
    entry,
    identity,
    interlace_digits,
    interlace_point,
    interlace_pointset,
    interlace_vector,
)


def test_interlace_digits_frozen_examples():
    # weave .1 and .0 -> .10
    assert interlace_digits([1, 0], 1) == 0b10
    # weave .01 and .10 -> .0110 = 0.375
    assert interlace_digits([1, 2], 2) == 0b0110
    assert interlace_digits([0, 0, 0], 4) == 0


def test_interlace_point_values():
    p = interlace_point(DyadicPoint((1, 0), 1))
    assert p == DyadicPoint((0b10,), 2)  # 0.5
    p = interlace_point(DyadicPoint((1, 2), 2))
    assert p == DyadicPoint((0b0110,), 4)  # 0.375


def test_interlace_vector_examples():
    p = DyadicPoint((1, 3, 2), 2)
    assert interlace_vector(p, 1) == DyadicPoint((1, 3, 2), 2)

    p = DyadicPoint((1, 0, 1, 0), 1)
    out = interlace_vector(p, 2)
    assert out == DyadicPoint((0b10, 0b10), 2)  # (0.5, 0.5)

    p = DyadicPoint((1, 2), 2)
    out = interlace_vector(p, 2)
    assert out == DyadicPoint((0b0110,), 4)  # 0.375


def test_interlace_vector_dimension_mismatch():
    with pytest.raises(ValueError):
        interlace_vector(DyadicPoint((0, 0, 0), 2), 2)


def test_interlace_digits_bijective_on_small_grids():
    for alpha, w in ((2, 2), (2, 3), (3, 2)):
        outputs = {
            interlace_digits(tup, w)
            for tup in itertools.product(range(1 << w), repeat=alpha)
        }
        assert len(outputs) == 1 << (alpha * w)
        assert outputs == set(range(1 << (alpha * w)))


def test_interlace_matrices_alpha_one_is_identity():
    gset = build_matrices(2, 4, 4)
    out = interlace_matrices(gset, 1)
    assert out.matrices == gset.matrices
    assert out.t == gset.t and out.alpha == 1


def test_interlace_matrices_identity_example():
    base = build_matrices(2, 3, 3)
    # replace both matrices by the identity for the frozen row-shuffle check
    from dignet.gf2 import BitMatrix
    from dignet.niederreiter import GeneratingMatrixSet

    eye = GeneratingMatrixSet(
        dimension=2,
        alpha=1,
        t=0,
        matrices=[identity(3), identity(3)],
        polynomials=base.polynomials,
    )
    out = interlace_matrices(eye, 2)
    assert out.dimension == 1
    assert out.matrices[0].to_strings() == [
        "100",
        "100",
        "010",
        "010",
        "001",
        "001",
    ]


def test_interlace_matrices_quality_parameter():
    assert interlace_matrices(build_matrices(2, 4, 4), 2).t == 1
    # base degrees 1,1,2,3,3,4 give t' = 8; alpha=3, d_out=2 adds 2*3
    assert interlace_matrices(build_matrices(6, 4, 4), 3).t == 30


def test_interlace_matrices_rejects_reinterlacing():
    once = interlace_matrices(build_matrices(2, 4, 4), 2)
    with pytest.raises(ValueError):
        interlace_matrices(once, 2)


def test_interlaced_matrices_keep_zero_tail():
    gset = interlace_matrices(build_matrices(6, 8, 8), 3)
    for mat in gset.matrices:
        for k in range(1, mat.nrows + 1):
            for l in range(1, mat.ncols + 1):
                if k > 3 * l:
                    assert entry(mat, k - 1, l - 1) == 0


def test_commuting_square_points_vs_matrices():
    # interlacing the points equals generating from interlaced matrices
    for d_out in (1, 2):
        for alpha in (1, 2, 3):
            for m in range(1, 9):
                base = build_matrices(alpha * d_out, m, m)
                pts = generate_points(base, 1 << m, m)
                via_points = interlace_pointset(pts, alpha)
                gset = interlace_matrices(base, alpha)
                via_matrices = generate_points(gset, 1 << m, alpha * m)
                assert np.array_equal(
                    via_points.numerators, via_matrices.numerators
                ), (d_out, alpha, m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_commuting_square_on_random_matrices(data):
    # Random GF(2) matrices, rows != cols, and a count that is not a power of
    # two, so the prefix is no net.
    d_out = data.draw(st.integers(1, 2), label="d_out")
    alpha = data.draw(st.integers(1, 4), label="alpha")
    cols = data.draw(st.integers(2, 8), label="cols")
    rows = data.draw(
        st.integers(1, 16 // alpha).filter(lambda r: r != cols), label="rows"
    )
    count = data.draw(
        st.integers(3, 1 << cols).filter(lambda n: n & (n - 1)), label="count"
    )
    masks = st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)
    base = GeneratingMatrixSet(
        dimension=alpha * d_out,
        alpha=1,
        t=0,
        matrices=[BitMatrix(data.draw(masks), cols) for _ in range(alpha * d_out)],
        polynomials=[],
    )
    via_points = interlace_pointset(generate_points(base, count), alpha)
    via_matrices = generate_points(interlace_matrices(base, alpha), count)
    assert via_points.precision == via_matrices.precision == alpha * rows
    assert np.array_equal(via_points.numerators, via_matrices.numerators)
