from __future__ import annotations

import csv
import io
import random
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dignet import sequence

from dignet.errors import PrecisionError
from dignet.gf2 import matvec
from dignet.interlace import interlace_matrices
from dignet.niederreiter import build_matrices
from dignet.sequence import (
    DyadicPoint,
    PointSet,
    block_decomposition,
    digital_shift,
    generate_points,
    read_points_csv,
    sum_of_digits,
    tail_shift_vector,
    write_points_csv,
)
from support import digit_vector, pset_from_tuples, values


def test_digit_vector_examples():
    assert digit_vector(6, 4) == 0b0110
    assert digit_vector(0, 3) == 0
    assert digit_vector(1, 1) == 1
    with pytest.raises(ValueError):
        digit_vector(8, 3)


def test_generate_points_van_der_corput_prefix():
    gset = build_matrices(1, 2, 2)
    pts = generate_points(gset, 4, 2)
    assert [v[0] for v in values(pts)] == [0.0, 0.5, 0.25, 0.75]


def test_generate_points_bit_reversal_is_van_der_corput():
    # Independent route: reverse the binary string of n.
    gset = build_matrices(1, 8, 8)
    pts = generate_points(gset, 256, 8)
    for n, p in enumerate(pts.points):
        rev = int(format(n, "08b")[::-1], 2)
        assert p.numerators == (rev,)


def test_generate_points_sobol_pair_frozen():
    gset = build_matrices(2, 2, 2)
    pts = generate_points(gset, 4, 2)
    assert values(pts) == [
        (0.0, 0.0),
        (0.5, 0.5),
        (0.25, 0.75),
        (0.75, 0.25),
    ]


def test_generate_points_origin_first():
    for d in (1, 2, 3):
        gset = build_matrices(d, 5, 5)
        pts = generate_points(gset, 1, 5)
        assert pts.points[0].numerators == (0,) * d


def _matvec_numerators(gset, n: int, precision: int) -> tuple[int, ...]:
    """Point n from the definition x_n = C_j * digits(n) over Z2."""
    out = []
    for mat in gset.matrices:
        y = matvec(mat, digit_vector(n, gset.cols))
        out.append(sum(((y >> i) & 1) << (precision - 1 - i) for i in range(precision)))
    return tuple(out)


def test_generate_points_matches_matvec_definition():
    # Counts that are not powers of two end in a partial doubling step.
    for gset, w in (
        (interlace_matrices(build_matrices(4, 10, 10), 2), 17),
        (build_matrices(3, 10, 10), 10),
    ):
        for count in (1, 2, 3, 5, 100, 257, 1000):
            pts = generate_points(gset, count, w)
            want = [_matvec_numerators(gset, n, w) for n in range(count)]
            assert [p.numerators for p in pts.points] == want


def test_point_set_checks_at_construction():
    with pytest.raises(PrecisionError):
        pset_from_tuples([(0,)], 65)
    bad = [
        ([(16,)], 4),
        ([(1 << 64,)], 64),
        ([(-1,)], 4),
        ([(0,)], -1),
        ([], 4),
        ([(1, 2), (3,)], 4),
    ]
    for rows, w in bad:
        with pytest.raises(ValueError):
            pset_from_tuples(rows, w)
    top = pset_from_tuples([((1 << 64) - 1, 0)], 64)
    assert top.points[0].numerators == ((1 << 64) - 1, 0)
    source = np.array([[1, 2]], dtype=np.uint64)
    pset = PointSet(source, 2)
    source[0, 0] = 3
    assert pset.numerators.tolist() == [[1, 2]]
    with pytest.raises(ValueError):
        pset.numerators[0, 0] = 0


def test_generate_points_validation():
    gset = build_matrices(2, 4, 4)
    with pytest.raises(ValueError):
        generate_points(gset, 4, 5)  # precision beyond rows
    with pytest.raises(ValueError):
        generate_points(gset, 17, 4)  # count beyond 2^cols
    big = build_matrices(1, 80, 80)
    with pytest.raises(PrecisionError):
        generate_points(big, 4, 65)
    with pytest.raises(PrecisionError):
        generate_points(big, 4)  # default precision = rows = 80


def test_digital_shift_examples():
    pts = pset_from_tuples([(1,)], 1)
    shifted = digital_shift(pts, DyadicPoint((1,), 1))
    assert shifted.points[0].numerators == (0,)
    # 0.5 XOR 0.25 = 0.75: the coarser side gains a zero digit.
    half, quarter = pset_from_tuples([(1,)], 1), pset_from_tuples([(1,)], 2)
    assert digital_shift(half, DyadicPoint((1,), 2)).points == [DyadicPoint((3,), 2)]
    assert digital_shift(quarter, DyadicPoint((1,), 1)).points == [DyadicPoint((3,), 2)]

    gset = build_matrices(2, 4, 4)
    pts = generate_points(gset, 8, 4)
    zero = DyadicPoint((0, 0), 4)
    assert digital_shift(pts, zero).points == pts.points


def test_digital_shift_involution_and_padding():
    rng = random.Random(31)
    for _ in range(30):
        w = rng.randint(1, 10)
        d = rng.randint(1, 3)
        pts = pset_from_tuples(
            [tuple(rng.getrandbits(w) for _ in range(d)) for _ in range(5)], w
        )
        sw = rng.randint(1, w)
        sigma = DyadicPoint(tuple(rng.getrandbits(sw) for _ in range(d)), sw)
        once = digital_shift(pts, sigma)
        # Scalar reference: each coordinate XOR the shift padded to w digits.
        assert once.numerators.tolist() == [
            [v ^ (s << (w - sw)) for v, s in zip(row, sigma.numerators)]
            for row in pts.numerators.tolist()
        ]
        back = digital_shift(once, sigma)
        assert [p.numerators for p in back.points] == [p.numerators for p in pts.points]


def test_digital_shift_dimension_mismatch():
    pts = pset_from_tuples([(0, 0)], 2)
    with pytest.raises(ValueError):
        digital_shift(pts, DyadicPoint((1,), 2))


def test_digital_shift_pads_to_64_digits():
    top = (1 << 64) - 1
    # A precision-0 set is all zeros; the shift alone sets every digit.
    zero = pset_from_tuples([(0, 0)] * 3, 0)
    shifted = digital_shift(zero, DyadicPoint((top, 1), 64))
    assert shifted.precision == 64
    assert shifted.numerators.tolist() == [[top, 1]] * 3
    # A precision-0 shift pads to the set's 64 digits and leaves it unchanged.
    pts = pset_from_tuples([(top, 5)], 64)
    assert digital_shift(pts, DyadicPoint((0, 0), 0)).numerators.tolist() == [[top, 5]]
    with pytest.raises(PrecisionError):
        digital_shift(pts, DyadicPoint((1, 0), 65))


def test_net_prefix_is_xor_subgroup():
    for m in (2, 4, 6):
        gset = build_matrices(2, m, m)
        pts = generate_points(gset, 1 << m, m)
        nums = [p.numerators for p in pts.points]
        seen = set(nums)
        for a in nums:
            for b in nums:
                combo = tuple(x ^ y for x, y in zip(a, b))
                assert combo in seen


def test_generate_points_xor_linearity_in_index():
    for m in (3, 6):
        gset = build_matrices(2, m, m)
        nums = [p.numerators for p in generate_points(gset, 1 << m, m).points]
        for n in range(1 << m):
            for p in range(1 << m):
                want = tuple(x ^ y for x, y in zip(nums[n], nums[p]))
                assert nums[n ^ p] == want


def test_block_decomposition():
    assert block_decomposition(6) == [2, 1]
    assert block_decomposition(1) == [0]
    assert block_decomposition(13) == [3, 2, 0]
    with pytest.raises(ValueError):
        block_decomposition(0)


def test_tail_shift_first_block_is_zero():
    gset = build_matrices(2, 6, 6)
    sigma = tail_shift_vector(gset, 1, 52, 6)
    assert sigma.numerators == (0, 0)


def test_tail_shift_identity_matrices_place_high_digits():
    # With the identity matrix the shift digits are the reversed high bits.
    gset = build_matrices(1, 8, 8)
    total = 0b10110000  # 2^7 + 2^5 + 2^4
    sigma2 = tail_shift_vector(gset, 2, total, 8)
    assert sigma2.numerators == (int("10000000"[::-1], 2),)
    sigma3 = tail_shift_vector(gset, 3, total, 8)
    assert sigma3.numerators == (int("10100000"[::-1], 2),)


def test_tail_shift_validation():
    gset = build_matrices(1, 4, 4)
    with pytest.raises(ValueError):
        tail_shift_vector(gset, 3, 6, 4)  # only two blocks in 6
    with pytest.raises(ValueError):
        tail_shift_vector(gset, 1, 0, 4)


def test_block_splitting_reproduces_prefixes():
    gsets = [
        build_matrices(1, 8, 8),
        build_matrices(2, 8, 8),
        interlace_matrices(build_matrices(2, 8, 8), 2),
        interlace_matrices(build_matrices(4, 8, 8), 2),
    ]
    for gset in gsets:
        w = gset.rows
        full = [p.numerators for p in generate_points(gset, 256, w).points]
        for total in range(2, 257):
            exponents = block_decomposition(total)
            base = 0
            for i, mi in enumerate(exponents, start=1):
                sigma = tail_shift_vector(gset, i, total, w)
                for a in range(1 << mi):
                    want = tuple(
                        x ^ s
                        for x, s in zip(full[a], sigma.numerators)
                    )
                    assert full[base + a] == want
                base += 1 << mi


def test_sum_of_digits():
    assert sum_of_digits(13) == 3
    for m in (1, 5, 9):
        assert sum_of_digits((1 << m) - 1) == m
        assert sum_of_digits(1 << m) == 1
    with pytest.raises(ValueError):
        sum_of_digits(0)


def test_points_csv_round_trip():
    gset = build_matrices(2, 6, 6)
    pts = generate_points(gset, 10, 6)
    buf = io.StringIO()
    write_points_csv(pts, buf, timestamp="2026-01-01T00:00:00+00:00")
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0].startswith("# generator: niederreiter(")
    assert "written: 2026-01-01T00:00:00+00:00" in lines[0]
    assert lines[1] == "n,x1_hex,x1,x2_hex,x2"
    assert sum(1 for ln in lines if ln.startswith("#")) == 1

    back = read_points_csv(io.StringIO(text))
    assert back.points == pts.points
    assert back.provenance == pts.provenance


def test_points_csv_hex_fields_authoritative():
    pts = pset_from_tuples([(10,)], 4, provenance="manual")
    buf = io.StringIO()
    write_points_csv(pts, buf, timestamp="t")
    assert "0xA/4" in buf.getvalue()
    back = read_points_csv(io.StringIO(buf.getvalue()))
    assert back.points[0].numerators == (10,)
    assert back.points[0].precision == 4


def test_points_csv_file_round_trip(tmp_path):
    gset = build_matrices(1, 4, 4)
    pts = generate_points(gset, 6, 4)
    path = tmp_path / "pts.csv"
    write_points_csv(pts, path)
    assert read_points_csv(path).points == pts.points


def _per_point_csv(pset: PointSet, timestamp: str) -> str:
    """The per-point CSV writer that the array writer replaced, as its oracle."""
    out = io.StringIO()
    out.write(f"# generator: {pset.provenance}; written: {timestamp}\n")
    writer = csv.writer(out, lineterminator="\n")
    header = ["n"]
    for j in range(1, pset.dimension + 1):
        header += [f"x{j}_hex", f"x{j}"]
    writer.writerow(header)
    scale = 2.0**-pset.precision
    for n, p in enumerate(pset.points):
        row: list[str] = [str(n)]
        for num in p.numerators:
            row.append(f"0x{num:X}/{p.precision}")
            row.append(f"{num * scale:.17g}")
        writer.writerow(row)
    return out.getvalue()


def _csv_cases():
    rng = random.Random(83)
    top = (1 << 64) - 1
    near_top = [
        (top - k, (1 << 63) + rng.getrandbits(20), top - rng.getrandbits(11))
        for k in range(40)
    ]
    return {
        "d1": generate_points(build_matrices(1, 8, 8), 50),
        "d2-w36": generate_points(interlace_matrices(build_matrices(4, 18, 18), 2), 300),
        "d3": generate_points(build_matrices(3, 10, 10), 77, 7),
        "d2-w36-random": pset_from_tuples(
            [(rng.getrandbits(36), rng.getrandbits(36)) for _ in range(60)], 36
        ),
        "d3-w64-near-top": pset_from_tuples(near_top, 64, provenance="top, bits"),
    }


@pytest.mark.parametrize("case", sorted(_csv_cases()))
def test_points_csv_bytes_match_per_point_writer(case, monkeypatch):
    pset = _csv_cases()[case]
    # A small chunk makes every case cross several chunk boundaries.
    monkeypatch.setattr(sequence, "_CSV_CHUNK", 7)
    buf = io.StringIO()
    write_points_csv(pset, buf, timestamp="2026-01-01T00:00:00+00:00")
    assert buf.getvalue() == _per_point_csv(pset, "2026-01-01T00:00:00+00:00")


@st.composite
def _csv_point_sets(draw):
    d = draw(st.integers(1, 4))
    w = draw(st.integers(0, 64))
    coord = st.integers(0, (1 << w) - 1)
    rows = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=50))
    provenance = draw(
        st.text(alphabet=string.ascii_letters + string.digits + " ,;:=()", max_size=40)
        .map(str.strip)
        .filter(lambda text: "; written:" not in text)
    )
    return pset_from_tuples(rows, w, provenance)


@settings(max_examples=100, deadline=None)
@given(_csv_point_sets())
@example(pset_from_tuples([(1, 2)], 4, "niederreiter(d=2, alpha=2, t=8)"))
def test_points_csv_round_trip_property(pset):
    buf = io.StringIO()
    write_points_csv(pset, buf, timestamp="t")
    back = read_points_csv(io.StringIO(buf.getvalue()))
    assert back.numerators.tolist() == pset.numerators.tolist()
    assert back.precision == pset.precision
    assert back.provenance == pset.provenance


def test_dyadic_point_validation():
    with pytest.raises(ValueError):
        DyadicPoint((4,), 2)
    with pytest.raises(ValueError):
        DyadicPoint((-1,), 2)
    with pytest.raises(ValueError):
        DyadicPoint((0,), -1)
    p = DyadicPoint((3, 0), 2)
    assert p.dimension == 2
