"""Tests for the order-alpha quality checks.

The reference oracle enumerates every combination of row subsets per
coordinate (no pruning, no maximal-selection shortcut) and finds the
cheapest dependent selection, which pins down the minimal quality t for
every order at once.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dignet.cli import construct_matrices
from dignet.errors import BudgetError
from dignet.gf2 import BitMatrix
from dignet.interlace import interlace_matrices
from dignet.niederreiter import build_matrices
from dignet.quality import (
    DEFAULT_NODE_CAP,
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckOutcome,
    NetQualityReport,
    _NodeCap,
    _search,
    check_order_alpha_t,
    minimal_t,
)
from support import (
    identity,
    rank,
    reference_search,
    scan_minimal_t,
    verify_sequence_property,
    zeros,
)


def _oracle_min_t(mats, alpha: int) -> int:
    """Minimal passing t from exhaustive subset enumeration.

    Scans all selections (every subset of rows 1..p per coordinate), finds
    the minimal counted weight among the dependent ones, and converts it:
    the check at t admits exactly the selections of weight <= alpha*m - t.
    """
    d = len(mats)
    m = mats[0].ncols
    p = min(mats[0].nrows, alpha * m)
    subsets = []
    for mask in range(1 << p):
        idx = sorted(
            (i + 1 for i in range(p) if (mask >> i) & 1), reverse=True
        )
        subsets.append((sum(idx[:alpha]), idx))
    best = None
    for combo in itertools.product(subsets, repeat=d):
        cost = sum(c for c, _ in combo)
        if best is not None and cost >= best:
            continue
        rows = []
        for j, (_, idx) in enumerate(combo):
            rows.extend(mats[j].row_masks[i - 1] for i in idx)
        if rank(BitMatrix(rows, m)) < len(rows):
            best = cost
    if best is None or best > alpha * m:
        return 0
    return alpha * m - best + 1


def _assert_witness_valid(mats, alpha: int, t: int, witness) -> None:
    """The witness must be an admissible selection with dependent rows."""
    m = mats[0].ncols
    by_coord: dict[int, list[int]] = {}
    for j, i in witness:
        assert 0 <= j < len(mats)
        assert 1 <= i <= mats[0].nrows
        by_coord.setdefault(j, []).append(i)
    weight = 0
    for idx in by_coord.values():
        assert len(set(idx)) == len(idx)
        weight += sum(sorted(idx, reverse=True)[:alpha])
    assert weight <= alpha * m - t
    rows = [mats[j].row_masks[i - 1] for j, i in witness]
    assert rank(BitMatrix(rows, m)) < len(rows)


def _random_matrices(rng, d: int, rows: int, cols: int) -> list[BitMatrix]:
    return [
        BitMatrix([rng.getrandbits(cols) for _ in range(rows)], cols)
        for _ in range(d)
    ]


def test_identity_passes_at_zero():
    for m in (1, 2, 4, 8):
        out = check_order_alpha_t([identity(m)], 1, 0)
        assert out.status == PASS
        assert bool(out)
        report = minimal_t([identity(m)], 1)
        assert report == NetQualityReport(1, m, 1, 0, True, None)


def test_sobol_pair_passes_at_zero():
    for m in range(1, 7):
        gset = build_matrices(2, m, m)
        out = check_order_alpha_t(gset, 1, 0)
        assert out.status == PASS, m


def test_t_equal_alpha_m_passes_vacuously():
    mats = [zeros(4, 2), zeros(4, 2)]
    out = check_order_alpha_t(mats, 2, 4)
    assert out.status == PASS
    assert out.nodes == 0


def test_monotone_in_t():
    rng = random.Random(5)
    for alpha in (1, 2):
        for _ in range(5):
            mats = _random_matrices(rng, 2, 3 * alpha, 3)
            seen_pass = False
            for t in range(alpha * 3 + 1):
                out = check_order_alpha_t(mats, alpha, t)
                if out.status == PASS:
                    seen_pass = True
                else:
                    assert not seen_pass, "check must stay true once true"
                    assert not bool(out)
                    _assert_witness_valid(mats, alpha, t, out.witness)


def test_matches_exhaustive_enumeration():
    rng = random.Random(11)
    cases = [
        (1, 1, 3),
        (1, 1, 4),
        (1, 2, 3),
        (1, 2, 4),
        (2, 1, 3),
        (2, 1, 4),
        (2, 2, 2),
        (2, 2, 3),
    ]
    for d, alpha, m in cases:
        for _ in range(3):
            mats = _random_matrices(rng, d, alpha * m, m)
            expected = _oracle_min_t(mats, alpha)
            report = minimal_t(mats, alpha)
            assert report.exhaustive
            assert report.t == expected, (d, alpha, m)
            for t in range(alpha * m + 1):
                out = check_order_alpha_t(mats, alpha, t)
                assert bool(out) == (t >= expected), (d, alpha, m, t)


def test_matches_exhaustive_on_constructed_sets():
    cases = [
        (build_matrices(1, 4, 4), 1),
        (build_matrices(2, 3, 3), 1),
        (interlace_matrices(build_matrices(2, 3, 3), 2), 2),
        (interlace_matrices(build_matrices(2, 2, 2), 2), 2),
    ]
    for gset, alpha in cases:
        expected = _oracle_min_t(gset.matrices, alpha)
        report = minimal_t(gset, alpha)
        assert report.t == expected, gset.describe()
        if report.t > 0:
            _assert_witness_valid(
                gset.matrices, alpha, report.t - 1, report.witness
            )


def test_dependent_leading_rows_force_positive_t():
    mat = BitMatrix([0b001, 0b001, 0b100], 3)
    report = minimal_t([mat], 1)
    assert report.t >= 1
    assert report.t == _oracle_min_t([mat], 1) == 2
    assert report.witness is not None
    _assert_witness_valid([mat], 1, report.t - 1, report.witness)


def test_zero_leading_row_forces_t_alpha_m():
    mat = BitMatrix([0b00, 0b01], 2)
    report = minimal_t([mat], 1)
    assert report.t == 2
    assert report.witness == ((0, 1),)


def test_zero_pad_exposes_missing_rows():
    # Order 2 at m = 2 reaches row 4; with two rows stored, the verifier
    # refuses instead of reporting t = 0 for the rows it has.
    mat = identity(2)
    with pytest.raises(ValueError, match="needs 4 rows"):
        minimal_t([mat], 2)
    with pytest.raises(ValueError, match="needs 4 rows"):
        check_order_alpha_t([mat], 2, 1)
    padded = minimal_t(_padded([mat], 2), 2)
    assert padded.t == 2
    assert padded.witness == ((0, 3),)


def test_sobol_minimal_t_zero_through_m6():
    for m in range(1, 7):
        report = minimal_t(build_matrices(2, m, m), 1)
        assert report == NetQualityReport(1, m, 2, 0, True, None)


def test_interlaced_minimal_t_at_most_one():
    for m in range(1, 6):
        inter = interlace_matrices(build_matrices(2, m, m), 2)
        assert inter.t == 1
        report = minimal_t(inter, 2)
        assert report.t <= inter.t, m
        assert report.exhaustive


def test_order_reduction_monotonicity():
    cases = [
        (interlace_matrices(build_matrices(2, m, m), 2), 2)
        for m in range(1, 5)
    ]
    cases += [
        (interlace_matrices(build_matrices(3, m, m), 3), 3)
        for m in range(1, 4)
    ]
    cases += [
        (interlace_matrices(build_matrices(4, m, m), 2), 2)
        for m in range(1, 4)
    ]
    for gset, alpha in cases:
        t_alpha = minimal_t(gset, alpha).t
        for alpha_prime in range(1, alpha + 1):
            t_prime = minimal_t(gset, alpha_prime).t
            assert t_prime <= math.ceil(t_alpha * alpha_prime / alpha), (
                gset.describe(),
                alpha_prime,
            )


def test_node_cap_yields_inconclusive():
    gset = build_matrices(2, 6, 6)
    out = check_order_alpha_t(gset, 1, 0, node_cap=3)
    assert out.status == INCONCLUSIVE
    assert out.witness is None
    with pytest.raises(BudgetError):
        bool(out)


def test_minimal_t_under_node_cap_is_upper_bound():
    mats = [identity(4)]
    report = minimal_t(mats, 1, node_cap=2)
    assert report.t == 3
    assert not report.exhaustive
    assert report.witness is None


def test_verify_sequence_property_sobol():
    gset = build_matrices(2, 6, 6)
    out = verify_sequence_property(gset, 1, 0, 6)
    assert out.status == PASS
    assert bool(out)


def test_verify_sequence_property_interlaced():
    inter = interlace_matrices(build_matrices(2, 5, 5), 2)
    assert bool(verify_sequence_property(inter, 2, 1, 5))
    # The pair construction beats its own bound here: every block down to
    # m=5 verifies at t=0, so the stricter check passes as well.
    assert bool(verify_sequence_property(inter, 2, 0, 5))


def test_verify_sequence_property_below_minimal_fails():
    inter = interlace_matrices(build_matrices(4, 3, 3), 2)
    blocks = {
        m: minimal_t([mat.submatrix(2 * m, m) for mat in inter.matrices], 2).t
        for m in range(1, 4)
    }
    assert blocks == {1: 1, 2: 2, 3: 2}
    assert bool(verify_sequence_property(inter, 2, 2, 3))
    out = verify_sequence_property(inter, 2, 1, 3)
    assert out.status == FAIL
    subs = [mat.submatrix(4, 2) for mat in inter.matrices]
    _assert_witness_valid(subs, 2, 1, out.witness)


def test_verify_sequence_property_extent_check():
    gset = build_matrices(2, 4, 4)
    with pytest.raises(ValueError):
        verify_sequence_property(gset, 2, 1, 4)


def test_report_json_shape():
    report = minimal_t([BitMatrix([0b01, 0b01], 2)], 1)
    data = report.to_json_dict()
    assert set(data) == {"alpha", "m", "d", "t", "exhaustive", "witness"}
    assert data["witness"] == [[0, 2], [0, 1]]
    assert minimal_t([identity(2)], 1).to_json_dict()["witness"] is None


def test_input_validation():
    with pytest.raises(ValueError):
        check_order_alpha_t([], 1, 0)
    with pytest.raises(ValueError):
        check_order_alpha_t([identity(2)], 0, 0)
    with pytest.raises(ValueError):
        check_order_alpha_t([identity(2)], 1, 3)
    with pytest.raises(ValueError):
        check_order_alpha_t([identity(2)], 1, -1)
    with pytest.raises(ValueError):
        check_order_alpha_t(
            [identity(2), identity(3)], 1, 0
        )
    assert isinstance(check_order_alpha_t(build_matrices(1, 2, 2), 1, 0), CheckOutcome)


def _padded(mats, alpha: int) -> list[BitMatrix]:
    """The matrices with zero rows appended up to alpha*m."""
    extra = alpha * mats[0].ncols - mats[0].nrows
    if extra <= 0:
        return list(mats)
    return [BitMatrix(list(mat.row_masks) + [0] * extra, mat.ncols) for mat in mats]


def _assert_same_as_scan(mats, alpha: int, node_cap: int = 10_000_000) -> None:
    """minimal_t equals the per-t scan, or both refuse fewer than alpha*m rows."""
    if mats[0].nrows < alpha * mats[0].ncols:
        with pytest.raises(ValueError, match="rows"):
            minimal_t(mats, alpha, node_cap=node_cap)
        with pytest.raises(ValueError, match="rows"):
            scan_minimal_t(mats, alpha, node_cap=node_cap)
        return
    report = minimal_t(mats, alpha, node_cap=node_cap)
    assert report == scan_minimal_t(mats, alpha, node_cap=node_cap)
    if report.witness is not None:
        _assert_witness_valid(mats, alpha, report.t - 1, report.witness)


def _random_cases():
    rng = random.Random(29)
    cases = []
    for d in (1, 2, 3):
        for alpha in (1, 2, 3):
            m = 4 if d * alpha <= 2 else 3 if d * alpha <= 4 else 2
            for rows in (alpha * m - 1, alpha * m, alpha * m + 1):
                for padded in (False, True):
                    mats = _random_matrices(rng, d, rows, m)
                    cases.append(
                        pytest.param(mats, alpha, padded,
                                     id=f"random-d{d}-a{alpha}-r{rows}-pad{int(padded)}")
                    )
    return cases


def _block_cases(d: int, alpha: int, m_max: int, m_stop: int | None = None):
    gset = construct_matrices(d, alpha, m_max)
    return [
        pytest.param([mat.submatrix(alpha * m, m) for mat in gset.matrices], alpha,
                     False, id=f"construct-d{d}-a{alpha}-m{m}")
        for m in range(1, (m_stop or m_max) + 1)
    ]


_CONSTRUCTED = (
    _block_cases(1, 4, 16, m_stop=12)
    + _block_cases(2, 2, 8)
    + _block_cases(2, 3, 6)
    + _block_cases(3, 2, 5)
    + [pytest.param(build_matrices(2, m, m).matrices, 1, False, id=f"sobol-m{m}")
       for m in range(1, 7)]
)


@pytest.mark.parametrize("mats, alpha, padded", _random_cases() + _CONSTRUCTED)
def test_minimal_t_equals_scan(mats, alpha, padded):
    _assert_same_as_scan(_padded(mats, alpha) if padded else mats, alpha)


def test_minimal_t_equals_scan_at_every_lower_order():
    # The interlaced sets of test_order_reduction_monotonicity.
    cases = [(2, m, 2) for m in range(1, 5)] + [(3, m, 3) for m in range(1, 4)]
    cases += [(4, m, 2) for m in range(1, 4)]
    for streams, m, alpha in cases:
        gset = interlace_matrices(build_matrices(streams, m, m), alpha)
        for alpha_prime in range(1, alpha + 1):
            _assert_same_as_scan(gset.matrices, alpha_prime)


@pytest.mark.parametrize("node_cap", [1, 50, 5000])
def test_minimal_t_equals_scan_under_node_cap(node_cap):
    # The one search on block 12 takes 11,499 insertions, so every cap here
    # sends it down the capped path; the smaller caps send the others too.
    gset = construct_matrices(1, 4, 12)
    for m in (3, 10, 12):
        subs = [mat.submatrix(4 * m, m) for mat in gset.matrices]
        _assert_same_as_scan(subs, 4, node_cap=node_cap)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_minimal_t_equals_scan_on_random_matrices(data):
    d = data.draw(st.integers(1, 3), label="d")
    alpha = data.draw(st.integers(1, 3), label="alpha")
    m = data.draw(st.integers(1, max(1, 6 // (d * alpha))), label="m")
    rows = data.draw(st.integers(max(1, alpha * m - 2), alpha * m + 1), label="rows")
    masks = st.lists(st.integers(0, (1 << m) - 1), min_size=rows, max_size=rows)
    mats = [BitMatrix(data.draw(masks, label=f"rows of C{j}"), m) for j in range(d)]
    padded = data.draw(st.booleans(), label="padded")
    node_cap = data.draw(st.sampled_from([3, 40, 10_000_000]), label="node_cap")
    _assert_same_as_scan(_padded(mats, alpha) if padded else mats, alpha,
                         node_cap=node_cap)


@pytest.mark.parametrize("alpha", [0, -1])
def test_minimal_t_refuses_alpha_below_one(alpha):
    with pytest.raises(ValueError, match="alpha must be positive"):
        minimal_t([identity(2)], alpha)


def _search_outcome(search, mats, alpha: int, bound: int, node_cap: int, first_only: bool):
    """The search's (bound, witness, nodes), or the node cap it raised."""
    try:
        return search(mats, alpha, bound, node_cap, first_only)
    except _NodeCap:
        return "node cap"


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_search_equals_the_dict_based_reference(data):
    d = data.draw(st.integers(1, 3), label="d")
    alpha = data.draw(st.integers(1, 4), label="alpha")
    m = data.draw(st.integers(1, 6 // d), label="m")
    masks = st.lists(st.integers(0, (1 << m) - 1), min_size=alpha * m, max_size=alpha * m)
    mats = [BitMatrix(data.draw(masks, label=f"rows of C{j}"), m) for j in range(d)]
    for first_only in (False, True):
        for bound in range(alpha * m + 1):
            want = reference_search(mats, alpha, bound, DEFAULT_NODE_CAP, first_only)
            assert _search(mats, alpha, bound, DEFAULT_NODE_CAP, first_only) == want
            # The cap is raised past the last insertion and not before.
            nodes = want[2]
            for node_cap in (nodes - 1, nodes, nodes + 1):
                assert _search_outcome(
                    _search, mats, alpha, bound, node_cap, first_only
                ) == _search_outcome(
                    reference_search, mats, alpha, bound, node_cap, first_only
                )
            if nodes:
                assert _search_outcome(
                    _search, mats, alpha, bound, nodes - 1, first_only
                ) == "node cap"


# The blocks of the benchmark's verify net, d = 1 and alpha = 4, as the
# dict-based search found them: t, the witness and the search's insertions.
_VERIFY_BLOCKS = {
    1: (2, ((0, 2), (0, 1)), 6),
    2: (4, ((0, 4), (0, 1)), 21),
    3: (4, ((0, 5), (0, 3), (0, 1)), 50),
    4: (7, ((0, 6), (0, 3), (0, 1)), 95),
    5: (10, ((0, 5), (0, 4), (0, 2)), 240),
    6: (7, ((0, 7), (0, 6), (0, 4), (0, 1)), 507),
    7: (11, ((0, 7), (0, 6), (0, 4), (0, 1)), 1083),
    8: (7, ((0, 8), (0, 7), (0, 6), (0, 5), (0, 4), (0, 3), (0, 2)), 1809),
    9: (7, ((0, 16), (0, 14)), 2918),
    10: (10, ((0, 11), (0, 9), (0, 6), (0, 5), (0, 4), (0, 3), (0, 2), (0, 1)), 4990),
    11: (14, ((0, 11), (0, 9), (0, 6), (0, 5), (0, 4), (0, 3), (0, 2), (0, 1)), 6782),
    12: (9, ((0, 20), (0, 11), (0, 9)), 11499),
}


def test_verify_net_blocks_are_pinned():
    # A change to the traversal order moves a witness or a node count here.
    gset = construct_matrices(1, 4, 12)
    for m, (t, witness, nodes) in _VERIFY_BLOCKS.items():
        subs = [mat.submatrix(4 * m, m) for mat in gset.matrices]
        assert minimal_t(subs, 4) == NetQualityReport(4, m, 1, t, True, witness)
        assert _search(subs, 4, 4 * m, DEFAULT_NODE_CAP, False) == (4 * m - t, witness, nodes)
