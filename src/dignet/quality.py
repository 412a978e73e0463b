"""Order-alpha equidistribution checks for generating matrix sets.

A set of d matrices over Z2 with m columns passes the order-alpha check at
quality t when every admissible row selection is linearly independent.  A
selection picks, per coordinate j, row indices i_{j,1} > i_{j,2} > ... >= 1
(possibly none); only the largest min(count, alpha) indices per coordinate
count toward the weight, and a selection is admissible when the total
counted weight is at most alpha*m - t.

The search enumerates only maximal selections: whenever a coordinate uses
alpha counted rows, every row below the alpha-th one is included for free.
Any admissible selection is a subset of such a maximal one, and subsets of
independent families stay independent, so the reduction is lossless.  Rows
are inserted into an incremental echelon basis; the first insertion that
reduces to zero aborts the search with the current selection as a witness,
which is itself admissible because counted weights only shrink on subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetError
from .gf2 import BitMatrix, echelon_insert
from .niederreiter import GeneratingMatrixSet

__all__ = [
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
    "CheckOutcome",
    "NetQualityReport",
    "check_order_alpha_t",
    "minimal_t",
    "verify_sequence_property",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

DEFAULT_NODE_CAP = 10_000_000


class _NodeCap(Exception):
    """Internal signal: enumeration hit the node cap."""


class _Dependent(Exception):
    """Internal signal: an admissible selection reduced to zero."""


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one order-alpha check.

    ``status`` is one of :data:`PASS`, :data:`FAIL`, :data:`INCONCLUSIVE`.
    On failure ``witness`` lists the dependent row selection as ``(j, i)``
    pairs, where ``j`` indexes the matrix (0-based) and ``i`` is the row
    depth (1-based, equal to the weight the row contributes when counted).
    ``nodes`` counts row insertions performed by the search.

    Truth testing returns whether the check passed and refuses to collapse
    an inconclusive outcome into a boolean.
    """

    status: str
    witness: tuple[tuple[int, int], ...] | None
    nodes: int

    def __bool__(self) -> bool:
        if self.status == INCONCLUSIVE:
            raise BudgetError(
                f"check hit the node cap after {self.nodes} nodes; "
                "result is inconclusive"
            )
        return self.status == PASS


@dataclass(frozen=True)
class NetQualityReport:
    """Verified quality parameter of a digital net.

    ``t`` is the smallest value passing the order-alpha check.  When
    ``t > 0`` and the scan below ``t`` was exhaustive, ``witness`` holds a
    dependent selection admissible at ``t - 1`` (same ``(j, i)`` convention
    as :class:`CheckOutcome`).  ``exhaustive`` is False when some smaller
    quality value came back inconclusive under the node cap, in which case
    ``t`` is only an upper bound on the minimal value.
    """

    alpha: int
    m: int
    d: int
    t: int
    exhaustive: bool
    witness: tuple[tuple[int, int], ...] | None

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "m": self.m,
            "d": self.d,
            "t": self.t,
            "exhaustive": self.exhaustive,
            "witness": None if self.witness is None else [list(p) for p in self.witness],
        }


def _matrix_list(matrices: GeneratingMatrixSet | Sequence[BitMatrix]) -> list[BitMatrix]:
    if isinstance(matrices, GeneratingMatrixSet):
        return list(matrices.matrices)
    out = list(matrices)
    if not out:
        raise ValueError("need at least one matrix")
    if any(not isinstance(m, BitMatrix) for m in out):
        raise TypeError("matrices must be BitMatrix values")
    if len({(m.nrows, m.ncols) for m in out}) > 1:
        raise ValueError("matrices disagree on shape")
    return out


def check_order_alpha_t(
    matrices: GeneratingMatrixSet | Sequence[BitMatrix],
    alpha: int,
    t: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    zero_pad: bool = False,
) -> CheckOutcome:
    """Check the order-alpha row-selection property at quality t.

    Selections draw from the first min(rows, alpha*m) rows of each matrix;
    deeper rows can never appear in an admissible selection because a
    counted index above alpha*m already exceeds the weight bound.  With
    ``zero_pad`` the matrices are treated as having alpha*m rows, missing
    ones all zero, so any selection reaching past the stored rows fails.

    Args:
        matrices: the d generating matrices (or a full matrix set).
        alpha: order of the check, at least 1.
        t: candidate quality, between 0 and alpha*m.
        node_cap: abort with an inconclusive outcome after this many row
            insertions.  The outcome is never a wrong boolean.
        zero_pad: extend short matrices with zero rows up to alpha*m.

    Returns:
        A :class:`CheckOutcome`; on failure the witness is the first
        dependent selection in search order.
    """
    mats = _matrix_list(matrices)
    d = len(mats)
    m = mats[0].ncols
    if alpha < 1:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0 <= t <= alpha * m:
        raise ValueError(f"t must lie in [0, {alpha * m}], got {t}")
    depth_cap = alpha * m if zero_pad else min(mats[0].nrows, alpha * m)
    stored = mats[0].nrows

    def row_bits(j: int, i: int) -> int:
        return mats[j].row_masks[i - 1] if i <= stored else 0

    pivots: dict[int, int] = {}
    chosen: list[tuple[int, int]] = []
    nodes = 0

    def insert(j: int, i: int) -> int:
        """Add row i of matrix j to the basis; return its pivot position."""
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise _NodeCap
        chosen.append((j, i))
        lead = echelon_insert(pivots, row_bits(j, i))
        if lead < 0:
            raise _Dependent
        return lead

    def undo(lead: int) -> None:
        del pivots[lead]
        chosen.pop()

    def next_coord(j: int, budget: int) -> None:
        if j < d:
            counted(j, 0, depth_cap, budget)

    def counted(j: int, depth: int, hi: int, budget: int) -> None:
        # Spend another counted slot first (heavier selections fail sooner).
        for i in range(min(hi, budget), 0, -1):
            lead = insert(j, i)
            if depth + 1 == alpha:
                frees = [insert(j, f) for f in range(i - 1, 0, -1)]
                next_coord(j + 1, budget - i)
                for f in reversed(frees):
                    undo(f)
            else:
                counted(j, depth + 1, i - 1, budget - i)
            undo(lead)
        next_coord(j + 1, budget)

    try:
        next_coord(0, alpha * m - t)
    except _Dependent:
        return CheckOutcome(FAIL, tuple(chosen), nodes)
    except _NodeCap:
        return CheckOutcome(INCONCLUSIVE, None, nodes)
    return CheckOutcome(PASS, None, nodes)


def minimal_t(
    matrices: GeneratingMatrixSet | Sequence[BitMatrix],
    alpha: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    zero_pad: bool = False,
) -> NetQualityReport:
    """Smallest quality t passing the order-alpha check, with a witness.

    Scans t upward from zero.  The check is monotone in t (a larger t only
    shrinks the set of admissible selections), so the first passing value
    is minimal whenever every smaller value failed conclusively. t =
    alpha*m always passes with an empty enumeration, so the scan
    terminates.
    """
    mats = _matrix_list(matrices)
    d = len(mats)
    m = mats[0].ncols
    witness = None
    exhaustive = True
    for t in range(alpha * m + 1):
        out = check_order_alpha_t(
            mats, alpha, t, node_cap=node_cap, zero_pad=zero_pad
        )
        if out.status == PASS:
            return NetQualityReport(
                alpha=alpha,
                m=m,
                d=d,
                t=t,
                exhaustive=exhaustive,
                witness=witness if (t > 0 and exhaustive) else None,
            )
        if out.status == FAIL:
            witness = out.witness
        else:
            exhaustive = False
            witness = None
    raise AssertionError("unreachable: the empty check at t = alpha*m passes")


def verify_sequence_property(
    gset: GeneratingMatrixSet,
    alpha: int,
    t: int,
    m_max: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> CheckOutcome:
    """Check the order-alpha property of every leading block up to m_max.

    For each m with alpha*m > t and m <= m_max, the upper-left
    (alpha*m) x m submatrices must pass the order-alpha check at quality t.
    The scan runs over increasing m and stops at the first failure, whose
    witness is returned; an inconclusive block makes the aggregate
    inconclusive unless a later block fails outright.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    if gset.rows < alpha * m_max or gset.cols < m_max:
        raise ValueError(
            f"matrix extent {gset.rows}x{gset.cols} does not cover "
            f"{alpha * m_max}x{m_max}"
        )
    total_nodes = 0
    saw_inconclusive = False
    for m in range(1, m_max + 1):
        if alpha * m <= t:
            continue
        subs = [mat.submatrix(alpha * m, m) for mat in gset.matrices]
        out = check_order_alpha_t(subs, alpha, t, node_cap=node_cap)
        total_nodes += out.nodes
        if out.status == FAIL:
            return CheckOutcome(FAIL, out.witness, total_nodes)
        if out.status == INCONCLUSIVE:
            saw_inconclusive = True
    status = INCONCLUSIVE if saw_inconclusive else PASS
    return CheckOutcome(status, None, total_nodes)
