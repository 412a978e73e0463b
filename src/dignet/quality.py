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
are inserted into an incremental echelon basis, and an insertion that
reduces to zero leaves the current selection as a witness, which is itself
admissible because counted weights only shrink on subsets.

One depth-first search serves both questions.  The check at a fixed t
stops at its first dependency.  The minimal t is a branch-and-bound search
in the style of Pirsic & Schmid (J. Complexity 17, 2001): it starts at
weight bound alpha*m and, at each dependency of weight w, keeps the
selection and lowers the bound to w - 1, so t = alpha*m - bound at the end.
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
    ``t > 0`` and the search was exhaustive, ``witness`` holds a dependent
    selection of the smallest dependent weight alpha*m - t + 1, so it is
    admissible at ``t - 1`` (same ``(j, i)`` convention as
    :class:`CheckOutcome`).  ``exhaustive`` is False when the node cap
    left some smaller quality value inconclusive, in which case ``t`` is
    only an upper bound on the minimal value.
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


def _search(
    mats: list[BitMatrix],
    alpha: int,
    bound: int,
    node_cap: int,
    first_only: bool,
) -> tuple[int, tuple[tuple[int, int], ...] | None, int]:
    """Depth-first search over maximal selections of counted weight <= bound.

    A dependency ends the search when ``first_only``; otherwise it lowers
    the bound to its weight - 1 and the search backtracks, each frame
    reading the bound as it starts.  Returns the final bound, the last
    dependent selection found (or None) and the number of row insertions.
    Raises :class:`_NodeCap` past ``node_cap`` insertions, and ValueError
    when the matrices have fewer than alpha*m rows: a selection may reach
    down to row alpha*m, and a row that is not there cannot be checked.
    """
    d = len(mats)
    depth_cap = alpha * mats[0].ncols
    if mats[0].nrows < depth_cap:
        raise ValueError(
            f"order {alpha} needs {depth_cap} rows for m = {mats[0].ncols}, "
            f"but the matrices have {mats[0].nrows}"
        )
    # rows[j][i] is row i (1-based) of matrix j.
    rows = [[0, *mat.row_masks[:depth_cap]] for mat in mats]
    pivots: dict[int, int] = {}
    chosen: list[tuple[int, int]] = []
    witness = None
    nodes = 0

    def insert(j: int, i: int, weight: int) -> int:
        """Add row i of matrix j to the basis; return its pivot, or -1."""
        nonlocal nodes, bound, witness
        nodes += 1
        if nodes > node_cap:
            raise _NodeCap
        chosen.append((j, i))
        lead = echelon_insert(pivots, rows[j][i])
        if lead < 0:
            witness = tuple(chosen)
            chosen.pop()
            if first_only:
                raise _Dependent
            bound = weight - 1
        return lead

    def undo(lead: int) -> None:
        del pivots[lead]
        chosen.pop()

    def next_coord(j: int, weight: int) -> None:
        if j < d and weight < bound:
            counted(j, 0, depth_cap, weight)

    def counted(j: int, depth: int, hi: int, weight: int) -> None:
        # Spend another counted slot first (heavier selections fail sooner).
        # The range reads the bound once: a dependency found under row i
        # weighs at least weight + i, so the lowered bound still admits i - 1.
        for i in range(min(hi, bound - weight), 0, -1):
            lead = insert(j, i, weight + i)
            if lead >= 0:
                if depth + 1 == alpha:
                    frees = []
                    for f in range(i - 1, 0, -1):
                        free = insert(j, f, weight + i)
                        if free < 0:
                            break
                        frees.append(free)
                    else:
                        next_coord(j + 1, weight + i)
                    for free in reversed(frees):
                        undo(free)
                else:
                    counted(j, depth + 1, i - 1, weight + i)
                undo(lead)
        next_coord(j + 1, weight)

    try:
        next_coord(0, 0)
    except _Dependent:
        pass
    return bound, witness, nodes


def check_order_alpha_t(
    matrices: GeneratingMatrixSet | Sequence[BitMatrix],
    alpha: int,
    t: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> CheckOutcome:
    """Check the order-alpha row-selection property at quality t.

    Selections draw from the first alpha*m rows of each matrix, which must
    be present; deeper rows can never appear in an admissible selection
    because a counted index above alpha*m already exceeds the weight bound.

    Args:
        matrices: the d generating matrices (or a full matrix set).
        alpha: order of the check, at least 1.
        t: candidate quality, between 0 and alpha*m.
        node_cap: abort with an inconclusive outcome after this many row
            insertions.  The outcome is never a wrong boolean.

    Returns:
        A :class:`CheckOutcome`; on failure the witness is the first
        dependent selection in search order.
    """
    mats = _matrix_list(matrices)
    m = mats[0].ncols
    if alpha < 1:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0 <= t <= alpha * m:
        raise ValueError(f"t must lie in [0, {alpha * m}], got {t}")
    try:
        _, witness, nodes = _search(
            mats, alpha, alpha * m - t, node_cap, first_only=True
        )
    except _NodeCap:
        return CheckOutcome(INCONCLUSIVE, None, node_cap + 1)
    if witness is not None:
        return CheckOutcome(FAIL, witness, nodes)
    return CheckOutcome(PASS, None, nodes)


def minimal_t(
    matrices: GeneratingMatrixSet | Sequence[BitMatrix],
    alpha: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> NetQualityReport:
    """Smallest quality t passing the order-alpha check, with a witness.

    One branch-and-bound search finds the smallest counted weight w* of a
    dependent selection, and t = alpha*m - w* + 1 (0 when every maximal
    selection is independent).  Lowering the bound only prunes the search
    tree and keeps the order of what is left, so the witness is the first
    dependency of weight w* in search order: the one the fixed check at
    t - 1 reports.

    A search cut off by ``node_cap`` has certified no passing value, so it
    falls back to scanning t upward with :func:`check_order_alpha_t`.  The
    check is monotone in t, so the first passing value is minimal whenever
    every smaller value failed conclusively; otherwise the report says
    ``exhaustive=False`` and ``t`` is only an upper bound.  t = alpha*m
    always passes with an empty enumeration, so the scan terminates.
    Matrices with fewer than alpha*m rows are refused with ValueError.
    """
    mats = _matrix_list(matrices)
    if alpha < 1:
        raise ValueError(f"alpha must be positive, got {alpha}")
    d = len(mats)
    m = mats[0].ncols
    try:
        bound, witness, _ = _search(
            mats, alpha, alpha * m, node_cap, first_only=False
        )
    except _NodeCap:
        pass
    else:
        # The bound only drops at a dependency, so t > 0 exactly when a
        # witness was kept.
        return NetQualityReport(alpha, m, d, alpha * m - bound, True, witness)
    witness = None
    exhaustive = True
    for t in range(alpha * m + 1):
        out = check_order_alpha_t(mats, alpha, t, node_cap=node_cap)
        if out.status == PASS:
            return NetQualityReport(
                alpha, m, d, t, exhaustive,
                witness if (t > 0 and exhaustive) else None,
            )
        if out.status == FAIL:
            witness = out.witness
        else:
            exhaustive = False
            witness = None
    raise AssertionError("unreachable: the empty check at t = alpha*m passes")
