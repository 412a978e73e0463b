"""Linear algebra over Z2 with bit-packed rows.

Vectors and matrix rows are stored as Python integers used as bit sets, so
XOR acts on a whole row at once.  Bit i of the integer holds component i of
the vector (component indices start at 0).
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "BitMatrix",
    "matvec",
    "rank",
    "nullspace_basis",
    "echelon_insert",
]


class BitMatrix:
    """Matrix over Z2 stored as a tuple of bit-packed rows.

    Row i, column j is bit j of ``row_masks[i]``.  The textual form used by
    :meth:`from_strings` / :meth:`to_strings` writes each row as a string of
    '0'/'1' characters with column 0 leftmost.
    """

    __slots__ = ("row_masks", "nrows", "ncols")

    def __init__(self, row_masks: Sequence[int], ncols: int):
        masks = tuple(row_masks)
        for r in masks:
            if r < 0 or r >> ncols:
                raise ValueError(f"row 0x{r:x} does not fit in {ncols} columns")
        self.row_masks = masks
        self.nrows = len(masks)
        self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls([0] * nrows, ncols)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BitMatrix":
        """Build from row lists of 0/1 entries (all rows the same length)."""
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("need at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("rows have inconsistent lengths")
        if any(b not in (0, 1) for r in rows for b in r):
            raise ValueError("entries must be 0 or 1")
        return cls([sum(b << j for j, b in enumerate(r)) for r in rows], ncols)

    @classmethod
    def from_strings(cls, lines: Iterable[str]) -> "BitMatrix":
        return cls.from_rows([[int(c) for c in line.strip()] for line in lines])

    def to_strings(self) -> list[str]:
        return [
            "".join("1" if (r >> j) & 1 else "0" for j in range(self.ncols))
            for r in self.row_masks
        ]

    def entry(self, i: int, j: int) -> int:
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range for {self.ncols} columns")
        return (self.row_masks[i] >> j) & 1

    def column_mask(self, j: int) -> int:
        """Column j packed into an integer (bit i = entry in row i)."""
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range for {self.ncols} columns")
        mask = 0
        for i, r in enumerate(self.row_masks):
            mask |= ((r >> j) & 1) << i
        return mask

    def transpose(self) -> "BitMatrix":
        return BitMatrix([self.column_mask(j) for j in range(self.ncols)], self.nrows)

    def submatrix(self, nrows: int, ncols: int) -> "BitMatrix":
        """Upper-left block of the given shape."""
        if nrows > self.nrows or ncols > self.ncols:
            raise ValueError(
                f"requested {nrows}x{ncols} block from {self.nrows}x{self.ncols} matrix"
            )
        mask = (1 << ncols) - 1
        return BitMatrix([r & mask for r in self.row_masks[:nrows]], ncols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.row_masks == other.row_masks

    def __hash__(self) -> int:
        return hash((self.row_masks, self.ncols))

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.ncols})"


def matvec(m: BitMatrix, bits: int) -> int:
    """Matrix-vector product over Z2 of a vector packed into ``bits``.

    Bit i of the result is the parity of ``row_i AND bits``.
    """
    if bits < 0 or bits >> m.ncols:
        raise ValueError(f"vector 0x{bits:x} does not fit in {m.ncols} columns")
    out = 0
    for i, r in enumerate(m.row_masks):
        out |= ((r & bits).bit_count() & 1) << i
    return out


def rank(m: BitMatrix) -> int:
    """Rank over Z2 by Gaussian elimination on bit-packed rows."""
    pivots: dict[int, int] = {}
    for r in m.row_masks:
        echelon_insert(pivots, r)
    return len(pivots)


def nullspace_basis(m: BitMatrix) -> list[int]:
    """Basis of the right nullspace {x : m x = 0} over Z2.

    Returns one vector of ``m.ncols`` bits per free column, in ascending
    free-column order.  The basis is empty when the matrix has full column
    rank.
    """
    pivots: dict[int, int] = {}
    for r in m.row_masks:
        echelon_insert(pivots, r)
    # Back-substitute so each pivot column appears in exactly one row.
    for lead in sorted(pivots, reverse=True):
        r = pivots[lead]
        for other_lead in pivots:
            if other_lead > lead and (pivots[other_lead] >> lead) & 1:
                pivots[other_lead] ^= r
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        x = 1 << free
        for lead, r in pivots.items():
            if (r >> free) & 1:
                x |= 1 << lead
        basis.append(x)
    return basis


def echelon_insert(pivots: dict[int, int], row: int) -> int:
    """Reduce ``row`` against the ``{lead: row}`` basis and add what is left.

    Returns the lead (highest set bit) of the added row, or -1 when the row
    reduces to zero and the basis is unchanged.
    """
    while row:
        lead = row.bit_length() - 1
        if lead not in pivots:
            pivots[lead] = row
            return lead
        row ^= pivots[lead]
    return -1

