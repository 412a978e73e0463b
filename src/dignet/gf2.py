"""Linear algebra over Z2 with bit-packed rows.

Vectors and matrix rows are stored as Python integers used as bit sets, so
XOR acts on a whole row at once.  Bit i of the integer holds component i of
the vector (component indices start at 0).
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "BitVector",
    "BitMatrix",
    "matvec",
    "rank",
    "rows_independent",
    "nullspace_basis",
    "echelon_insert",
]


class BitVector:
    """Fixed-length vector over Z2, packed into one integer.

    Bit i of ``bits`` is component i.  Components beyond ``length`` must be
    zero; the constructor enforces this.
    """

    __slots__ = ("bits", "length")

    def __init__(self, bits: int, length: int):
        if length < 0:
            raise ValueError(f"length must be nonnegative, got {length}")
        if bits < 0 or bits >> length:
            raise ValueError(f"bits 0x{bits:x} do not fit in {length} components")
        self.bits = bits
        self.length = length

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        mask = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"components must be 0 or 1, got {b!r}")
            mask |= b << n
            n += 1
        return cls(mask, n)

    def to_bits(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.length)]

    def weight(self) -> int:
        """Number of nonzero components."""
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"component {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")
        return BitVector(self.bits ^ other.bits, self.length)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.length == other.length and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.bits, self.length))

    def __repr__(self) -> str:
        return f"BitVector({''.join(str(b) for b in self.to_bits())})"


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
        vecs = [BitVector.from_bits(r) for r in rows]
        if not vecs:
            raise ValueError("need at least one row")
        ncols = vecs[0].length
        if any(v.length != ncols for v in vecs):
            raise ValueError("rows have inconsistent lengths")
        return cls([v.bits for v in vecs], ncols)

    @classmethod
    def from_strings(cls, lines: Iterable[str]) -> "BitMatrix":
        return cls.from_rows([[int(c) for c in line.strip()] for line in lines])

    def to_strings(self) -> list[str]:
        return [
            "".join("1" if (r >> j) & 1 else "0" for j in range(self.ncols))
            for r in self.row_masks
        ]

    def row(self, i: int) -> BitVector:
        return BitVector(self.row_masks[i], self.ncols)

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


def matvec(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over Z2.

    Component i of the result is the parity of ``row_i AND v``.
    """
    if v.length != m.ncols:
        raise ValueError(f"dimension mismatch: matrix has {m.ncols} columns, vector {v.length}")
    out = 0
    for i, r in enumerate(m.row_masks):
        out |= ((r & v.bits).bit_count() & 1) << i
    return BitVector(out, m.nrows)


def rank(m: BitMatrix) -> int:
    """Rank over Z2 by Gaussian elimination on bit-packed rows."""
    return _rank_of_masks(m.row_masks)


def rows_independent(rows: Sequence[BitVector]) -> bool:
    """True when the given vectors are linearly independent over Z2.

    The empty family is independent.  All vectors must share a length.
    """
    if not rows:
        return True
    n = rows[0].length
    if any(v.length != n for v in rows):
        raise ValueError("vectors have inconsistent lengths")
    return _rank_of_masks([v.bits for v in rows]) == len(rows)


def nullspace_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of the right nullspace {x : m x = 0} over Z2.

    Returns one BitVector of length ``m.ncols`` per free column, in
    ascending free-column order.  The basis is empty when the matrix has
    full column rank.
    """
    n = m.ncols
    pivots: dict[int, int] = {}
    for r in m.row_masks:
        echelon_insert(pivots, r)
    # Back-substitute so each pivot column appears in exactly one row.
    for lead in sorted(pivots, reverse=True):
        r = pivots[lead]
        for other_lead in pivots:
            if other_lead > lead and (pivots[other_lead] >> lead) & 1:
                pivots[other_lead] ^= r
    pivot_cols = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        x = 1 << free
        for lead, r in pivots.items():
            if (r >> free) & 1:
                x |= 1 << lead
        basis.append(BitVector(x, n))
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


def _rank_of_masks(masks: Iterable[int]) -> int:
    pivots: dict[int, int] = {}
    for r in masks:
        echelon_insert(pivots, r)
    return len(pivots)
