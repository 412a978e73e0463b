"""Exact digital sequence points as dyadic rationals, stored by columns.

Point n of a digital sequence is x_n = C_j * digits(n) over Z2 in each
coordinate j.  A ``PointSet`` keeps all of them as one (N, d) uint64 array
of integer numerators at a fixed precision of at most 64 digits, so every
operation here is exact and floats only appear when a caller asks for them.
The map n -> x_n is linear over Z2, so for n < 2^b point n + 2^b is point n
XOR the image of digit b; ``generate_points`` fills the array by these XOR
doublings, one array operation per input digit.  ``DyadicPoint`` is the
scalar type of single points such as digital shifts.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from functools import reduce
from operator import xor
from pathlib import Path
from typing import IO

import numpy as np

from .errors import PrecisionError
from .niederreiter import GeneratingMatrixSet

__all__ = [
    "DyadicPoint",
    "PointSet",
    "generate_points",
    "digital_shift",
    "tail_shift_vector",
    "block_decomposition",
    "sum_of_digits",
    "write_points_csv",
    "read_points_csv",
]

MAX_PRECISION = 64


def _check_precision(precision: int) -> None:
    """Refuse precisions that a uint64 numerator cannot hold."""
    if precision > MAX_PRECISION:
        raise PrecisionError(
            f"precision {precision} exceeds the {MAX_PRECISION}-digit limit"
        )
    if precision < 0:
        raise ValueError("precision must be nonnegative")


@dataclass(frozen=True, slots=True)
class DyadicPoint:
    """Point in [0,1)^d with coordinate j equal to numerators[j] / 2^precision."""

    numerators: tuple[int, ...]
    precision: int

    def __post_init__(self) -> None:
        if self.precision < 0:
            raise ValueError("precision must be nonnegative")
        for v in self.numerators:
            if v < 0 or v >> self.precision:
                raise ValueError(
                    f"numerator {v} out of range for precision {self.precision}"
                )

    @property
    def dimension(self) -> int:
        return len(self.numerators)

    def at_precision(self, precision: int) -> "DyadicPoint":
        """Same point with zero digits appended (precision may only grow)."""
        if precision < self.precision:
            raise ValueError("cannot lower precision without losing digits")
        shift = precision - self.precision
        return DyadicPoint(tuple(v << shift for v in self.numerators), precision)

    def xor(self, other: "DyadicPoint") -> "DyadicPoint":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch in digital shift")
        w = max(self.precision, other.precision)
        a = self.at_precision(w)
        b = other.at_precision(w)
        return DyadicPoint(tuple(x ^ y for x, y in zip(a.numerators, b.numerators)), w)


@dataclass(frozen=True, eq=False)
class PointSet:
    """N points in [0,1)^d: row n of ``numerators`` over 2^precision is point n.

    ``numerators`` may be given as any (N, d) array-like of non-negative
    integers; it is stored as a read-only uint64 array after the precision
    and the range of every entry have been checked, here and only here.
    """

    numerators: np.ndarray
    precision: int
    provenance: str = ""

    def __post_init__(self) -> None:
        w = self.precision
        _check_precision(w)
        try:
            nums = np.array(self.numerators, dtype=np.uint64)
        except OverflowError:
            raise ValueError(f"numerator out of range for precision {w}") from None
        if nums.ndim != 2 or 0 in nums.shape:
            raise ValueError(
                f"point set needs a non-empty (N, d) array, got shape {nums.shape}"
            )
        if w < MAX_PRECISION and (nums >> np.uint64(w)).any():
            raise ValueError(f"numerator out of range for precision {w}")
        nums.flags.writeable = False
        object.__setattr__(self, "numerators", nums)

    @property
    def size(self) -> int:
        return self.numerators.shape[0]

    @property
    def dimension(self) -> int:
        return self.numerators.shape[1]

    @property
    def points(self) -> list[DyadicPoint]:
        """The rows as scalar points of Python ints (a derived, read-only view)."""
        w = self.precision
        return [DyadicPoint(tuple(row), w) for row in self.numerators.tolist()]


def _column_numerators(gset: GeneratingMatrixSet, precision: int) -> list[list[int]]:
    """Numerator contribution of each input digit, per coordinate.

    Entry [j][b] is the numerator produced by C_j applied to the b-th unit
    digit vector, truncated to the first ``precision`` output digits (digit
    i carries weight 2^(precision - i)).
    """
    cols = gset.cols
    out = []
    for mat in gset.matrices:
        vals = [0] * cols
        for i, row_mask in enumerate(mat.row_masks[:precision]):
            weight = 1 << (precision - 1 - i)
            while row_mask:
                b = row_mask & -row_mask
                vals[b.bit_length() - 1] ^= weight
                row_mask ^= b
        out.append(vals)
    return out


def generate_points(
    gset: GeneratingMatrixSet, count: int, precision: int | None = None
) -> PointSet:
    """First ``count`` points of the sequence, exact at the given precision.

    ``precision`` defaults to the full row extent of the matrices.  Points
    are returned in index order: rows [2^b, 2^(b+1)) are rows [0, 2^b)
    XOR the image of input digit b.
    """
    if precision is None:
        precision = gset.rows
    _check_precision(precision)
    if precision > gset.rows:
        raise ValueError(
            f"precision {precision} exceeds the {gset.rows} rows available"
        )
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if count > (1 << gset.cols):
        raise ValueError(
            f"cannot index {count} points with {gset.cols} matrix columns"
        )
    digit_images = np.array(_column_numerators(gset, precision), dtype=np.uint64).T
    nums = np.zeros((count, gset.dimension), dtype=np.uint64)
    for b in range((count - 1).bit_length()):
        h = 1 << b
        tail = min(h, count - h)
        np.bitwise_xor(nums[:tail], digit_images[b], out=nums[h : h + tail])
    return PointSet(nums, precision, provenance=gset.describe())


def digital_shift(pset: PointSet, shift: DyadicPoint) -> PointSet:
    """XOR every point with the shift, aligning precisions by zero padding."""
    if shift.dimension != pset.dimension:
        raise ValueError(
            f"shift dimension {shift.dimension} does not match point set {pset.dimension}"
        )
    w = max(pset.precision, shift.precision)
    shifted = [p.xor(shift).numerators for p in pset.points]
    return PointSet(shifted, w, provenance=f"{pset.provenance} + digital shift")


def block_decomposition(total: int) -> list[int]:
    """Exponents m_1 > m_2 > ... with total = sum of 2^{m_i}."""
    if total < 1:
        raise ValueError(f"need a positive total, got {total}")
    return [b for b in range(total.bit_length() - 1, -1, -1) if (total >> b) & 1]


def tail_shift_vector(
    gset: GeneratingMatrixSet,
    block_index: int,
    total: int,
    precision: int | None = None,
) -> DyadicPoint:
    """Digital shift carried by block ``block_index`` of an N-point prefix.

    Splitting N = 2^{m_1} + ... + 2^{m_r} (m_1 > ... > m_r) cuts the first N
    sequence points into consecutive blocks of those sizes.  Block i equals
    the 2^{m_i}-point net shifted by the image of the high digits shared by
    all its indices, which is exactly the sequence point at index
    2^{m_1} + ... + 2^{m_{i-1}}.  Blocks are numbered from 1.
    """
    exponents = block_decomposition(total)
    if not 1 <= block_index <= len(exponents):
        raise ValueError(
            f"block index {block_index} out of range for {len(exponents)} blocks"
        )
    if precision is None:
        precision = gset.rows
    _check_precision(precision)
    base = sum(1 << e for e in exponents[: block_index - 1])
    if base >> gset.cols:
        raise ValueError(
            f"block base index {base} does not fit in {gset.cols} matrix columns"
        )
    digits = [b for b in range(base.bit_length()) if base >> b & 1]
    return DyadicPoint(
        tuple(
            reduce(xor, (vals[b] for b in digits), 0)
            for vals in _column_numerators(gset, precision)
        ),
        precision,
    )


def sum_of_digits(n: int) -> int:
    """Number of ones in the binary expansion of n (n >= 1)."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    return n.bit_count()


# ---------------------------------------------------------------------------
# CSV export / import.  Hex numerators are authoritative; the float column is
# a convenience for spreadsheets, which the reader checks against them.
# ---------------------------------------------------------------------------


# Rows formatted per write call; bounds the temporary strings and lists.
_CSV_CHUNK = 1 << 14


def write_points_csv(
    pset: PointSet, out: IO[str] | str | Path, timestamp: str | None = None
) -> None:
    """Write points with columns n, then per coordinate hex and float values.

    The single leading comment line names the generator and carries the only
    timestamp in the file.
    """
    if isinstance(out, (str, Path)):
        with open(out, "w", newline="") as fh:
            write_points_csv(pset, fh, timestamp=timestamp)
        return
    if timestamp is None:
        timestamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    out.write(f"# generator: {pset.provenance}; written: {timestamp}\n")
    d, w = pset.dimension, pset.precision
    out.write(",".join(["n"] + [f"x{j}_hex,x{j}" for j in range(1, d + 1)]) + "\n")
    row_format = "{}" + f",0x{{:X}}/{w},{{:.17g}}" * d + "\n"
    for start in range(0, pset.size, _CSV_CHUNK):
        nums = pset.numerators[start : start + _CSV_CHUNK]
        values = nums.astype(np.float64) * 2.0**-w
        columns = []
        for j in range(d):
            columns += [nums[:, j].tolist(), values[:, j].tolist()]
        out.write(
            "".join(
                row_format.format(n, *fields)
                for n, fields in enumerate(zip(*columns), start)
            )
        )


def read_points_csv(source: IO[str] | str | Path) -> PointSet:
    """Rebuild a point set from the CSV form; the hex fields are authoritative.

    Lines are parsed as they stream in, into a flat list of numerators and
    one of float fields; a row whose index is not its row number 0, 1, ...
    is refused there.  The row width, the precision and the numerators'
    range are checked once at the end, and then every float field must
    equal float64(numerator) * 2^-precision, the value the writer emits.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return read_points_csv(fh)
    provenance = ""
    flat: list[int] = []
    floats: list[str] = []
    precisions: set[str] = set()
    widths: set[int] = set()
    row = 0
    for line in source:
        line = line.rstrip("\r\n")
        if line.startswith("#"):
            text = line.lstrip("# ")
            if text.startswith("generator:"):
                provenance = text[len("generator:"):].split("; written:")[0].strip()
            continue
        fields = line.split(",")
        if not line or fields[0] == "n":
            continue
        if fields[0] != str(row):
            raise ValueError(f"row {row} has index {fields[0]!r}")
        row += 1
        widths.add(len(fields))
        for field in fields[1::2]:
            try:
                num, prec = field.split("/")
                flat.append(int(num, 16))
            except ValueError:
                raise ValueError(f"malformed dyadic field {field!r}") from None
            precisions.add(prec)
        floats += fields[2::2]
    if not widths:
        raise ValueError("no data rows in points CSV")
    if len(widths) != 1 or min(widths) < 3 or min(widths) % 2 == 0:
        raise ValueError(
            f"points rows need one odd field count of at least 3, got {sorted(widths)}"
        )
    width = widths.pop()
    try:
        found = {int(p) for p in precisions}
    except ValueError:
        raise ValueError(f"malformed precision among {sorted(precisions)}") from None
    if len(found) != 1:
        raise ValueError(f"inconsistent precisions {sorted(found)} in points CSV")
    # An object array keeps the Python ints, so PointSet sees any value that
    # does not fit its precision.
    rows = np.array(flat, dtype=object).reshape(-1, (width - 1) // 2)
    pset = PointSet(rows, found.pop(), provenance=provenance)
    expected = pset.numerators.astype(np.float64) * 2.0**-pset.precision
    try:
        values = np.array(floats, dtype=np.float64).reshape(expected.shape)
    except ValueError:
        raise ValueError("malformed float field in points CSV") from None
    wrong = np.flatnonzero((values != expected).any(axis=1))
    if wrong.size:
        raise ValueError(f"row {wrong[0]} has a float field other than its hex value")
    return pset
