"""Exact digital sequence points as dyadic rationals, stored by columns.

Point n of a digital sequence is x_n = C_j * digits(n) over Z2 in each
coordinate j.  A ``PointSet`` keeps all of them as one (N, d) uint64 array
of integer numerators at a fixed precision of at most 64 digits, so every
operation here is exact and floats only appear when a caller asks for them.
The map n -> x_n is linear over Z2, so for n < 2^b point n + 2^b is point n
XOR the image of digit b; ``generate_points`` fills the array by these XOR
doublings, one array operation per input digit, and refuses a set whose
numerators would exceed ``errors.BUDGET_BYTES`` before allocating it.
``DyadicPoint`` is the scalar type of the rows that ``PointSet.points``, a
generator, yields one chunk at a time.  A set's numerators are
held once: ``PointSet`` adopts an owned read-only uint64 array instead of
copying it, ``generate_points`` hands over the array it fills, and the CSV
reader of a file fills one array sized by a count of the file's lines, so
it holds the numerators plus one chunk of the file.
"""

from __future__ import annotations

import datetime as _dt
import re
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import IO

import numpy as np

from .errors import PrecisionError, check_budget
from .niederreiter import GeneratingMatrixSet

__all__ = [
    "DyadicPoint",
    "PointSet",
    "generate_points",
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


@dataclass(frozen=True, eq=False)
class PointSet:
    """N points in [0,1)^d: row n of ``numerators`` over 2^precision is point n.

    ``numerators`` may be given as any (N, d) array-like of non-negative
    integers; it is stored as a read-only uint64 array after the precision
    and the range of every entry have been checked, here and only here.
    An owned (``base is None``), read-only, C-contiguous uint64 ndarray is
    adopted as it is, so a set is held once; its owner must not make it
    writeable again.  Anything else, a writeable array or a view included,
    is copied and the caller's object is left alone.
    """

    numerators: np.ndarray
    precision: int
    provenance: str = ""

    def __post_init__(self) -> None:
        w = self.precision
        _check_precision(w)
        nums = self.numerators
        if not (
            type(nums) is np.ndarray
            and nums.dtype == np.uint64
            and nums.base is None
            and not nums.flags.writeable
            and nums.flags.c_contiguous
        ):
            try:
                nums = np.array(nums, dtype=np.uint64)
            except OverflowError:
                raise ValueError(f"numerator out of range for precision {w}") from None
            nums.flags.writeable = False
        if nums.ndim != 2 or 0 in nums.shape:
            raise ValueError(
                f"point set needs a non-empty (N, d) array, got shape {nums.shape}"
            )
        # One reduction, not an (N, d) temporary of shifted values.
        if w < MAX_PRECISION and int(nums.max()) >> w:
            raise ValueError(f"numerator out of range for precision {w}")
        object.__setattr__(self, "numerators", nums)

    @property
    def size(self) -> int:
        return self.numerators.shape[0]

    @property
    def dimension(self) -> int:
        return self.numerators.shape[1]

    @property
    def points(self) -> Iterator[DyadicPoint]:
        """The rows as scalar points of Python ints, one pass per read.

        A generator over ``numerators``, ``_CSV_CHUNK`` rows at a time.  The
        rows are range-checked already, so each point's slots are set
        directly; the public ``DyadicPoint`` constructor keeps its checks.
        """
        nums, w = self.numerators, self.precision
        new = object.__new__
        set_numerators = DyadicPoint.numerators.__set__
        set_precision = DyadicPoint.precision.__set__
        for start in range(0, len(nums), _CSV_CHUNK):
            for row in map(tuple, nums[start : start + _CSV_CHUNK].tolist()):
                point = new(DyadicPoint)
                set_numerators(point, row)
                set_precision(point, w)
                yield point


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
    XOR the image of input digit b.  A set whose count * d * 8 bytes of
    numerators exceed ``errors.BUDGET_BYTES`` is refused with
    ``BudgetError`` before anything is allocated.
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
    need = count * gset.dimension * 8
    check_budget(need, f"room for {count} rows of points at d={gset.dimension} "
                       f"needs {need} bytes of numerators")
    digit_images = np.array(_column_numerators(gset, precision), dtype=np.uint64).T
    nums = np.zeros((count, gset.dimension), dtype=np.uint64)
    for b in range((count - 1).bit_length()):
        h = 1 << b
        tail = min(h, count - h)
        np.bitwise_xor(nums[:tail], digit_images[b], out=nums[h : h + tail])
    nums.flags.writeable = False
    return PointSet(nums, precision, provenance=gset.describe())


# ---------------------------------------------------------------------------
# CSV export / import.  Hex numerators are authoritative; the float column is
# a convenience for spreadsheets, which the reader checks against them.
# ---------------------------------------------------------------------------


# Lines per chunk in both CSV directions: the writer formats this many rows
# with one string operation, and the reader takes this many lines at a time
# and hands their data rows to numpy's C tokenizer, so neither direction
# ever holds the whole file.  It bounds everything either direction holds
# besides the numerators: the chunk's lines, numpy's parsed table, the
# decoded fields and the formatted rows (a few hundred KiB at d = 2).
# ``PointSet.points`` converts this many rows at a time as well.
_CSV_CHUNK = 1 << 11

# Bytes per read of the binary pass that bounds a points file's rows.
_COUNT_BLOCK = 1 << 16

# Byte width of a hex field as the reader parses it.  The writer's longest
# field, 0x<16 digits>/64, has 21 bytes; numpy cuts a longer field to this
# width without a word, so a field that fills it is refused as too long.
_HEX_BYTES = 32


def write_points_csv(
    pset: PointSet, out: IO[str] | str | Path, timestamp: str | None = None
) -> None:
    """Write points with columns n, then per coordinate hex and float values.

    The single leading comment line names the generator and carries the only
    timestamp in the file.  Rows are written in chunks of ``_CSV_CHUNK``,
    each formatted by one ``%`` over its columns as Python ints and floats.
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
    row_format = "%d" + f",0x%X/{w},%.17g" * d + "\n"
    for start in range(0, pset.size, _CSV_CHUNK):
        nums = pset.numerators[start : start + _CSV_CHUNK]
        values = nums.astype(np.float64) * 2.0**-w
        columns = [range(start, start + len(nums))]
        for j in range(d):
            columns += [nums[:, j].tolist(), values[:, j].tolist()]
        out.write((row_format * len(nums)) % tuple(chain.from_iterable(zip(*columns))))


def _is_data(line: str) -> bool:
    """Whether a line is a data row: not a comment, blank or header line."""
    return not line.startswith("#") and (
        line.split(",", 1)[0].rstrip("\r\n") not in ("", "n")
    )


def _row_dtype(line: str) -> np.dtype:
    """Fields of a data row as numpy parses them, counted on the first row."""
    width = line.count(",") + 1
    if width < 3 or width % 2 == 0:
        raise ValueError(
            f"points rows need an odd field count of at least 3, got {width}"
        )
    fields = [("n", "S20")]
    for j in range(1, (width - 1) // 2 + 1):
        fields += [(f"x{j}_hex", f"S{_HEX_BYTES}"), (f"x{j}", "f8")]
    return np.dtype(fields)


def _load_rows(lines: list[str], dtype: np.dtype, first_row: int) -> np.ndarray:
    """Parse data lines with numpy's tokenizer, naming the file row on error.

    numpy drops trailing NUL bytes from a bytes field, so lines that hold a
    NUL are refused before it sees them.
    """
    def load(rows: list[str]) -> np.ndarray:
        if "\0" in "".join(rows):
            raise ValueError("NUL byte")
        return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)

    try:
        return load(lines)
    except ValueError:
        for row, line in enumerate(lines, first_row):
            try:
                load([line])
            except ValueError:
                text = line.rstrip("\r\n")
                raise ValueError(
                    f"row {row} is not an index and {(len(dtype) - 1) // 2} "
                    f"hex,float pairs: {text!r}"
                ) from None
        raise


# Well-formed dyadic fields, each followed by a comma: 0x, hex digits, a
# slash and decimal digits, nothing else (no sign, space or underscore).
_DYADIC_FIELDS = re.compile(rb"(?:0x[0-9A-Fa-f]+/[0-9]+,)*")


def _dyadic_column(hexes: np.ndarray, first_row: int) -> tuple[list[int], set[int]]:
    """Numerators and distinct precisions of one column of 0x<hex>/<w> fields.

    The column is joined with commas, which no field holds, and one regular
    expression match over the joined bytes checks every field; the first
    field outside the form ends the match and is named.  One split of the
    checked bytes then yields numerator and precision strings in turn.
    """
    fields = hexes.tolist()
    joined = b",".join(fields) + b","
    good = _DYADIC_FIELDS.match(joined).end()
    if good < len(joined):
        bad = joined.count(b",", 0, good)
        raise ValueError(
            f"row {first_row + bad} has a malformed dyadic field "
            f"{fields[bad].decode('latin-1')!r}"
        )
    parts = joined[:-1].replace(b",", b"/").split(b"/")
    return (
        list(map(int, parts[::2], repeat(16))),
        {int(prec) for prec in set(parts[1::2])},
    )


def _line_bound(fh: IO[str]) -> int:
    """Bound on the data rows of a seekable text file, read from its bytes.

    Text read with ``newline=""`` ends a line at each \\n, \\r or \\r\\n,
    and the last line may have no end, so the ends plus one bound the rows.
    One binary pass counts them ``_COUNT_BLOCK`` bytes at a time (\\r\\n
    pairs only in blocks that hold or follow a \\r) and rewinds the file.
    """
    lines, last = 1, b""
    while block := fh.buffer.read(_COUNT_BLOCK):
        cr = block.count(b"\r")
        lines += block.count(b"\n") + cr
        if cr or last == b"\r":
            lines -= (last + block).count(b"\r\n")
        last = block[-1:]
    fh.seek(0)
    return lines


def read_points_csv(source: IO[str] | str | Path) -> PointSet:
    """Rebuild a point set from the CSV form; the hex fields are authoritative.

    The file streams through in blocks of ``_CSV_CHUNK`` lines.  A path is
    first counted in one binary pass (``_line_bound``); one array of that
    many rows is filled in place block by block, trimmed and adopted by
    ``PointSet``, so the numerators are held once plus one block.  A text
    stream cannot be counted ahead, so its blocks are joined at the end and
    it holds the numerators twice.  ``BudgetError`` refuses a file's line
    count, or a stream's rows so far, whose d * 8 bytes per row exceed
    ``errors.BUDGET_BYTES``, before allocating them.

    Lines starting with ``#`` are comments (the last ``generator:`` one sets
    the provenance); blank lines and lines whose first field is ``n`` are
    skipped.  The first data row fixes the field count, which must be odd
    and at least 3, and numpy's tokenizer parses the data rows of each
    block into an index and, per coordinate, a hex field of at most
    ``_HEX_BYTES`` bytes and a float.  A row is refused if it does not
    parse, if its index is not its row number 0, 1, ..., or if a hex field
    fills ``_HEX_BYTES`` (numpy would have cut it).  Every hex field must
    read 0x<hex digits>/<decimal digits> and carry the same precision;
    ``PointSet`` checks it and the numerators' range, and then every float
    field must equal float64(numerator) * 2^-precision, the value the
    writer emits.  The floats are compared block by block; the first row
    that disagrees is raised only once ``PointSet`` has accepted the
    numerators, so a range error anywhere in the file comes first.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return _read_points(fh, _line_bound(fh) if fh.seekable() else None)
    return _read_points(source, None)


def _read_points(source: IO[str], bound: int | None) -> PointSet:
    """``read_points_csv`` of a text source with at most ``bound`` data rows.

    Without a bound the blocks' numerators are kept in a list and joined.
    """
    lines = iter(source)
    provenance = ""
    dtype = None
    precisions: set[int] = set()
    numerators = None
    chunks: list[np.ndarray] = []
    bad_float = None
    row = 0
    while block := list(islice(lines, _CSV_CHUNK)):
        # Most lines are data rows, which the first test keeps.
        batch = [ln for ln in block if ln[:1] not in "#n\r\n" or _is_data(ln)]
        if len(batch) < len(block):
            for line in block:
                if line.startswith("#"):
                    text = line.rstrip("\r\n").lstrip("# ")
                    if text.startswith("generator:"):
                        text = text.removeprefix("generator:")
                        provenance = text.split("; written:")[0].strip()
        if not batch:
            continue
        if dtype is None:
            dtype = _row_dtype(batch[0])
            d = (len(dtype) - 1) // 2
            if bound is not None:
                need = bound * d * 8
                check_budget(need, f"room for {bound} rows of points at d={d} "
                                   f"needs {need} bytes of numerators")
                numerators = np.empty((bound, d), dtype=np.uint64)
        table = _load_rows(batch, dtype, row)
        # The index is compared as text, so it must read exactly as the row
        # number; 20 bytes hold every uint64, and a cut field never matches.
        indices = np.arange(row, row + len(batch)).astype("S20")
        wrong = np.flatnonzero(table["n"] != indices)
        if wrong.size:
            index = table["n"][wrong[0]].decode("latin-1")
            raise ValueError(f"row {row + wrong[0]} has index {index!r}")
        end = row + len(batch)
        if numerators is None:
            need = end * d * 8
            check_budget(need, f"room for {end} rows of points at d={d} "
                               f"needs {need} bytes of numerators")
            chunk = np.empty((len(batch), d), dtype=np.uint64)
            chunks.append(chunk)
        elif end <= len(numerators):
            chunk = numerators[row:end]
        else:
            raise ValueError("points file grew while it was read")
        for j in range(d):
            hexes = table[f"x{j + 1}_hex"]
            full = np.flatnonzero(np.strings.str_len(hexes) == _HEX_BYTES)
            if full.size:
                raise ValueError(
                    f"row {row + full[0]} has a hex field of {_HEX_BYTES} or more bytes"
                )
            nums, found = _dyadic_column(hexes, row)
            precisions |= found
            if len(precisions) != 1:
                raise ValueError(
                    f"inconsistent precisions {sorted(precisions)} in points CSV"
                )
            (precision,) = precisions
            _check_precision(precision)
            try:
                chunk[:, j] = np.array(nums, dtype=np.uint64)
            except OverflowError:
                raise ValueError(
                    f"numerator out of range for precision {precision}"
                ) from None
        if bad_float is None:
            given = np.column_stack([table[f"x{j}"] for j in range(1, d + 1)])
            expected = chunk.astype(np.float64) * 2.0**-precision
            wrong = np.flatnonzero((given != expected).any(axis=1))
            if wrong.size:
                bad_float = row + int(wrong[0])
        row = end
    if not row:
        raise ValueError("no data rows in points CSV")
    # No view of the array may outlive this point: resize moves its memory.
    del chunk
    if numerators is None:
        numerators = np.concatenate(chunks)
    elif row < len(numerators):
        numerators.resize((row, d), refcheck=False)
    numerators.flags.writeable = False
    pset = PointSet(numerators, precision, provenance=provenance)
    if bad_float is not None:
        raise ValueError(f"row {bad_float} has a float field other than its hex value")
    return pset
