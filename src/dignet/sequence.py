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
it holds the numerators plus one block of the file.  The CSV writer formats
a chunk of rows as array operations on byte planes, one per byte position of
a row; its float column is '%.17g', with the 17 digits rounded exactly in
integer arithmetic on 32-bit limbs rather than by Python's formatting.  The
reader checks each block by byte compare first: it reads the block's hex
fields with array operations and formats those rows with the writer, and a
block whose bytes are equal is taken as it is.  Every other block, the
first one with the comment and header included, is tokenized by numpy, and
that path alone defines what the reader accepts.
"""

from __future__ import annotations

import datetime as _dt
import functools
import io
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice, repeat
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
# as one block of byte planes (about 1 MB of temporaries at d = 2), and the
# reader takes at most this many lines per block, so neither direction ever
# holds the whole file.  ``PointSet.points`` converts this many rows at a
# time as well.
_CSV_CHUNK = 1 << 11

# Bytes per read of both binary passes over a points file: the one that
# bounds its rows, and the reader's, which cuts each read into blocks.  It
# bounds what the reader holds besides the numerators: a block's lines,
# numpy's parsed table and the decoded fields, or the hex fields and the
# writer's planes, integer temporaries and text that check it (about
# 0.25 MB at d = 2, some 430 rows).
_COUNT_BLOCK = 1 << 15

# Byte width of a hex field as the reader parses it.  The writer's longest
# field, 0x<16 digits>/64, has 21 bytes; numpy cuts a longer field to this
# width without a word, so a field that fills it is refused as too long.
_HEX_BYTES = 32

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)

# The float field is '%.17g' % v for v = float64(num) * 2^-w, formed in
# integers.  A nonzero v in [2^-64, 1] is M * 2^e with 2^52 <= M < 2^53 and
# has k = floor(log10 v) in [-20, 0]; with q = 16 - k its 17 significant
# digits are D = round_half_even(M * 5^q / 2^t), t = -(e + q).  A float
# estimate of k may be one off, so q runs over [16, 37]: 5^q < 2^86 is three
# 32-bit limbs, M * 5^q < 2^139 fits five, and the bit below the quotient,
# t - 1, lies in [14, 99].
_Q_MIN = 16
_POW5_LIMBS = np.array(
    [[(5**q >> 32 * i) & 0xFFFFFFFF for q in range(_Q_MIN, 38)] for i in range(3)],
    dtype=np.uint64,
)

# Float field layout, planes 0-26: "0." and the leading zeros of the fixed
# form (k >= -4), the first digit, the "." of the exponent form, the other 16
# digits with trailing zeros blanked, and the exponent form's "e-XX".
_FLOAT_PLANES = 27
# Column -k: the fixed form's 5 leading bytes, and the exponent form's last 4.
_FIXED_LEAD = np.array(
    [list(b"0." + b"0" * (-k - 1)) + [0] * (4 + k) if -4 <= k < 0 else [0] * 5
     for k in range(0, -21, -1)], dtype=np.uint8).T.copy()
_EXPONENT = np.array(
    [list(b"e-%02d" % -k) if k < -4 else [0] * 4 for k in range(0, -21, -1)],
    dtype=np.uint8).T.copy()


@functools.cache
def _digit_groups() -> np.ndarray:
    """(4, 2 * 10^4) ASCII table: column g holds the 4 digits of g, and
    column 10^4 + g blanks their trailing zeros, for the last group with a
    nonzero digit and the groups after it.  Built on first use, so that
    importing the module costs no numpy work (about 0.4 MB of RSS)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + np.uint8(ord("0"))
    trailing = np.logical_and.accumulate(digits[::-1] == ord("0"), axis=0)[::-1]
    table = np.concatenate([digits, digits * ~trailing], axis=1)
    table.flags.writeable = False
    return table


def _round_digits(M: np.ndarray, e: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round_half_even(M * 2^e * 10^(16 - k)) for the nonzero floats M * 2^e.

    The product P = M * 5^q is formed in 32-bit limbs held in uint64 (the
    top one keeps its carries), and bits [t - 1, t + 63) of it are read as
    one word.  Since 5^q is odd, P has a bit set below bit t - 1 exactly
    when M does, which with that bit decides the rounding.
    """
    q = 16 - k
    t1 = (-1 - e - q).astype(np.uint64)
    pow5 = _POW5_LIMBS.take(q - _Q_MIN, axis=1)
    n = len(M)
    limbs = np.zeros((6, n), np.uint64)
    # The low halves of M's products go in place, so that no more than two
    # (3, n) temporaries live next to the limbs.
    np.multiply(M & _LOW32, pow5, out=limbs[:3])
    high = (M >> _U64(32)) * pow5
    del pow5
    high += limbs[:3] >> _U64(32)
    limbs[:3] &= _LOW32
    limbs[1:4] += high
    del high
    for i in (1, 2):
        limbs[i + 1] += limbs[i] >> _U64(32)
        limbs[i] &= _LOW32
    flat = limbs.ravel()
    at = (t1 >> _U64(5)).astype(np.intp) * n + np.arange(n)
    s = t1 & _U64(31)
    word = (
        flat.take(at) >> s
        | flat[n:].take(at) << (_U64(32) - s)
        | flat[2 * n :].take(at) << (_U64(64) - s)
    )
    below = (M << (_U64(64) - np.minimum(t1, _U64(64)))) != 0
    digits = word >> _U64(1)
    digits += word & (digits | below) & _U64(1)
    return digits


def _float_planes(values: np.ndarray, out: np.ndarray) -> None:
    """Fill the (27, n) ``out`` with the planes of '%.17g' % v, v in [0, 1].

    k starts as floor(log10 v) in floats and moves by one wherever the
    rounded digits fall outside [10^16, 10^17), which also places a value
    that rounds up to the next power of ten.  Zero is written as "0", and 1
    (a numerator that float64 rounds up to 2^w) as "1".
    """
    zero = values == 0
    v = np.where(zero, 1.0, values)
    mantissa, exponent = np.frexp(v)
    M = (mantissa * 2.0**53).astype(np.uint64)
    e = exponent - 53
    k = np.floor(np.log10(v)).astype(np.int64)
    # Freed before the limbs, the largest temporaries of a block.
    del v, mantissa, exponent
    D = _round_digits(M, e, k)
    while (wrong := np.flatnonzero((D < _U64(10**16)) | (D >= _U64(10**17)))).size:
        k[wrong] += np.where(D[wrong] < _U64(10**16), -1, 1)
        D[wrong] = _round_digits(M[wrong], e[wrong], k[wrong])
    D[zero] = 0
    k[zero] = 0
    lead = D // _U64(10**16)
    rest = D - lead * _U64(10**16)
    upper = rest // _U64(10**8)
    lower = rest - upper * _U64(10**8)
    groups = np.empty((4, len(values)), np.uint64)
    groups[0] = upper // _U64(10**4)
    groups[1] = upper - groups[0] * _U64(10**4)
    groups[2] = lower // _U64(10**4)
    groups[3] = lower - groups[2] * _U64(10**4)
    table = _digit_groups()
    blank = np.full(len(values), 10**4, np.uint64)
    for i in (3, 2, 1, 0):
        out[7 + 4 * i : 11 + 4 * i] = table.take(groups[i] + blank, axis=1)
        blank *= groups[i] == 0
    out[0:5] = _FIXED_LEAD.take(-k, axis=1)
    out[5] = lead + _U64(ord("0"))
    out[6] = ((k < -4) & (rest != 0)) * ord(".")
    out[23:27] = _EXPONENT.take(-k, axis=1)


def _csv_block(nums: np.ndarray, precision: int, start: int) -> bytes:
    """The CSV rows start, start + 1, ... for the (n, d) uint64 ``nums``.

    Plane p of the (bytes per row, rows) array holds byte p of every row,
    0 where a row has none: the index digits with leading zeros blanked,
    then per coordinate ",0x", the upper-case hex nibbles with leading zeros
    blanked, "/w," and the float, and a newline.  No field holds a NUL, so
    the transposed bytes with every NUL deleted are the text.
    """
    n, d = nums.shape
    index_width = len(str(start + n - 1))
    nibbles = max(1, -(-precision // 4))
    tail = np.frombuffer(f"/{precision},".encode(), np.uint8)
    field = 3 + nibbles + len(tail) + _FLOAT_PLANES
    # Rows of n + 64 bytes: planes n = 2^k bytes apart share cache sets,
    # which makes the transpose several times slower.
    padded = np.empty((index_width + d * field + 1, n + 64), np.uint8)
    planes = padded[:, :n]
    # The index digits four at a time from the right, then its leading
    # zeros blanked: row i has no digit p while start + i < 10^(width-1-p).
    index = np.arange(start, start + n, dtype=np.uint64)
    for stop in range(index_width, 0, -4):
        rest = index // _U64(10**4)
        group = _digit_groups().take(index - rest * _U64(10**4), axis=1)
        planes[max(stop - 4, 0) : stop] = group[max(4 - stop, 0) :]
        index = rest
    for p in range(index_width - 1):
        planes[p, : max(0, 10 ** (index_width - 1 - p) - start)] = 0
    planes[-1] = ord("\n")
    # Plane, coordinate, row.
    fields = padded[index_width:-1].reshape(d, field, -1)[:, :, :n].transpose(1, 0, 2)
    columns = np.ascontiguousarray(nums.T)
    fields[:3] = np.frombuffer(b",0x", np.uint8)[:, None, None]
    shifts = 4 * np.arange(nibbles - 1, -1, -1, dtype=np.uint64)
    shifted = columns >> shifts[:, None, None]
    nibble = shifted.astype(np.uint8) & np.uint8(15)
    hexes = fields[3 : 3 + nibbles]
    # "0".."9" are 48..57, and "A".."F" follow 7 codes later.
    hexes[:] = nibble + np.uint8(48) + (nibble > 9) * np.uint8(7)
    hexes[:-1] *= shifted[:-1] != 0
    # Freed before the floats, whose temporaries set the block's peak.
    del shifted, nibble
    fields[3 + nibbles : field - _FLOAT_PLANES] = tail[:, None, None]
    floats = np.empty((_FLOAT_PLANES, d * n), np.uint8)
    _float_planes((columns.astype(np.float64) * 2.0**-precision).ravel(), floats)
    fields[field - _FLOAT_PLANES :] = floats.reshape(_FLOAT_PLANES, d, n)
    return planes.T.tobytes().translate(None, b"\0")


def write_points_csv(
    pset: PointSet, out: IO[str] | str | Path, timestamp: str | None = None
) -> None:
    """Write points with columns n, then per coordinate hex and float values.

    The single leading comment line names the generator and carries the only
    timestamp in the file.  Rows are formatted ``_CSV_CHUNK`` at a time by
    ``_csv_block``.  The float field is exactly '%.17g' % (float64(num) * 2^-w).
    """
    if isinstance(out, (str, Path)):
        with open(out, "w", newline="") as fh:
            write_points_csv(pset, fh, timestamp=timestamp)
        return
    if timestamp is None:
        timestamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    out.write(f"# generator: {pset.provenance}; written: {timestamp}\n")
    d = pset.dimension
    out.write(",".join(["n"] + [f"x{j}_hex,x{j}" for j in range(1, d + 1)]) + "\n")
    nums = pset.numerators
    for start in range(0, pset.size, _CSV_CHUNK):
        block = _csv_block(nums[start : start + _CSV_CHUNK], pset.precision, start)
        out.write(block.decode("ascii"))


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


# Value of each byte as one of the writer's hex digits, 0-9 and A-F; 255
# (-1 mod 256) for every other byte.  Row w of ``_RIGHT_ALIGNED`` keeps the
# last w of 16 bytes.  Both are built from Python lists: the numpy
# operations that would build them cost about 0.3 MB of RSS at import.
_NIBBLE = np.array([b"0123456789ABCDEF".find(c) % 256 for c in range(256)], np.uint8)
_RIGHT_ALIGNED = np.array([[0] * (16 - w) + [1] * w for w in range(17)], np.uint8)


# A block of a points source: its bytes (None for a stream's text that is
# not ASCII) and a function giving its text lines.
_Block = tuple[bytes | None, Callable[[], list[str]]]


def _file_blocks(fh: IO[str]) -> Iterator[_Block]:
    """Blocks of a file opened with ``newline=""``, read as bytes.

    The file is read ``_COUNT_BLOCK`` bytes at a time, and the bytes not
    yet cut are cut after their last complete line: a \\r as the last byte
    may start a \\r\\n pair, so it ends no line yet.  The cut bytes are
    split into blocks of at most ``_CSV_CHUNK`` lines, each ending where
    the text layer ends a line (\\n, \\r\\n or a lone \\r).  A block's
    text lines are decoded on request (``_text_lines``).
    """
    raw = fh.buffer
    rest = b""
    while True:
        more = raw.read(_COUNT_BLOCK)
        # A line longer than a read is gathered whole and joined once.
        pieces = [rest]
        while more and b"\n" not in more and b"\r" not in more:
            pieces.append(more)
            more = raw.read(_COUNT_BLOCK)
        data = b"".join([*pieces, more])
        cut = len(data)
        if more:
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, cut - 1)) + 1
        data, rest = data[:cut], data[cut:]
        u8 = np.frombuffer(data, np.uint8)
        ends = u8 == ord("\n")
        if b"\r" in data:
            lone_cr = u8 == ord("\r")
            lone_cr[:-1] &= ~ends[1:]
            ends |= lone_cr
        stops = np.flatnonzero(ends)[_CSV_CHUNK - 1 :: _CSV_CHUNK] + 1
        start = 0
        for stop in [*stops.tolist(), cut]:
            if stop > start:
                block = data[start:stop]
                yield block, functools.partial(_text_lines, block, fh)
            start = stop
        if not more:
            return


def _text_lines(data: bytes, fh: IO[str]) -> list[str]:
    """Bytes read from ``fh`` as the lines its text layer gives: decoded
    with its encoding and split as ``newline=""`` splits them."""
    return io.StringIO(data.decode(fh.encoding, fh.errors), newline="").readlines()


def _stream_blocks(source: IO[str]) -> Iterator[_Block]:
    """Blocks of ``_CSV_CHUNK`` lines of a text stream, as it ends them."""
    lines = iter(source)
    while block := list(islice(lines, _CSV_CHUNK)):
        text = "".join(block)
        yield (text.encode() if text.isascii() else None), (lambda b=block: b)


def _hex_fields(data: bytes, d: int, nibbles: int) -> np.ndarray | None:
    """The (n, d) values of the hex fields of n lines shaped like the
    writer's rows, or None if some line is not.

    Each line must start with a digit and hold d "x" and d "/" bytes, with
    1 to ``nibbles`` bytes between each pair.  The 16 bytes before each "/"
    go through ``_NIBBLE``; those before the field's digits are set to 0,
    and a field byte that is none of the writer's hex digits refuses the
    block.  Two nibbles make a byte, and the 8 bytes one big-endian word.
    """
    u8 = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(u8 == ord("\n"))
    if not (data[:1].isdigit() and np.all(u8[ends[:-1] + 1] - np.uint8(48) < 10)):
        return None
    xs = np.flatnonzero(u8 == ord("x"))
    slashes = np.flatnonzero(u8 == ord("/"))
    if len(xs) != len(ends) * d or len(slashes) != len(xs):
        return None
    width = slashes - xs - 1
    if width.min() < 1 or width.max() > nibbles:
        return None
    # Row i of the windows is bytes i - 16 .. i - 1, 0 before the block.
    padded = np.concatenate([np.zeros(16, np.uint8), u8])
    windows = np.ndarray((len(u8) + 1, 16), np.uint8, padded, 0, (1, 1))
    digits = _NIBBLE.take(windows[slashes])
    digits *= _RIGHT_ALIGNED.take(width, axis=0)
    if (digits == 255).any():
        return None
    packed = digits[:, ::2] << np.uint8(4) | digits[:, 1::2]
    return packed.view(">u8").astype(np.uint64).reshape(-1, d)


def _writer_rows(
    data: bytes | None, start: int, d: int, precision: int
) -> np.ndarray | None:
    """The (n, d) numerators of a block that is the writer's own bytes, else None.

    The block must be exactly ``_csv_block`` of some rows start, ...,
    start + n - 1 at this d and precision.  Its hex fields are read by
    ``_hex_fields``, and those rows are formatted again: only bytes equal
    to the block accept them, and then the index, hex, precision and float
    fields all read as the writer wrote them.  A field of more digits than
    the writer's is refused before formatting, which keeps every value
    below 2^(w + 3); ``_float_planes`` formats such a value without fault,
    if not as '%.17g' above 1, and ``PointSet`` refuses every value of 2^w
    or more whatever its float field reads.  ``_hex_fields`` is its own
    function so that its temporaries are gone before the formatting.
    """
    if not (data and data.endswith(b"\n")):
        return None
    nums = _hex_fields(data, d, max(1, -(-precision // 4)))
    if nums is None or _csv_block(nums, precision, start) != data:
        return None
    return nums


def read_points_csv(source: IO[str] | str | Path) -> PointSet:
    """Rebuild a point set from the CSV form; the hex fields are authoritative.

    The file streams through in blocks of at most ``_CSV_CHUNK`` lines.  A
    path is first counted in one binary pass (``_line_bound``) and then read
    as bytes, ``_COUNT_BLOCK`` at a time, cut at line ends into blocks
    (``_file_blocks``); a text stream gives blocks of ``_CSV_CHUNK`` of its
    lines.  For a path one array of the counted rows is filled in place
    block by block, trimmed and adopted by ``PointSet``, so the numerators
    are held once plus one block.  A text stream cannot be counted ahead,
    so its blocks are joined at the end and it holds the numerators twice.
    ``BudgetError`` refuses a file's line count, or a stream's rows so far,
    whose d * 8 bytes per row exceed ``errors.BUDGET_BYTES``, before
    allocating them.

    Once a block has fixed the field count and the precision, each later
    block is first checked against the writer: if its bytes are exactly
    what ``write_points_csv`` writes for the rows it holds
    (``_writer_rows``), its numerators are taken as they are, since every
    check below then holds.  Every other block (the first one, with the
    comment and header, and any block with a comment, blank or header line,
    a CRLF or lone CR line end, lower-case hex, leading zeros or a float
    written differently) is tokenized, and that path alone defines what the
    reader accepts.

    Lines starting with ``#`` are comments (the last ``generator:`` one sets
    the provenance); blank lines and lines whose first field is ``n`` are
    skipped.  The first data row fixes the field count, which must be odd
    and at least 3, and numpy's tokenizer parses the data rows of a block
    into an index and, per coordinate, a hex field of at most
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
            bound = _line_bound(fh) if fh.seekable() else None
            return _read_points(_file_blocks(fh), bound)
    return _read_points(_stream_blocks(source), None)


def _read_points(blocks: Iterator[_Block], bound: int | None) -> PointSet:
    """``read_points_csv`` of a source's blocks with at most ``bound`` data rows.

    Without a bound the blocks' numerators are kept in a list and joined.
    """
    provenance = ""
    dtype = None
    precisions: set[int] = set()
    precision = None
    numerators = None
    chunks: list[np.ndarray] = []
    bad_float = None
    row = 0

    def rows_until(end: int) -> np.ndarray:
        """Room for rows [row, end): a view of the array, or a new chunk."""
        if numerators is None:
            need = end * d * 8
            check_budget(need, f"room for {end} rows of points at d={d} "
                               f"needs {need} bytes of numerators")
            chunks.append(np.empty((end - row, d), dtype=np.uint64))
            return chunks[-1]
        if end > len(numerators):
            raise ValueError("points file grew while it was read")
        return numerators[row:end]

    for data, text_lines in blocks:
        if precision is not None:
            # The writer's own bytes meet every check of the path below.
            nums = _writer_rows(data, row, d, precision)
            if nums is not None:
                chunk = rows_until(row + len(nums))
                chunk[:] = nums
                row += len(nums)
                continue
        block = text_lines()
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
        chunk = rows_until(row + len(batch))
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
        row += len(batch)
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
