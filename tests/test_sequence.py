from __future__ import annotations

import csv
import hashlib
import io
import locale
import os
import random
import string
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dignet import errors, sequence

from dignet.errors import BudgetError, PrecisionError
from dignet.interlace import interlace_matrices
from dignet.niederreiter import build_matrices
from dignet.sequence import (
    DyadicPoint,
    PointSet,
    generate_points,
    read_points_csv,
    write_points_csv,
)
from support import (
    block_decomposition,
    decodes,
    digit_vector,
    digital_shift,
    encoded,
    matvec,
    pset_from_tuples,
    recorded_blocks,
    same_points,
    tail_shift_vector,
    unseekable,
    values,
)


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
        assert pts.numerators.tolist() == [[0] * d]


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
    assert top.numerators.tolist() == [[(1 << 64) - 1, 0]]
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


def test_generate_points_refuses_numerators_over_the_budget(monkeypatch):
    # 2^44 points at d=1 would take 128 TiB; refused before any allocation.
    with pytest.raises(BudgetError, match="140737488355328 bytes"):
        generate_points(build_matrices(1, 44, 44), 1 << 44)
    # The bound is count * d * 8 bytes, inclusive.
    monkeypatch.setattr(errors, "BUDGET_BYTES", 8 * 2 * 8)
    gset = build_matrices(2, 4, 4)
    assert generate_points(gset, 8).size == 8
    with pytest.raises(BudgetError):
        generate_points(gset, 9)


def _row_digest(rows) -> str:
    """SHA-256 of numerator rows as little-endian 8-byte words."""
    h = hashlib.sha256()
    for row in rows:
        h.update(b"".join(v.to_bytes(8, "little") for v in row))
    return h.hexdigest()


def test_points_yield_every_row_once_per_read(monkeypatch):
    # The benchmark's read-back digests ``p.numerators for p in pset.points``;
    # that must be the digest of the rows of ``numerators``.  Chunks of 5
    # rows put chunk boundaries inside the 16 rows.
    monkeypatch.setattr(sequence, "_CSV_CHUNK", 5)
    top = (1 << 64) - 1
    for pts in (
        generate_points(build_matrices(2, 4, 4), 16),
        pset_from_tuples([(top, 0, 1)] * 6 + [(0, top, 2)], 64),
    ):
        rows = pts.numerators.tolist()
        assert _row_digest(p.numerators for p in pts.points) == _row_digest(rows)
        checked = [DyadicPoint(tuple(row), pts.precision) for row in rows]
        first, second = list(pts.points), list(pts.points)
        assert first == checked and second == checked


def test_reading_and_iterating_points_hold_numerators_plus_a_chunk(
    tmp_path, monkeypatch
):
    # Reading a file fills one array sized by its line count in place, so it
    # keeps the numerators plus one chunk of lines; iterating ``.points``
    # adds one chunk of converted rows.  Neither may hold anything per point
    # of the file.  The bound allows a second copy for the final trim, a
    # realloc that may move the rows; about 1.7x is measured here, most of
    # the excess being the chunk's lines and parsed fields.
    chunk = 1 << 10
    monkeypatch.setattr(sequence, "_CSV_CHUNK", chunk)
    count = 1 << 16
    path = tmp_path / "pts.csv"
    write_points_csv(generate_points(build_matrices(2, 16, 16), count), path)
    tracemalloc.start()
    try:
        back = read_points_csv(path)
        seen = sum(1 for _ in back.points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == count
    assert peak <= 2 * back.numerators.nbytes + 1024 * chunk


def test_reading_a_crlf_file_holds_numerators_plus_a_chunk(tmp_path, monkeypatch):
    # The same bound as above for a file with CRLF line ends: no block of it
    # is the writer's bytes, so every block takes the parser path.
    chunk = 1 << 10
    monkeypatch.setattr(sequence, "_CSV_CHUNK", chunk)
    count = 1 << 16
    text = _written(generate_points(build_matrices(2, 16, 16), count))
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    checks = _writer_block_checks(monkeypatch)
    tracemalloc.start()
    try:
        back = read_points_csv(path)
        seen = sum(1 for _ in back.points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == count and checks and set(checks) == {None}
    assert peak <= 2 * back.numerators.nbytes + 1024 * chunk


def test_reading_a_binary_file_holds_numerators_plus_a_chunk(monkeypatch):
    # A binary file that can seek is counted and filled in place as a path
    # is, so the same bound holds; its bytes are the caller's, made before
    # the trace starts.
    chunk = 1 << 10
    monkeypatch.setattr(sequence, "_CSV_CHUNK", chunk)
    count = 1 << 16
    stream = io.BytesIO(_written(generate_points(build_matrices(2, 16, 16), count)).encode())
    tracemalloc.start()
    try:
        back = read_points_csv(stream)
        seen = sum(1 for _ in back.points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == count
    assert peak <= 2 * back.numerators.nbytes + 1024 * chunk


def test_generating_points_holds_the_numerators_once():
    # One array is filled and adopted: no copy in PointSet, no N-sized
    # temporary for its range check (about 1.06x here).
    gset = build_matrices(2, 16, 16)
    tracemalloc.start()
    try:
        pts = generate_points(gset, 1 << 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * pts.numerators.nbytes


def test_point_set_adopts_an_owned_read_only_array():
    arr = np.array([[1, 2], [3, 0]], dtype=np.uint64)
    arr.flags.writeable = False
    pset = PointSet(arr, 2)
    assert pset.numerators is arr
    assert PointSet(pset.numerators, 2).numerators is arr
    # Anything else is copied and the caller's object is left as it was.
    writeable = np.array([[1, 2], [3, 0]], dtype=np.uint64)
    view = arr[:1]
    others = [
        writeable,
        view,
        np.asfortranarray(arr),
        arr.astype(np.int64),
        arr.tolist(),
    ]
    for source in others:
        pset = PointSet(source, 2)
        assert pset.numerators is not source
        assert pset.numerators.base is None and not pset.numerators.flags.writeable
        assert pset.numerators.tolist() == np.asarray(source).tolist()
    copied = PointSet(writeable, 2)
    assert writeable.flags.writeable and writeable.tolist() == [[1, 2], [3, 0]]
    writeable[0, 0] = 3
    assert copied.numerators.tolist() == [[1, 2], [3, 0]]
    # Adoption keeps the range and shape checks.
    wide = np.array([[4, 0]], dtype=np.uint64)
    wide.flags.writeable = False
    with pytest.raises(ValueError, match="numerator out of range for precision 2"):
        PointSet(wide, 2)
    flat = np.array([1, 2], dtype=np.uint64)
    flat.flags.writeable = False
    with pytest.raises(ValueError, match="non-empty"):
        PointSet(flat, 2)


def test_points_csv_reader_refuses_a_file_over_the_budget(tmp_path, monkeypatch):
    # 16 points at d=2 in a file of 18 lines: the line bound is 19 rows,
    # 19 * 2 * 8 = 304 bytes of numerators.
    path = tmp_path / "pts.csv"
    pts = generate_points(build_matrices(2, 4, 4), 16)
    write_points_csv(pts, path)
    monkeypatch.setattr(errors, "BUDGET_BYTES", 303)
    with pytest.raises(BudgetError, match="19 rows of points at d=2 needs 304 bytes"):
        read_points_csv(path)
    monkeypatch.setattr(errors, "BUDGET_BYTES", 304)
    assert read_points_csv(path).numerators.tolist() == pts.numerators.tolist()
    # A stream that cannot seek is refused once its rows read so far exceed
    # the budget; reads of 64 bytes cut it into several blocks.
    blocks = recorded_blocks(monkeypatch, 64)
    monkeypatch.setattr(errors, "BUDGET_BYTES", 16 * 2 * 8 - 1)
    with pytest.raises(BudgetError, match="room for 16 rows of points at d=2"):
        read_points_csv(unseekable(path.read_bytes()))
    assert len(blocks) >= 2


@pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 16])
@pytest.mark.parametrize("ends", ["\n", "\r\n", "\r", "mixed", "no-last"])
def test_points_file_line_bound_counts_text_mode_lines(
    ends, block, tmp_path, monkeypatch
):
    # Text mode with newline="" ends lines at \n, \r and \r\n; blocks of a
    # few bytes split \r\n pairs across reads.
    monkeypatch.setattr(sequence, "_COUNT_BLOCK", block)
    pts = generate_points(build_matrices(2, 4, 4), 12)
    text = _written(pts)
    if ends == "mixed":
        text = text.replace("\n", "\r", 4).replace("\n", "\r\n", 5)
    elif ends == "no-last":
        text = text.rstrip("\n")
    else:
        text = text.replace("\n", ends)
    path = tmp_path / "pts.csv"
    path.write_bytes(text.encode())
    with open(path, "rb") as fh:
        bound = sequence._line_bound(fh)
    with open(path, newline="") as fh:
        lines = fh.readlines()
    assert bound == len(lines) + (ends != "no-last")
    assert read_points_csv(path).numerators.tolist() == pts.numerators.tolist()


def test_points_csv_reader_refuses_a_file_that_grows(tmp_path, monkeypatch):
    path = tmp_path / "pts.csv"
    write_points_csv(generate_points(build_matrices(2, 4, 4), 16), path)
    monkeypatch.setattr(sequence, "_line_bound", lambda fh: 15)
    with pytest.raises(ValueError, match="grew while it was read"):
        read_points_csv(path)


def test_points_csv_reader_refuses_growth_in_a_writer_block(tmp_path, monkeypatch):
    # Reads of 200 bytes make every block after the first the writer's
    # bytes; the rows past the counted bound are in one of them.
    path = tmp_path / "pts.csv"
    write_points_csv(generate_points(build_matrices(2, 6, 6), 64), path)
    monkeypatch.setattr(sequence, "_COUNT_BLOCK", 200)
    monkeypatch.setattr(sequence, "_line_bound", lambda fh: 60)
    checks = _writer_block_checks(monkeypatch)
    with pytest.raises(ValueError, match="grew while it was read"):
        read_points_csv(path)
    assert checks and None not in checks


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_points_csv_reads_lines_longer_than_a_read(end, tmp_path, monkeypatch):
    # Reads of 16 bytes: a comment of 2,000 bytes spans 125 of them.
    monkeypatch.setattr(sequence, "_COUNT_BLOCK", 16)
    pts = generate_points(build_matrices(2, 4, 4), 12)
    lines = _written(pts).splitlines(keepends=True)
    lines.insert(5, "# " + "long " * 400 + "\n")
    path = tmp_path / "pts.csv"
    path.write_bytes("".join(lines).replace("\n", end).encode())
    back = read_points_csv(path)
    assert same_points(back, pts) and back.provenance == pts.provenance


@pytest.mark.parametrize("size", range(1, 8))
def test_blocks_cut_a_path_and_a_stream_at_line_ends(size, tmp_path, monkeypatch):
    # Reads of 1 to 7 bytes split \r\n pairs, runs of line ends, the two
    # bytes of "\u00e9" and a line of 2,000 bytes across reads in every way;
    # the text ends without a line end, and then with a lone \r.
    monkeypatch.setattr(sequence, "_COUNT_BLOCK", size)
    body = "a,1\n\r\nb\rc\r\r\n\n\r" + "x" * 2000 + "\r\nd\r\ne \u00e9\rf\r\n" + "g" * 9
    path = tmp_path / "text.csv"
    for text in (body, body + "\r", body.replace("\u00e9", "e")):
        path.write_bytes(text.encode())
        with open(path, "rb") as fh:
            from_path = list(sequence._blocks(fh.read))
        from_stream = list(sequence._blocks(unseekable(text.encode()).read))
        for blocks in (from_path, from_stream):
            assert b"".join(blocks).decode() == text and all(blocks)
            assert all(block.endswith((b"\n", b"\r")) for block in blocks[:-1])
            assert not any(
                block.endswith(b"\r") and after.startswith(b"\n")
                for block, after in zip(blocks, blocks[1:])
            )
        # A path and a stream of the same bytes are cut into the same blocks.
        assert from_stream == from_path


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_points_csv_reads_a_pipe_as_a_stream(tmp_path, monkeypatch):
    # A pipe cannot be counted ahead and rewound, so it is read as a stream.
    # Reads of 64 bytes put data row 9 (file line 12) in a block after the
    # first; a byte there that the encoding cannot decode is named by its
    # offset and line, as it is in a file that can seek.
    pts = generate_points(build_matrices(2, 4, 4), 16)
    path = tmp_path / "pipe"
    os.mkfifo(path)

    def piped(data: bytes):
        writer = threading.Thread(target=path.write_bytes, args=(data,))
        writer.start()
        try:
            return _outcome(lambda: read_points_csv(path))
        finally:
            writer.join(timeout=30)
            assert not writer.is_alive()

    data = _written(pts).encode()
    assert piped(data) == (pts.numerators.tolist(), pts.precision, pts.provenance)
    offset = data.index(b"\n9,0x") + 6
    bad = data[:offset] + b"\x80" + data[offset:]
    blocks = recorded_blocks(monkeypatch, 64)
    (tmp_path / "bad.csv").write_bytes(bad)
    refused = _outcome(lambda: read_points_csv(tmp_path / "bad.csv"))
    assert len(blocks) >= 2 and b"\n9," not in blocks[0]
    assert piped(bad) == refused
    encoding = locale.getpreferredencoding(False)
    if not decodes(b"\x80", encoding):
        assert refused[0] is ValueError
        assert refused[1].startswith(f"byte 0x80 at offset {offset} (line 12) cannot "
                                     "be decoded as "), refused


def test_points_csv_refuses_a_text_stream():
    # The reader reads bytes: a text stream is refused before anything is
    # read from it, not by a str/bytes error at its first block.  The same
    # text as bytes, a NUL and a non-ASCII provenance included, reads.
    text = "# generator: \0\u00e9\n0,0x1/4,0.0625\n"
    for stream in (io.StringIO(text), io.TextIOWrapper(io.BytesIO(encoded(text)))):
        with pytest.raises(TypeError) as refused:
            read_points_csv(stream)
        assert str(refused.value) == "pass a path or a binary file, not a text stream"
        assert stream.tell() == 0
    back = read_points_csv(io.BytesIO(encoded(text)))
    assert back.provenance == "\0\u00e9" and back.numerators.tolist() == [[1]]


def test_points_csv_names_an_undecodable_byte_alike_from_every_source(
    tmp_path, monkeypatch
):
    # Rows of the form of `dignet points -d 1 -a 4 -m 16` (precision 64)
    # with a 0x80 byte after the "0x" of data row 9, file line 12.  Reads
    # of 64 bytes put that row in a block after the first, so its offset and
    # line are counted across blocks; a path, a binary file and a binary
    # stream that cannot seek name them alike.
    pts = generate_points(interlace_matrices(build_matrices(4, 16, 16), 4), 16)
    data = _written(pts).encode()
    offset = data.index(b"\n9,0x") + 5
    bad = data[:offset] + b"\x80" + data[offset:]
    path = tmp_path / "bad.csv"
    path.write_bytes(bad)
    blocks = recorded_blocks(monkeypatch, 64)
    outcomes = [
        _outcome(lambda: read_points_csv(source))
        for source in (path, io.BytesIO(bad), unseekable(bad))
    ]
    assert len(blocks) >= 2 * 3 and b"\n9," not in blocks[0]
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    if not decodes(b"\x80", locale.getpreferredencoding(False)):
        assert outcomes[0][0] is ValueError
        assert outcomes[0][1].startswith(
            f"byte 0x80 at offset {offset} (line 12) cannot be decoded as "
        ), outcomes[0]


def test_points_csv_reads_a_binary_file_from_where_it_stands(tmp_path):
    # Five bytes before the stream's position, a line that the reader would
    # refuse, are never read: the line count seeks back to that position,
    # not to 0.  An undecodable byte is named at its offset from there.
    pts = generate_points(build_matrices(2, 4, 4), 16)
    data = _written(pts).encode()
    path = tmp_path / "pts.csv"
    for body in (data, data.replace(b"\n9,0x", b"\n9,0x\x80", 1)):
        path.write_bytes(body)
        stream = io.BytesIO(b"x,y\x80\n" + body)
        stream.seek(5)
        outcome = _outcome(lambda: read_points_csv(stream))
        assert outcome == _outcome(lambda: read_points_csv(path))
    assert _outcome(lambda: read_points_csv(io.BytesIO(data))) == (
        pts.numerators.tolist(), pts.precision, pts.provenance
    )


def test_digital_shift_examples():
    pts = pset_from_tuples([(1,)], 1)
    shifted = digital_shift(pts, DyadicPoint((1,), 1))
    assert shifted.numerators.tolist() == [[0]]
    # 0.5 XOR 0.25 = 0.75: the coarser side gains a zero digit.
    half, quarter = pset_from_tuples([(1,)], 1), pset_from_tuples([(1,)], 2)
    for shifted in (
        digital_shift(half, DyadicPoint((1,), 2)),
        digital_shift(quarter, DyadicPoint((1,), 1)),
    ):
        assert (shifted.numerators.tolist(), shifted.precision) == ([[3]], 2)

    gset = build_matrices(2, 4, 4)
    pts = generate_points(gset, 8, 4)
    zero = DyadicPoint((0, 0), 4)
    assert same_points(digital_shift(pts, zero), pts)


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

    back = read_points_csv(io.BytesIO(text.encode()))
    assert same_points(back, pts)
    assert back.provenance == pts.provenance


def test_points_csv_hex_fields_authoritative():
    pts = pset_from_tuples([(10,)], 4, provenance="manual")
    buf = io.StringIO()
    write_points_csv(pts, buf, timestamp="t")
    assert "0xA/4" in buf.getvalue()
    back = read_points_csv(io.BytesIO(buf.getvalue().encode()))
    assert back.numerators.tolist() == [[10]]
    assert back.precision == 4


def test_points_csv_file_round_trip(tmp_path):
    gset = build_matrices(1, 4, 4)
    pts = generate_points(gset, 6, 4)
    path = tmp_path / "pts.csv"
    write_points_csv(pts, path)
    assert same_points(read_points_csv(path), pts)


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


def test_points_csv_path_bytes_match_per_point_writer(tmp_path, monkeypatch):
    # A path is opened as text with newline="", so the file's bytes are the
    # oracle's text unchanged on every platform.
    pset = _csv_cases()["d3-w64-near-top"]
    monkeypatch.setattr(sequence, "_CSV_CHUNK", 7)
    path = tmp_path / "pts.csv"
    write_points_csv(pset, path, timestamp="2026-01-01T00:00:00+00:00")
    expected = _per_point_csv(pset, "2026-01-01T00:00:00+00:00").encode("ascii")
    assert path.read_bytes() == expected


def _float_test_numerators(rng: random.Random, w: int) -> list[int]:
    """Numerators at precision w: random ones, 0, 2^w - 1, and those whose
    floats lie within a few float steps on both sides of 10^p, p = 0..-20."""
    nums = [rng.getrandbits(w) for _ in range(200)] + [0, (1 << w) - 1]
    for p in range(0, -21, -1):
        near = (1 << w) // 10**-p
        step = 1 << max(0, near.bit_length() - 53)
        for delta in (-3 * step, -step, -1, 0, 1, step, 3 * step):
            if 0 <= near + delta < 1 << w:
                nums.append(near + delta)
    return nums


@pytest.mark.parametrize("w", range(65))
def test_float_planes_equal_percent_17g(w):
    # The writer's integer digits against Python's '%.17g' on the same
    # float64: above w = 53 most random numerators round, 2^w - 1 rounds up
    # to 1, and the values near 1e-4 and 1e-5 and below cross from the
    # fixed form to the exponent form.
    nums = _float_test_numerators(random.Random(w), w)
    values_ = np.array(nums, dtype=np.uint64).astype(np.float64) * 2.0**-w
    planes = np.empty((sequence._FLOAT_PLANES, len(nums)), np.uint8)
    sequence._float_planes(values_, planes)
    got = [bytes(column[column != 0]).decode() for column in planes.T]
    assert got == ["%.17g" % (float(num) * 2.0**-w) for num in nums]


def test_writing_points_holds_one_block_not_the_file(tmp_path, monkeypatch):
    # The writer formats one block of ``_CSV_CHUNK`` rows at a time and
    # drops its temporaries (about 290 bytes per row and coordinate here,
    # mostly the float digits' 64-bit limbs and the hex shifts) before the
    # next.  The bound allows 512 per row and coordinate of one block, so
    # the file's text (62 bytes per row, 4 MB) or one float64 per point
    # (1 MB) held across blocks would exceed it.  A one-point write first
    # builds the digit table that every later write shares.
    chunk = 1 << 10
    monkeypatch.setattr(sequence, "_CSV_CHUNK", chunk)
    pset = generate_points(build_matrices(2, 16, 16), 1 << 16)
    path = tmp_path / "pts.csv"
    write_points_csv(pset_from_tuples([(1, 2)], 4), io.StringIO())
    tracemalloc.start()
    try:
        write_points_csv(pset, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 60 * pset.size
    assert peak <= 512 * pset.dimension * chunk


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
    # Chunks of 7 rows make sets of more than 7 rows cross chunk boundaries
    # in the writer; reads of 8 bytes cut every file into several blocks:
    # the read that ends the comment line (26 bytes or more) holds at most
    # 7 more, less than the 12-byte header.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequence, "_CSV_CHUNK", 7)
        blocks = recorded_blocks(mp, 8)
        buf = io.StringIO()
        write_points_csv(pset, buf, timestamp="t")
        back = read_points_csv(io.BytesIO(buf.getvalue().encode()))
    assert len(blocks) >= 2
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
    assert len(p.numerators) == 2


def _written(pset: PointSet) -> str:
    buf = io.StringIO()
    write_points_csv(pset, buf, timestamp="t")
    return buf.getvalue()


def test_points_csv_crlf_reads_back(tmp_path):
    pset = _csv_cases()["d2-w36"]
    text = _written(pset).replace("\n", "\r\n")
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.encode())
    for source in (path, io.BytesIO(text.encode()), unseekable(text.encode())):
        back = read_points_csv(source)
        assert back.numerators.tolist() == pset.numerators.tolist()
        assert back.precision == pset.precision
        assert back.provenance == pset.provenance


def test_points_csv_ends_lines_alike_from_a_path_and_a_stream(tmp_path, monkeypatch):
    # \n, \r\n and a lone \r end a line whether the bytes come from a path,
    # a binary file or a binary stream that cannot seek.  Reads of 1 to 7
    # bytes put line ends of all three kinds on read and block boundaries.
    pset = generate_points(build_matrices(2, 4, 4), 16)
    mixed = "".join(
        line[:-1] + ("\n", "\r\n", "\r")[k % 3]
        for k, line in enumerate(_written(pset).splitlines(keepends=True))
    )
    path = tmp_path / "pts.csv"
    blocks = recorded_blocks(monkeypatch, 1)
    for size in range(1, 8):
        monkeypatch.setattr(sequence, "_COUNT_BLOCK", size)
        blocks.clear()
        for text, nums in [
            ("0,0x0/4,0\r1,0x1/4,0.0625\n", [[0], [1]]),
            (mixed, pset.numerators.tolist()),
        ]:
            path.write_bytes(text.encode())
            outcomes = [
                _outcome(lambda: read_points_csv(source))
                for source in (path, io.BytesIO(text.encode()), unseekable(text.encode()))
            ]
            assert outcomes[0][0] == nums
            assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        assert len(blocks) >= 2 * 3 * 2


@pytest.mark.parametrize("size", [7, 1 << 14])
def test_points_csv_skips_comments_and_blanks_between_rows(size, monkeypatch):
    # Reads of 7 bytes cut the file into many blocks; reads of 16,384 take
    # all of its 4,000 or so in one.
    blocks = recorded_blocks(monkeypatch, size)
    pset = _csv_cases()["d3"]
    lines = _written(pset).splitlines(keepends=True)
    # Between data rows 4|5, 9|10 and 30|31: a comment, a blank line, a
    # repeated header and a later generator comment, which wins.
    lines[33:33] = ["# generator: edited\n", "\r\n"]
    lines[12:12] = ["n,x1_hex,x1,x2_hex,x2,x3_hex,x3\n", "\n"]
    lines[7:7] = ["# a note, with a comma\n"]
    back = read_points_csv(io.BytesIO("".join(lines).encode()))
    assert back.numerators.tolist() == pset.numerators.tolist()
    assert back.provenance == "edited"
    assert len(blocks) >= 2 if size == 7 else len(blocks) == 1


@pytest.mark.parametrize("row", [
    "0,0x1/4,0.0625 # note,0x2/4,0.125\n",
    "0,0x1/4#,0.0625,0x2/4,0.125\n",
    "0#,0x1/4,0.0625,0x2/4,0.125\n",
])
def test_points_csv_refuses_hash_inside_a_row(row):
    with pytest.raises(ValueError, match="row 0"):
        read_points_csv(io.BytesIO(("n,x1_hex,x1,x2_hex,x2\n" + row).encode()))


@pytest.mark.parametrize("field", [
    "0x" + "0" * 50 + "1/4",
    # Cut to its first 32 bytes this reads as 0x0/0, a valid point at
    # precision 0 that the float 0 matches.
    "0x0/" + "0" * 50 + "4",
])
def test_points_csv_refuses_hex_field_that_fills_its_width(field):
    with pytest.raises(ValueError, match="row 1 has a hex field of 32 or more bytes"):
        read_points_csv(io.BytesIO(f"0,0x0/4,0\n1,{field},0\n".encode()))
    with pytest.raises(ValueError, match="row 0 has a hex field of 32 or more bytes"):
        read_points_csv(io.BytesIO(f"0,{field},0\n".encode()))
    # One byte short of the width is read in full.
    short = "0x" + "0" * (sequence._HEX_BYTES - 6) + "1/4"
    back = read_points_csv(io.BytesIO(f"0,{short},0.0625\n".encode()))
    assert back.numerators.tolist() == [[1]]


# Each of these read as 1/16 while numerator and precision went through int().
MALFORMED_DYADIC = [
    "1/4", "+0x1/4", "0x_1/4", " 0x1/4", "0x1/ 4", "0x1/+4", "0x1/0_4",
    "0X1/4", "0x1/4 ", "0x/4", "0x1/", "0x1/4/4", "0x1/-4", "0xg/4",
]


@pytest.mark.parametrize("field", MALFORMED_DYADIC)
def test_points_csv_refuses_malformed_dyadic_field(field):
    text = f"0,0x0/4,0,0x0/4,0\n1,0x1/4,0.0625,{field},0.0625\n"
    with pytest.raises(ValueError, match=r"^row 1 has a malformed dyadic field"):
        read_points_csv(io.BytesIO(text.encode()))


def test_points_csv_accepts_leading_zeros_and_either_hex_case():
    back = read_points_csv(io.BytesIO(b"0,0x00/04,0\n1,0x0a/4,0.625\n2,0xB/004,0.6875\n"))
    assert back.precision == 4
    assert back.numerators.tolist() == [[0], [10], [11]]


# One-field edits of row 1 of ``0,0x0/4,0`` / ``1,0x8/4,0.5`` and what the
# reader gives for each: the numerators, or the refusal's message.  The
# float field takes Unicode white space around Python's decimal float
# grammar without "_" and with inf, infinity and nan in any case; the index
# and hex fields are compared as text of Latin-1 characters other than NUL;
# a line outside that form is "not an index and d hex,float pairs".
ONE_FIELD_EDITS = [
    ('index', ' 1', "row 1 has index ' 1'"),
    ('index', '1 ', "row 1 has index '1 '"),
    ('index', '\t1', "row 1 has index '\\t1'"),
    ('index', '1\t', "row 1 has index '1\\t'"),
    ('index', '+1', "row 1 has index '+1'"),
    ('index', '-1', "row 1 has index '-1'"),
    ('index', '_1', "row 1 has index '_1'"),
    ('index', '1_', "row 1 has index '1_'"),
    ('index', '\u30001', "row 1 is not an index and 1 hex,float pairs: '\\u30001,0x8/4,0.5'"),
    ('index', '\xe91', "row 1 has index '\xe91'"),
    ('index', '\u01001', "row 1 is not an index and 1 hex,float pairs: '\u01001,0x8/4,0.5'"),
    ('index', '1\x00', "row 1 is not an index and 1 hex,float pairs: '1\\x00,0x8/4,0.5'"),
    ('index', '\x00', "row 1 is not an index and 1 hex,float pairs: '\\x00,0x8/4,0.5'"),
    ('index', '1#', "row 1 has index '1#'"),
    ('index', '#', [[0]]),
    ('index', '', "row 1 has index ''"),
    ('index', '5e-1', "row 1 has index '5e-1'"),
    ('index', '1E-1', "row 1 has index '1E-1'"),
    ('index', '.5', "row 1 has index '.5'"),
    ('index', 'inf', "row 1 has index 'inf'"),
    ('index', 'infinity', "row 1 has index 'infinity'"),
    ('index', 'nan', "row 1 has index 'nan'"),
    ('index', '0x1p-1', "row 1 has index '0x1p-1'"),
    ('index', '0X1p-1', "row 1 has index '0X1p-1'"),
    ('index', '1e', "row 1 has index '1e'"),
    ('index', '01', "row 1 has index '01'"),
    ('index', '1                              ', "row 1 has index '1                   '"),
    ('index', '1111111111111111111111111', "row 1 has index '11111111111111111111'"),
    ('index', 'n', [[0]]),
    ('hex', ' 0x8/4', "row 1 has a malformed dyadic field ' 0x8/4'"),
    ('hex', '0x8/4 ', "row 1 has a malformed dyadic field '0x8/4 '"),
    ('hex', '\t0x8/4', "row 1 has a malformed dyadic field '\\t0x8/4'"),
    ('hex', '0x8/4\t', "row 1 has a malformed dyadic field '0x8/4\\t'"),
    ('hex', '+0x8/4', "row 1 has a malformed dyadic field '+0x8/4'"),
    ('hex', '-0x8/4', "row 1 has a malformed dyadic field '-0x8/4'"),
    ('hex', '_0x8/4', "row 1 has a malformed dyadic field '_0x8/4'"),
    ('hex', '0x8/4_', "row 1 has a malformed dyadic field '0x8/4_'"),
    ('hex', '\u30000x8/4', "row 1 is not an index and 1 hex,float pairs: '1,\\u30000x8/4,0.5'"),
    ('hex', '\xe90x8/4', "row 1 has a malformed dyadic field '\xe90x8/4'"),
    ('hex', '\u01000x8/4', "row 1 is not an index and 1 hex,float pairs: '1,\u01000x8/4,0.5'"),
    ('hex', '0x8/4\x00', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4\\x00,0.5'"),
    ('hex', '\x00', "row 1 is not an index and 1 hex,float pairs: '1,\\x00,0.5'"),
    ('hex', '0x8/4#', "row 1 has a malformed dyadic field '0x8/4#'"),
    ('hex', '#', "row 1 has a malformed dyadic field '#'"),
    ('hex', '', "row 1 has a malformed dyadic field ''"),
    ('hex', '5e-1', "row 1 has a malformed dyadic field '5e-1'"),
    ('hex', '1E-1', "row 1 has a malformed dyadic field '1E-1'"),
    ('hex', '.5', "row 1 has a malformed dyadic field '.5'"),
    ('hex', 'inf', "row 1 has a malformed dyadic field 'inf'"),
    ('hex', 'infinity', "row 1 has a malformed dyadic field 'infinity'"),
    ('hex', 'nan', "row 1 has a malformed dyadic field 'nan'"),
    ('hex', '0x1p-1', "row 1 has a malformed dyadic field '0x1p-1'"),
    ('hex', '0X1p-1', "row 1 has a malformed dyadic field '0X1p-1'"),
    ('hex', '1e', "row 1 has a malformed dyadic field '1e'"),
    ('hex', '0x_8/4', "row 1 has a malformed dyadic field '0x_8/4'"),
    ('hex', '0X8/4', "row 1 has a malformed dyadic field '0X8/4'"),
    ('hex', '0x8/+4', "row 1 has a malformed dyadic field '0x8/+4'"),
    ('hex', '0x8/-4', "row 1 has a malformed dyadic field '0x8/-4'"),
    ('hex', '0x8/4/4', "row 1 has a malformed dyadic field '0x8/4/4'"),
    ('hex', '0x8/04', [[0], [8]]),
    ('hex', '0x08/4', [[0], [8]]),
    ('hex', '0xa/4', 'row 1 has a float field other than its hex value'),
    ('hex', '0x8/5', 'inconsistent precisions [4, 5] in points CSV'),
    ('hex', '0x8/65', 'inconsistent precisions [4, 65] in points CSV'),
    ('hex', '0x10/4', 'numerator out of range for precision 4'),
    ('hex', '0xFFFFFFFFFFFFFFFFF/4', 'numerator out of range for precision 4'),
    ('hex', '0x000000000000000000000000008/4', [[0], [8]]),
    ('hex', '0x0000000000000000000000000008/4', 'row 1 has a hex field of 32 or more bytes'),
    ('hex', '0x8/0000000000000000000000000000004', 'row 1 has a hex field of 32 or more bytes'),
    ('float', ' 0.5', [[0], [8]]),
    ('float', '0.5 ', [[0], [8]]),
    ('float', '\t0.5', [[0], [8]]),
    ('float', '0.5\t', [[0], [8]]),
    ('float', '+0.5', [[0], [8]]),
    ('float', '-0.5', 'row 1 has a float field other than its hex value'),
    ('float', '_0.5', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,_0.5'"),
    ('float', '0.5_', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,0.5_'"),
    ('float', '\u30000.5', [[0], [8]]),
    ('float', '\xe90.5', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,\xe90.5'"),
    ('float', '\u01000.5', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,\u01000.5'"),
    ('float', '0.5\x00', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,0.5\\x00'"),
    ('float', '\x00', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,\\x00'"),
    ('float', '0.5#', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,0.5#'"),
    ('float', '#', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,#'"),
    ('float', '', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,'"),
    ('float', '5e-1', [[0], [8]]),
    ('float', '1E-1', 'row 1 has a float field other than its hex value'),
    ('float', '.5', [[0], [8]]),
    ('float', 'inf', 'row 1 has a float field other than its hex value'),
    ('float', 'infinity', 'row 1 has a float field other than its hex value'),
    ('float', 'nan', 'row 1 has a float field other than its hex value'),
    ('float', '0x1p-1', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,0x1p-1'"),
    ('float', '0X1p-1', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,0X1p-1'"),
    ('float', '1e', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,1e'"),
    ('float', '0.5_0', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,0.5_0'"),
    ('float', '0_.5', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,0_.5'"),
    ('float', '- 0.5', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,- 0.5'"),
    ('float', '5E-1', [[0], [8]]),
    ('float', '05e-1', [[0], [8]]),
    ('float', '5.', 'row 1 has a float field other than its hex value'),
    ('float', '0.50000000000000000000000000000001', [[0], [8]]),
    ('float', '-inf', 'row 1 has a float field other than its hex value'),
    ('float', 'Infinity', 'row 1 has a float field other than its hex value'),
    ('float', 'NaN', 'row 1 has a float field other than its hex value'),
    ('float', 'nan(1)', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,nan(1)'"),
    ('float', 'infin', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,infin'"),
    ('float', '1e+', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,1e+'"),
    ('float', '.', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,.'"),
    ('float', 'e1', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,e1'"),
    ('float', ' ', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4, '"),
    ('float', '\u20280.5', [[0], [8]]),
    ('float', '0.5\x85', [[0], [8]]),
    ('float', '\xa00.5', [[0], [8]]),
    ('float', '\u200b0.5', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,\\u200b0.5'"),
    ('float', '\u0660.\u0665', "row 1 is not an index and 1 hex,float pairs: '1,0x8/4,\u0660.\u0665'"),
    ('float', '\x0c0.5\x0b', [[0], [8]]),
]


@pytest.mark.parametrize("field, value, outcome", ONE_FIELD_EDITS)
def test_points_csv_one_field_edits_read_as_recorded(field, value, outcome, tmp_path):
    # Each edit reads alike from a path, a binary file and a binary stream
    # that cannot seek, its text encoded as the reader decodes it.
    fields = ["1", "0x8/4", "0.5"]
    fields[["index", "hex", "float"].index(field)] = value
    data = encoded("0,0x0/4,0\n" + ",".join(fields) + "\n")
    path = tmp_path / "pts.csv"
    path.write_bytes(data)
    for source in (path, io.BytesIO(data), unseekable(data)):
        if isinstance(outcome, str):
            with pytest.raises(ValueError) as refused:
                read_points_csv(source)
            assert str(refused.value) == outcome
        else:
            back = read_points_csv(source)
            assert back.numerators.tolist() == outcome and back.precision == 4


def test_points_csv_reads_wide_rows_in_memory_proportional_to_them():
    # The row pattern repeats one field pattern d times.  A pattern with a
    # copy of it per coordinate traced about 700 bytes per byte of these
    # rows at d = 2,000 while it compiled, and took seconds.
    d = 2000
    text = "".join(f"{n}" + f",0x{n}/4,{n / 16}" * d + "\n" for n in range(2))
    data = text.encode()
    tracemalloc.start()
    try:
        back = read_points_csv(io.BytesIO(data))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.numerators.tolist() == [[0] * d, [1] * d]
    assert peak <= 200 * len(text)


def test_points_csv_range_error_outranks_an_earlier_float_mismatch(monkeypatch):
    # Reads of 64 bytes: the comment, the header and data row 0 in the
    # first block, and rows 1 and 9 in later, different ones.  A binary file
    # and a binary stream that cannot seek report alike.
    blocks = recorded_blocks(monkeypatch, 64)
    pts = generate_points(build_matrices(2, 4, 4), 12)
    lines = _written(pts).splitlines(True)

    def edited(edits: dict) -> bytes:
        out = list(lines)
        for row, edit in edits.items():
            out[row + 2] = edit(out[row + 2])
        return "".join(out).encode()

    def float_off(line: str) -> str:
        return line[: line.rindex(",") + 1] + "0.3\n"

    def over_range(line: str) -> str:
        fields = line.split(",")
        fields[1] = "0x10/4"
        return ",".join(fields)

    for source in (io.BytesIO, unseekable):
        blocks.clear()
        with pytest.raises(ValueError, match="numerator out of range for precision 4"):
            read_points_csv(source(edited({1: float_off, 9: over_range})))
        first, second = (
            next(i for i, block in enumerate(blocks) if b"\n%d," % row in b"\n" + block)
            for row in (1, 9)
        )
        assert 0 < first < second
        with pytest.raises(ValueError, match="^row 1 has a float field"):
            read_points_csv(source(edited({1: float_off, 9: float_off})))
        with pytest.raises(ValueError, match="^row 9 has a float field"):
            read_points_csv(source(edited({9: float_off})))


@pytest.mark.parametrize("edit, message", [
    (lambda f: f.replace("9,", "10,", 1), "row 9 has index '10'"),
    (lambda f: f.replace("/6,", "/7,", 1), r"inconsistent precisions \[6, 7\]"),
    (lambda f: f[: f.rindex(",") + 1] + "0.5\n", "row 9 has a float field"),
    (lambda f: f[: f.rindex(",") + 1] + "x\n", "row 9 is not an index"),
    (lambda f: f.replace("/6", "/6/6", 1), "row 9 has a malformed dyadic field"),
])
def test_points_csv_names_the_file_row_past_a_chunk(edit, message, monkeypatch):
    # Reads of 64 bytes put row 9 (file line 11) in a block after the first.
    blocks = recorded_blocks(monkeypatch, 64)
    lines = _written(generate_points(build_matrices(2, 6, 6), 12, 6)).splitlines(True)
    lines[11] = edit(lines[11])
    with pytest.raises(ValueError, match=message):
        read_points_csv(io.BytesIO("".join(lines).encode()))
    assert len(blocks) >= 2 and b"\n9," not in blocks[0]


def _no_writer_rows(monkeypatch):
    """Send every block down the parser path."""
    monkeypatch.setattr(sequence, "_writer_rows", lambda *args: None)


def _outcome(read):
    """What a read gives: the set's fields, or the exception's class and text."""
    try:
        pset = read()
    except Exception as exc:  # compared between reads, not handled
        return type(exc), str(exc)
    return pset.numerators.tolist(), pset.precision, pset.provenance


@st.composite
def _edited_points_text(draw):
    d = draw(st.integers(1, 3))
    w = draw(st.integers(1, 64))
    coord = st.integers(0, (1 << w) - 1)
    rows = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=40))
    text = _written(pset_from_tuples(rows, w, "edited"))
    lines = text.splitlines(keepends=True)
    edit = draw(st.sampled_from(["none", "byte", "comment", "blank", "crlf"]))
    if edit == "byte":
        at = draw(st.integers(0, len(text) - 1))
        byte = draw(st.sampled_from(string.printable + "\0é"))
        text = text[:at] + byte + text[at + 1 :]
    elif edit in ("comment", "blank"):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, "# a note\n" if edit == "comment" else "\n")
        text = "".join(lines)
    elif edit == "crlf":
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = lines[at][:-1] + "\r\n"
        text = "".join(lines)
    return text


@settings(max_examples=150, deadline=None)
@given(_edited_points_text(), st.sampled_from([64, 200, 1 << 15]))
def test_points_csv_writer_blocks_read_as_the_parser_reads_them(text, block):
    # Reads of 64 or 200 bytes put many block boundaries in each file;
    # whatever one edit did to it, checking blocks against the writer must
    # not change what is read or refused, from a path, a binary file or a
    # binary stream that cannot seek.
    outcomes = []
    data = encoded(text)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "pts.csv"
        path.write_bytes(data)
        mp.setattr(sequence, "_COUNT_BLOCK", block)
        for source in (lambda: path, lambda: io.BytesIO(data), lambda: unseekable(data)):
            outcomes.append(_outcome(lambda: read_points_csv(source())))
            with pytest.MonkeyPatch.context() as parser_only:
                _no_writer_rows(parser_only)
                assert _outcome(lambda: read_points_csv(source())) == outcomes[-1]
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


def _writer_block_checks(monkeypatch) -> list[int | None]:
    """Per block checked against the writer, in reading order: its row
    count if it was taken as the writer's bytes, else None."""
    checks = []
    check = sequence._writer_rows

    def counted(*args):
        nums = check(*args)
        checks.append(None if nums is None else len(nums))
        return nums

    monkeypatch.setattr(sequence, "_writer_rows", counted)
    return checks


def test_points_csv_takes_every_block_after_the_first_as_the_writers(
    tmp_path, monkeypatch
):
    pts = generate_points(build_matrices(2, 14, 14), 1 << 14)
    path = tmp_path / "pts.csv"
    write_points_csv(pts, path)
    checks = _writer_block_checks(monkeypatch)
    seen = []
    data = path.read_bytes()
    for source in (path, io.BytesIO(data), unseekable(data)):
        checks.clear()
        back = read_points_csv(source)
        assert same_points(back, pts) and back.provenance == pts.provenance
        # The first block holds the comment and the header, fixes d and w,
        # and is parsed; each block after it is checked, and taken.
        assert len(checks) > 10 and None not in checks and sum(checks) < 1 << 14
        seen.append(list(checks))
    # A path and the streams of its bytes are cut into the same blocks.
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_points_csv_edits_at_the_default_block_size(tmp_path, monkeypatch):
    pts = generate_points(build_matrices(2, 14, 14), 1 << 14)
    lines = _written(pts).splitlines(keepends=True)
    row = 8191
    lettered = next(r for r in range(row, row + 100) if "A" in lines[r + 2])
    checks = _writer_block_checks(monkeypatch)

    def read(edited: list[str]) -> PointSet:
        path = tmp_path / "edited.csv"
        path.write_text("".join(edited))
        checks.clear()
        return read_points_csv(path)

    def taken() -> int:
        return sum(filter(None, checks))

    def exponent_form(line: str) -> str:
        fields = line.split(",")
        fields[2] = "%.16e" % float(fields[2])
        return ",".join(fields)

    # Accepted with the same numerators: a float written in another form of
    # equal value (0.12... as 1.2...e-01), lower-case hex, a comment line in
    # the middle of the file.  Only the edited block is parsed.
    for at, edit in [
        (row, exponent_form),
        (lettered, str.lower),
        (row, lambda line: "# a note, in the middle\n" + line),
    ]:
        edited = list(lines)
        edited[at + 2] = edit(edited[at + 2])
        assert edited != lines
        assert same_points(read(edited), pts)
        assert checks.count(None) == 1 and taken() > (1 << 14) * 9 // 10
    # One float one ulp off is refused, naming its row.
    edited = list(lines)
    fields = edited[row + 2].split(",")
    fields[2] = "%.17g" % np.nextafter(float(fields[2]), 1.0)
    edited[row + 2] = ",".join(fields)
    with pytest.raises(ValueError, match=f"^row {row} has a float field other"):
        read(edited)
    # A block of the writer's own bytes may hold a numerator of 2^w or more,
    # since the writer's 4 nibbles at w = 14 reach 2^16.  That block is
    # taken, and the range error is still raised, also ahead of a float
    # mismatch in row 3.
    edited = list(lines)
    wide = np.array([[(1 << 15) + 5, 7]], np.uint64)
    edited[row + 2] = sequence._csv_block(wide, 14, row).decode()
    with pytest.raises(ValueError, match="numerator out of range for precision 14"):
        read(edited)
    assert None not in checks
    edited[3 + 2] = edited[3 + 2][: edited[3 + 2].rindex(",") + 1] + "0.3\n"
    with pytest.raises(ValueError, match="numerator out of range for precision 14"):
        read(edited)


@pytest.mark.parametrize("start", [0, 9_990, 99_995, 10**8 - 3, 10**12 - 1])
def test_csv_block_index_column_reads_the_row_numbers(start):
    nums = np.arange(12, dtype=np.uint64).reshape(6, 2)
    text = sequence._csv_block(nums, 4, start).decode()
    assert [line.split(",")[0] for line in text.splitlines()] == [
        str(n) for n in range(start, start + 6)
    ]
