"""Batch command line tying construction, sampling, and measurement together.

Subcommands: ``matrices`` (emit generating matrices as JSON), ``points``
(emit sequence points as CSV), ``measure`` (evaluate one measure, JSON
report), ``tvalue`` (verify net quality per block size, JSON), ``study``
(scaling table of both measures against N, CSV or JSON).

Exit codes: 0 success, 1 usage error, 2 computation refusal (budget or
precision), 3 I/O error.  Every command is deterministic given its flags;
the only timestamp sits in a single header comment line.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import IO, Sequence

from .errors import BudgetError, PrecisionError
from .interlace import interlace_matrices
from .niederreiter import (
    GeneratingMatrixSet,
    build_matrices,
    load_matrix_set,
)
from .quality import DEFAULT_NODE_CAP, minimal_t

# Callees of the numpy-backed modules, bound into this module on first use,
# so that `matrices` and `tvalue` start without numpy.  They stay attributes
# of this module: the perfbench tracer reads and replaces them here by name.
_DEFERRED = {
    "measures": ("DIAPHONY", "PERIODIC_L2", "both_kernel_measures", "diaphony",
                 "fourier_truncated", "periodic_l2", "prefix_kernel_measures"),
    "sequence": ("MAX_PRECISION", "PointSet", "generate_points",
                 "read_points_csv", "write_points_csv"),
    "walshlab": ("walsh_series_l2",),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}


def _bind(*names: str) -> None:
    """Bind each deferred name this module does not hold yet.

    A binding already there, such as a wrapper set from outside, is kept.
    The names go into the globals of the running module, which is
    ``__main__`` under ``python -m dignet.cli``, so that run never imports
    a second copy of this module.
    """
    space = globals()
    for name in names:
        if name not in space:
            home = import_module(f".{_HOME[name]}", __package__)
            space[name] = getattr(home, name)


def __getattr__(name: str):
    """Bind a deferred name when it is first read from outside (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_REFUSED",
    "EXIT_IO",
    "StudyRow",
    "construct_matrices",
    "study_rows",
    "write_study_csv",
    "build_parser",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2
EXIT_IO = 3


def _positive_int(text: str) -> int:
    """argparse type for counts, caps, orders and bounds: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _path(text: str) -> str:
    """argparse type for file names: any text but the empty string."""
    if not text:
        raise argparse.ArgumentTypeError("must name a file, got an empty string")
    return text


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors.

    It refuses unknown arguments itself, so that one given to a subcommand
    is reported under that subcommand's usage line, not the top-level one.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class StudyRow:
    """One line of the scaling study.

    ``ratio`` is N * per_l2 / ((log N)^((d-1)/2) * sqrt(S)), where S is the
    binary digit sum of N; a bounded ratio across N is the scaling the
    interlaced construction is built to achieve.  ``wall_seconds`` is the
    time of the row's measures, not of generating its points; a row that
    extends the one before it by one point reports only that extension.
    It is informational and exempt from byte-identical reproducibility.
    """

    n: int
    dimension: int
    alpha: int
    digit_sum: int
    per_l2: float
    diaphony: float
    ratio: float
    wall_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "N": self.n,
            "d": self.dimension,
            "alpha": self.alpha,
            "S": self.digit_sum,
            "per_l2": self.per_l2,
            "diaphony": self.diaphony,
            "ratio": self.ratio,
            "wall_seconds": self.wall_seconds,
        }


def construct_matrices(dimension: int, alpha: int, m: int) -> GeneratingMatrixSet:
    """Interlaced generating matrices with alpha*m rows and m columns.

    ``alpha = 1`` yields the plain construction; larger alpha interlaces an
    (alpha*dimension)-stream base down to ``dimension`` coordinates.
    """
    if alpha == 1:
        return build_matrices(dimension, m, m)
    base = build_matrices(alpha * dimension, m, m)
    return interlace_matrices(base, alpha)


def study_rows(dimension: int, alpha: int, counts: Sequence[int]) -> list[StudyRow]:
    """Both kernel measures and the normalized ratio for each point count.

    All counts are served by one interlaced sequence whose column extent
    covers the largest requested N: its points are generated once and the
    rows are its prefixes, measured in one pass (``prefix_kernel_measures``)
    in which N = 2^m extends the row for 2^m - 1 by one point.  Rows come
    back sorted by N with duplicates dropped.
    """
    _bind("generate_points", "prefix_kernel_measures")
    wanted = sorted(set(int(n) for n in counts))
    if not wanted:
        raise ValueError("need at least one point count")
    if wanted[0] < 2:
        raise ValueError(f"counts must be at least 2, got {wanted[0]}")
    cols = max(2, (wanted[-1] - 1).bit_length())
    full = generate_points(construct_matrices(dimension, alpha, cols), wanted[-1])
    rows = []
    start = time.perf_counter()
    for n, (rep_l2, rep_dia) in zip(wanted, prefix_kernel_measures(full, wanted)):
        wall = time.perf_counter() - start
        s = n.bit_count()
        ratio = (
            n * rep_l2.value
            / (math.log(n) ** ((dimension - 1) / 2) * math.sqrt(s))
        )
        rows.append(
            StudyRow(n, dimension, alpha, s, rep_l2.value, rep_dia.value, ratio, wall)
        )
        start = time.perf_counter()
    return rows


def write_study_csv(
    rows: Sequence[StudyRow], out: IO[str] | str | Path, timestamp: str | None = None
) -> None:
    """Write study rows with 17-significant-digit reals.

    The single leading comment line carries the only timestamp.
    """
    if isinstance(out, (str, Path)):
        with open(out, "w", newline="") as fh:
            write_study_csv(rows, fh, timestamp=timestamp)
        return
    if timestamp is None:
        timestamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    out.write(f"# scaling study; written: {timestamp}\n")
    out.write("N,d,alpha,S,per_l2,diaphony,ratio,wall_seconds\n")
    for r in rows:
        out.write(
            f"{r.n},{r.dimension},{r.alpha},{r.digit_sum},"
            f"{r.per_l2:.17g},{r.diaphony:.17g},{r.ratio:.17g},"
            f"{r.wall_seconds:.17g}\n"
        )


def _self_test(rows_by_dim: dict[int, list[StudyRow]]) -> str | None:
    """Recompute spot checks on the emitted rows; return an error or None.

    For d=1 every row must satisfy the exact diaphony = pi*sqrt(2) * per_l2
    proportionality.  The comparison is made between the squared measures
    with the tolerance anchored to the kernel pair-sum scale (1 + F^2):
    both squared values are differences of a sum near 1, so for very
    uniform sets their own relative scale is dominated by cancellation
    noise while the pair-sum scale is where roundoff actually lives.  For
    each dimension one row (the largest N up to 1024) is recomputed under
    a fixed torus shift, which must leave both measures unchanged to 1e-12
    relative.
    """
    import numpy as np

    _bind("PointSet", "generate_points", "periodic_l2")
    coeff = 2.0 * math.pi**2
    for row in rows_by_dim.get(1, []):
        sq_dia = row.diaphony**2
        if abs(sq_dia - coeff * row.per_l2**2) > 1e-12 * (1.0 + sq_dia):
            return (
                f"self-test failed: d=1 N={row.n} diaphony {row.diaphony!r} "
                f"deviates from pi*sqrt(2)*per_l2 "
                f"{math.pi * math.sqrt(2.0) * row.per_l2!r}"
            )
    rng = random.Random(0xD16)
    for dim, rows in rows_by_dim.items():
        candidates = [r for r in rows if r.n <= 1024] or rows
        row = max(candidates, key=lambda r: r.n)
        cols = max(2, (row.n - 1).bit_length())
        gset = construct_matrices(dim, row.alpha, cols)
        pset = generate_points(gset, row.n)
        w = pset.precision
        offsets = np.array([rng.getrandbits(w) for _ in range(dim)], dtype=np.uint64)
        # uint64 addition wraps mod 2^64, so the mask reduces it mod 2^w.
        shifted = (pset.numerators + offsets) & np.uint64((1 << w) - 1)
        rep = periodic_l2(PointSet(shifted, w))
        if abs(rep.value - row.per_l2) > 1e-12 * abs(row.per_l2):
            return (
                f"self-test failed: d={dim} N={row.n} per_l2 moved under a "
                f"torus shift ({row.per_l2!r} -> {rep.value!r})"
            )
    return None


# ---------------------------------------------------------------------------
# Output plumbing.
# ---------------------------------------------------------------------------


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _dump_json(out: str | None, obj) -> None:
    _write_text(out, json.dumps(obj, indent=2) + "\n")


# The flags that a file source may make meaningless, by argparse dest.
_FLAG_NAMES = {
    "matrix_file": "--matrix-file",
    "dimension": "-d/--dimension",
    "alpha": "-a/--alpha",
    "size": "-m/--size",
    "precision": "-W/--precision",
}


def _refuse_given(args, parser, dests: Sequence[str], scope: str) -> None:
    """Refuse the flags of ``dests`` that were given, under the
    subcommand's usage line: the file source in use sets what they set."""
    given = [_FLAG_NAMES[dest] for dest in dests if getattr(args, dest) is not None]
    if len(given) == 1:
        parser.error(f"{given[0]} applies to {scope}")
    if given:
        parser.error(f"{', '.join(given[:-1])} and {given[-1]} apply to {scope}")


def _inline_gset(
    args, parser: argparse.ArgumentParser, file_sets: Sequence[str]
) -> GeneratingMatrixSet:
    """The --matrix-file matrices, or the inline construction.

    A file refuses the construction flags of ``file_sets``, which it sets
    itself; ``tvalue`` leaves -a/--alpha out of them, since there it sets
    the order of the check.  An inline construction takes d = 1 and
    alpha = 1 unless given.
    """
    if args.matrix_file:
        _refuse_given(args, parser, file_sets,
                      "an inline construction, not --matrix-file")
        return load_matrix_set(args.matrix_file)
    if args.size is None:
        parser.error("need --matrix-file or -m/--size to define the matrices")
    return construct_matrices(args.dimension or 1, args.alpha or 1, args.size)


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each gets its own subcommand's parser, so a usage
# error it finds prints that subcommand's usage line.
# ---------------------------------------------------------------------------


def _cmd_matrices(args, parser) -> int:
    gset = construct_matrices(args.dimension, args.alpha, args.size)
    _dump_json(args.out, gset.to_json_dict())
    return EXIT_OK


def _cmd_points(args, parser) -> int:
    _bind("generate_points", "write_points_csv")
    gset = _inline_gset(args, parser, ("dimension", "alpha", "size"))
    count = args.count if args.count is not None else 1 << gset.cols
    pset = generate_points(gset, count, args.precision)
    if args.out is None or args.out == "-":
        write_points_csv(pset, sys.stdout)
    else:
        write_points_csv(pset, args.out)
    return EXIT_OK


def _cmd_measure(args, parser) -> int:
    _bind("DIAPHONY", "PERIODIC_L2", "PointSet", "diaphony", "fourier_truncated",
          "generate_points", "periodic_l2", "read_points_csv")
    scheme = PERIODIC_L2 if args.measure == "per-l2" else DIAPHONY
    if args.method is not None and args.cross_check:
        parser.error("--method and --cross-check exclude each other: "
                     "--cross-check runs kernel and fourier")
    method = args.method if args.method is not None else "kernel"
    if method != "walsh" and args.bound_bits is not None:
        parser.error("--bound-bits applies to the walsh method only")
    if method == "walsh" and args.precision is not None:
        parser.error("-W/--precision applies to the kernel and fourier methods, "
                     "not walsh")
    if args.trunc is not None and method != "fourier" and not args.cross_check:
        parser.error("--trunc applies to the fourier method and --cross-check only")
    if args.threads is not None and method != "kernel" and not args.cross_check:
        parser.error("--threads applies to the kernel method and --cross-check only")
    trunc = args.trunc if args.trunc is not None else 256
    threads = args.threads if args.threads is not None else 1
    if method == "walsh" or args.cross_check:
        if args.points_file:
            parser.error("the walsh method and --cross-check need generating "
                         "matrices, not a points file")
    if args.points_file:
        _refuse_given(args, parser,
                      ("matrix_file", "dimension", "alpha", "size", "precision"),
                      "generated points, not a points file")
        pset = read_points_csv(args.points_file)
        if args.count is not None:
            if args.count > pset.size:
                raise ValueError(
                    f"-N must lie in [1, {pset.size}] for this points file, "
                    f"got {args.count}"
                )
            pset = PointSet(
                pset.numerators[: args.count], pset.precision, pset.provenance
            )
        gset = None
    else:
        gset = _inline_gset(args, parser, ("dimension", "alpha", "size"))
        count = args.count if args.count is not None else 1 << gset.cols
        if method != "walsh":
            pset = generate_points(gset, count, args.precision)

    kernel = periodic_l2 if scheme is PERIODIC_L2 else diaphony
    if args.cross_check:
        rep_kernel = kernel(pset, threads=threads)
        rep_fourier = fourier_truncated(pset, scheme, trunc)
        _dump_json(
            args.out,
            {
                "kernel": rep_kernel.to_json_dict(),
                "fourier": rep_fourier.to_json_dict(),
                "gap": abs(rep_kernel.value - rep_fourier.value),
            },
        )
        return EXIT_OK

    if method == "kernel":
        report = kernel(pset, threads=threads)
    elif method == "fourier":
        report = fourier_truncated(pset, scheme, trunc)
    else:
        if scheme is not PERIODIC_L2:
            parser.error("the walsh method computes per-l2 only")
        if args.count is not None and args.count != 1 << gset.cols:
            parser.error(
                f"the walsh method sums the whole net of 2^{gset.cols} points; "
                "drop -N or pass the full size"
            )
        _bind("walsh_series_l2")
        report = walsh_series_l2(gset, bound_bits=args.bound_bits)
    _dump_json(args.out, report.to_json_dict())
    return EXIT_OK


def _cmd_tvalue(args, parser) -> int:
    gset = _inline_gset(args, parser, ("dimension", "size"))
    alpha = args.alpha if args.alpha is not None else gset.alpha
    m_max = args.m_max if args.m_max is not None else gset.cols
    if m_max > gset.cols:
        raise ValueError(
            f"--m-max {m_max} exceeds the {gset.cols} columns available"
        )
    if args.m_min > m_max:
        raise ValueError(f"--m-min must lie in [1, {m_max}], got {args.m_min}")
    if alpha * m_max > gset.rows:
        parser.error(
            f"-a/--alpha {alpha} needs {alpha * m_max} rows for m = {m_max}, "
            f"but the matrices have {gset.rows}; lower -a/--alpha or --m-max"
        )
    blocks = []
    for m in range(args.m_min, m_max + 1):
        subs = [mat.submatrix(alpha * m, m) for mat in gset.matrices]
        report = minimal_t(subs, alpha, node_cap=args.node_cap)
        blocks.append(report.to_json_dict())
    _dump_json(
        args.out,
        {"construction_t": gset.t, "alpha": alpha, "blocks": blocks},
    )
    return EXIT_OK


def _cmd_study(args, parser) -> int:
    _bind("MAX_PRECISION")
    dims = [args.dimension] if args.dimension is not None else [1, 2]
    m_min = args.m_min if args.m_min is not None else min(6, args.m_max)
    if m_min > args.m_max:
        raise ValueError(f"--m-min must lie in [1, {args.m_max}], got {m_min}")
    alpha = args.alpha
    if alpha is None:
        alpha = max(1, min(5, MAX_PRECISION // args.m_max))
    rng = random.Random(args.seed)
    counts = []
    for m in range(m_min, args.m_max + 1):
        counts.append(1 << m)
        if args.include_non_powers:
            if (1 << m) - 1 >= 2:
                counts.append((1 << m) - 1)
            if m >= 3:
                counts.append(rng.randint((1 << (m - 1)) + 1, (1 << m) - 2))
    rows_by_dim = {dim: study_rows(dim, alpha, counts) for dim in dims}
    if args.self_test:
        failure = _self_test(rows_by_dim)
        if failure:
            print(failure, file=sys.stderr)
            return EXIT_REFUSED
    all_rows = [row for dim in dims for row in rows_by_dim[dim]]
    if args.format == "json":
        stamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
        _dump_json(
            args.out,
            {"written": stamp, "rows": [r.to_json_dict() for r in all_rows]},
        )
    elif args.out is None or args.out == "-":
        write_study_csv(all_rows, sys.stdout)
    else:
        write_study_csv(all_rows, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dignet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_generator_flags(p, with_count: bool):
        p.add_argument("--matrix-file", type=_path,
                       help="load matrices from a JSON file")
        p.add_argument("-d", "--dimension", type=_positive_int,
                       help="output dimension (inline construction; default 1)")
        p.add_argument("-a", "--alpha", type=_positive_int,
                       help="interlacing factor (inline construction; default 1)")
        p.add_argument("-m", "--size", type=_positive_int,
                       help="digit columns of the inline construction")
        if with_count:
            p.add_argument("-N", "--count", type=_positive_int,
                           help="number of points (default: the full net)")
            p.add_argument("-W", "--precision", type=_positive_int,
                           help="digit precision (default: matrix rows; fewer "
                                "truncates each coordinate to its leading W "
                                "digits)")

    pm = sub.add_parser("matrices", help="emit generating matrices as JSON")
    pm.add_argument("-d", "--dimension", type=_positive_int, required=True)
    pm.add_argument("-a", "--alpha", type=_positive_int, default=1)
    pm.add_argument("-m", "--size", type=_positive_int, required=True)
    pm.add_argument("--out", type=_path)
    pm.set_defaults(func=_cmd_matrices, parser=pm)

    pp = sub.add_parser("points", help="emit sequence points as CSV")
    add_generator_flags(pp, with_count=True)
    pp.add_argument("--out", type=_path)
    pp.set_defaults(func=_cmd_points, parser=pp)

    pe = sub.add_parser("measure", help="evaluate one measure, emit JSON")
    add_generator_flags(pe, with_count=True)
    pe.add_argument("--points", type=_path, dest="points_file",
                    help="read points from a CSV file instead")
    pe.add_argument("--measure", choices=["per-l2", "diaphony"], default="per-l2")
    pe.add_argument("--method", choices=["kernel", "fourier", "walsh"],
                    help="kernel (the default), fourier or walsh; not with "
                         "--cross-check")
    pe.add_argument("--trunc", type=_positive_int,
                    help="frequency bound for the fourier method and "
                         "--cross-check (default 256)")
    pe.add_argument("--bound-bits", type=_positive_int,
                    help="digit bound for the walsh method")
    pe.add_argument("--cross-check", action="store_true",
                    help="run kernel and fourier, report the gap")
    pe.add_argument("--threads", type=_positive_int,
                    help="worker threads for the d >= 3 kernel, with the kernel "
                         "method and --cross-check (default 1)")
    pe.add_argument("--out", type=_path)
    pe.set_defaults(func=_cmd_measure, parser=pe)

    pt = sub.add_parser("tvalue", help="verify net quality per block size")
    pt.add_argument("--matrix-file", type=_path)
    pt.add_argument("-d", "--dimension", type=_positive_int,
                    help="output dimension (inline construction; default 1)")
    pt.add_argument("-a", "--alpha", type=_positive_int, default=None,
                    help="order of the check (default: the construction's)")
    pt.add_argument("-m", "--size", type=_positive_int,
                    help="digit columns of the inline construction")
    pt.add_argument("--m-min", type=_positive_int, default=1)
    pt.add_argument("--m-max", type=_positive_int, default=None)
    pt.add_argument("--node-cap", type=_positive_int, default=DEFAULT_NODE_CAP,
                    help="row insertions per block search; past it the block "
                         "falls back to the per-t scan and may report "
                         "exhaustive false")
    pt.add_argument("--out", type=_path)
    pt.set_defaults(func=_cmd_tvalue, parser=pt)

    ps = sub.add_parser("study", help="scaling study of both measures")
    ps.add_argument("-d", "--dimension", type=int, choices=[1, 2], default=None,
                    help="restrict to one dimension (default: both 1 and 2)")
    ps.add_argument("-a", "--alpha", type=_positive_int, default=None,
                    help="interlacing factor (default: largest feasible <= 5)")
    ps.add_argument("--m-min", type=_positive_int, default=None,
                    help="smallest m of N = 2^m (default: 6, or --m-max if "
                         "that is smaller)")
    ps.add_argument("--m-max", type=_positive_int, default=13,
                    help="largest m of N = 2^m (default 13)")
    ps.add_argument("--include-non-powers", action="store_true",
                    help="also sample N = 2^m - 1 and one random N per m")
    ps.add_argument("--self-test", action="store_true",
                    help="recompute proportionality and shift spot checks")
    ps.add_argument("--seed", type=int, default=0,
                    help="seed for the random-N sampling only")
    ps.add_argument("--format", choices=["csv", "json"], default="csv")
    ps.add_argument("--out", type=_path)
    ps.set_defaults(func=_cmd_study, parser=ps)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, args.parser)
    except (BudgetError, PrecisionError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
