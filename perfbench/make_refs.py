#!/usr/bin/env python3
"""Regenerate perfbench/refs.json, the reference values the benchmark checks.

Run from the repository root:  python3 perfbench/make_refs.py

Where an exact answer is cheap it is computed here, independently of the
package's float paths: point numerators come from the matrices' text form by
XOR-ing column values, and kernel pair sums are taken in integer arithmetic
(numerators are integers, so the sums are exact rationals).  That covers
every d=1 study row (an O(N log N) sort) and every d=2 row with N <= 1024
(an O(N^2) pair loop).  The remaining values (d=2 study rows with N > 1024,
the Walsh series, the Fourier oracle, the t-values and the provenance) are
recorded from the current program.  Each float reference is then checked
against the program's own output within its stated tolerance before the
file is written.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

from dignet.cli import construct_matrices, main as cli_main  # noqa: E402

from child import numerator_digest, readback_summary  # noqa: E402
from run import value_error  # noqa: E402

getcontext().prec = 60
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")

STUDY_ALPHA = 4
STUDY_COLS = 13
STUDY_M = range(6, 14)
EXACT_PAIR_LIMIT = 1024


def numerators(dimension: int, alpha: int, cols: int, count: int) -> list[np.ndarray]:
    """First ``count`` numerators per coordinate, from the matrices' text."""
    data = construct_matrices(dimension, alpha, cols).to_json_dict()
    w = data["rows"]
    index = np.arange(count, dtype=np.uint64)
    out = []
    for rows in data["matrices"]:
        x = np.zeros(count, dtype=np.uint64)
        for b in range(cols):
            value = sum(1 << (w - 1 - i) for i, row in enumerate(rows) if row[b] == "1")
            x[(index >> np.uint64(b)) & np.uint64(1) == 1] ^= np.uint64(value)
        out.append(x)
    return out


def bernoulli_sums(columns: list[np.ndarray], w: int) -> tuple[Fraction, Fraction]:
    """Exact R1 = mean over ordered pairs of sum_j B2(delta_j), R2 = mean of B2*B2.

    B2(delta) = Q(e) / (6 W^2) with W = 2^w, e the numerator difference and
    Q(e) = 6(e^2 - W|e|) + W^2, which is B2 of the periodic difference.
    """
    n = len(columns[0])
    big_w = 1 << w
    if len(columns) == 1:
        xs = sorted(int(v) for v in columns[0])
        s1 = s2 = p1 = p2 = 0
        for j, x in enumerate(xs):
            s1 += j * x - p1
            s2 += j * x * x - 2 * x * p1 + p2
            p1 += x
            p2 += x * x
        pairs = n * (n - 1) // 2
        q_sum = 6 * (s2 - big_w * s1) + pairs * big_w * big_w
        r1 = (Fraction(n, 6) + 2 * Fraction(q_sum, 6 * big_w * big_w)) / (n * n)
        return r1, Fraction(0)
    if n > EXACT_PAIR_LIMIT:
        raise ValueError(f"exact d=2 pair loop capped at N={EXACT_PAIR_LIMIT}")
    xs = [int(v) for v in columns[0]]
    ys = [int(v) for v in columns[1]]
    w2 = big_w * big_w
    sum_q = sum_qq = 0
    for i in range(n):
        xi, yi = xs[i], ys[i]
        for j in range(i + 1, n):
            e1 = xs[j] - xi
            e2 = ys[j] - yi
            q1 = 6 * (e1 * e1 - big_w * abs(e1)) + w2
            q2 = 6 * (e2 * e2 - big_w * abs(e2)) + w2
            sum_q += q1 + q2
            sum_qq += q1 * q2
    r1 = (Fraction(2 * n, 6) + 2 * Fraction(sum_q, 6 * w2)) / (n * n)
    r2 = (Fraction(n, 36) + 2 * Fraction(sum_qq, 36 * w2 * w2)) / (n * n)
    return r1, r2


def to_decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def exact_squares(columns: list[np.ndarray], w: int) -> tuple[Fraction, Decimal]:
    """Squared per-l2 (c = 3, exact) and squared diaphony (c = 2*pi^2, 60 digits)."""
    r1, r2 = bernoulli_sums(columns, w)
    c = 2 * PI * PI
    sq_l2 = Fraction(1, 3 ** len(columns)) * (3 * r1 + 9 * r2)
    return sq_l2, c * to_decimal(r1) + c * c * to_decimal(r2)


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"dignet {' '.join(argv)} exited {rc}")
    return out.getvalue()


def study_refs() -> dict:
    """Fixed-N rows (2^m and 2^m - 1) of `dignet study`, keyed 'd,N'."""
    text = run_cli(["study", "--include-non-powers"])
    program = {}
    for line in text.splitlines()[2:]:
        f = line.split(",")
        program[(int(f[1]), int(f[0]))] = {"per_l2": float(f[4]), "diaphony": float(f[5])}
    rows = {}
    worst = 0.0
    for d in (1, 2):
        cols = numerators(d, STUDY_ALPHA, STUDY_COLS, 1 << STUDY_M[-1])
        w = STUDY_ALPHA * STUDY_COLS
        for m in STUDY_M:
            for n in (1 << m, (1 << m) - 1):
                got = program[(d, n)]
                if d == 1 or n <= EXACT_PAIR_LIMIT:
                    sq_l2, sq_dia = exact_squares([c[:n] for c in cols], w)
                    ref = {"per_l2": float(to_decimal(sq_l2).sqrt()),
                           "diaphony": float(sq_dia.sqrt()), "source": "exact"}
                else:
                    ref = dict(got, source="program")
                worst = max(worst, value_error("per-l2", d, got["per_l2"], ref["per_l2"]),
                            value_error("diaphony", d, got["diaphony"], ref["diaphony"]))
                rows[f"{d},{n}"] = ref
    print(f"study: largest program gap, as a share of its tolerance: {worst:.3g}")
    if worst > 1.0:
        raise SystemExit("study: the program is off an exact reference")
    return {"alpha": STUDY_ALPHA, "cols": STUDY_COLS, "m": [STUDY_M[0], STUDY_M[-1]],
            "rows": rows}


def points_refs(scratch: Path) -> dict:
    csv_path = scratch / "refs_points.csv"
    run_cli(["points", "-d", "2", "-a", "2", "-m", "18", "-N", "262144",
             "--out", str(csv_path)])
    program = readback_summary(str(csv_path))
    csv_path.unlink()
    big = numerators(2, 2, 18, 262144)
    full = numerators(2, 2, 10, 1024)
    digest = numerator_digest(zip(*(c.tolist() for c in big)))
    if program["digest"] != digest:
        raise SystemExit("points: the program's points differ from the XOR generator")
    return {
        "N": 262144,
        "provenance": program["provenance"],
        "digest": digest,
        "full_net_N": 1024,
        "full_net_digest": numerator_digest(zip(*(c.tolist() for c in full))),
    }


def verify_refs() -> dict:
    tv = json.loads(run_cli(["tvalue", "-d", "1", "-a", "4", "-m", "16"]))
    walsh = json.loads(run_cli(["measure", "-d", "2", "-a", "2", "-m", "5",
                                "--method", "walsh", "--bound-bits", "9"]))
    cross = json.loads(run_cli(["measure", "-d", "2", "-a", "2", "-m", "9",
                                "--cross-check", "--trunc", "128", "--threads", "1"]))
    net32 = float(exact_squares(numerators(2, 2, 5, 32), 10)[0])
    kernel512 = float(to_decimal(exact_squares(numerators(2, 2, 9, 512), 18)[0]).sqrt())
    gap = value_error("per-l2", 2, cross["kernel"]["value"], kernel512)
    print(f"verify: kernel N=512 gap, as a share of its tolerance: {gap:.3g}")
    if gap > 1.0:
        raise SystemExit("verify: the kernel is off its exact value")
    if abs(walsh["squared"] - net32) > walsh["truncation"]["tail_estimate"]:
        raise SystemExit("verify: the Walsh value is outside its tail bound")
    return {
        "tvalue": {"construction_t": tv["construction_t"],
                   "t": [b["t"] for b in tv["blocks"]]},
        "walsh": {"value": walsh["value"], "members": walsh["truncation"]["members"],
                  "exact_squared": net32, "source": "program"},
        "kernel": {"value": kernel512, "source": "exact"},
        "fourier": {"value": cross["fourier"]["value"], "H": 128, "source": "program"},
    }


def main() -> int:
    scratch = BENCH / "out"
    scratch.mkdir(exist_ok=True)
    refs = {
        "study": study_refs(),
        "points": points_refs(scratch),
        "verify": verify_refs(),
    }
    (BENCH / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BENCH / 'refs.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
