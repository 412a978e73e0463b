#!/usr/bin/env python3
"""dignet benchmark: three workloads of `dignet` CLI runs, timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every operation of a workload runs as its own subprocess
(``python3 -m dignet.cli ...`` with ``src`` on ``PYTHONPATH``) and the run
prints the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it runs
one such pass, then the same operations in-process through
``dignet.cli.main`` with the package's public functions wrapped at their
module attributes, and prints the per-layer metrics.  Every output is checked
against perfbench/refs.json.  The last line of stdout is one JSON object;
the full record of the run goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import child

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
TMP = OUT / "tmp"

RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 7
CROSS_CHECK_THREADS = 2
STUDY_M = range(6, 14)

# Kernel-type values are differences of a pair-sum mean near 1, so their
# float error is absolute at the scale of that sum, not relative to the
# value.  A value passes when |got^2 - ref^2| <= SQ_TOL * prefactor^d *
# (1 + c/6)^d, the largest pair factor.  The current float kernel stays
# within 1e-15 of that scale up to N = 8192 (make_refs.py prints the gap);
# 1e-13 admits any reordered float summation and rejects a changed value,
# which moves the squared value by at least 1/N^2 of the scale.
SQ_TOL = 1e-13
_SCALE = {"per-l2": (1.0 / 3.0, 1.5), "diaphony": (1.0, 1.0 + math.pi**2 / 3.0)}


def value_error(measure: str, d: int, got: float, ref: float) -> float:
    """Gap between a value and its reference, as a share of the allowed gap."""
    prefactor, top = _SCALE[measure]
    return abs(got * got - ref * ref) / (SQ_TOL * (prefactor * top) ** d)


class WrongValue(Exception):
    """An operation exited cleanly but printed a value off its reference."""


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[str], dict]  # stdout -> work counts; raises WrongValue
    readback: bool = False  # argv is [csv path] for child.readback_summary


@dataclass
class OpResult:
    name: str
    wall_s: float
    peak_rss_mb: float | None
    failed: bool
    wrong: bool
    error: str | None
    counts: dict = field(default_factory=dict)


class Checker:
    """Reference checks, shared by the passes of one run."""

    def __init__(self, refs: dict, cli_seed: int):
        self.refs = refs
        self.cli_seed = cli_seed
        self.max_rel_err = 0.0

    def value(self, label: str, measure: str, d: int, got: float, ref: float) -> None:
        self.max_rel_err = max(self.max_rel_err, abs(got - ref) / abs(ref))
        if not value_error(measure, d, got, ref) <= 1.0:
            raise WrongValue(f"{label}: {got!r} against reference {ref!r}")


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


def _random_counts(cli_seed: int) -> list[int]:
    """The random N that `dignet study --include-non-powers` draws per m."""
    rng = random.Random(cli_seed)
    return [rng.randint((1 << (m - 1)) + 1, (1 << m) - 2) for m in STUDY_M]


def study_counts(cli_seed: int) -> list[int]:
    fixed = [n for m in STUDY_M for n in (1 << m, (1 << m) - 1)]
    return sorted(fixed + _random_counts(cli_seed))


def study_cli_seed(seed: int) -> int:
    """The --seed given to `dignet study`, drawn from the benchmark seed.

    The random rows for m = 11..13 carry about 98% of the random rows' pair
    work; left free they move wall_s by about 10% between study seeds.
    Candidates are drawn from the benchmark seed until those three rows each
    lie within 3% of the middle of their range; the rows for m <= 10 vary
    freely.
    """
    rng = random.Random(seed)
    while True:
        candidate = rng.randrange(1 << 31)
        if all(
            abs(n - 3 * (1 << (m - 2))) <= 0.03 * (1 << (m - 1))
            for m, n in zip(STUDY_M, _random_counts(candidate))
            if m >= 11
        ):
            return candidate


def _pairs(n: int, d: int) -> int:
    return n * (n - 1) // 2 * d


def _json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise WrongValue(f"output is not JSON: {exc}") from None


def _csv_numerators(text: str) -> list[tuple[int, ...]]:
    """Numerators from the hex fields of a points CSV, parsed here."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith(("#", "n,")):
            continue
        rows.append(tuple(int(f.split("/")[0], 16) for f in line.split(",")[1::2]))
    return rows


def study_ops(ck: Checker) -> list[Op]:
    refs = ck.refs["study"]["rows"]
    counts = study_counts(ck.cli_seed)

    def check(text: str) -> dict:
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if not lines or lines[0] != "N,d,alpha,S,per_l2,diaphony,ratio,wall_seconds":
            raise WrongValue("unexpected study header")
        seen = defaultdict(list)
        for line in lines[1:]:
            f = line.split(",")
            n, d, s = int(f[0]), int(f[1]), int(f[3])
            per_l2, dia, ratio = float(f[4]), float(f[5]), float(f[6])
            seen[d].append(n)
            envelope = math.log(n) ** ((d - 1) / 2) * math.sqrt(s)
            if s != bin(n).count("1") or not math.isclose(
                ratio, n * per_l2 / envelope, rel_tol=1e-12
            ):
                raise WrongValue(f"study row d={d} N={n}: S or ratio inconsistent")
            ref = refs.get(f"{d},{n}")
            if ref is None:
                # Random-N rows: --self-test re-checks them inside the run.
                if not (per_l2 > 0 and dia > 0):
                    raise WrongValue(f"study row d={d} N={n}: non-positive measure")
                continue
            ck.value(f"study d={d} N={n} per_l2", "per-l2", d, per_l2, ref["per_l2"])
            ck.value(f"study d={d} N={n} diaphony", "diaphony", d, dia, ref["diaphony"])
        if seen != {1: counts, 2: counts}:
            raise WrongValue("study rows differ from the requested counts")
        # The self-test regenerates and re-measures N = 1024 per dimension.
        return {
            "points": 2 * (sum(counts) + 1024),
            "pairs": sum(_pairs(n, d) for d in (1, 2) for n in counts + [1024]),
        }

    argv = ["study", "--include-non-powers", "--self-test", "--seed", str(ck.cli_seed)]
    return [Op("study", argv, check)]


def points_ops(ck: Checker) -> list[Op]:
    refs = ck.refs["points"]
    csv_path = str(TMP / "points.csv")

    def check_write(text: str) -> dict:
        if text:
            raise WrongValue("points --out wrote to stdout")
        return {"points": refs["N"], "csv_bytes": os.path.getsize(csv_path)}

    def check_readback(text: str) -> dict:
        got = _json(text)
        for key in ("N", "provenance", "digest"):
            if got[key] != refs[key]:
                raise WrongValue(f"read-back {key} {got[key]!r} != {refs[key]!r}")
        return {"points": got["N"], "csv_bytes": got["bytes"]}

    def check_full_net(text: str) -> dict:
        rows = _csv_numerators(text)
        if len(rows) != refs["full_net_N"] or (
            child.numerator_digest(rows) != refs["full_net_digest"]
        ):
            raise WrongValue("full-net points differ from the reference digest")
        return {"points": len(rows), "csv_bytes": len(text)}

    write = ["points", "-d", "2", "-a", "2", "-m", "18", "-N", str(refs["N"])]
    return [
        Op("points_write", write + ["--out", csv_path], check_write),
        Op("points_readback", [csv_path], check_readback, readback=True),
        Op("points_full_net", ["points", "-d", "2", "-a", "2", "-m", "10"], check_full_net),
    ]


def verify_ops(ck: Checker) -> list[Op]:
    refs = ck.refs["verify"]

    def check_tvalue(text: str) -> dict:
        got = _json(text)
        ts = [b["t"] for b in got["blocks"]]
        if got["construction_t"] != refs["tvalue"]["construction_t"] or (
            ts != refs["tvalue"]["t"]
        ) or not all(b["exhaustive"] for b in got["blocks"]):
            raise WrongValue(f"t-values {ts} differ from {refs['tvalue']['t']}")
        return {"blocks": len(ts)}

    def check_walsh(text: str) -> dict:
        got = _json(text)
        trunc = got["truncation"]
        ck.value("walsh", "per-l2", 2, got["value"], refs["walsh"]["value"])
        if trunc["members"] != refs["walsh"]["members"]:
            raise WrongValue(f"walsh summed {trunc['members']} dual members")
        if abs(got["squared"] - refs["walsh"]["exact_squared"]) > trunc["tail_estimate"]:
            raise WrongValue("walsh value outside its own tail bound of the exact value")
        return {"dual_members": trunc["members"], "member_pairs": trunc["members"] ** 2}

    def check_cross(text: str) -> dict:
        got = _json(text)
        kernel, fourier = got["kernel"]["value"], got["fourier"]["value"]
        ck.value("cross-check kernel", "per-l2", 2, kernel, refs["kernel"]["value"])
        ck.value("cross-check fourier", "per-l2", 2, fourier, refs["fourier"]["value"])
        if got["gap"] != abs(kernel - fourier):
            raise WrongValue("cross-check gap is not |kernel - fourier|")
        pairs = _pairs(512, 2)
        return {"points": 512, "pairs": pairs, "fourier_terms": pairs * refs["fourier"]["H"]}

    measure = ["measure", "-d", "2", "-a", "2"]
    return [
        Op("tvalue", ["tvalue", "-d", "1", "-a", "4", "-m", "16"], check_tvalue),
        Op("walsh", measure + ["-m", "5", "--method", "walsh", "--bound-bits", "9"],
           check_walsh),
        Op("cross_check", measure + ["-m", "9", "--cross-check", "--trunc",
                                     str(refs["fourier"]["H"]), "--threads",
                                     str(CROSS_CHECK_THREADS)], check_cross),
    ]


WORKLOADS = {"study": study_ops, "points": points_ops, "verify": verify_ops}


# ---------------------------------------------------------------------------
# Running operations: as subprocesses, or in-process under the tracer.
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_process(cmd: list[str], deadline: float) -> tuple[int, float, float, str, str]:
    """Run one child to completion: (exit code, wall s, peak RSS MB, stdout, stderr)."""
    out_path, err_path = TMP / "stdout", TMP / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return (code, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def _finish(op: Op, code: int, wall: float, rss, stdout: str, stderr: str) -> OpResult:
    if code != 0 or "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1:] or [""]
        return OpResult(op.name, wall, rss, True, False, f"exit {code}: {last[0]}")
    try:
        counts = op.check(stdout)
    except (WrongValue, KeyError, TypeError, ValueError, OSError) as exc:
        return OpResult(op.name, wall, rss, True, True, f"wrong output: {exc}")
    return OpResult(op.name, wall, rss, False, False, None, counts)


def run_op_subprocess(op: Op, deadline: float) -> OpResult:
    if op.readback:
        cmd = [sys.executable, str(BENCH / "child.py"), "readback", *op.argv]
    else:
        cmd = [sys.executable, "-m", "dignet.cli", *op.argv]
    return _finish(op, *run_process(cmd, deadline))


def run_op_inprocess(op: Op, tracer: "Tracer") -> OpResult:
    import dignet.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op.readback:
                print(json.dumps(child.readback_summary(op.argv[0])))
                code = 0
            else:
                with tracer.span("cli"):
                    code = dignet.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of the program under test is a failed operation
            traceback.print_exc()
            code = 1
    return _finish(op, code, time.perf_counter() - start, None, out.getvalue(), err.getvalue())


def run_pass(ops: list[Op], runner: Callable[[Op], OpResult]) -> list[OpResult]:
    try:
        return [runner(op) for op in ops]
    finally:
        for leftover in TMP.iterdir():
            leftover.unlink()


def setup_seconds(workload: str, deadline: float) -> float:
    """Median wall time of fresh interpreters building the workload's matrices."""
    walls = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH / "child.py"), "setup", workload]
        code, wall, _, _, stderr = run_process(cmd, deadline)
        if code != 0:
            raise SystemExit(f"set-up probe failed (exit {code}): {stderr.strip()}")
        walls.append(wall)
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# Tracing from outside the package.
# ---------------------------------------------------------------------------


class Tracer:
    """Spans and work counts around calls into the package's public functions.

    ``wrap`` replaces a module attribute with a wrapper that records a span
    (name, start, end, parent) and updates counts from the call's arguments
    and result; ``restore`` puts the originals back.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, span: str | None, count=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
            else:
                with self.span(span):
                    result = original(*args, **kwargs)
            if count is not None:
                self.counts.update(count(args, result))
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> defaultdict:
        """Span time minus the time of direct child spans, summed per name."""
        own = defaultdict(float)
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return own

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent is None)


def _csv_size(target) -> int:
    # A path is written and closed by the call; a stream is the captured
    # stdout of one operation, which holds nothing but the CSV.
    if isinstance(target, (str, os.PathLike)):
        return os.path.getsize(target)
    return target.tell()


def install_wrappers(tracer: Tracer) -> None:
    """Wrap every binding the CLI calls through; cli imports its callees by name."""
    import dignet.cli as cli
    import dignet.quality as quality
    import dignet.sequence as sequence
    import dignet.walshlab as walshlab

    def kernel(args, result):
        return {"kernel_calls": 1, "kernel_pairs": _pairs(args[0].size, args[0].dimension)}

    for attr in ("periodic_l2", "diaphony", "both_kernel_measures"):
        tracer.wrap(cli, attr, "measures.kernel", kernel)
    tracer.wrap(cli, "fourier_truncated", "measures.fourier", lambda a, r: {
        "fourier_terms": _pairs(a[0].size, a[0].dimension) * a[2]})
    tracer.wrap(cli, "build_matrices", "niederreiter.build_matrices",
                lambda a, r: {"build_matrices_calls": 1})
    tracer.wrap(cli, "interlace_matrices", "interlace.interlace_matrices")
    tracer.wrap(cli, "generate_points", "sequence.generate_points",
                lambda a, r: {"points": r.size})
    tracer.wrap(cli, "write_points_csv", "sequence.write_csv",
                lambda a, r: {"csv_bytes_written": _csv_size(a[1])})
    for module in (cli, sequence):
        tracer.wrap(module, "read_points_csv", "sequence.read_csv",
                    lambda a, r: {"csv_bytes_read": _csv_size(a[0])})
    tracer.wrap(cli, "walsh_series_l2", "walshlab.series",
                lambda a, r: {"dual_members": r.truncation["members"]})
    tracer.wrap(walshlab, "nullspace_basis", "gf2.nullspace", lambda a, r: {"gf2_calls": 1})
    tracer.wrap(cli, "minimal_t", "quality.minimal_t", lambda a, r: {"minimal_t_calls": 1})
    # Counted without a span, so that the search time stays in minimal_t.
    tracer.wrap(quality, "check_order_alpha_t", None,
                lambda a, r: {"checks": 1, "nodes": r.nodes})


def layer_metrics(tracer: Tracer, ck: Checker, traced_wall: float, untraced_wall: float) -> dict:
    own, c = tracer.self_times(), tracer.counts

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    return {
        "cli.self_s": own["cli"],
        "niederreiter.build_matrices_s": own["niederreiter.build_matrices"],
        "niederreiter.build_matrices_calls": c["build_matrices_calls"],
        "interlace.interlace_matrices_s": own["interlace.interlace_matrices"],
        "sequence.generate_points_s": own["sequence.generate_points"],
        "sequence.points_generated": c["points"],
        "sequence.points_per_s": rate(c["points"], own["sequence.generate_points"]),
        "sequence.write_csv_s": own["sequence.write_csv"],
        "sequence.csv_bytes": c["csv_bytes_written"],
        "sequence.write_csv_mb_per_s": rate(c["csv_bytes_written"] / 1e6,
                                            own["sequence.write_csv"]),
        "sequence.read_csv_s": own["sequence.read_csv"],
        "sequence.read_csv_mb_per_s": rate(c["csv_bytes_read"] / 1e6,
                                           own["sequence.read_csv"]),
        "measures.kernel_s": own["measures.kernel"],
        "measures.kernel_calls": c["kernel_calls"],
        "measures.kernel_pairs": c["kernel_pairs"],
        "measures.kernel_pairs_per_s": rate(c["kernel_pairs"], own["measures.kernel"]),
        "measures.fourier_s": own["measures.fourier"],
        "measures.fourier_terms": c["fourier_terms"],
        "measures.fourier_terms_per_s": rate(c["fourier_terms"], own["measures.fourier"]),
        "measures.max_rel_err": ck.max_rel_err,
        "walshlab.series_s": own["walshlab.series"],
        "walshlab.dual_members": c["dual_members"],
        "walshlab.member_pairs_per_s": rate(c["dual_members"] ** 2, own["walshlab.series"]),
        "gf2.nullspace_s": own["gf2.nullspace"],
        "gf2.calls": c["gf2_calls"],
        "quality.minimal_t_s": own["quality.minimal_t"],
        "quality.checks": c["checks"],
        "quality.nodes": c["nodes"],
        "quality.nodes_per_s": rate(c["nodes"], own["quality.minimal_t"]),
        "quality.checks_per_result": rate(c["checks"], c["minimal_t_calls"]),
        "trace.unattributed_s": traced_wall - tracer.root_seconds(),
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def coverage_failures(workload: str, m: dict, traced_wall: float) -> list[str]:
    """The layer split each workload is chosen for, checked on the traced pass."""
    measures = m["measures.kernel_s"] + m["measures.fourier_s"]
    if workload == "study" and measures < 0.9 * traced_wall:
        return [f"measures took {measures / traced_wall:.1%} of the traced study, not >= 90%"]
    if workload == "points" and measures != 0:
        return [f"measures took {measures:.3f} s in points, not 0"]
    if workload == "verify":
        return [f"{name} took no time in verify" for name in
                ("walshlab.series_s", "quality.minimal_t_s", "measures.fourier_s")
                if m[name] <= 0]
    return []


# ---------------------------------------------------------------------------
# Run record and main.
# ---------------------------------------------------------------------------


def machine_record() -> dict:
    """What must match before two runs' numbers may be compared."""
    import numpy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "arch": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "dignet" / "cli.py").is_file():
        print(f"no dignet sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    TMP.mkdir(parents=True, exist_ok=True)
    ck = Checker(json.loads((BENCH / "refs.json").read_text()), study_cli_seed(args.seed))
    ops = WORKLOADS[args.workload](ck)
    passes: list[list[OpResult]] = []
    record = {"machine": machine_record(), "commit": git_commit(),
              "workload": args.workload, "seed": args.seed, "study_cli_seed": ck.cli_seed,
              "seconds": args.seconds, "trace": args.trace}

    def untraced_pass() -> float:
        passes.append(run_pass(ops, lambda op: run_op_subprocess(op, deadline)))
        return sum(r.wall_s for r in passes[-1])

    if args.trace == 0:
        setup = setup_seconds(args.workload, deadline)
        start = time.monotonic()
        walls = [untraced_pass()]
        while time.monotonic() - start + statistics.median(walls) <= args.seconds:
            walls.append(untraced_pass())
        record["pass_walls"] = walls
        ops_run = [r for p in passes for r in p]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup,
            "peak_rss_mb": max(r.peak_rss_mb for r in ops_run),
            "ok_ratio": sum(not r.failed for r in ops_run) / len(ops_run),
        }
    else:
        untraced = untraced_pass()
        sys.path.insert(0, str(SRC))
        import dignet

        if not Path(dignet.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"imported dignet from {dignet.__file__}, not {SRC}", file=sys.stderr)
            return 2
        tracer = Tracer()
        install_wrappers(tracer)
        ck.max_rel_err = 0.0
        start = time.perf_counter()
        try:
            passes.append(run_pass(ops, lambda op: run_op_inprocess(op, tracer)))
        finally:
            tracer.restore()
        traced = time.perf_counter() - start
        metrics = layer_metrics(tracer, ck, traced, untraced)
        record["coverage_failures"] = coverage_failures(args.workload, metrics, traced)
        for failure in record["coverage_failures"]:
            print(f"coverage: {failure}", file=sys.stderr)
        ops_run = passes[0] + passes[1]

    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree "
                         "with BENCHMARK.json")
    for r in ops_run:
        if r.failed:
            print(f"{r.name}: {r.error}", file=sys.stderr)
    result = {
        "correct": not any(r.wrong for r in ops_run),
        "attempted": len(ops_run),
        "failed": sum(r.failed for r in ops_run),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record["operations"] = [[asdict(r) for r in p] for p in passes]
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
