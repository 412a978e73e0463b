#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records as run.py writes them to perfbench/out/
(move them aside between the two commits).  For every workload and metric
the table gives the number of runs, both medians, the change as a share of
the base median (positive means worse) and, for end-to-end metrics, the
bound from BENCHMARK.json.  Run from the repository root.

Exit codes: 0 no end-to-end metric worse than its bound, 1 some metric is,
2 the records come from different machines (or are missing), so their
numbers may not be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: str) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        raise SystemExit(f"no run records in {directory}")
    return records


def values(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out = defaultdict(list)
    for r in records:
        for name, metric in r["result"]["metrics"].items():
            out[(r["workload"], name)].append(metric["value"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    machines = {json.dumps(r["machine"], sort_keys=True) for r in base + new}
    if len(machines) > 1:
        print("refusing to compare runs whose machine records differ:", *sorted(machines),
              sep="\n", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base_vals, new_vals = values(base), values(new)
    worse = 0
    print(f"{'workload':8} {'metric':36} {'runs':>5} {'base':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6}")
    for key in sorted(base_vals.keys() & new_vals.keys()):
        workload, name = key
        b, n = statistics.median(base_vals[key]), statistics.median(new_vals[key])
        sign = 1 if metrics[name]["better"] == "lower" else -1
        change = sign * (n - b) / abs(b) + 0.0 if b else 0.0
        bound = metrics[name].get("bound")
        flag = ""
        if bound is not None and change > bound:
            flag, worse = "  WORSE", worse + 1
        runs = f"{len(base_vals[key])}/{len(new_vals[key])}"
        print(f"{workload:8} {name:36} {runs:>5} {b:12.6g} {n:12.6g} {change:+8.1%} "
              f"{'' if bound is None else f'{bound:.0%}':>6}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
