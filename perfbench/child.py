"""Child-process side of the dignet benchmark.

``python3 perfbench/child.py setup WORKLOAD`` imports ``dignet.cli`` in a
fresh interpreter and builds the workload's generating matrices; the parent
times the whole process as the workload's set-up.

``python3 perfbench/child.py readback CSV`` reads a points file back through
``dignet.sequence.read_points_csv`` and prints a JSON summary: point count,
provenance, file size and the digest of the numerators.

Both expect ``src`` of the checkout on ``PYTHONPATH``.  ``run.py`` imports
this module for the same summary in its traced run; dignet is imported
lazily so that import works before ``src`` is on the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

# (dimension, alpha, digit columns) of every net a workload builds.
SETUP_MATRICES = {
    "study": [(1, 4, 13), (2, 4, 13)],
    "points": [(2, 2, 18), (2, 2, 10)],
    "verify": [(1, 4, 16), (2, 2, 5), (2, 2, 9)],
}


def numerator_digest(rows) -> str:
    """SHA-256 of the numerators, row by row, as little-endian 8-byte words."""
    h = hashlib.sha256()
    for row in rows:
        h.update(b"".join(v.to_bytes(8, "little") for v in row))
    return h.hexdigest()


def readback_summary(path: str) -> dict:
    # Looked up at call time, so that a traced run sees its wrapper.
    from dignet.sequence import read_points_csv

    pset = read_points_csv(path)
    return {
        "N": pset.size,
        "d": pset.dimension,
        "provenance": pset.provenance,
        "bytes": os.path.getsize(path),
        "digest": numerator_digest(p.numerators for p in pset.points),
    }


def setup(workload: str) -> None:
    from dignet.cli import construct_matrices

    for dimension, alpha, cols in SETUP_MATRICES[workload]:
        construct_matrices(dimension, alpha, cols)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("setup", "readback"):
        print("usage: child.py setup WORKLOAD | child.py readback CSV", file=sys.stderr)
        return 1
    if argv[0] == "setup":
        setup(argv[1])
    else:
        print(json.dumps(readback_summary(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
