"""Time ``load_matrix`` on files of a few sizes with each of a few byte-range counts.

For each text format and each size in MiB, writes a seeded matrix file of
about that size to a temporary folder, then loads it ``--runs`` times with
each range count in turn, each load in a fresh process that has imported
``rankspectral.cli`` (as ``rankspectral test`` does: a fork copies the page
tables of an interpreter of that size). The CPUs and the range cap are
patched to the count, and the floor per range to one byte. Prints the
median load wall per count and, against the first count, the quartiles of
the per-run ratios and how many runs were faster. Run it under ``taskset``
to give the counts fewer CPUs than they have ranges::

    PYTHONPATH=src python tools/time_ranges.py --sizes 1,2,4,6,8 --ranges 1,2
    PYTHONPATH=src taskset -c 0 python tools/time_ranges.py --sizes 40 --ranges 1,2
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile

import numpy as np

from rankspectral import SymmetricMatrix, save_matrix, symmetric

# One load in ranges of argv[3], its wall in seconds on stdout.
LOAD = """
import os, sys, time
import rankspectral.cli
from rankspectral import MatrixSource, load_matrix, symmetric
count = int(sys.argv[3])
os.sched_getaffinity = lambda pid: set(range(count))
symmetric._MAX_RANGES, symmetric._RANGE_BYTES = count, 1
start = time.perf_counter()
load_matrix(MatrixSource(sys.argv[1], sys.argv[2]))
print(time.perf_counter() - start)
"""

# Bytes of file per matrix pair, for 17-digit values: each is written twice in dense CSV.
PAIR_BYTES = {"dense-csv": 38.6, "upper-triangle-text": 19.3, "weighted-edge-list": 27.5}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--sizes", default="1,2,4,6,8", help="file sizes in MiB")
    parser.add_argument("--ranges", default="1,2", help="range counts, the first the baseline")
    parser.add_argument("--runs", type=int, default=9)
    args = parser.parse_args()
    counts = [int(c) for c in args.ranges.split(",")]
    with tempfile.TemporaryDirectory() as folder:
        for format in symmetric.FORMATS:
            for mib in [float(m) for m in args.sizes.split(",")]:
                n = int((2 * mib * 2**20 / PAIR_BYTES[format]) ** 0.5)
                path = os.path.join(folder, f"{format}-{mib}.txt")
                values = np.random.default_rng(int(mib * 10)).normal(size=n * (n - 1) // 2)
                save_matrix(SymmetricMatrix(n, values), path, format)
                walls = {c: [] for c in counts}
                for _ in range(args.runs):
                    for c in counts:
                        argv = [sys.executable, "-c", LOAD, format, path, str(c)]
                        wall = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
                        walls[c].append(float(wall))
                line = [f"{format:20s} {os.path.getsize(path) / 2**20:6.2f} MiB"]
                for c in counts:
                    line.append(f"{c} ranges {statistics.median(walls[c]) * 1e3:7.1f} ms")
                    if c != counts[0]:
                        ratios = [b / a for a, b in zip(walls[counts[0]], walls[c])]
                        q = statistics.quantiles(ratios, n=4)
                        faster = sum(r < 1 for r in ratios)
                        line.append(f"ratio {q[1]:.2f} [{q[0]:.2f}, {q[2]:.2f}] faster {faster}/{args.runs}")
                print("  ".join(line), flush=True)


if __name__ == "__main__":
    main()
