"""Seeded benchmark inputs, written by the benchmark's own writer.

Every input is a pure function of the workload seed. Values come from numpy's
PCG64 generator, never from the package's samplers, and files are written here
with ``repr`` of each float rather than with ``rankspectral.save_matrix``, so
a change to the program's sampler or writer cannot change what it is fed.
Generated files are cached under ``perfbench/.cache`` (one seed at a time)
and generation is kept out of every timing.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import numpy as np

# Label, --format and file name of each file_test input.
FILE_INPUTS = (
    ("dense-csv", "dense-csv", "matrix.csv"),
    ("upper-triangle-text", "upper-triangle-text", "matrix.upper.txt"),
    ("weighted-edge-list", "weighted-edge-list", "matrix.edges.txt"),
    ("ties", "upper-triangle-text", "scores.upper.txt"),
)
CONTINUOUS_LABELS = tuple(label for label, _, _ in FILE_INPUTS if label != "ties")

# Weak two-block signal: entries within a block ~ N(0, 1), between ~ N(SHIFT, 1).
SHIFT = 0.05
SCORE_LEVELS = 100


def pair_rows_cols(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, k=1)


def continuous_values(n: int, seed: int) -> np.ndarray:
    """Packed strict-upper values of the weak-signal two-block matrix."""
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    labels = rng.permutation(np.repeat([1, -1], [n // 2, n - n // 2]))
    rows, cols = pair_rows_cols(n)
    between = labels[rows] != labels[cols]
    return rng.standard_normal(rows.shape[0]) + SHIFT * between


def score_values(n: int, seed: int) -> np.ndarray:
    """Packed integer scores 0..SCORE_LEVELS-1, as float64; heavily tied."""
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    return rng.integers(0, SCORE_LEVELS, n * (n - 1) // 2).astype(np.float64)


def tie_seed(seed: int) -> int:
    """The --seed given to the CLI for the tied file."""
    return seed * 7919 + 17


def tied_entries(values: np.ndarray) -> int:
    """Number of entries that share their value with at least one other entry."""
    ordered = np.sort(values)
    eq = ordered[1:] == ordered[:-1]
    involved = np.zeros(ordered.shape[0], dtype=bool)
    involved[1:] |= eq
    involved[:-1] |= eq
    return int(np.count_nonzero(involved))


def _write_dense(path: Path, n: int, tokens: list[str]) -> None:
    """Rows of the full matrix, reusing the packed tokens for both triangles."""
    starts = [i * (2 * n - i - 1) // 2 for i in range(n)]  # pack index of (i, i+1)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            lower = [tokens[starts[j] + i - j - 1] for j in range(i)]
            upper = tokens[starts[i] : starts[i] + n - i - 1]
            fh.write(",".join(lower + ["0.0"] + upper))
            fh.write("\n")


def _write_upper(path: Path, n: int, tokens: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        fh.write("\n".join(tokens))
        fh.write("\n")


def _write_edges(path: Path, n: int, tokens: list[str]) -> None:
    rows, cols = pair_rows_cols(n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{i} {j} {w}\n" for i, j, w in zip(rows.tolist(), cols.tolist(), tokens)
        )


def file_paths(cache: Path, n: int, seed: int) -> tuple[Path, dict[str, Path]]:
    """The directory holding the file_test inputs, and label -> path."""
    target = cache / "file_test" / f"n{n}-seed{seed}"
    return target, {label: target / name for label, _, name in FILE_INPUTS}


def write_file_inputs(cache: Path, n: int, seed: int) -> None:
    """Write the four file_test inputs, replacing any other seed's set."""
    target, paths = file_paths(cache, n, seed)
    if target.parent.exists():
        shutil.rmtree(target.parent)
    target.mkdir(parents=True)
    values = continuous_values(n, seed)
    tokens = list(map(repr, values.tolist()))
    _write_dense(paths["dense-csv"], n, tokens)
    _write_upper(paths["upper-triangle-text"], n, tokens)
    _write_edges(paths["weighted-edge-list"], n, tokens)
    scores = score_values(n, seed)
    _write_upper(paths["ties"], n, [str(int(x)) for x in scores.tolist()])
    # Write back now, not during the timed calls that read these files.
    for path in paths.values():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())
    (target / "complete").write_text("ok\n", encoding="utf-8")


if __name__ == "__main__":
    # Run in its own process: a child inherits its parent's peak RSS, so the
    # benchmark's parent must never hold the generated data.
    write_file_inputs(Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]))
