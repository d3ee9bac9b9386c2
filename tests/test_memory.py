"""Allocation contracts of the layers: load, sample, rank, eigensolve.

Each bound is a multiple of one packed array, 8N bytes with N = n(n-1)/2,
measured with tracemalloc at n = 1000; the rank transform's tighter bounds
are also measured at n = 2000, where its temporaries of a fixed block size
weigh less. The result a call returns counts toward its peak, and the
caller's input does not. Two tests read a child process's peak resident
set (VmHWM) instead: that a serial Monte Carlo run's peak does not grow
with its replicate count, and the peaks of a load in two byte ranges, in
the process and in the worker it forks.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rankspectral import (
    AsymmetryError,
    FormatError,
    MatrixSource,
    SymmetricMatrix,
    TiePolicy,
    leading_eigenpair,
    load_matrix,
    moments,
    rank_transform,
    sample_homogeneous,
    sample_interpolated_rank,
    sample_planted_submatrix,
    sample_two_block,
    save_matrix,
    whiten,
)

from conftest import checkout_env

N_DIM = 1000
ARRAY_BYTES = 8 * N_DIM * (N_DIM - 1) // 2


def peak_arrays(fn, *args, n=N_DIM):
    """(result, peak traced allocation of the call in units of 8N bytes)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / (4 * n * (n - 1))


@pytest.mark.parametrize(
    "sample",
    [
        lambda: sample_homogeneous(N_DIM, "normal(0,1)", 1),
        lambda: sample_two_block(N_DIM, "normal(1,1)", "normal(2,1)", 2),
        lambda: sample_planted_submatrix(N_DIM, 100, "uniform(1,2)", "exponential(1)", 3),
        # Finite k materializes a permutation of N + k integers on purpose.
        lambda: sample_interpolated_rank(N_DIM, math.inf, 4),
        lambda: sample_homogeneous(N_DIM, "pareto(1,0.5)", 5),
    ],
    ids=["homogeneous", "two-block", "planted", "interpolated-inf", "pareto"],
)
def test_sampler_keeps_one_array(sample):
    _, peak = peak_arrays(sample)
    assert peak <= 1.2


def test_interpolated_sampler_holds_only_the_permutation():
    # k = N: the permutation of 2N integers, as int32 in the result's own
    # buffer, with the N floats written into it.
    _, peak = peak_arrays(sample_interpolated_rank, N_DIM, ARRAY_BYTES // 8, 6)
    assert peak <= 1.25


def test_interpolated_sampler_at_the_guard_holds_an_int32_permutation():
    # k = 10 N: 11 N integers of 4 bytes, 5.5 x 8N.
    _, peak = peak_arrays(sample_interpolated_rank, N_DIM, 10 * (ARRAY_BYTES // 8), 6)
    assert peak <= 6.0


def test_rank_transform_peak():
    matrix = SymmetricMatrix(N_DIM, np.random.default_rng(5).normal(size=ARRAY_BYTES // 8))
    _, peak = peak_arrays(rank_transform, matrix)
    assert peak <= 1.75


def test_rank_transform_of_tied_scores_peak():
    scores = np.random.default_rng(7).integers(0, 100, size=ARRAY_BYTES // 8)
    matrix = SymmetricMatrix(N_DIM, scores.astype(np.float64))
    _, peak = peak_arrays(rank_transform, matrix, TiePolicy.random(8))
    assert peak <= 2.5


def test_rank_transform_holds_one_buffer():
    # Keys, rank order and ranks share one int64 buffer of n(n+1)/2 entries.
    n = 2000
    matrix = SymmetricMatrix(n, np.random.default_rng(5).normal(size=n * (n - 1) // 2))
    _, peak = peak_arrays(rank_transform, matrix, n=n)
    assert peak <= 1.3


def test_rank_transform_of_tied_scores_holds_the_buffer_and_shuffle():
    # The buffer, the int32 random positions by slot and one block's runs.
    n = 2000
    scores = np.random.default_rng(7).integers(0, 100, size=n * (n - 1) // 2)
    matrix = SymmetricMatrix(n, scores.astype(np.float64))
    _, peak = peak_arrays(rank_transform, matrix, TiePolicy.random(8), n=n)
    assert peak <= 1.8


def test_whiten_makes_one_array():
    ranked = rank_transform(
        SymmetricMatrix(N_DIM, np.random.default_rng(4).normal(size=ARRAY_BYTES // 8))
    )
    whitened, peak = peak_arrays(whiten, ranked)
    assert peak <= 1.2
    expected = (ranked.values - 0.5) / math.sqrt(moments(N_DIM).sigma_sq)
    assert whitened.values.tobytes() == expected.tobytes()


def test_dense_holds_only_its_result():
    matrix = SymmetricMatrix(N_DIM, np.random.default_rng(3).normal(size=ARRAY_BYTES // 8))
    _, peak = peak_arrays(matrix.dense)
    assert peak <= 2.5


def test_eigensolve_of_a_rank_matrix_packs_nothing():
    matrix = SymmetricMatrix(N_DIM, np.random.default_rng(6).normal(size=ARRAY_BYTES // 8))
    ranked = rank_transform(matrix)
    _, peak = peak_arrays(leading_eigenpair, ranked)
    assert peak <= 0.05


def test_eigensolve_of_a_sample_packs_nothing():
    # A sample holds the lower-packed buffer dspmv reads, as a rank matrix
    # does: the eigensolve allocates only vectors of size n. The mean shift
    # gives the dominant eigenvalue the solver assumes; a centred sample's
    # most negative eigenvalue can outweigh its largest, which is refused.
    matrix = sample_homogeneous(N_DIM, "normal(1,1)", 7)
    _, peak = peak_arrays(leading_eigenpair, matrix)
    assert peak <= 0.05


# The child's own peak RSS in KiB. Not ru_maxrss: on Linux a child started
# with exec reports at least its parent's peak there, so every child of this
# test process would read the same.
SERIAL_RUN = """
import sys
from rankspectral import null_distribution_experiment, variance_transition_experiment
replicates = int(sys.argv[1])
variance_transition_experiment(1000, [0, 1000, float("inf")], replicates, 1)
null_distribution_experiment(1000, replicates, 2)
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_serial_peak_does_not_grow_with_replicates():
    # Each replicate's arrays are freed before the next is drawn, and the
    # allocator hands their room to the next: ten times the replicates per
    # cell peak within one packed array of the few.
    env = {**checkout_env(), "OPENBLAS_NUM_THREADS": "1"}
    peaks = [
        int(
            subprocess.run(
                [sys.executable, "-c", SERIAL_RUN, str(replicates)],
                env=env,
                check=True,
                capture_output=True,
                text=True,
            ).stdout
        )
        for replicates in (3, 30)
    ]
    assert peaks[1] - peaks[0] <= ARRAY_BYTES / 1024


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    values = np.random.default_rng(9).normal(size=ARRAY_BYTES // 8)
    folder = tmp_path_factory.mktemp("load")
    paths = {}
    for format in ("dense-csv", "upper-triangle-text", "weighted-edge-list"):
        paths[format] = folder / f"{format}.txt"
        save_matrix(SymmetricMatrix(N_DIM, values), paths[format], format)
    # The edge list shuffled, with 1% of its lines again, every other one reversed.
    rng = np.random.default_rng(10)
    lines = paths["weighted-edge-list"].read_bytes().splitlines(keepends=True)
    for k, pick in enumerate(rng.integers(0, len(lines), len(lines) // 100).tolist()):
        i, j, w = lines[pick].split()
        lines.append(b"%s %s %s\n" % ((j, i, w) if k % 2 else (i, j, w)))
    paths["shuffled-edge-list"] = folder / "shuffled-edge-list.txt"
    paths["shuffled-edge-list"].write_bytes(b"".join(lines[k] for k in rng.permutation(len(lines))))
    return values, paths


@pytest.mark.parametrize("format", ["dense-csv", "upper-triangle-text", "weighted-edge-list"])
def test_save_matrix_streams_rows(matrix_files, tmp_path, format):
    # Each line is built from the packed buffer and written before the next:
    # no n x n array and no row-major copy.
    values, _ = matrix_files
    path = tmp_path / "saved.txt"
    matrix = SymmetricMatrix(N_DIM, values)
    _, peak = peak_arrays(save_matrix, matrix, path, format)
    assert peak <= 0.1
    if format == "dense-csv":
        expected = "".join(",".join(map(repr, row)) + "\n" for row in matrix.dense().tolist())
        assert path.read_text() == expected


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "file, bound",
    [
        ("dense-csv", 2.0),
        ("upper-triangle-text", 1.9),
        ("weighted-edge-list", 2.9),
        ("shuffled-edge-list", 2.9),
    ],
)
def test_load_matrix_peak(matrix_files, file, bound, cpus, monkeypatch):
    # The file is read in blocks into the packed values: in this process no
    # stage holds the whole file, an n x n array or a second copy of the
    # result. With two CPUs a worker parses the second half, and this
    # process's peak is the one it has reading the file alone; the worker's
    # is bounded below. A shuffled edge list with repeats peaks like one in
    # pack order: the peak is set while parsing.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    values, paths = matrix_files
    format = "weighted-edge-list" if file == "shuffled-edge-list" else file
    matrix, peak = peak_arrays(load_matrix, MatrixSource(format, paths[file]))
    assert matrix.values.tobytes() == values.tobytes()
    assert peak <= bound


@pytest.mark.parametrize("cpus", [1, 2])
def test_tied_scores_load_holds_no_second_copy_of_a_block(tmp_path, cpus, monkeypatch):
    # Two-digit scores at n = 2000, about 350,000 tokens per block: a block's
    # values are converted a few KiB of text at a time and written from those
    # chunks, never joined into a second copy (1.26 and 1.37 x 8N traced).
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    n = 2000
    scores = np.random.default_rng(11).integers(10, 100, size=n * (n - 1) // 2)
    digits = np.empty((scores.size, 3), dtype=np.uint8)
    digits[:, 0], digits[:, 1], digits[:, 2] = 48 + scores // 10, 48 + scores % 10, ord("\n")
    path = tmp_path / "scores.txt"
    path.write_bytes(b"%d\n" % n + digits.tobytes())
    del digits
    matrix, peak = peak_arrays(load_matrix, MatrixSource("upper-triangle-text", path), n=n)
    assert matrix.values.tobytes() == scores.astype(np.float64).tobytes()
    assert peak <= 1.45


def asymmetric_first_row(text):
    first, rest = text.split(b"\n", 1)
    return first.rsplit(b",", 1)[0] + b",1e6\n" + rest


def or_error(fn):
    """``fn``, returning the FormatError it raises instead of raising it."""

    def call(*args):
        try:
            return fn(*args)
        except FormatError as exc:
            return exc

    return call


def conflicting_last_line(text):
    first = text.split(b"\n", 1)[0].split()
    return text + b"%s %s %r\n" % (first[1], first[0], float(first[2]) + 1.0)


@pytest.mark.parametrize(
    "format, edit, bound",
    [
        # Entry (0, n-1) differs from (n-1, 0): found once every row is folded.
        ("dense-csv", asymmetric_first_row, 2.5),
        # A form feed separates tokens like a space.
        ("upper-triangle-text", lambda text: text.replace(b"\n", b"\x0c\n", 1), 3.25),
        # The first pair again, reversed, with another weight.
        ("weighted-edge-list", conflicting_last_line, 3.25),
    ],
)
def test_error_path_peaks_like_a_valid_file(matrix_files, tmp_path, format, edit, bound):
    # The bound of the valid file's format: a fault is found in the one pass
    # over the blocks, and no file is read again to word it.
    values, paths = matrix_files
    path = tmp_path / "edited.txt"
    path.write_bytes(edit(paths[format].read_bytes()))
    result, peak = peak_arrays(or_error(load_matrix), MatrixSource(format, path))
    if format == "dense-csv":
        assert isinstance(result, AsymmetryError)
    elif format == "weighted-edge-list":
        assert str(result).startswith(f"line {N_DIM * (N_DIM - 1) // 2 + 1}: pair (0, 1) repeated")
    else:
        assert result.values.tobytes() == values.tobytes()
    assert peak <= bound


def test_edge_list_load_keeps_int32_indices(matrix_files):
    # Node indices are held as int32 while the file has fewer than 2^31
    # lines, so the edge list peaks about one packed array below int64.
    values, paths = matrix_files
    format = "weighted-edge-list"
    matrix, peak = peak_arrays(load_matrix, MatrixSource(format, paths[format]))
    assert matrix.values.tobytes() == values.tobytes()
    assert peak <= 3.25


def test_from_dense_peak(matrix_files):
    # The packed values alone: no n x n temporary and no copy of them, and
    # none either to name the worst pair of an asymmetric array.
    values, _ = matrix_files
    dense = SymmetricMatrix(N_DIM, values).dense()
    matrix, peak = peak_arrays(SymmetricMatrix.from_dense, dense)
    assert matrix.values.tobytes() == values.tobytes()
    assert peak <= 1.15
    dense[N_DIM - 1, 0] += 1.0
    error, peak = peak_arrays(or_error(SymmetricMatrix.from_dense), dense)
    assert isinstance(error, AsymmetryError)
    assert str(error).startswith(f"entries (0,{N_DIM - 1}) and ({N_DIM - 1},0) differ by ")
    assert peak <= 1.15


# Peak RSS in KiB, read in a fresh process with 4 CPUs loading a file in two ranges:
# this process's VmHWM before and after the load, and for its worker, its
# VmRSS as its task starts (pages it shares with its parent count only once
# it touches them) and its peak, read from wait4 as it is reaped.
RANGED_LOAD = """
import os, sys
from rankspectral import MatrixSource, load_matrix, symmetric

os.sched_getaffinity = lambda pid: {0, 1, 2, 3}  # two ranges: no more are cut
def status(key):
    return int(next(line.split()[1] for line in open("/proc/self/status") if line.startswith(key)))
held_blocks = symmetric._held_blocks
def measured(*args):
    print("start", status("VmRSS:"), flush=True)
    return held_blocks(*args)
symmetric._held_blocks = measured
def waitpid(pid, options):
    _, status, usage = os.wait4(pid, options)
    print("peak", usage.ru_maxrss, flush=True)
    return pid, status
os.waitpid = waitpid
before = status("VmHWM:")
load_matrix(MatrixSource(sys.argv[1], sys.argv[2]))
print("parent", before, status("VmHWM:"))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize(
    "format, bound, total",
    [("dense-csv", 2.5, 5.0), ("upper-triangle-text", 2.2, 4.6), ("weighted-edge-list", 3.0, 5.8)],
)
def test_ranged_load_peak_rss(matrix_files, format, bound, total):
    # In units of 8N (4 MB): this process grows by what the load holds
    # (2.2, 1.9 and 2.7 measured). Its one worker, whatever the CPUs, grows
    # by its half's parsed blocks (1, 0.5 and 1.5) and the 5-8 MB of the
    # interpreter's and numpy's pages it maps in as it runs (2.5, 2.5 and
    # 2.8 in all); the two together by 4.7, 4.3 and 5.5. The worker never
    # peaks above this process.
    _, paths = matrix_files
    lines = subprocess.run(
        [sys.executable, "-c", RANGED_LOAD, format, str(paths[format])],
        env=checkout_env(),
        check=True,
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    read = {line.split()[0]: [int(kib) for kib in line.split()[1:]] for line in lines}
    (before, after), (start,), (peak,) = read["parent"], read["start"], read["peak"]
    assert len(lines) == 3
    assert (after - before) * 1024 / ARRAY_BYTES <= bound
    assert (peak - start) * 1024 / ARRAY_BYTES <= 3.0
    assert (after - before + peak - start) * 1024 / ARRAY_BYTES <= total
    assert peak <= after
