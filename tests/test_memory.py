"""Allocation contracts of the layers: load, sample, rank, eigensolve.

Each bound is a multiple of one packed array, 8N bytes with N = n(n-1)/2,
measured with tracemalloc at n = 1000; the rank transform's tighter bounds
are also measured at n = 2000, where its temporaries of a fixed block size
weigh less. The result a call returns counts toward its peak, and the
caller's input does not. One test reads a child process's peak resident
set (VmHWM) instead: that a serial Monte Carlo run's peak does not grow
with its replicate count.
"""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rankspectral import (
    AsymmetryError,
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


@pytest.mark.parametrize(
    "format, bound",
    [("dense-csv", 2.5), ("upper-triangle-text", 3.25), ("weighted-edge-list", 4.5)],
)
def test_load_matrix_peak(matrix_files, format, bound):
    # The file is read in blocks into the packed values: no stage holds the
    # whole file, an n x n array or a second copy of the result.
    values, paths = matrix_files
    matrix, peak = peak_arrays(load_matrix, MatrixSource(format, paths[format]))
    assert matrix.values.tobytes() == values.tobytes()
    assert peak <= bound


def asymmetric_first_row(text):
    first, rest = text.split(b"\n", 1)
    return first.rsplit(b",", 1)[0] + b",1e6\n" + rest


def load_or_error(source):
    try:
        return load_matrix(source)
    except AsymmetryError as exc:
        return exc


@pytest.mark.parametrize(
    "format, edit, bound",
    [
        # Entry (0, n-1) differs from (n-1, 0): the vectorized pass declines at
        # the last row, and the line parser's rows and the error scan set the peak.
        ("dense-csv", asymmetric_first_row, 20),
        # A form feed is outside plain numeric text: a valid file, line by line.
        ("upper-triangle-text", lambda text: text.replace(b"\n", b"\x0c\n", 1), 6),
    ],
)
def test_line_parser_holds_the_file_once(matrix_files, tmp_path, format, edit, bound):
    # The bytes, read lines a chunk at a time, and float64 values: no decoded
    # copy of the file and no Python float per value.
    values, paths = matrix_files
    path = tmp_path / "declined.txt"
    path.write_bytes(edit(paths[format].read_bytes()))
    result, peak = peak_arrays(load_or_error, MatrixSource(format, path))
    if format == "dense-csv":
        assert isinstance(result, AsymmetryError)
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
    # The packed values alone: no n x n temporary and no copy of them.
    values, _ = matrix_files
    dense = SymmetricMatrix(N_DIM, values).dense()
    matrix, peak = peak_arrays(SymmetricMatrix.from_dense, dense)
    assert matrix.values.tobytes() == values.tobytes()
    assert peak <= 1.15
