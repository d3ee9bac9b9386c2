"""Allocation contracts of the layers: load, sample, rank, eigensolve.

Each bound is a multiple of one packed array, 8N bytes with N = n(n-1)/2,
measured with tracemalloc at n = 1000. The result a call returns counts
toward its peak, and the caller's input does not.
"""

import math
import tracemalloc

import numpy as np
import pytest

from rankspectral import (
    SymmetricMatrix,
    TiePolicy,
    leading_eigenpair,
    load_matrix,
    rank_transform,
    sample_homogeneous,
    sample_interpolated_rank,
    sample_planted_submatrix,
    sample_two_block,
    save_matrix,
)

N_DIM = 1000
ARRAY_BYTES = 8 * N_DIM * (N_DIM - 1) // 2


def peak_arrays(fn, *args):
    """(result, peak traced allocation of the call in units of 8N bytes)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / ARRAY_BYTES


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


def test_rank_transform_peak():
    matrix = SymmetricMatrix(N_DIM, np.random.default_rng(5).normal(size=ARRAY_BYTES // 8))
    _, peak = peak_arrays(rank_transform, matrix)
    assert peak <= 1.75


def test_rank_transform_of_tied_scores_peak():
    scores = np.random.default_rng(7).integers(0, 100, size=ARRAY_BYTES // 8)
    matrix = SymmetricMatrix(N_DIM, scores.astype(np.float64))
    _, peak = peak_arrays(rank_transform, matrix, TiePolicy.random(8))
    assert peak <= 4.25


def test_eigensolve_of_a_rank_matrix_packs_nothing():
    matrix = SymmetricMatrix(N_DIM, np.random.default_rng(6).normal(size=ARRAY_BYTES // 8))
    ranked = rank_transform(matrix)
    _, peak = peak_arrays(leading_eigenpair, ranked)
    assert peak <= 0.05


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    values = np.random.default_rng(9).normal(size=ARRAY_BYTES // 8)
    folder = tmp_path_factory.mktemp("load")
    paths = {}
    for format in ("dense-csv", "upper-triangle-text", "weighted-edge-list"):
        paths[format] = folder / f"{format}.txt"
        save_matrix(SymmetricMatrix(N_DIM, values), paths[format], format)
    return values, paths


@pytest.mark.parametrize(
    "format, bound",
    [("dense-csv", 2.5), ("upper-triangle-text", 3.25), ("weighted-edge-list", 4.5)],
)
def test_load_matrix_peak(matrix_files, format, bound):
    # The file is read in blocks into the packed values: no stage holds the
    # whole file, an n x n array or a second copy of the result.
    values, paths = matrix_files
    matrix, peak = peak_arrays(load_matrix, paths[format], format)
    assert matrix.values.tobytes() == values.tobytes()
    assert peak <= bound


def test_from_dense_peak(matrix_files):
    # The packed values and the constructor's copy of them; no n x n temporary.
    values, _ = matrix_files
    dense = SymmetricMatrix(N_DIM, values).dense()
    matrix, peak = peak_arrays(SymmetricMatrix.from_dense, dense)
    assert matrix.values.tobytes() == values.tobytes()
    assert peak <= 2.25
