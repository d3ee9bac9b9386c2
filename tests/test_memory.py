"""Allocation contracts of one replicate's layers: sample, rank, eigensolve.

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
    leading_eigenpair,
    rank_transform,
    sample_homogeneous,
    sample_interpolated_rank,
    sample_planted_submatrix,
    sample_two_block,
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
    ],
    ids=["homogeneous", "two-block", "planted", "interpolated-inf"],
)
def test_sampler_keeps_one_array(sample):
    _, peak = peak_arrays(sample)
    assert peak <= 1.2


def test_rank_transform_peak():
    matrix = SymmetricMatrix(N_DIM, np.random.default_rng(5).normal(size=ARRAY_BYTES // 8))
    _, peak = peak_arrays(rank_transform, matrix)
    assert peak <= 1.75


def test_eigensolve_of_a_rank_matrix_packs_nothing():
    matrix = SymmetricMatrix(N_DIM, np.random.default_rng(6).normal(size=ARRAY_BYTES // 8))
    ranked = rank_transform(matrix)
    _, peak = peak_arrays(leading_eigenpair, ranked)
    assert peak <= 0.05
