"""Reference matrices and index maps that the tests check the package against."""

import math

import numpy as np

from rankspectral import SymmetricMatrix, pair_indices
from rankspectral.symmetric import row_offsets


def unpack_index(k: int, n: int) -> tuple[int, int]:
    """Inverse of ``pack_index``: recover (i, j) from position k."""
    n_pairs = n * (n - 1) // 2
    if not (0 <= k < n_pairs):
        raise ValueError(f"position must be in [0, {n_pairs}), got {k}")
    # Largest i with i(2n-i-1)/2 <= k; integer sqrt keeps this exact.
    i = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * k)) // 2
    while i * (2 * n - i - 1) // 2 > k:
        i -= 1
    while (i + 1) * (2 * n - i - 2) // 2 <= k:
        i += 1
    j = k - i * (2 * n - i - 1) // 2 + i + 1
    return i, j


def column_pack(values: np.ndarray, n: int) -> np.ndarray:
    """Upper-packed buffer of row-major ``values``, gathered one column at a time.

    The layout ``dspmv`` reads with ``lower=0``: column j's slots j(j+1)/2 ..
    j(j+1)/2 + j - 1 take entries (0, j) .. (j - 1, j), at row-major
    positions offsets[i] + j; the diagonal is zero.
    """
    ap = np.zeros(n * (n + 1) // 2)
    offsets = row_offsets(n)
    for j in range(1, n):
        start = j * (j + 1) // 2
        ap[start : start + j] = values[offsets[:j] + j]
    return ap


def expectation_matrix(n: int) -> SymmetricMatrix:
    """The matrix with every off-diagonal entry 1/2.

    Its eigenvalues are (n-1)/2 with eigenvector 1/sqrt(n) and -1/2 with
    multiplicity n-1.
    """
    return SymmetricMatrix(n, np.full(n * (n - 1) // 2, 0.5))


def permute_nodes(matrix: SymmetricMatrix, perm: np.ndarray) -> SymmetricMatrix:
    """Relabel nodes: result entry (i, j) equals input entry (perm[i], perm[j])."""
    n = matrix.n
    p = np.asarray(perm)
    if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
        raise ValueError(f"perm must be a permutation of range({n})")
    rows, cols = pair_indices(n)
    pi = p[rows]
    pj = p[cols]
    lo = np.minimum(pi, pj)
    hi = np.maximum(pi, pj)
    k = lo * (2 * n - lo - 1) // 2 + (hi - lo - 1)
    return SymmetricMatrix(n, matrix.values[k])
