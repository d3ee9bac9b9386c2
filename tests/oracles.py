"""Reference matrices, layouts and the input grammar that the tests check the package against."""

import re

import numpy as np

from rankspectral import AsymmetryError, FormatError, SymmetricMatrix, pair_indices
from rankspectral.symmetric import row_offsets


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


NUMBER = re.compile(rb"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
INTEGER = re.compile(rb"[+-]?\d+")


def grammar_outcome(format, raw):
    """What README's input grammar makes of the bytes ``raw`` in ``format``.

    ``(n, row-major value bits)`` for a matrix, else ``(error class, line)``:
    the first line that breaks the rules (a byte outside ASCII does), or None
    for a whole-file fault; a conflicting edge-list weight names its line.
    """

    def number(token):
        return NUMBER.fullmatch(token) and np.isfinite(float(token))

    def index(token):
        return INTEGER.fullmatch(token) and 0 <= int(token) < 2**63

    n, width, values, edges = None, None, [], []
    for k, line in enumerate(re.split(rb"\r\n|\r|\n", raw), start=1):
        tokens = line.split()  # at space, tab, vertical tab and form feed
        if not tokens:
            continue
        if format == "dense-csv":
            tokens = [token.strip() for token in line.split(b",")]
            width = width or len(tokens)
            ok = len(tokens) == width and all(map(number, tokens))
            values.append(tokens)
        elif format == "upper-triangle-text":
            if n is None:
                n, tokens = int(tokens[0]) if INTEGER.fullmatch(tokens[0]) else 0, tokens[1:]
            values += tokens
            ok = n >= 2 and len(values) <= n * (n - 1) // 2 and all(map(number, tokens))
        else:
            ok = len(tokens) == 3 and index(tokens[0]) and index(tokens[1]) and number(tokens[2])
            edges.append((k, tokens))
        if not ok:
            return FormatError, k
    if format == "dense-csv":
        if not values or len(values) != width or width < 2:
            return FormatError, None
        try:
            matrix = SymmetricMatrix.from_dense(np.array(values, dtype=float))
        except AsymmetryError:
            return AsymmetryError, None
        return matrix.n, matrix.values.view(np.uint64).tolist()
    weights, conflict = {}, None  # the last weight of each pair, the first conflicting line
    for k, (i, j, w) in edges:
        key, w = (min(int(i), int(j)), max(int(i), int(j))), float(w)
        if key[0] != key[1]:
            conflict = conflict or (k if weights.get(key, w) != w else None)
            weights[key] = w
    if format == "weighted-edge-list":
        n = 1 + max((int(t) for _, tokens in edges for t in tokens[:2]), default=-1)
        values = [weights[key] for key in sorted(weights)]
    if n is None or n < 2 or len(values) != n * (n - 1) // 2:
        return FormatError, None
    if conflict:
        return FormatError, conflict
    return n, np.array(values, dtype=float).view(np.uint64).tolist()
