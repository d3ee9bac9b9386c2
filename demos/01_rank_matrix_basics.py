"""
Rank matrices from raw symmetric data
=====================================

Builds the rank matrix of a noisy pairwise-score table and shows the two
properties everything else rests on: the entries are a fixed grid (only
their placement is random), and any strictly increasing distortion of the
data leaves the matrix bit-for-bit unchanged.
"""

import numpy as np

from rankspectral import SymmetricMatrix, make_generator, moments, pair_indices, rank_transform

# A symmetric score table: n nodes, one noisy similarity per pair.
n = 10
rng = make_generator(7)
upper = np.triu(rng.normal(1.0, 0.5, (n, n)), 1)
scores = SymmetricMatrix.from_dense(upper + upper.T)
print("raw scores, first row:", np.round(scores.dense()[0], 3))

# Replace each pair's score by its rank among all N = n(n-1)/2 pairs,
# scaled into (0, 1) by dividing by N + 1. The diagonal stays zero.
ranked = rank_transform(scores)
print("ranked scores, first row:", np.round(ranked.dense()[0], 3))

# The multiset of entries is always {1/(N+1), ..., N/(N+1)}, no matter
# what the data looked like. Only the arrangement carries information.
N = n * (n - 1) // 2
assert np.array_equal(np.sort(ranked.values), np.arange(1, N + 1) / (N + 1))
print("entries are exactly the grid k/(N+1), N =", N)

# ``values`` lists the pairs (i, j), i < j, row by row; pair_indices names them.
rows, cols = pair_indices(n)
top = int(np.argmax(ranked.values))
i, j = rows[top], cols[top]
print(f"top-ranked pair: ({i}, {j}), raw score {scores.dense()[i, j]:.3f}")

# Monotone invariance: exponentiate, rescale, shift. Same ranks, same
# matrix, down to the last bit. This is what makes the downstream test
# distribution-free.
distorted = SymmetricMatrix(n, np.exp(3.0 * scores.values) + 100.0)
assert np.array_equal(rank_transform(distorted).values, ranked.values)
print("exp(3x) + 100 distortion: rank matrix unchanged")

# The exact entry moments are known in closed form and drive the test's
# centering and scale later on.
m = moments(n)
print(f"entry variance  sigma^2 = {m.sigma_sq:.6f}  (1/12 - 1/(6(N+1)))")
print(f"pair covariance         = {m.cov:.6f}  (sampling without replacement)")
print(f"eigenvalue centering    = {m.centering:.6f}  ((n-1)/2 + 2 sigma^2)")
print(f"eigenvalue scale        = {m.sigma_tilde:.6f}  (sigma^2 sqrt(8/n))")
