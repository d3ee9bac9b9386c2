"""Normalized-rank transform of symmetric data and its exact moments.

Given a hollow symmetric data matrix with N = n(n-1)/2 distinct
upper-triangle entries, the rank transform replaces each entry by
rank/(N + 1), producing a matrix whose entries are a permutation of
{1/(N+1), ..., N/(N+1)}. The distribution of any statistic of this matrix is
the same for every continuous entry distribution, which is what makes the
downstream tests distribution-free.

Entries drawn from a continuous law are distinct almost surely, but observed
data may contain ties. The default policy treats ties as an error; an
explicit seeded policy breaks them uniformly at random.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import make_generator
from .symmetric import SymmetricMatrix, from_upper_packed, row_major_index, upper_slots


class TieError(ValueError):
    """Tied entries under the ``error`` tie policy."""


@dataclass(frozen=True)
class TiePolicy:
    """How :func:`rank_transform` treats tied entries.

    Use the constructors: ``TiePolicy.error()`` raises :class:`TieError` on
    any tie; ``TiePolicy.random(seed)`` orders each tied group by a seeded
    uniform shuffle, so every ranking of the tied entries is equally likely
    and the result is deterministic given the seed.
    """

    kind: str
    seed: int | None = None

    @classmethod
    def error(cls) -> "TiePolicy":
        return cls(kind="error")

    @classmethod
    def random(cls, seed: int) -> "TiePolicy":
        return cls(kind="random", seed=int(seed))

    def __post_init__(self) -> None:
        if self.kind not in ("error", "random"):
            raise ValueError(f"unknown tie policy kind {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random tie policy requires a seed")


class RankMatrix(SymmetricMatrix):
    """A symmetric matrix whose entries are normalized ranks.

    The packed values must be exactly a permutation of k/(N+1) for
    k = 1..N; the constructor verifies this.

    Every rank matrix holds ``blas``, its ranks in the upper-packed layout
    (see :mod:`rankspectral.symmetric`), read-only, and hands it to the
    eigensolver with no pack step. A matrix from :func:`rank_transform`
    holds only ``blas``; its row-major ``values`` are derived on first
    access, then cached and read-only. The constructor packs once.
    """

    blas: np.ndarray

    def __init__(self, n: int, values: np.ndarray) -> None:
        super().__init__(n, values)
        expected = np.arange(1, self.n_pairs + 1) / (self.n_pairs + 1)
        if not np.array_equal(np.sort(self.values), expected):
            raise ValueError("values are not a permutation of k/(N+1), k=1..N")
        self.blas = super().upper_packed()
        self.blas.flags.writeable = False

    @classmethod
    def _from_blas(cls, n: int, blas: np.ndarray) -> "RankMatrix":
        """Wrap the buffer :func:`rank_transform` just filled, without a copy or checks."""
        blas.flags.writeable = False
        result = cls.__new__(cls)
        result.n = n
        result.blas = blas
        return result

    def upper_packed(self) -> np.ndarray:
        """``blas`` itself, read-only: no copy and no pack step."""
        return self.blas

    @functools.cached_property
    def values(self) -> np.ndarray:
        # Only reached for a matrix from rank_transform: the constructor
        # stores ``values`` on the instance, which shadows this property.
        values = from_upper_packed(self.blas, self.n)
        values.flags.writeable = False
        return values

    def __repr__(self) -> str:
        return f"RankMatrix(n={self.n})"


# Entries per block of the key build, the run scan and the rank fill:
# small blocks keep their temporaries in cache and off the peak allocation.
_BLOCK = 1 << 16

_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)

# Largest G * N for which _order_runs' int64 key, value group * N + random
# position, cannot overflow (G distinct tied values; holds for every n below
# about 77,900). Beyond it the tied runs are ordered by two argsorts.
_COMPOSITE_KEY_LIMIT = 1 << 63


def rank_transform(matrix: SymmetricMatrix, policy: TiePolicy | None = None) -> RankMatrix:
    """Replace each upper-triangle entry by its normalized rank.

    Parameters
    ----------
    matrix : SymmetricMatrix
        Hollow symmetric data matrix, n >= 2.
    policy : TiePolicy, optional
        Tie handling; defaults to ``TiePolicy.error()``.

    Returns
    -------
    RankMatrix
        Matrix with entry rank/(N+1) in place of each data entry, held in
        the BLAS layout :class:`RankMatrix` describes. Strictly monotone
        transforms of the data give bit-identical output, and relabeling
        nodes commutes with the transform.

    Raises
    ------
    TieError
        Tied entries under the ``error`` policy. The message reports how
        many values are involved and one offending value.

    Notes
    -----
    The sort order comes from one ``np.sort`` of int64 keys instead of an
    ``np.argsort`` of the values, which costs several times more. Each
    value maps to a signed-magnitude key that orders exactly as the values
    do, with -0.0 and 0.0 equal; the low ceil(log2(n(n+1)/2)) bits of the
    key are then replaced by the entry's slot j(j+1)/2 + i in the BLAS
    buffer. After the sort, keys that differ in their remaining high bits
    are in exact value order, and the slot bits say where each rank goes.
    Entries whose high bits collide (some 10^4 of the 8M at n = 4000, and
    every exact tie) form runs that are re-sorted exactly by value, so the
    result equals a full sort. Ties exist only inside those runs: the
    ``error`` policy reports them from there, and the ``random`` policy
    orders the runs by value, then by ``rng.permutation(N)`` of the
    row-major positions, as a ``lexsort`` over all N would. It does so with
    one argsort of int64 keys, value group * N + random position.

    Memory: the slots are compacted to an int32 order (int64 once
    n(n+1)/2 exceeds 2^31 - 1), and the keys are freed before the output
    is allocated. On continuous data a call peaks at about 13N bytes (the
    keys, the order and a one-byte run mask), so a replicate peaks at
    about 21N bytes counting the caller's sample. When every entry is tied
    a call peaks at about 30N bytes (3.75 x 8N at n = 1000).
    """
    if policy is None:
        policy = TiePolicy.error()
    n = matrix.n
    a = matrix.values
    n_pairs = a.shape[0]
    n_slots = n * (n + 1) // 2
    bits = (n_slots - 1).bit_length()
    keys = _sort_keys(a, n, bits)
    in_run = _collision_runs(keys, bits)
    order = _slot_order(keys, bits, _order_dtype(n_slots))
    del keys
    if in_run is not None:
        slots = order[in_run]
        order[in_run] = slots[_order_runs(a, row_major_index(slots, n), policy)]
        del in_run, slots
    ranks = np.zeros(n_slots)
    for lo in range(0, n_pairs, _BLOCK):
        hi = min(lo + _BLOCK, n_pairs)
        ranks[order[lo:hi]] = np.arange(lo + 1, hi + 1, dtype=np.float64) / (n_pairs + 1)
    return RankMatrix._from_blas(n, ranks)


def _order_dtype(n_slots: int) -> type:
    """The narrowest integer type that holds every slot of a BLAS buffer."""
    return np.int32 if n_slots <= np.iinfo(np.int32).max else np.int64


def _sort_keys(a: np.ndarray, n: int, bits: int) -> np.ndarray:
    """Sorted int64 keys: each value's order key, low ``bits`` bits its BLAS slot.

    The slots are written by :func:`rankspectral.symmetric.upper_slots`,
    then the high bits are or-ed in per block. The key of a float64 is its
    magnitude bits, negated for a negative sign; this orders keys exactly as
    the values and maps -0.0 to 0 as well.
    """
    raw = a.view(np.int64)
    keys = upper_slots(n)
    high = np.empty(min(_BLOCK, a.shape[0]), dtype=np.int64)
    for lo in range(0, a.shape[0], _BLOCK):
        hi = min(lo + _BLOCK, a.shape[0])
        block = high[: hi - lo]
        sign = raw[lo:hi] >> 63  # -1 for a set sign bit, else 0
        np.bitwise_and(raw[lo:hi], _MAGNITUDE, out=block)
        block ^= sign
        block -= sign
        block >>= bits
        block <<= bits
        keys[lo:hi] |= block
    keys.sort()
    return keys


def _collision_runs(keys: np.ndarray, bits: int) -> np.ndarray | None:
    """Mask of sorted positions whose key shares its high bits with a neighbour.

    Scanned in blocks, so the only length-N temporary is the mask itself.
    None when no two keys collide.
    """
    in_run = np.zeros(keys.shape[0], dtype=bool)
    for lo in range(0, keys.shape[0] - 1, _BLOCK):
        hi = min(lo + _BLOCK, keys.shape[0] - 1)
        differ = keys[lo + 1 : hi + 1] ^ keys[lo:hi]
        differ >>= bits
        shared = differ == 0
        in_run[lo:hi] |= shared
        in_run[lo + 1 : hi + 1] |= shared
    return in_run if in_run.any() else None


def _slot_order(keys: np.ndarray, bits: int, dtype: type) -> np.ndarray:
    """The slots in the low ``bits`` bits of the sorted keys, as ``dtype``.

    Masks ``keys`` in place on the way.
    """
    order = np.empty(keys.shape[0], dtype=dtype)
    low = (1 << bits) - 1
    for lo in range(0, keys.shape[0], _BLOCK):
        block = keys[lo : lo + _BLOCK]
        block &= low
        order[lo : lo + _BLOCK] = block
    return order


def _order_runs(a: np.ndarray, index: np.ndarray, policy: TiePolicy) -> np.ndarray:
    """Exact order of the collision-run entries ``index`` (in sorted-key order).

    Runs are disjoint value ranges in ascending order, so sorting all of
    their entries together by value keeps each run in its own positions.
    """
    vals = a[index]
    ordered = np.sort(vals)
    tied = ordered[1:] == ordered[:-1]
    if not tied.any():
        return np.argsort(vals)
    if policy.kind == "error":
        tied_value = float(ordered[np.argmax(tied)])
        if tied_value == 0.0:
            # The message names the signed zero np.argsort(a) puts first,
            # which depends on the whole array, so only a full argsort can say.
            tied_value = float(a[np.argsort(a)[np.count_nonzero(a < 0.0)]])
        involved = np.zeros(ordered.shape[0], dtype=bool)
        involved[:-1] |= tied
        involved[1:] |= tied
        raise TieError(
            f"{int(np.count_nonzero(involved))} tied entries (e.g. value {tied_value!r}); "
            f"pass TiePolicy.random(seed) to break ties at random"
        )
    # Primary key: value; secondary key: random position. Uniform over
    # the orderings of each tied group. This is np.lexsort((shuffle, vals)).
    n_pairs = a.shape[0]
    np.logical_not(tied, out=tied)
    distinct = np.concatenate([ordered[:1], ordered[1:][tied]])  # -0.0 == 0.0: one group
    del ordered, tied
    if distinct.shape[0] * n_pairs > _COMPOSITE_KEY_LIMIT:
        # Two passes: order by the distinct random positions, then stably
        # by value.
        by_shuffle = np.argsort(_shuffled_positions(n_pairs, index.dtype, policy.seed)[index])
        vals = vals[by_shuffle]
        return by_shuffle[np.argsort(vals, kind="stable")]
    # One sort of distinct int64 keys: value group * N + random position.
    key = np.searchsorted(distinct, vals)
    del vals
    key *= n_pairs
    key += _shuffled_positions(n_pairs, index.dtype, policy.seed)[index]
    return np.argsort(key)


def _shuffled_positions(n_pairs: int, dtype: type, seed: int | None) -> np.ndarray:
    """``make_generator(seed).permutation(n_pairs)``, drawn straight into ``dtype``."""
    shuffle = np.arange(n_pairs, dtype=dtype)
    make_generator(seed).shuffle(shuffle)
    return shuffle


@dataclass(frozen=True)
class Moments:
    """Exact finite-n moments of a rank matrix's entries and leading eigenvalue.

    Attributes
    ----------
    n : int
        Matrix dimension.
    n_pairs : int
        N = n(n-1)/2.
    sigma_sq : float
        Entry variance, 1/12 - 1/(6(N+1)).
    cov : float
        Covariance of two distinct entries, -1/(12(N+1)); the entries are a
        sample without replacement, hence exchangeable and negatively
        correlated.
    sigma_tilde : float
        Scale of the leading-eigenvalue fluctuation, sigma_sq * sqrt(8/n).
    centering : float
        First-order location of the leading eigenvalue,
        (n-1)/2 + 2 * sigma_sq.
    """

    n: int
    n_pairs: int
    sigma_sq: float
    cov: float
    sigma_tilde: float
    centering: float


def moments(n: int) -> Moments:
    """Exact entry moments and eigenvalue normalization for dimension n."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got n={n}")
    n_pairs = n * (n - 1) // 2
    sigma_sq = 1.0 / 12.0 - 1.0 / (6.0 * (n_pairs + 1))
    cov = -1.0 / (12.0 * (n_pairs + 1))
    sigma_tilde = sigma_sq * math.sqrt(8.0 / n)
    centering = (n - 1) / 2.0 + 2.0 * sigma_sq
    return Moments(
        n=n,
        n_pairs=n_pairs,
        sigma_sq=sigma_sq,
        cov=cov,
        sigma_tilde=sigma_tilde,
        centering=centering,
    )


def whiten(rank_matrix: RankMatrix) -> SymmetricMatrix:
    """Center and scale a rank matrix to mean 0, entry variance 1.

    Returns (R - 1/2) / sigma_n entrywise on the off-diagonal. The spectral
    distribution of the result, scaled by n^{-1/2}, converges to the
    semicircle on [-2, 2], and n^{-1/2} times its operator norm converges
    to 2.
    """
    if not isinstance(rank_matrix, RankMatrix):
        raise TypeError("whiten expects a RankMatrix; apply rank_transform first")
    if rank_matrix.n < 3:
        raise ValueError("whitening needs n >= 3 (entry variance is 0 at n=2)")
    m = moments(rank_matrix.n)
    scaled = (rank_matrix.values - 0.5) / math.sqrt(m.sigma_sq)
    return SymmetricMatrix(rank_matrix.n, scaled)
