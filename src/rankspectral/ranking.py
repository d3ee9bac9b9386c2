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
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .rng import make_generator
from .symmetric import (
    SymmetricMatrix,
    diagonal_slots,
    from_upper_packed,
    row_major_index,
    upper_slots,
)


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
# position, cannot overflow (G distinct tied values in one batch). Beyond it
# the tied runs are ordered by two argsorts.
_COMPOSITE_KEY_LIMIT = 1 << 63

# Bits of the second sort's int64 key, slot << rank bits | rank: slot and
# rank fit together for every n up to 65,536. Above it the ranks are
# scattered into a second buffer instead.
_SLOT_RANK_BITS = 63


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
    One int64 buffer of n(n+1)/2 entries serves in turn as the sort keys,
    the rank order and the returned ranks. The sort order comes from one
    ``np.sort`` of int64 keys instead of an ``np.argsort`` of the values,
    which costs several times more. Each value maps to a signed-magnitude
    key that orders exactly as the values do, with -0.0 and 0.0 equal; the
    low ceil(log2(n(n+1)/2)) bits of the key are then replaced by the
    entry's slot j(j+1)/2 + i in the BLAS buffer. After the sort, keys that
    differ in their remaining high bits are in exact value order. Entries
    whose high bits collide (some 10^4 of the 8M at n = 4000, and every
    exact tie) form runs that are re-sorted exactly by value, so the keys
    end in the order a full sort gives. The runs are found and re-sorted a
    block at a time, a block extended to the end of a run it cuts. Ties
    exist only inside those runs: the ``error`` policy counts them over
    all blocks and reports the first, and the ``random`` policy orders the
    runs by value, then by ``rng.permutation(N)`` of the row-major
    positions (drawn at the first tie), as a ``lexsort`` over all N would.
    It does so with one argsort of int64 keys, value group * N + random
    position.

    Each key is then rewritten as slot << b | rank, b the bit length of N,
    and the n diagonal slots join the keys with rank 0. A second sort puts
    every key at its own slot, and the low bits, written over the keys as
    rank/(N+1), are the returned ranks (0.0 on the diagonal). Slot and rank
    fit together in 63 bits for every n up to 65,536; above that, the ranks
    are scattered from the sorted keys into a second buffer.

    Memory: on continuous data a call holds the buffer and temporaries of
    block size (1.10 x 8N at n = 2000), so a replicate holds about 16N
    bytes counting the caller's sample. When every entry is tied it also
    holds the random positions, as int32 (int64 once N exceeds 2^31 - 1),
    and one batch of runs (1.84 x 8N at n = 2000).
    """
    if policy is None:
        policy = TiePolicy.error()
    n = matrix.n
    a = matrix.values
    n_pairs = a.shape[0]
    n_slots = n * (n + 1) // 2
    bits = (n_slots - 1).bit_length()
    rank_bits = n_pairs.bit_length()
    in_place = bits + rank_bits <= _SLOT_RANK_BITS
    buffer = np.empty(n_slots if in_place else n_pairs, dtype=np.int64)
    keys = buffer[:n_pairs]
    _sort_keys(a, n, bits, keys)
    _sort_runs(a, n, keys, bits, policy)
    low = (1 << bits) - 1
    if not in_place:
        ranks = np.zeros(n_slots)
        for lo in range(0, n_pairs, _BLOCK):
            block = keys[lo : lo + _BLOCK]
            block &= low
            ranks[block] = np.arange(lo + 1, lo + block.shape[0] + 1) / (n_pairs + 1)
        return RankMatrix._from_blas(n, ranks)
    for lo in range(0, n_pairs, _BLOCK):
        block = keys[lo : lo + _BLOCK]
        block &= low
        block <<= rank_bits
        block |= np.arange(lo + 1, lo + block.shape[0] + 1)
    # The diagonal slots join with rank 0, so the sort puts every key at its slot.
    np.left_shift(diagonal_slots(n), rank_bits, out=buffer[n_pairs:])
    buffer.sort()
    ranks = buffer.view(np.float64)
    rank = np.empty(min(_BLOCK, n_slots), dtype=np.int64)
    for lo in range(0, n_slots, _BLOCK):
        block = rank[: min(_BLOCK, n_slots - lo)]
        np.bitwise_and(buffer[lo : lo + _BLOCK], (1 << rank_bits) - 1, out=block)
        np.divide(block, n_pairs + 1, out=ranks[lo : lo + block.shape[0]])
    return RankMatrix._from_blas(n, ranks)


def _order_dtype(size: int) -> type:
    """The narrowest integer type that holds every integer up to ``size``."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


def _sort_keys(a: np.ndarray, n: int, bits: int, keys: np.ndarray) -> None:
    """Fill ``keys`` with sorted int64 keys: each value's order key, low ``bits`` bits its slot.

    The slots are written by :func:`rankspectral.symmetric.upper_slots`,
    then the high bits are or-ed in per block. The key of a float64 is its
    magnitude bits, negated for a negative sign; this orders keys exactly as
    the values and maps -0.0 to 0 as well.
    """
    raw = a.view(np.int64)
    upper_slots(n, keys)
    high = np.empty(min(_BLOCK, a.shape[0]), dtype=np.int64)
    for lo in range(0, a.shape[0], _BLOCK):
        hi = min(lo + _BLOCK, a.shape[0])
        block = high[: hi - lo]
        sign = raw[lo:hi] >> 63  # -1 for a set sign bit, else 0
        np.bitwise_and(raw[lo:hi], _MAGNITUDE, out=block)
        block ^= sign
        block -= sign
        block &= -(1 << bits)
        keys[lo:hi] |= block
    keys.sort()


@dataclass
class _Ties:
    """A tie policy, and the ties the run scan has met under it so far."""

    policy: TiePolicy
    n_pairs: int
    count: int = 0  # tied entries, under the error policy
    value: float | None = None  # the first tied value in sorted order
    shuffle: np.ndarray | None = None  # the random positions, drawn at the first tie


def _sort_runs(a: np.ndarray, n: int, keys: np.ndarray, bits: int, policy: TiePolicy) -> None:
    """Put each run of sorted keys that share their high bits in exact value order.

    The runs of consecutive blocks (:func:`_run_positions`) are re-sorted
    together, in batches of up to _BLOCK entries or one block's runs, so
    the temporaries stay of block size and sparse runs take few calls.
    Raises TieError after the scan if the ``error`` policy met a tie.
    """
    ties = _Ties(policy, keys.shape[0])
    low = (1 << bits) - 1
    batch: list[np.ndarray] = []
    size = 0
    for at in itertools.chain(_run_positions(keys, bits), [None]):
        if batch and (at is None or size + at.shape[0] > _BLOCK):
            every = np.concatenate(batch)
            batch, size = [], 0
            run = keys[every]
            keys[every] = run[_order_runs(a, row_major_index(run & low, n), ties)]
            del every, run
        if at is not None:
            batch.append(at)
            size += at.shape[0]
    if ties.count:
        value = ties.value
        if value == 0.0:
            # The message names the signed zero np.argsort(a) puts first,
            # which depends on the whole array, so only a full argsort can say.
            value = float(a[np.argsort(a)[np.count_nonzero(a < 0.0)]])
        raise TieError(
            f"{ties.count} tied entries (e.g. value {value!r}); "
            f"pass TiePolicy.random(seed) to break ties at random"
        )


def _run_positions(keys: np.ndarray, bits: int) -> Iterator[np.ndarray]:
    """The positions of the sorted keys that share their high bits with a neighbour.

    Yielded a block at a time, each block of about _BLOCK keys extended to
    the end of a run it would cut, so no run is split between two arrays.
    """
    lo = 0
    while lo < keys.shape[0]:
        hi = _run_end(keys, lo + _BLOCK, bits)
        high = keys[lo:hi] >> bits
        shared = high[1:] == high[:-1]
        del high
        if shared.any():
            in_run = np.zeros(hi - lo, dtype=bool)
            in_run[:-1] = shared
            in_run[1:] |= shared
            at = np.flatnonzero(in_run)
            at += lo
            yield at
        lo = hi


def _run_end(keys: np.ndarray, hi: int, bits: int) -> int:
    """The first position from ``hi`` at which no run of sorted keys continues."""
    while hi < keys.shape[0]:
        if (int(keys[hi]) ^ int(keys[hi - 1])) >> bits:
            return hi
        high = keys[hi - 1 : hi + _BLOCK] >> bits
        change = np.flatnonzero(high[1:] != high[:-1])
        if change.size:
            return hi + int(change[0])
        hi += _BLOCK
    return keys.shape[0]


def _order_runs(a: np.ndarray, index: np.ndarray, ties: _Ties) -> np.ndarray:
    """Exact order of one batch's collision-run entries ``index`` (in sorted-key order).

    Runs are disjoint value ranges in ascending order, so sorting all of
    their entries together by value keeps each run in its own positions.
    Under the ``error`` policy a tie is counted in ``ties``, and the
    entries keep their order.
    """
    vals = a[index]
    ordered = np.sort(vals)
    tied = ordered[1:] == ordered[:-1]
    if not tied.any():
        return np.argsort(vals)
    if ties.policy.kind == "error":
        if ties.value is None:
            ties.value = float(ordered[np.argmax(tied)])
        involved = np.zeros(ordered.shape[0], dtype=bool)
        involved[:-1] |= tied
        involved[1:] |= tied
        ties.count += int(np.count_nonzero(involved))
        return np.arange(index.shape[0])
    # Primary key: value; secondary key: random position. Uniform over
    # the orderings of each tied group. This is np.lexsort((shuffle, vals)).
    n_pairs = ties.n_pairs
    if ties.shuffle is None:
        ties.shuffle = _shuffled_positions(n_pairs, _order_dtype(n_pairs), ties.policy.seed)
    np.logical_not(tied, out=tied)
    distinct = np.concatenate([ordered[:1], ordered[1:][tied]])  # -0.0 == 0.0: one group
    del ordered, tied
    if distinct.shape[0] * n_pairs > _COMPOSITE_KEY_LIMIT:
        # Two passes: order by the distinct random positions, then stably
        # by value.
        by_shuffle = np.argsort(ties.shuffle[index])
        vals = vals[by_shuffle]
        return by_shuffle[np.argsort(vals, kind="stable")]
    # One sort of distinct int64 keys: value group * N + random position.
    key = np.searchsorted(distinct, vals)
    del vals
    key *= n_pairs
    key += ties.shuffle[index]
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
    scaled = rank_matrix.values - 0.5
    scaled /= math.sqrt(m.sigma_sq)
    return SymmetricMatrix.adopt(rank_matrix.n, scaled)
