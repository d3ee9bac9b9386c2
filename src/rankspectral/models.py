"""Entry distributions and generative models for symmetric data matrices.

Distributions are small frozen dataclasses with a ``sample`` method; the
text form ``family(param, param)``, read by :func:`parse_distribution`, is
what the CLI and experiment configs carry.

Models draw the strict upper triangle row by row into the lower-packed
buffer from per-seed Philox streams, so every sampler is a pure function of
its arguments.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .rng import make_generator
from .symmetric import SymmetricMatrix, lower_rows, spread_rows

_BLOCK = 1 << 16  # entries per block of the in-place float conversion


class DistributionParseError(ValueError):
    """Malformed distribution string; ``column`` is the 1-based offset."""

    def __init__(self, text: str, column: int, reason: str) -> None:
        super().__init__(f"{text!r}: column {column}: {reason}")
        self.column = column


@dataclass(frozen=True)
class Normal:
    """Gaussian with mean ``mu`` and standard deviation ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, size)


@dataclass(frozen=True)
class Uniform:
    """Uniform on [low, high)."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"need low < high, got [{self.low}, {self.high})")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size)


@dataclass(frozen=True)
class Exponential:
    """Exponential with rate ``rate`` (mean 1/rate)."""

    rate: float

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)


@dataclass(frozen=True)
class Pareto:
    """Pareto with density shape * scale^shape / x^(shape+1) on [scale, inf).

    Sampled by inverse CDF: scale * (1 - U)^(-1/shape). The mean is
    shape * scale / (shape - 1) for shape > 1 and infinite otherwise.
    """

    scale: float
    shape: float

    def __post_init__(self) -> None:
        if not (self.scale > 0 and self.shape > 0):
            raise ValueError(
                f"scale and shape must be > 0, got ({self.scale}, {self.shape})"
            )

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        # In place on the one drawn array; ``**=`` keeps numpy's fast paths
        # for scalar powers, so the bits are those of
        # scale * (1.0 - u) ** (-1.0 / shape).
        u = rng.random(size)
        np.subtract(1.0, u, out=u)
        u **= -1.0 / self.shape
        u *= self.scale
        return u


EntryDistribution = Union[Normal, Uniform, Exponential, Pareto]

_FAMILIES: dict[str, tuple[type, int]] = {
    "normal": (Normal, 2),
    "uniform": (Uniform, 2),
    "exponential": (Exponential, 1),
    "pareto": (Pareto, 2),
}

_HEAD = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*\(")


def parse_distribution(text: str) -> EntryDistribution:
    """Parse ``family(a, b)`` into a distribution object.

    Families: ``normal(mu, sigma)`` (sigma is the standard deviation),
    ``uniform(low, high)``, ``exponential(rate)``, ``pareto(scale, shape)``.
    Errors carry the 1-based column of the offending token.
    """
    head = _HEAD.match(text)
    if head is None:
        col = len(text) - len(text.lstrip()) + 1
        raise DistributionParseError(text, col, "expected 'family(' at the start")
    name = head.group(1).lower()
    if name not in _FAMILIES:
        raise DistributionParseError(
            text,
            head.start(1) + 1,
            f"unknown family {head.group(1)!r}; expected one of {sorted(_FAMILIES)}",
        )
    close = text.rfind(")")
    if close < 0 or text[close + 1 :].strip():
        raise DistributionParseError(text, len(text) + 1, "expected closing ')'")
    cls, arity = _FAMILIES[name]
    inner = text[head.end() : close]
    args: list[float] = []
    offset = head.end()
    pieces = inner.split(",") if inner.strip() else []
    for piece in pieces:
        lead = len(piece) - len(piece.lstrip())
        try:
            args.append(float(piece))
        except ValueError:
            raise DistributionParseError(
                text, offset + lead + 1, f"expected a number, got {piece.strip()!r}"
            ) from None
        offset += len(piece) + 1
    if len(args) != arity:
        raise DistributionParseError(
            text, head.end() + 1, f"{name} takes {arity} parameter(s), got {len(args)}"
        )
    try:
        return cls(*args)
    except ValueError as exc:
        raise DistributionParseError(text, head.end() + 1, str(exc)) from None


def as_distribution(dist: EntryDistribution | str) -> EntryDistribution:
    if isinstance(dist, str):
        return parse_distribution(dist)
    if not isinstance(dist, (Normal, Uniform, Exponential, Pareto)):
        raise TypeError(f"not an entry distribution: {dist!r}")
    return dist


@dataclass(frozen=True)
class TwoBlockAssignment:
    """Community labels in {-1, +1}, balanced up to rounding."""

    labels: np.ndarray

    @property
    def sizes(self) -> tuple[int, int]:
        pos = int(np.count_nonzero(self.labels > 0))
        return pos, self.labels.shape[0] - pos


@dataclass(frozen=True)
class PlantedAssignment:
    """Indicator labels in {0, 1}; 1 marks the planted index set."""

    labels: np.ndarray


def sample_homogeneous(
    n: int, dist: EntryDistribution | str, seed: int
) -> SymmetricMatrix:
    """All n(n-1)/2 entries i.i.d. from ``dist``. The null model."""
    dist = as_distribution(dist)
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got n={n}")
    rng = make_generator(seed)
    return SymmetricMatrix.adopt(n, _draw_rows(np.empty(n * (n + 1) // 2), n, dist, rng))


def sample_two_block(
    n: int,
    within: EntryDistribution | str,
    between: EntryDistribution | str,
    seed: int,
) -> tuple[SymmetricMatrix, TwoBlockAssignment]:
    """Balanced two-community model.

    Nodes get labels +-1 (floor(n/2) positive, rest negative, uniformly
    shuffled). Entry (i, j) is drawn from ``within`` when the labels agree
    and from ``between`` otherwise. Returns the matrix and the realized
    assignment.
    """
    within = as_distribution(within)
    between = as_distribution(between)
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got n={n}")
    rng = make_generator(seed)
    labels = np.concatenate([np.ones(n // 2, dtype=np.int64), -np.ones(n - n // 2, dtype=np.int64)])
    labels = rng.permutation(labels)
    # Two parallel draws keep the stream layout independent of the labels.
    blas = _draw_rows(np.empty(n * (n + 1) // 2), n, within, rng)
    # Row i's entries come from ``between`` where labels[j] != labels[i].
    positive = labels > 0
    negative = ~positive
    _draw_rows(blas, n, between, rng, lambda i: (negative if positive[i] else positive)[i + 1 :])
    labels.flags.writeable = False
    return SymmetricMatrix.adopt(n, blas), TwoBlockAssignment(labels)


def sample_planted_submatrix(
    n: int,
    n1: int,
    inside: EntryDistribution | str,
    background: EntryDistribution | str,
    seed: int,
) -> tuple[SymmetricMatrix, PlantedAssignment]:
    """Planted principal-submatrix model.

    A uniformly random index set of size ``n1`` is planted; entries with
    both endpoints inside it follow ``inside``, all others ``background``.
    """
    inside = as_distribution(inside)
    background = as_distribution(background)
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got n={n}")
    if not (1 <= n1 <= n):
        raise ValueError(f"need 1 <= n1 <= n, got n1={n1}, n={n}")
    rng = make_generator(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[:n1] = 1
    labels = rng.permutation(labels)
    blas = _draw_rows(np.empty(n * (n + 1) // 2), n, inside, rng)
    # Row i's entries come from ``background`` unless both ends are planted.
    outside = labels == 0
    _draw_rows(blas, n, background, rng, lambda i: True if outside[i] else outside[i + 1 :])
    labels.flags.writeable = False
    return SymmetricMatrix.adopt(n, blas), PlantedAssignment(labels)


def _draw_rows(
    blas: np.ndarray, n: int, dist: EntryDistribution, rng: np.random.Generator, mask=None
) -> np.ndarray:
    """Draw from ``dist`` into the rows of the lower-packed ``blas`` where ``mask(i)`` holds.

    The draw is taken row by row, which consumes the stream exactly as one
    call for all n(n-1)/2 entries would, so no array of that length is
    built. ``mask(i)``, if given, is row i's mask over columns i+1..n-1, or
    True. The diagonal slots are set to +0.0.
    """
    for i, (_, slots) in enumerate(lower_rows(n)):
        row = dist.sample(slots.stop - slots.start, rng)
        np.copyto(blas[slots], row, where=True if mask is None else mask(i))
        blas[slots.start - 1] = 0.0
    return blas


def checked_k(n: int, k: float) -> float:
    """``k`` as :func:`sample_interpolated_rank` takes it: math.inf, or an int in [0, 10 N]."""
    if k == math.inf:
        return k
    if not (k >= 0 and k == math.floor(k)):  # nan and -inf fail here
        raise ValueError(f"invalid k={k!r} for n={n}: k must be a nonnegative integer or math.inf")
    guard = 10 * (n * (n - 1) // 2)
    if int(k) > guard:
        raise ValueError(f"invalid k={k!r} for n={n}: k exceeds the 10*N guard ({guard})")
    return int(k)


def sample_interpolated_rank(n: int, k: float, seed: int) -> SymmetricMatrix:
    """Rank-like matrix interpolating between exact ranks and i.i.d. entries.

    Draws the n(n-1)/2 entries as a uniform sample without replacement from
    {1/(N+k+1), ..., (N+k)/(N+k+1)} where N = n(n-1)/2. At k = 0 this is
    exactly the distribution of a rank matrix; as k grows the entries
    decorrelate, and k = math.inf means i.i.d. Uniform(0, 1). Finite k is
    capped at 10 N: the draw is a permutation of N + k integers, made in the
    returned buffer, so a call peaks at 8 n(n+1)/2 bytes while k <= n and
    otherwise at the larger of that and 4(N + k) (8(N + k) above 2^31).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got n={n}")
    k = checked_k(n, k)
    n_pairs = n * (n - 1) // 2
    n_slots = n * (n + 1) // 2
    rng = make_generator(seed)
    if k == math.inf:
        # Uniform(0, 1) draws the bits of rng.random: 0.0 + 1.0 * u is u.
        return SymmetricMatrix.adopt(n, _draw_rows(np.empty(n_slots), n, Uniform(0.0, 1.0), rng))
    total = n_pairs + k
    # int64 while the permutation fits in the result's slots (numpy's 8-byte
    # shuffle), int32 while its values fit in 31 bits, else int64 again.
    width = np.dtype(np.int64 if k <= n or total > 2**31 else np.int32)
    buffer = np.empty(max(n_slots, -(-total * width.itemsize // 8)))
    # Shuffling arange(N + k) in place gives the bits of rng.permutation(N + k)
    # at either width: the draws do not depend on the item size.
    perm = buffer.view(width)[:total]
    for lo in range(0, total, _BLOCK):
        perm[lo : lo + _BLOCK] = np.arange(lo, min(lo + _BLOCK, total))
    rng.shuffle(perm)
    # Draw s becomes the float in slot n + s, which spread_rows moves; taken
    # top-down, it overwrites only draws at s or above, already read.
    for lo in reversed(range(0, n_pairs, _BLOCK)):
        hi = min(lo + _BLOCK, n_pairs)
        np.divide(perm[lo:hi] + 1.0, total + 1, out=buffer[n + lo : n + hi])
    del perm
    buffer.resize(n_slots, refcheck=False)
    return SymmetricMatrix.adopt(n, spread_rows(buffer, n))
