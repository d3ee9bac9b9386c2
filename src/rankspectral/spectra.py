"""Eigenvalue solvers and spectral summaries for packed symmetric matrices.

Two routes to the spectrum are kept deliberately independent so they can
cross-check each other: power iteration running directly on the packed
storage via BLAS ``dspmv`` (:func:`leading_eigenpair`), and the dense LAPACK
path (:func:`full_spectrum`, Householder tridiagonalization plus
implicit-shift QL via ``dsyev``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import dspmv

from .rng import make_generator
from .symmetric import SymmetricMatrix

FULL_SPECTRUM_CAP = 4000

_TOL = 1e-12
_MAX_ITER = 10_000
_RESTART_SEED = 0x5EED0F0B


class ConvergenceError(RuntimeError):
    """An iterative or LAPACK eigensolver failed to converge."""


@dataclass(frozen=True)
class EigenPair:
    """Leading eigenvalue and unit eigenvector.

    ``residual`` is ||M v - value * v||_2 at the accepted iterate; it
    satisfies residual <= 1e-12 * (|value| + ||M||_F / sqrt(n)).
    ``iterations`` counts matrix-vector products, at most 10,000. The
    vector's sign is fixed so that its component sum is positive.
    """

    value: float
    vector: np.ndarray
    iterations: int
    residual: float


def _frobenius(matrix: SymmetricMatrix) -> float:
    # ||M||_F^2 is twice the sum of squares of the off-diagonal buffer entries.
    return math.sqrt(2.0 * float(matrix.blas @ matrix.blas))


def _fix_sign(v: np.ndarray) -> np.ndarray:
    s = v.sum()
    if s == 0.0:
        nz = v[v != 0.0]
        s = nz[0] if nz.size else 1.0
    return -v if s < 0.0 else v


def leading_eigenpair(matrix: SymmetricMatrix) -> EigenPair:
    """Largest eigenvalue and its eigenvector by power iteration.

    Assumes the leading eigenvalue strictly dominates in modulus, which
    holds for matrices with positive off-diagonal entries (so for every
    rank matrix with n >= 3) and, with overwhelming probability, for the
    mean-shifted models used elsewhere in this package.

    Iterates v <- Mv / ||Mv|| from the constant unit vector with
    Rayleigh-quotient estimates. Terminates when the relative eigenvalue
    change stays below 1e-12 on two consecutive iterations and the residual
    bound recorded on :class:`EigenPair` holds. If the iterate converges
    onto an eigenpair whose value is below n/4 (possible when the constant
    vector is nearly orthogonal to the dominant eigenvector), the iteration
    restarts once from a fixed-seed random vector; spiked matrices have
    their dominant eigenvalue of order n/2, far above that floor.

    ``dspmv`` (``lower=1``) reads the lower-packed buffer
    :attr:`~SymmetricMatrix.blas` that every matrix holds, so nothing of
    size n(n+1)/2 is copied or allocated.

    Raises
    ------
    ConvergenceError
        10,000 matrix-vector products without convergence, which signals
        a near-degenerate leading pair.
    """
    n = matrix.n
    v = np.full(n, 1.0 / math.sqrt(n))
    ap = matrix.blas
    resid_floor = _frobenius(matrix) / math.sqrt(n)
    lam_prev = math.inf
    streak = 0
    restarted = False
    for iteration in range(1, _MAX_ITER + 1):
        w = dspmv(n, 1.0, ap, v, lower=1)
        lam = float(v @ w)
        residual = float(np.linalg.norm(w - lam * v))
        streak = streak + 1 if abs(lam - lam_prev) <= _TOL * abs(lam) else 0
        lam_prev = lam
        converged = streak >= 2 and residual <= _TOL * (abs(lam) + resid_floor)
        if converged and (lam >= n / 4.0 or restarted):
            return EigenPair(
                value=lam,
                vector=_fix_sign(v),
                iterations=iteration,
                residual=residual,
            )
        wnorm = float(np.linalg.norm(w))
        if converged or wnorm == 0.0:
            # Stalled on a minor eigenpair, or v is an exact kernel vector:
            # one restart from a generic direction recovers the dominant
            # pair. A zero image after the restart means M is the zero
            # matrix (a random vector hits a proper kernel with probability
            # zero), for which (0, v) is the answer.
            if restarted:
                return EigenPair(
                    value=0.0, vector=_fix_sign(v), iterations=iteration, residual=0.0
                )
            restarted = True
            v = make_generator(_RESTART_SEED).standard_normal(n)
            v /= np.linalg.norm(v)
            lam_prev = math.inf
            streak = 0
            continue
        v = w / wnorm
    raise ConvergenceError(
        f"no convergence in {_MAX_ITER} iterations (tol={_TOL}); "
        f"leading eigenvalues may be nearly degenerate"
    )


def full_spectrum(matrix: SymmetricMatrix) -> np.ndarray:
    """All eigenvalues, descending, via LAPACK ``dsyev``.

    The packed values are expanded to a dense array (the packed-storage
    LAPACK drivers are not exposed by scipy). Dimensions above
    ``FULL_SPECTRUM_CAP`` (4000) are refused to keep memory and run time
    predictable.

    Raises
    ------
    ValueError
        ``matrix.n > FULL_SPECTRUM_CAP``.
    ConvergenceError
        The QL sweep cap inside ``dsyev`` was exhausted, or the eigenvalue
        sum drifted away from the (zero) trace.
    """
    if matrix.n > FULL_SPECTRUM_CAP:
        raise ValueError(f"n={matrix.n} exceeds the dense-solver cap {FULL_SPECTRUM_CAP}")
    try:
        eigs = eigh(
            matrix.dense(),
            eigvals_only=True,
            driver="ev",
            check_finite=False,
            overwrite_a=True,
        )
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc
    drift = abs(float(eigs.sum()))
    budget = 64.0 * matrix.n * np.finfo(np.float64).eps * max(1.0, _frobenius(matrix))
    if drift > budget:
        raise ConvergenceError(
            f"eigenvalue sum {drift:.3e} inconsistent with zero trace "
            f"(budget {budget:.3e})"
        )
    return eigs[::-1]


def semicircle_cdf(x):
    """CDF of the semicircle distribution on [-2, 2].

    F(x) = 1/2 + x sqrt(4 - x^2) / (4 pi) + arcsin(x/2) / pi, clamped to
    0 and 1 outside the support. Accepts scalars or arrays.
    """
    arr = np.clip(np.asarray(x, dtype=np.float64), -2.0, 2.0)
    out = 0.5 + arr * np.sqrt(4.0 - arr * arr) / (4.0 * math.pi) + np.arcsin(arr / 2.0) / math.pi
    out = np.clip(out, 0.0, 1.0)
    return float(out) if np.isscalar(x) else out


@dataclass(frozen=True)
class ESDSummary:
    """Histogram of the scaled spectrum and its distance to the semicircle.

    ``bin_edges`` has one more element than ``masses``; masses sum to 1.
    ``ks_to_semicircle`` is the Kolmogorov-Smirnov distance between the
    empirical distribution of the scaled eigenvalues and the semicircle law.
    """

    bin_edges: np.ndarray
    masses: np.ndarray
    ks_to_semicircle: float


def esd_from_eigenvalues(scaled_eigenvalues: np.ndarray, bins: int = 80) -> ESDSummary:
    """Build an :class:`ESDSummary` from already-scaled eigenvalues."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    eigs = np.asarray(scaled_eigenvalues, dtype=np.float64)
    n = eigs.shape[0]
    counts, edges = np.histogram(np.clip(eigs, -2.5, 2.5), bins=bins, range=(-2.5, 2.5))
    ks = ks_distance(semicircle_cdf(np.sort(eigs)))
    return ESDSummary(bin_edges=edges, masses=counts / n, ks_to_semicircle=ks)


def ks_distance(cdf_at_sorted: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between a sample and a continuous law.

    ``cdf_at_sorted`` is the law's CDF at the sample sorted ascending.
    """
    cdf = np.asarray(cdf_at_sorted, dtype=np.float64)
    n = cdf.shape[0]
    grid = np.arange(n, dtype=np.float64)
    return max(float(np.max(cdf - grid / n)), float(np.max((grid + 1.0) / n - cdf)))


def subspace_distance_sq(u: np.ndarray, v: np.ndarray) -> float:
    """Squared Frobenius distance between rank-one projectors uu^T and vv^T.

    Equals 2 (1 - (u . v)^2) for unit vectors, invariant to the sign of
    either vector; 0 iff u = +-v, maximum 2 at orthogonality.
    """
    uu = np.asarray(u, dtype=np.float64)
    vv = np.asarray(v, dtype=np.float64)
    if uu.shape != vv.shape or uu.ndim != 1:
        raise ValueError("u and v must be 1-d arrays of equal length")
    for name, vec in (("u", uu), ("v", vv)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-8:
            raise ValueError(f"{name} must be a unit vector (within 1e-8)")
    dot = float(uu @ vv)
    return max(0.0, 2.0 * (1.0 - dot * dot))
