"""Hypothesis tests built on the leading eigenpair of the rank matrix.

Under the null (all entries i.i.d. from one continuous law) the leading
eigenvalue of the rank matrix, centered at (n-1)/2 + 2 sigma_n^2 and scaled
by sigma_tilde = sigma_n^2 sqrt(8/n), is asymptotically standard normal, no
matter which continuous law generated the data. Latent block structure
inflates the eigenvalue, so large |T| is evidence against the null.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import special

from .ranking import TiePolicy, moments, rank_transform
from .spectra import leading_eigenpair
from .symmetric import SymmetricMatrix

# Two-sided 5% cutoff, pinned so reports do not drift with library versions.
Z_0025 = 1.9599639845

_ALTERNATIVES = ("two-sided", "greater")


def std_normal_cdf(x):
    """Standard normal CDF via erfc.

    Accepts scalars or arrays; absolute error below 1e-12 everywhere. erfc
    saturates in float64, so the result is exactly 0 below x = -37.68 and
    exactly 1 above x = 8.30.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = 0.5 * special.erfc(-arr / math.sqrt(2.0))
    return float(out) if arr.ndim == 0 else out


def eigenvalue_statistic(lambda1: float, n: int) -> float:
    """Standardize a leading eigenvalue: (lambda1 - centering) / sigma_tilde."""
    if n < 3:
        raise ValueError("the statistic needs n >= 3 (the scale is 0 at n=2)")
    m = moments(n)
    return (lambda1 - m.centering) / m.sigma_tilde


def eigenvector_statistic(uhat: np.ndarray, n: int) -> float:
    """Standardized alignment of the leading eigenvector with the constant vector.

    For the sign-fixed unit eigenvector uhat, the overlap u1 . uhat with
    u1 = n^{-1/2} (1, ..., 1) concentrates at 1 - 1/(6n) under the null;
    the statistic n (u1 . uhat - 1 + 1/(6n)) / sigma_tilde is asymptotically
    standard normal.
    """
    if n < 3:
        raise ValueError("the statistic needs n >= 3 (the scale is 0 at n=2)")
    vec = np.asarray(uhat, dtype=np.float64)
    if vec.shape != (n,):
        raise ValueError(f"expected a vector of shape ({n},), got {vec.shape}")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-8:
        raise ValueError("uhat must be a unit vector (within 1e-8)")
    total = float(vec.sum())
    if total <= 0.0:
        raise ValueError("uhat must be sign-fixed: component sum > 0")
    overlap = total / math.sqrt(n)
    m = moments(n)
    return n * (overlap - 1.0 + 1.0 / (6.0 * n)) / m.sigma_tilde


@dataclass(frozen=True)
class TestResult:
    """Outcome of the eigenvalue test on one data matrix.

    ``u1_dot_uhat`` is the overlap of the leading eigenvector with the
    constant unit vector; near 1 under the null, visibly smaller under
    block structure.
    """

    __test__ = False  # not a test case, despite the name

    n: int
    lambda1: float
    t_stat: float
    p_value: float
    alpha: float
    reject: bool
    sigma_sq: float
    sigma_tilde: float
    centering: float
    u1_dot_uhat: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def run_test(
    matrix: SymmetricMatrix,
    alpha: float = 0.05,
    policy: TiePolicy | None = None,
    alternative: str = "two-sided",
) -> TestResult:
    """Rank-transform ``matrix`` and test for latent structure.

    Parameters
    ----------
    matrix : SymmetricMatrix
        Hollow symmetric data matrix, n >= 3.
    alpha : float
        Level in (0, 1); default 0.05.
    policy : TiePolicy, optional
        Tie handling for the rank transform; defaults to ``error``, the
        right choice for user data (simulation pipelines pass a seeded
        ``random`` policy).
    alternative : str
        ``two-sided`` (default) or ``greater``. Spiked alternatives push
        the statistic to the right, so ``greater`` buys power when a
        directional alternative is defensible.

    Returns
    -------
    TestResult
        With ``reject == (p_value < alpha)``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if alternative not in _ALTERNATIVES:
        raise ValueError(f"alternative must be one of {_ALTERNATIVES}, got {alternative!r}")
    if matrix.n < 3:
        raise ValueError("the test needs n >= 3")
    ranked = rank_transform(matrix, policy)
    pair = leading_eigenpair(ranked)
    n = matrix.n
    m = moments(n)
    t_stat = eigenvalue_statistic(pair.value, n)
    if alternative == "two-sided":
        p_value = 2.0 * (1.0 - std_normal_cdf(abs(t_stat)))
    else:
        p_value = 1.0 - std_normal_cdf(t_stat)
    overlap = float(pair.vector.sum()) / math.sqrt(n)
    return TestResult(
        n=n,
        lambda1=pair.value,
        t_stat=t_stat,
        p_value=p_value,
        alpha=alpha,
        reject=bool(p_value < alpha),
        sigma_sq=m.sigma_sq,
        sigma_tilde=m.sigma_tilde,
        centering=m.centering,
        u1_dot_uhat=overlap,
    )
