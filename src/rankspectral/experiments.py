"""Seeded Monte Carlo experiments over the rank-matrix test.

Every experiment follows the same pattern: replicate i draws from a stream
seeded by ``derive_seed(master_seed, i)``, workers write into index-i slots
of preallocated buffers, and summaries reduce those buffers in index order.
Reports therefore depend only on the arguments, never on thread count or
scheduling; ``threads`` and wall time are execution details and stay out of
the config echo.

Replicate counts for the canned reproduction targets follow the source
protocols: 400 for the rejection-rate tables, 2000 for the QQ figures, 3000
for the variance-transition table. ``scale`` shrinks them proportionally for
cheap runs, and the effective counts are echoed in every report.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .inference import eigenvalue_statistic, eigenvector_statistic, run_test
from .models import (
    Normal,
    Uniform,
    parse_distribution,
    sample_homogeneous,
    sample_interpolated_rank,
    sample_planted_submatrix,
    sample_two_block,
)
from .ranking import TiePolicy, rank_transform, whiten
from .rng import derive_seed
from .spectra import (
    esd_from_eigenvalues,
    full_spectrum,
    leading_eigenpair,
    subspace_distance_sq,
    ESDSummary,
)
from .symmetric import SymmetricMatrix

TABLE_REPLICATES = 400
QQ_REPLICATES = 2000
VARIANCE_REPLICATES = 3000

_EXPERIMENTS = ("homogeneous", "two_block", "planted")


class ExperimentError(RuntimeError):
    """A replicate failed; the message carries the replicate index."""


@dataclass
class ExperimentConfig:
    """Parameters of a rejection-rate experiment.

    ``f1`` and ``f2`` are distribution spec strings (see
    :func:`rankspectral.models.parse_distribution`); ``f2`` and ``n1`` apply
    to the two_block and planted models as in their samplers. ``threads``
    caps the worker pool and is deliberately not part of the config echo.
    """

    experiment: str
    n: int
    replicates: int
    master_seed: int
    alpha: float = 0.05
    f1: str | None = None
    f2: str | None = None
    n1: int | None = None
    threads: int = 1

    def validate(self) -> None:
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(
                f"experiment must be one of {_EXPERIMENTS}, got {self.experiment!r}"
            )
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.f1 is None:
            raise ValueError("f1 is required")
        parse_distribution(self.f1)
        if self.experiment in ("two_block", "planted"):
            if self.f2 is None:
                raise ValueError(f"f2 is required for {self.experiment}")
            parse_distribution(self.f2)
        if self.experiment == "planted":
            if self.n1 is None:
                raise ValueError("n1 is required for planted")
            if not 1 <= self.n1 <= self.n:
                raise ValueError(f"need 1 <= n1 <= n, got n1={self.n1}, n={self.n}")

    def to_dict(self) -> dict:
        out: dict = {
            "experiment": self.experiment,
            "n": self.n,
            "replicates": self.replicates,
            "alpha": self.alpha,
            "master_seed": self.master_seed,
            "f1": self.f1,
        }
        if self.f2 is not None:
            out["f2"] = self.f2
        if self.n1 is not None:
            out["n1"] = self.n1
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {
            "experiment",
            "n",
            "replicates",
            "master_seed",
            "alpha",
            "f1",
            "f2",
            "n1",
            "threads",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {"experiment", "n", "replicates", "master_seed"} - set(data)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


@dataclass
class ExperimentReport:
    """Config echo, summary, and (in memory) the per-replicate arrays.

    ``arrays`` never enters the JSON form; ``replicates_path`` points at the
    optional CSV dump, from which every summary number is recomputable.
    """

    config: dict
    summary: dict
    elapsed_s: float
    replicates_path: str | None = None
    arrays: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out: dict = {"config": self.config, "summary": self.summary}
        if self.replicates_path is not None:
            out["replicates_path"] = self.replicates_path
        if include_elapsed:
            out["elapsed_s"] = self.elapsed_s
        return out

    def to_json(self, indent: int | None = 2, include_elapsed: bool = True) -> str:
        return json.dumps(self.to_dict(include_elapsed=include_elapsed), indent=indent)

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")


def _run_indexed(worker: Callable[[int], tuple], count: int, threads: int) -> list[tuple]:
    """Evaluate worker(0..count-1), results in index order, errors annotated."""

    def guarded(i: int) -> tuple:
        try:
            return worker(i)
        except ExperimentError:
            raise
        except Exception as exc:
            raise ExperimentError(f"replicate {i} failed: {exc}") from exc

    results: list[tuple] = [()] * count
    if threads <= 1:
        for i in range(count):
            results[i] = guarded(i)
        return results
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {pool.submit(guarded, i): i for i in range(count)}
        for future, i in futures.items():
            results[i] = future.result()
    return results


def _columns(results: list[tuple]) -> list[np.ndarray]:
    width = len(results[0])
    return [np.array([row[c] for row in results], dtype=np.float64) for c in range(width)]


def _ks_to_standard_normal(values: np.ndarray) -> float:
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.shape[0]
    cdf = 0.5 * special.erfc(-ordered / math.sqrt(2.0))
    grid = np.arange(n, dtype=np.float64)
    return max(float(np.max(cdf - grid / n)), float(np.max((grid + 1.0) / n - cdf)))


def _moment_summary(values: np.ndarray) -> dict:
    vals = np.asarray(values, dtype=np.float64)
    mean = float(vals.mean())
    variance = float(vals.var(ddof=1)) if vals.shape[0] > 1 else 0.0
    spread = math.sqrt(variance)
    if vals.shape[0] > 2 and spread > 1e-12 * max(1.0, abs(mean)):
        from scipy import stats  # deferred: ~0.5 s of import nothing else needs

        skewness = float(stats.skew(vals, bias=False))
    else:
        skewness = 0.0  # constant up to rounding: define rather than warn
    return {
        "count": int(vals.shape[0]),
        "mean": mean,
        "variance": variance,
        "skewness": skewness,
        "ks_to_normal": _ks_to_standard_normal(vals),
    }


def normal_qq_points(values: np.ndarray) -> list[list[float]]:
    """(empirical quantile, standard normal quantile) pairs at percentiles 1..99."""
    probs = np.arange(1, 100) / 100.0
    empirical = np.quantile(np.asarray(values, dtype=np.float64), probs)
    theoretical = special.ndtri(probs)
    return [[float(e), float(t)] for e, t in zip(empirical, theoretical)]


def _write_csv(path: str | Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_csv_cell(x) for x in row])


def _csv_cell(x) -> str:
    if isinstance(x, str):
        return x
    f = float(x)
    return repr(int(f)) if f.is_integer() and abs(f) < 2**53 else repr(f)


def rejection_rate_experiment(
    config: ExperimentConfig, dump_path: str | Path | None = None
) -> ExperimentReport:
    """Fraction of replicates rejected by :func:`run_test` under ``config``.

    Each replicate samples its model, rank-transforms with a seeded random
    tie policy (continuous entries tie only through float collisions, but a
    collision must not abort a run), and applies the two-sided level-alpha
    test.
    """
    config.validate()
    start = time.perf_counter()
    n, alpha = config.n, config.alpha
    f1 = parse_distribution(config.f1)
    f2 = parse_distribution(config.f2) if config.f2 is not None else None
    experiment = config.experiment
    n1 = config.n1

    def worker(i: int) -> tuple:
        seed_r = derive_seed(config.master_seed, i)
        if experiment == "homogeneous":
            matrix = sample_homogeneous(n, f1, seed_r)
        elif experiment == "two_block":
            matrix, _ = sample_two_block(n, f1, f2, seed_r)
        else:
            matrix, _ = sample_planted_submatrix(n, n1, f1, f2, seed_r)
        res = run_test(matrix, alpha=alpha, policy=TiePolicy.random(derive_seed(seed_r, 1)))
        return res.t_stat, res.p_value, 1.0 if res.reject else 0.0, res.u1_dot_uhat

    t_stat, p_value, rejected, overlap = _columns(
        _run_indexed(worker, config.replicates, config.threads)
    )
    arrays = {
        "t_stat": t_stat,
        "p_value": p_value,
        "reject": rejected,
        "u1_dot_uhat": overlap,
    }
    rejections = int(rejected.sum())
    summary = {
        "rejections": rejections,
        "rejection_rate": rejections / config.replicates,
        "t_stat": _moment_summary(t_stat),
    }
    replicates_path = None
    if dump_path is not None:
        index = np.arange(config.replicates, dtype=np.float64)
        _write_csv(
            dump_path,
            ["replicate", "t_stat", "p_value", "reject", "u1_dot_uhat"],
            [index, t_stat, p_value, rejected, overlap],
        )
        replicates_path = str(dump_path)
    return ExperimentReport(
        config=config.to_dict(),
        summary=summary,
        elapsed_s=time.perf_counter() - start,
        replicates_path=replicates_path,
        arrays=arrays,
    )


def null_distribution_experiment(
    n: int,
    replicates: int,
    seed: int,
    which: str = "eigenvalue",
    threads: int = 1,
    dump_path: str | Path | None = None,
) -> ExperimentReport:
    """Null sampling distribution of the standardized eigenvalue or eigenvector statistic.

    Replicates draw the homogeneous Uniform(0, 1) model; by distribution-
    freeness the resulting statistics have the same law for every continuous
    entry distribution. Both statistics come from the same eigenpair, so the
    arrays carry both; ``which`` selects the one summarized (moments, KS
    distance to standard normal, QQ pairs at percentiles 1..99).
    """
    if which not in ("eigenvalue", "eigenvector"):
        raise ValueError(f"which must be 'eigenvalue' or 'eigenvector', got {which!r}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    start = time.perf_counter()

    def worker(i: int) -> tuple:
        seed_r = derive_seed(seed, i)
        matrix = sample_homogeneous(n, Uniform(0.0, 1.0), seed_r)
        ranked = rank_transform(matrix, TiePolicy.random(derive_seed(seed_r, 1)))
        pair = leading_eigenpair(ranked)
        return (
            pair.value,
            eigenvalue_statistic(pair.value, n),
            eigenvector_statistic(pair.vector, n),
        )

    lambda1, t_stat, vec_stat = _columns(_run_indexed(worker, replicates, threads))
    chosen = t_stat if which == "eigenvalue" else vec_stat
    summary = {
        "which": which,
        **_moment_summary(chosen),
        "qq": normal_qq_points(chosen),
    }
    replicates_path = None
    if dump_path is not None:
        index = np.arange(replicates, dtype=np.float64)
        _write_csv(
            dump_path,
            ["replicate", "lambda1", "eigenvalue_stat", "eigenvector_stat"],
            [index, lambda1, t_stat, vec_stat],
        )
        replicates_path = str(dump_path)
    return ExperimentReport(
        config={
            "experiment": "null_distribution",
            "n": n,
            "replicates": replicates,
            "which": which,
            "master_seed": seed,
        },
        summary=summary,
        elapsed_s=time.perf_counter() - start,
        replicates_path=replicates_path,
        arrays={"lambda1": lambda1, "eigenvalue_stat": t_stat, "eigenvector_stat": vec_stat},
    )


def variance_transition_experiment(
    n: int,
    k_list: Sequence[float],
    replicates: int,
    seed: int,
    threads: int = 1,
) -> ExperimentReport:
    """Empirical variance of the leading eigenvalue across the k-interpolation.

    Stream index is cell * replicates + replicate with cells in ``k_list``
    order, so appending k values never perturbs existing cells.
    """
    if replicates < 2:
        raise ValueError(f"variance needs replicates >= 2, got {replicates}")
    k_values = list(k_list)
    if not k_values:
        raise ValueError("k_list must be nonempty")
    n_pairs = n * (n - 1) // 2
    for k in k_values:
        if not math.isinf(k) and (int(k) != k or k < 0 or k > 10 * n_pairs):
            raise ValueError(f"invalid k={k!r} for n={n}")
    start = time.perf_counter()

    def worker(i: int) -> tuple:
        k = k_values[i // replicates]
        matrix = sample_interpolated_rank(n, k, derive_seed(seed, i))
        return (leading_eigenpair(matrix).value,)

    (flat,) = _columns(_run_indexed(worker, len(k_values) * replicates, threads))
    lambda1 = flat.reshape(len(k_values), replicates)
    rows = [
        {
            "k": "inf" if math.isinf(k) else int(k),
            "mean_lambda1": float(cell.mean()),
            "var_lambda1": float(cell.var(ddof=1)),
        }
        for k, cell in zip(k_values, lambda1)
    ]
    return ExperimentReport(
        config={
            "experiment": "variance_transition",
            "n": n,
            "k_list": ["inf" if math.isinf(k) else int(k) for k in k_values],
            "replicates": replicates,
            "master_seed": seed,
        },
        summary={"rows": rows},
        elapsed_s=time.perf_counter() - start,
        arrays={"lambda1": lambda1},
    )


def semicircle_experiment(n: int, bins: int, seed: int) -> tuple[ESDSummary, ExperimentReport]:
    """One whitened realization: spectral histogram and scaled operator norm."""
    start = time.perf_counter()
    matrix = sample_homogeneous(n, Uniform(0.0, 1.0), derive_seed(seed, 0))
    ranked = rank_transform(matrix, TiePolicy.random(derive_seed(seed, 1)))
    eigs = full_spectrum(whiten(ranked))
    scaled = eigs / math.sqrt(n)
    summary = esd_from_eigenvalues(scaled, bins)
    edge = max(abs(float(scaled[0])), abs(float(scaled[-1])))
    report = ExperimentReport(
        config={"experiment": "semicircle", "n": n, "bins": bins, "master_seed": seed},
        summary={
            "ks_to_semicircle": summary.ks_to_semicircle,
            "scaled_operator_norm": edge,
        },
        elapsed_s=time.perf_counter() - start,
        arrays={
            "scaled_eigenvalues": scaled,
            "bin_edges": summary.bin_edges,
            "masses": summary.masses,
        },
    )
    return summary, report


def operator_norm_tail_experiment(
    n: int, replicates: int, seed: int, threads: int = 1
) -> ExperimentReport:
    """Frequency of ||R - E R|| >= 6 sqrt(n) over H0 replicates.

    The centered rank matrix has no spiked eigenvalue, which is the worst
    case for power iteration, so each norm is read off the dense spectrum
    instead (max |eigenvalue|); the two routes are verified to agree
    elsewhere to 1e-8.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    start = time.perf_counter()
    threshold = 6.0 * math.sqrt(n)

    def worker(i: int) -> tuple:
        seed_r = derive_seed(seed, i)
        matrix = sample_homogeneous(n, Uniform(0.0, 1.0), seed_r)
        ranked = rank_transform(matrix, TiePolicy.random(derive_seed(seed_r, 1)))
        centered = SymmetricMatrix(n, ranked.values - 0.5)
        eigs = full_spectrum(centered)
        return (max(abs(float(eigs[0])), abs(float(eigs[-1]))),)

    (norms,) = _columns(_run_indexed(worker, replicates, threads))
    exceedances = int(np.count_nonzero(norms >= threshold))
    return ExperimentReport(
        config={
            "experiment": "operator_norm_tail",
            "n": n,
            "replicates": replicates,
            "master_seed": seed,
        },
        summary={
            "threshold": threshold,
            "exceedances": exceedances,
            "frequency": exceedances / replicates,
            "max_norm": float(norms.max()),
            "max_norm_over_sqrt_n": float(norms.max()) / math.sqrt(n),
        },
        elapsed_s=time.perf_counter() - start,
        arrays={"norm": norms},
    )


def fk_comparison_experiment(
    n: int, replicates: int, seed: int, threads: int = 1
) -> ExperimentReport:
    """Leading-eigenpair fluctuations of the i.i.d. Uniform(0, 1) matrix.

    The eigenvalue statistic here is the classical independent-entry CLT
    standardization (lambda1 - (n-1)/2 - 1/6) / sqrt(1/6): constant-order
    fluctuation, against the O(n^{-1/2}) scale of the rank matrix. The
    eigenvector statistic uses the same standardization as the rank case,
    whose first-order asymptotics it shares.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    start = time.perf_counter()
    centering = (n - 1) / 2.0 + 1.0 / 6.0
    scale = math.sqrt(1.0 / 6.0)

    def worker(i: int) -> tuple:
        matrix = sample_homogeneous(n, Uniform(0.0, 1.0), derive_seed(seed, i))
        pair = leading_eigenpair(matrix)
        return (
            pair.value,
            (pair.value - centering) / scale,
            eigenvector_statistic(pair.vector, n),
        )

    lambda1, fk_stat, vec_stat = _columns(_run_indexed(worker, replicates, threads))
    summary = {
        "fk_statistic": {**_moment_summary(fk_stat), "qq": normal_qq_points(fk_stat)},
        "eigenvector_statistic": {
            **_moment_summary(vec_stat),
            "qq": normal_qq_points(vec_stat),
        },
        "mean_lambda1_over_n": float(lambda1.mean()) / n,
    }
    return ExperimentReport(
        config={
            "experiment": "fk_comparison",
            "n": n,
            "replicates": replicates,
            "master_seed": seed,
        },
        summary=summary,
        elapsed_s=time.perf_counter() - start,
        arrays={"lambda1": lambda1, "fk_stat": fk_stat, "eigenvector_stat": vec_stat},
    )


def subspace_recovery_ratio_experiment(
    n: int,
    mu: float,
    sigma: float,
    replicates: int,
    seed: int,
    threads: int = 1,
) -> ExperimentReport:
    """Mean squared projector distance to the constant direction: rank vs raw.

    Replicates draw homogeneous N(mu, sigma^2) matrices; the reported ratio
    mean_dist(rank) / mean_dist(raw) approaches mu^2 / (3 sigma^2), so the
    rank transform recovers the constant eigenvector better exactly when
    mu^2 < 3 sigma^2.
    """
    if mu == 0:
        raise ValueError("mu must be nonzero (no spike to recover at mu=0)")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    start = time.perf_counter()
    dist = Normal(mu, sigma)
    u1 = np.full(n, 1.0 / math.sqrt(n))

    def worker(i: int) -> tuple:
        seed_r = derive_seed(seed, i)
        matrix = sample_homogeneous(n, dist, seed_r)
        raw_pair = leading_eigenpair(matrix)
        ranked = rank_transform(matrix, TiePolicy.random(derive_seed(seed_r, 1)))
        rank_pair = leading_eigenpair(ranked)
        return (
            subspace_distance_sq(raw_pair.vector, u1),
            subspace_distance_sq(rank_pair.vector, u1),
        )

    raw_dist, rank_dist = _columns(_run_indexed(worker, replicates, threads))
    mean_raw = float(raw_dist.mean())
    mean_rank = float(rank_dist.mean())
    return ExperimentReport(
        config={
            "experiment": "subspace_recovery_ratio",
            "n": n,
            "mu": mu,
            "sigma": sigma,
            "replicates": replicates,
            "master_seed": seed,
        },
        summary={
            "mean_dist_raw": mean_raw,
            "mean_dist_rank": mean_rank,
            "ratio": mean_rank / mean_raw,
            "limit": mu * mu / (3.0 * sigma * sigma),
        },
        elapsed_s=time.perf_counter() - start,
        arrays={"dist_raw": raw_dist, "dist_rank": rank_dist},
    )


def eigen_relationship_experiment(
    n_list: Sequence[int],
    replicates: int,
    seed: int,
    threads: int = 1,
) -> ExperimentReport:
    """Residual of the overlap identity u1.uhat = -lambda1/(n-1) + 3/2 per n.

    The residual shrinks like n^{-2} under the null; the summary reports its
    median and the overlap range per dimension. Stream layout matches
    :func:`variance_transition_experiment`.
    """
    ns = [int(n) for n in n_list]
    if not ns or any(n < 3 for n in ns):
        raise ValueError(f"need a nonempty list of n >= 3, got {n_list!r}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    start = time.perf_counter()

    def worker(i: int) -> tuple:
        n = ns[i // replicates]
        seed_r = derive_seed(seed, i)
        matrix = sample_homogeneous(n, Uniform(0.0, 1.0), seed_r)
        ranked = rank_transform(matrix, TiePolicy.random(derive_seed(seed_r, 1)))
        pair = leading_eigenpair(ranked)
        overlap = float(pair.vector.sum()) / math.sqrt(n)
        residual = abs(overlap - (-pair.value / (n - 1) + 1.5))
        return residual, overlap

    residual_flat, overlap_flat = _columns(
        _run_indexed(worker, len(ns) * replicates, threads)
    )
    residual = residual_flat.reshape(len(ns), replicates)
    overlap = overlap_flat.reshape(len(ns), replicates)
    rows = [
        {
            "n": n,
            "median_residual": float(np.median(res)),
            "fraction_below_1e-4": float(np.count_nonzero(res < 1e-4)) / replicates,
            "min_overlap": float(ov.min()),
            "max_overlap": float(ov.max()),
        }
        for n, res, ov in zip(ns, residual, overlap)
    ]
    return ExperimentReport(
        config={
            "experiment": "eigen_relationship",
            "n_list": ns,
            "replicates": replicates,
            "master_seed": seed,
        },
        summary={"rows": rows},
        elapsed_s=time.perf_counter() - start,
        arrays={"residual": residual, "overlap": overlap},
    )
