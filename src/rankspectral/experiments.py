"""Seeded Monte Carlo experiments over the rank-matrix test.

Every experiment is its own input checks, a per-replicate ``worker(i)`` and
its own summary over one shared path: replicate i draws from a stream seeded
by ``derive_seed(master_seed, i)``, workers write into index-i slots, the
slots become named float64 columns in index order, and one builder times the
run, writes the optional per-replicate CSV and assembles the report.
Reports therefore depend only on the arguments, never on thread count or
scheduling; ``threads`` and wall time are execution details and stay out of
the config echo.

``threads=k`` runs k replicates at once: on Linux in min(k, count) processes
forked by :func:`rankspectral.forked.forked`, worker i mod k running replicate
i; off Linux or beside another thread of Python's, in k threads of this process.

Replicate counts for the canned reproduction targets follow the source
protocols: 400 for the rejection-rate tables, 2000 for the QQ figures, 3000
for the variance-transition table. ``scale`` shrinks them proportionally for
cheap runs, and the effective counts are echoed in every report.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .inference import eigenvalue_statistic, eigenvector_statistic, run_test, std_normal_cdf
from .models import (
    Normal,
    Uniform,
    checked_k,
    parse_distribution,
    sample_homogeneous,
    sample_interpolated_rank,
    sample_planted_submatrix,
    sample_two_block,
)
from .ranking import RankMatrix, TiePolicy, rank_transform, whiten
from .rng import derive_seed
from .spectra import (
    esd_from_eigenvalues,
    full_spectrum,
    ks_distance,
    leading_eigenpair,
    subspace_distance_sq,
    ESDSummary,
)
from .symmetric import SymmetricMatrix, diagonal_slots

TABLE_REPLICATES = 400
QQ_REPLICATES = 2000
VARIANCE_REPLICATES = 3000

_EXPERIMENTS = ("homogeneous", "two_block", "planted")

_FIELD_TYPES = (
    ("n", int, "an int"),
    ("replicates", int, "an int"),
    ("master_seed", int, "an int"),
    ("threads", int, "an int"),
    ("n1", int, "an int"),
    ("alpha", (int, float), "a real number"),
    ("f1", str, "a string"),
    ("f2", str, "a string"),
)


class ExperimentError(RuntimeError):
    """A replicate failed; the message carries the replicate index."""


@dataclass
class ExperimentConfig:
    """Parameters of a rejection-rate experiment.

    ``f1`` and ``f2`` are distribution spec strings (see
    :func:`rankspectral.models.parse_distribution`); ``f2`` and ``n1`` apply
    to the two_block and planted models as in their samplers. ``threads`` is
    the number of replicates run at once (see the module docstring) and is
    deliberately not part of the config echo.
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
        # A JSON config can hold any type; refuse a wrong one before it is used.
        for name, kinds, what in _FIELD_TYPES:
            value = getattr(self, name)
            if value is None and name in ("f1", "f2", "n1"):
                continue  # checked below where the experiment needs it
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        _check_sizes(self.n, self.replicates)
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
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        names = {f.name: f.default for f in fields(cls)}
        unknown = set(data) - set(names)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {name for name, default in names.items() if default is MISSING} - set(data)
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


def _annotated(worker: Callable[[int], tuple], i: int) -> tuple:
    try:
        return worker(i)
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(f"replicate {i} failed: {exc}") from exc


def _share(worker: Callable[[int], tuple], indices: range) -> list:
    """The results of ``worker`` at ``indices`` in order, up to its first error, returned last."""
    rows = []
    for i in indices:
        try:
            rows.append(_annotated(worker, i))
        except ExperimentError as exc:
            return rows + [exc]
    return rows


def _run_indexed(worker: Callable[[int], tuple], count: int, threads: int) -> list[tuple]:
    """Evaluate worker(0..count-1), results in index order, errors annotated.

    ``threads`` > 1 runs as the module docstring says; the lowest failing
    replicate's error is raised, and a worker process that dies, say killed
    for memory, is an :class:`ExperimentError`, not a hang. ``threads`` < 1
    is refused before any replicate runs.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        return [_annotated(worker, i) for i in range(count)]
    from .forked import forked, may_fork  # deferred: a serial run never loads it

    if not may_fork():
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda i: _annotated(worker, i), range(count)))
    k = min(threads, count)
    # Forked workers inherit the replicate closure, which cannot be pickled.
    tasks = [functools.partial(_share, worker, range(w, count, k)) for w in range(k)]
    rows = []
    try:
        with forked(tasks) as received:
            for i in range(count):
                rows.append(next(received[i % k]))
                if isinstance(rows[-1], ExperimentError):
                    raise rows[-1]
    except ChildProcessError as exc:
        raise ExperimentError(f"a replicate worker process died: {exc}") from exc
    return rows


def _replicate_columns(
    names: Sequence[str], worker: Callable[[int], tuple], count: int, threads: int
) -> dict[str, np.ndarray]:
    """Replicates 0..count-1 of ``worker`` as one float64 column per name."""
    rows = _run_indexed(worker, count, threads)
    return {
        name: np.array([row[c] for row in rows], dtype=np.float64)
        for c, name in enumerate(names)
    }


def _report(
    config: dict,
    summary: dict,
    arrays: dict[str, np.ndarray],
    start: float,
    dump_path: str | Path | None = None,
) -> ExperimentReport:
    """Report timed from ``start``; first writes ``replicate,<arrays>`` CSV to ``dump_path``."""
    if dump_path is not None:
        count = len(next(iter(arrays.values())))
        write_csv(
            dump_path,
            ["replicate", *arrays],
            [np.arange(count, dtype=np.float64), *arrays.values()],
        )
    return ExperimentReport(
        config=config,
        summary=summary,
        elapsed_s=time.perf_counter() - start,
        replicates_path=None if dump_path is None else str(dump_path),
        arrays=arrays,
    )


def _check_sizes(n: int, replicates: int) -> None:
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")


def _ranked_null(n: int, seed_r: int) -> RankMatrix:
    """The Uniform(0, 1) null drawn from ``seed_r``, ranked with ties broken from (seed_r, 1)."""
    matrix = sample_homogeneous(n, Uniform(0.0, 1.0), seed_r)
    return rank_transform(matrix, TiePolicy.random(derive_seed(seed_r, 1)))


def moment_summary(values: np.ndarray) -> dict:
    """Count, mean, variance, skewness and KS distance to N(0, 1) of ``values``."""
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
        "ks_to_normal": ks_distance(std_normal_cdf(np.sort(vals))),
    }


def normal_qq_points(values: np.ndarray) -> list[list[float]]:
    """(empirical quantile, standard normal quantile) pairs at percentiles 1..99."""
    probs = np.arange(1, 100) / 100.0
    empirical = np.quantile(np.asarray(values, dtype=np.float64), probs)
    theoretical = special.ndtri(probs)
    return [[float(e), float(t)] for e, t in zip(empirical, theoretical)]


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write columns as CSV; integral floats are written as integers."""
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


def write_histogram_csv(path: str | Path, summary: ESDSummary) -> None:
    """The spectral histogram as ``bin_left,bin_right,mass`` rows."""
    edges = summary.bin_edges
    write_csv(path, ["bin_left", "bin_right", "mass"], [edges[:-1], edges[1:], summary.masses])


def write_qq_csv(path: str | Path, values: np.ndarray) -> None:
    """Normal QQ points of ``values`` as ``percentile,empirical_quantile,normal_quantile``."""
    qq = normal_qq_points(values)
    write_csv(
        path,
        ["percentile", "empirical_quantile", "normal_quantile"],
        [np.arange(1, 100, dtype=np.float64), [p[0] for p in qq], [p[1] for p in qq]],
    )


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
    n = config.n
    f1 = parse_distribution(config.f1)
    f2 = parse_distribution(config.f2) if config.f2 is not None else None

    def worker(i: int) -> tuple:
        seed_r = derive_seed(config.master_seed, i)
        if config.experiment == "homogeneous":
            matrix = sample_homogeneous(n, f1, seed_r)
        elif config.experiment == "two_block":
            matrix, _ = sample_two_block(n, f1, f2, seed_r)
        else:
            matrix, _ = sample_planted_submatrix(n, config.n1, f1, f2, seed_r)
        policy = TiePolicy.random(derive_seed(seed_r, 1))
        res = run_test(matrix, alpha=config.alpha, policy=policy)
        return res.t_stat, res.p_value, 1.0 if res.reject else 0.0, res.u1_dot_uhat

    arrays = _replicate_columns(
        ("t_stat", "p_value", "reject", "u1_dot_uhat"), worker, config.replicates, config.threads
    )
    rejections = int(arrays["reject"].sum())
    summary = {
        "rejections": rejections,
        "rejection_rate": rejections / config.replicates,
        "t_stat": moment_summary(arrays["t_stat"]),
    }
    return _report(config.to_dict(), summary, arrays, start, dump_path)


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
    _check_sizes(n, replicates)
    start = time.perf_counter()

    def worker(i: int) -> tuple:
        pair = leading_eigenpair(_ranked_null(n, derive_seed(seed, i)))
        return (
            pair.value,
            eigenvalue_statistic(pair.value, n),
            eigenvector_statistic(pair.vector, n),
        )

    arrays = _replicate_columns(
        ("lambda1", "eigenvalue_stat", "eigenvector_stat"), worker, replicates, threads
    )
    chosen = arrays[f"{which}_stat"]
    summary = {"which": which, **moment_summary(chosen), "qq": normal_qq_points(chosen)}
    config = {
        "experiment": "null_distribution",
        "n": n,
        "replicates": replicates,
        "which": which,
        "master_seed": seed,
    }
    return _report(config, summary, arrays, start, dump_path)


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
    _check_sizes(n, replicates)
    k_values = [checked_k(n, k) for k in k_list]
    if not k_values:
        raise ValueError("k_list must be nonempty")
    start = time.perf_counter()

    def worker(i: int) -> tuple:
        k = k_values[i // replicates]
        matrix = sample_interpolated_rank(n, k, derive_seed(seed, i))
        return (leading_eigenpair(matrix).value,)

    flat = _replicate_columns(("lambda1",), worker, len(k_values) * replicates, threads)
    lambda1 = flat["lambda1"].reshape(len(k_values), replicates)
    labels = ["inf" if math.isinf(k) else k for k in k_values]
    rows = [
        {
            "k": label,
            "mean_lambda1": float(cell.mean()),
            "var_lambda1": float(cell.var(ddof=1)),
        }
        for label, cell in zip(labels, lambda1)
    ]
    config = {
        "experiment": "variance_transition",
        "n": n,
        "k_list": labels,
        "replicates": replicates,
        "master_seed": seed,
    }
    return _report(config, {"rows": rows}, {"lambda1": lambda1}, start)


def semicircle_experiment(n: int, bins: int, seed: int) -> tuple[ESDSummary, ExperimentReport]:
    """One whitened realization: spectral histogram and scaled operator norm."""
    start = time.perf_counter()
    matrix = sample_homogeneous(n, Uniform(0.0, 1.0), derive_seed(seed, 0))
    ranked = rank_transform(matrix, TiePolicy.random(derive_seed(seed, 1)))
    scaled = full_spectrum(whiten(ranked)) / math.sqrt(n)
    summary = esd_from_eigenvalues(scaled, bins)
    edge = max(abs(float(scaled[0])), abs(float(scaled[-1])))
    report = _report(
        config={"experiment": "semicircle", "n": n, "bins": bins, "master_seed": seed},
        summary={
            "ks_to_semicircle": summary.ks_to_semicircle,
            "scaled_operator_norm": edge,
        },
        arrays={
            "scaled_eigenvalues": scaled,
            "bin_edges": summary.bin_edges,
            "masses": summary.masses,
        },
        start=start,
    )
    return summary, report


def operator_norm_tail_experiment(
    n: int, replicates: int, seed: int, threads: int = 1
) -> ExperimentReport:
    """Frequency of ||R - E R|| >= 6 sqrt(n) over H0 replicates.

    The centered rank matrix has no spiked eigenvalue, which is the worst
    case for power iteration, so each norm is read off the dense spectrum
    instead (max |eigenvalue|).
    """
    _check_sizes(n, replicates)
    start = time.perf_counter()
    threshold = 6.0 * math.sqrt(n)

    def worker(i: int) -> tuple:
        centered = _ranked_null(n, derive_seed(seed, i)).blas - 0.5
        centered[diagonal_slots(n)] = 0.0
        eigs = full_spectrum(SymmetricMatrix.adopt(n, centered))
        return (max(abs(float(eigs[0])), abs(float(eigs[-1]))),)

    arrays = _replicate_columns(("norm",), worker, replicates, threads)
    norms = arrays["norm"]
    exceedances = int(np.count_nonzero(norms >= threshold))
    summary = {
        "threshold": threshold,
        "exceedances": exceedances,
        "frequency": exceedances / replicates,
        "max_norm": float(norms.max()),
        "max_norm_over_sqrt_n": float(norms.max()) / math.sqrt(n),
    }
    config = {
        "experiment": "operator_norm_tail",
        "n": n,
        "replicates": replicates,
        "master_seed": seed,
    }
    return _report(config, summary, arrays, start)


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
    _check_sizes(n, replicates)
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

    arrays = _replicate_columns(
        ("lambda1", "fk_stat", "eigenvector_stat"), worker, replicates, threads
    )
    fk_stat, vec_stat = arrays["fk_stat"], arrays["eigenvector_stat"]
    summary = {
        "fk_statistic": {**moment_summary(fk_stat), "qq": normal_qq_points(fk_stat)},
        "eigenvector_statistic": {
            **moment_summary(vec_stat),
            "qq": normal_qq_points(vec_stat),
        },
        "mean_lambda1_over_n": float(arrays["lambda1"].mean()) / n,
    }
    config = {
        "experiment": "fk_comparison",
        "n": n,
        "replicates": replicates,
        "master_seed": seed,
    }
    return _report(config, summary, arrays, start)


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
    _check_sizes(n, replicates)
    start = time.perf_counter()
    dist = Normal(mu, sigma)
    u1 = np.full(n, 1.0 / math.sqrt(n))

    def worker(i: int) -> tuple:
        seed_r = derive_seed(seed, i)
        matrix = sample_homogeneous(n, dist, seed_r)
        # For mu < 0 the spike is the most negative eigenvalue: it is the
        # largest of -M, with the same line (0.0 - keeps the diagonal +0.0).
        raw = matrix if mu > 0 else SymmetricMatrix.adopt(n, 0.0 - matrix.blas)
        raw_pair = leading_eigenpair(raw)
        ranked = rank_transform(matrix, TiePolicy.random(derive_seed(seed_r, 1)))
        rank_pair = leading_eigenpair(ranked)
        return (
            subspace_distance_sq(raw_pair.vector, u1),
            subspace_distance_sq(rank_pair.vector, u1),
        )

    arrays = _replicate_columns(("dist_raw", "dist_rank"), worker, replicates, threads)
    mean_raw = float(arrays["dist_raw"].mean())
    mean_rank = float(arrays["dist_rank"].mean())
    summary = {
        "mean_dist_raw": mean_raw,
        "mean_dist_rank": mean_rank,
        "ratio": mean_rank / mean_raw,
        "limit": mu * mu / (3.0 * sigma * sigma),
    }
    config = {
        "experiment": "subspace_recovery_ratio",
        "n": n,
        "mu": mu,
        "sigma": sigma,
        "replicates": replicates,
        "master_seed": seed,
    }
    return _report(config, summary, arrays, start)


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
        pair = leading_eigenpair(_ranked_null(n, derive_seed(seed, i)))
        overlap = float(pair.vector.sum()) / math.sqrt(n)
        residual = abs(overlap - (-pair.value / (n - 1) + 1.5))
        return residual, overlap

    flat = _replicate_columns(("residual", "overlap"), worker, len(ns) * replicates, threads)
    arrays = {name: column.reshape(len(ns), replicates) for name, column in flat.items()}
    rows = [
        {
            "n": n,
            "median_residual": float(np.median(res)),
            "fraction_below_1e-4": float(np.count_nonzero(res < 1e-4)) / replicates,
            "min_overlap": float(ov.min()),
            "max_overlap": float(ov.max()),
        }
        for n, res, ov in zip(ns, arrays["residual"], arrays["overlap"])
    ]
    config = {
        "experiment": "eigen_relationship",
        "n_list": ns,
        "replicates": replicates,
        "master_seed": seed,
    }
    return _report(config, {"rows": rows}, arrays, start)
