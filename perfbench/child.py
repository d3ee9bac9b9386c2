"""Workload processes of the benchmark; run.py starts them, never imports them.

Usage: ``python perfbench/child.py <job> '<json params>'`` with ``src`` on
PYTHONPATH and BLAS pinned to one thread. The last stdout line is the job's
JSON result. Jobs:

- ``mc``: timed loop of experiment calls (mc_two_block, mc_interp).
- ``reference``: in-process ``run_test`` reports for the file_test inputs.
- ``load``: untraced ``load_matrix`` + ``run_test`` of one file, with the
  growth of peak RSS during the load.
- ``trace_file``, ``trace_mc``: the traced rebuild of a workload's pipeline.

Traced jobs call each layer's public functions single-threaded, in the order
the program calls them, with spans around the calls. They check that the
rebuilt pipeline reproduces the program's own results bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import inputs
from spans import Recorder, eigen_metrics, inference_self_s, kind_metrics
from rankspectral import (
    ExperimentConfig,
    MatrixSource,
    SymmetricMatrix,
    TiePolicy,
    derive_seed,
    leading_eigenpair,
    load_matrix,
    moments,
    rank_transform,
    rejection_rate_experiment,
    run_test,
    sample_interpolated_rank,
    sample_two_block,
    variance_transition_experiment,
)
from rankspectral.reproduce import table1_k_grid

# table2 row c: within-block normal(1,1), between-block normal(2,1).
TWO_BLOCK = ("normal(1,1)", "normal(2,1)")
# Within this many standard errors, a cell mean of lambda1 matches theory.
MEAN_TOLERANCE_SE = 6.0


def master_seed(seed: int, call: int) -> int:
    return seed * 100_003 + call


def k_labels(n: int) -> list[tuple[str, float]]:
    """table1's k grid with metric-safe labels (k0, kn, kn1.5, kN, kinf)."""
    return [("k" + label.replace("^", ""), k) for label, k in table1_k_grid(n)]


def run_experiment(workload: str, n: int, reps: int, master: int, threads: int):
    if workload == "mc_two_block":
        config = ExperimentConfig(
            experiment="two_block",
            n=n,
            replicates=reps,
            master_seed=master,
            f1=TWO_BLOCK[0],
            f2=TWO_BLOCK[1],
            threads=threads,
        )
        return rejection_rate_experiment(config)
    grid = [k for _, k in k_labels(n)]
    return variance_transition_experiment(n, grid, reps, master, threads=threads)


def matrices_done(workload: str, report) -> int:
    if workload == "mc_two_block":
        return report.config["replicates"]
    return report.config["replicates"] * len(report.config["k_list"])


def report_bytes(report) -> bytes:
    """The deterministic part of a report: its JSON and per-replicate arrays."""
    parts = [report.to_json(include_elapsed=False).encode()]
    for key in sorted(report.arrays):
        parts.append(key.encode())
        parts.append(np.ascontiguousarray(report.arrays[key]).tobytes())
    return b"\n".join(parts)


def check_report(workload: str, n: int, report) -> str | None:
    """None when the report passes its output check, else the reason."""
    if workload == "mc_two_block":
        rate = report.summary["rejection_rate"]
        return None if rate == 1.0 else f"rejection_rate {rate} != 1.0"
    reps = report.config["replicates"]
    lambda1 = report.arrays["lambda1"]
    m = moments(n)
    expected = {
        "k0": (m.centering, m.sigma_tilde),
        "kinf": ((n - 1) / 2.0 + 1.0 / 6.0, math.sqrt(1.0 / 6.0)),
    }
    for (label, _), cell in zip(k_labels(n), lambda1):
        if label in expected:
            centre, sd = expected[label]
            gap = abs(float(cell.mean()) - centre) / (sd / math.sqrt(reps))
            if gap > MEAN_TOLERANCE_SE:
                return f"{label} mean lambda1 {float(cell.mean())!r} is {gap:.1f} SE from {centre!r}"
    return None


def job_mc(p: dict) -> dict:
    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < p["seconds"]:
        master = master_seed(p["seed"], len(calls))
        t0 = time.perf_counter()
        try:
            report = run_experiment(p["workload"], p["n"], p["reps"], master, p["threads"])
        except Exception as exc:  # a failed operation is counted, not fatal
            calls.append({"ok": False, "why": f"{type(exc).__name__}: {exc}"})
            break
        wall = time.perf_counter() - t0
        problem = check_report(p["workload"], p["n"], report)
        calls.append(
            {
                "ok": problem is None,
                "why": problem,
                "wall_s": wall,
                "matrices": matrices_done(p["workload"], report),
                "sha256": hashlib.sha256(report_bytes(report)).hexdigest(),
            }
        )
    return {"calls": calls}


def file_policy(label: str, seed: int) -> TiePolicy:
    return TiePolicy.random(inputs.tie_seed(seed)) if label == "ties" else TiePolicy.error()


def cli_json(result) -> str:
    """What ``rankspectral test`` prints for a result."""
    return result.to_json(indent=2) + "\n"


def job_reference(p: dict) -> dict:
    n, seed = p["n"], p["seed"]
    continuous = SymmetricMatrix(n, inputs.continuous_values(n, seed))
    scores = SymmetricMatrix(n, inputs.score_values(n, seed))
    return {
        "continuous": cli_json(run_test(continuous, policy=file_policy("dense-csv", seed))),
        "ties": cli_json(run_test(scores, policy=file_policy("ties", seed))),
    }


def proc_status_mb(key: str) -> float:
    """VmRSS or VmHWM of this process, in MB.

    Unlike ru_maxrss, VmHWM starts afresh at exec instead of carrying over
    the parent's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1]) / 1024.0
    raise KeyError(key)


def job_load(p: dict) -> dict:
    before = proc_status_mb("VmRSS")
    t0 = time.perf_counter()
    matrix = load_matrix(MatrixSource(format=p["format"], path=p["path"]))
    t1 = time.perf_counter()
    growth = proc_status_mb("VmHWM") - before
    run_test(matrix, policy=file_policy(p["label"], p["seed"]))
    t2 = time.perf_counter()
    return {"load_s": t1 - t0, "run_test_s": t2 - t1, "rss_growth_mb": growth}


def peak_alloc_mb(fn, *args):
    """(result, peak traced allocation in MB) of one call under tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def decompose(rec: Recorder, op: str, matrix, policy, lambda1: float) -> str | None:
    """Rank, then eigensolve, as run_test does; check lambda1 bit for bit."""
    with rec.span("inference.decompose", op):
        with rec.span("ranking.rank_transform", op):
            ranked = rank_transform(matrix, policy)
        with rec.span("spectra.leading_eigenpair", op) as span:
            pair = leading_eigenpair(ranked)
            span.count = pair.iterations
    if pair.value != lambda1:
        return f"{op}: rebuilt lambda1 {pair.value!r} != run_test {lambda1!r}"
    return None


def job_trace_file(p: dict) -> dict:
    """One file_test input: load and run_test as the CLI does, then the split."""
    label, seed = p["label"], p["seed"]
    policy = file_policy(label, seed)
    rec = Recorder()
    with rec.span("file_test.call", label):
        with rec.span("symmetric.load_matrix", label):
            matrix = load_matrix(MatrixSource(format=p["format"], path=p["path"]))
        with rec.span("inference.run_test", label):
            result = run_test(matrix, policy=policy)
    problem = decompose(rec, label, matrix, policy, result.lambda1)
    # Memory pass, apart from the timing pass.
    ranked, rank_peak = peak_alloc_mb(rank_transform, matrix, policy)
    return {
        "spans": rec.rows(),
        "output": cli_json(result),
        "problems": [problem] if problem else [],
        "tied_entries": inputs.tied_entries(matrix.values),
        "rank_peak_mb": rank_peak,
        "eigen_peak_mb": peak_alloc_mb(leading_eigenpair, ranked)[1],
    }


def job_trace_mc(p: dict) -> dict:
    workload, n, reps = p["workload"], p["n"], p["reps"]
    master = master_seed(p["seed"], 0)
    problems = []
    # One untimed call first (the variance experiment needs 2 replicates), so
    # the threads=1 call and the rebuild both run with the allocator and lazy
    # imports already warm.
    run_experiment(workload, n, 1 if workload == "mc_two_block" else 2, master, 1)
    t0 = time.perf_counter()
    single = run_experiment(workload, n, reps, master, 1)
    single_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_experiment(workload, n, reps, master, p["threads"])
    parallel_s = time.perf_counter() - t0
    if report_bytes(single) != report_bytes(parallel):
        problems.append(f"threads=1 and threads={p['threads']} reports differ")
    for report in (single, parallel):
        problem = check_report(workload, n, report)
        if problem:
            problems.append(problem)
    matrices = matrices_done(workload, single)

    rec = Recorder()
    if workload == "mc_two_block":
        rebuilt, metrics = trace_two_block(rec, n, reps, master, problems)
    else:
        rebuilt, metrics = trace_interp(rec, n, reps, master)
    for key, values in rebuilt.items():
        if np.asarray(values, dtype=np.float64).tobytes() != single.arrays[key].tobytes():
            problems.append(f"rebuilt {key} differs from the experiment's array")
    layer_names = {"models.sample_two_block", "models.sample_interpolated_rank", "inference.run_test"}
    if workload == "mc_interp":
        layer_names.add("spectra.leading_eigenpair")
    layer_s = sum(s.end - s.start for s in rec.spans if s.name in layer_names)
    traced_s = sum(rec.durations("experiments.replicate"))
    single_rate = matrices / single_s
    metrics.update(
        {
            "experiments.replicates_per_s.threads1": single_rate,
            "experiments.scaling_efficiency": (matrices / parallel_s) / (p["threads"] * single_rate),
            "experiments.self_s": single_s - layer_s,
            "trace.overhead_s": traced_s - single_s,
        }
    )
    rec.write(Path(p["spans_path"]))
    return {
        "metrics": metrics,
        "problems": problems,
        "sha256": hashlib.sha256(report_bytes(single)).hexdigest(),
    }


def trace_two_block(rec: Recorder, n: int, reps: int, master: int, problems: list):
    """Replicate i as rejection_rate_experiment runs it, then run_test split into layers."""
    columns = {"t_stat": [], "p_value": [], "reject": [], "u1_dot_uhat": []}
    tied = 0
    for i in range(reps):
        op = f"rep{i}"
        seed_r = derive_seed(master, i)
        policy = TiePolicy.random(derive_seed(seed_r, 1))
        with rec.span("experiments.replicate", op):
            with rec.span("models.sample_two_block", op):
                matrix, _ = sample_two_block(n, TWO_BLOCK[0], TWO_BLOCK[1], seed_r)
            with rec.span("inference.run_test", op):
                res = run_test(matrix, alpha=0.05, policy=policy)
        columns["t_stat"].append(res.t_stat)
        columns["p_value"].append(res.p_value)
        columns["reject"].append(1.0 if res.reject else 0.0)
        columns["u1_dot_uhat"].append(res.u1_dot_uhat)
        tied += inputs.tied_entries(matrix.values)
        problem = decompose(rec, op, matrix, policy, res.lambda1)
        if problem:
            problems.append(problem)
    metrics = {
        "models.sample_two_block.s": rec.median("models.sample_two_block"),
        "ranking.tied_entries": tied,
        "inference.self_s": inference_self_s(rec),
        **kind_metrics(rec, n, "continuous"),
        **eigen_metrics(rec, n),
    }
    # Memory pass, apart from the timing pass: replicate 0's layer calls.
    seed_r = derive_seed(master, 0)
    (matrix, _), peak = peak_alloc_mb(sample_two_block, n, TWO_BLOCK[0], TWO_BLOCK[1], seed_r)
    metrics["models.sample_two_block.peak_alloc_mb"] = peak
    ranked, peak = peak_alloc_mb(rank_transform, matrix, TiePolicy.random(derive_seed(seed_r, 1)))
    metrics["ranking.rank_transform.peak_alloc_mb.continuous"] = peak
    metrics["spectra.leading_eigenpair.peak_alloc_mb"] = peak_alloc_mb(leading_eigenpair, ranked)[1]
    return columns, metrics


def trace_interp(rec: Recorder, n: int, reps: int, master: int):
    """Matrix i of variance_transition_experiment: cell i // reps, stream i."""
    grid = k_labels(n)
    lambda1 = []
    for i in range(len(grid) * reps):
        label, k = grid[i // reps]
        op = f"{label}/rep{i % reps}"
        with rec.span("experiments.replicate", op):
            with rec.span("models.sample_interpolated_rank", op):
                matrix = sample_interpolated_rank(n, k, derive_seed(master, i))
            with rec.span("spectra.leading_eigenpair", op) as span:
                pair = leading_eigenpair(matrix)
                span.count = pair.iterations
        lambda1.append(pair.value)
    metrics = eigen_metrics(rec, n)
    for label, _ in grid:
        ops = {s.op for s in rec.spans if s.op.startswith(label + "/")}
        metrics[f"models.sample_interpolated_rank.s.{label}"] = rec.median(
            "models.sample_interpolated_rank", ops
        )
    # Memory pass: the eigensolve of the first k=0 matrix.
    matrix = sample_interpolated_rank(n, grid[0][1], derive_seed(master, 0))
    metrics["spectra.leading_eigenpair.peak_alloc_mb"] = peak_alloc_mb(leading_eigenpair, matrix)[1]
    return {"lambda1": lambda1}, metrics


JOBS = {
    "mc": job_mc,
    "reference": job_reference,
    "load": job_load,
    "trace_file": job_trace_file,
    "trace_mc": job_trace_mc,
}


if __name__ == "__main__":
    job, params = sys.argv[1], json.loads(sys.argv[2])
    sys.stdout.write(json.dumps(JOBS[job](params)) + "\n")
