#!/usr/bin/env python3
"""Benchmark of rankspectral's file-to-report CLI path and seeded Monte Carlo.

Run from the repository root:

    python3 perfbench/run.py --workload file_test --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Workloads (BENCHMARK.json records why each was chosen):

- ``file_test``: a closed loop with one client. Each call is
  ``python -m rankspectral.cli test <file>`` in a child process, over one
  weak-signal two-block matrix at n=2000 in the three text formats, plus a
  file of integer scores 0-99 run with ``--ties random``.
- ``mc_two_block``: ``rejection_rate_experiment`` on table2 row c at n=4000
  with threads=2, calls of 2 replicates (one per thread, so their memory
  peaks coincide) repeated for the run's seconds.
- ``mc_interp``: ``variance_transition_experiment`` over table1's k grid at
  n=2000 with threads=2, 2 replicates per cell per call.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median wall time of
fresh ``import rankspectral.cli`` processes), ``ops_per_s`` (CLI calls per
second on file_test, matrices per second on the mc workloads) and
``peak_rss_mb`` (the largest workload child). ``--trace 1`` rebuilds the
workload's pipeline from the layers' public functions, with spans around
each call, and prints the per-layer metrics; a layer the workload never calls
reports 0. The layers are the package modules cli, symmetric, ranking,
models, spectra, inference and experiments. ``rng`` is not one, as it costs
O(1) per replicate; neither is ``reproduce``, which only writes CSV and JSON
around the experiment calls the mc workloads measure.

Inputs are generated from ``--seed`` by the benchmark itself and cached in
``perfbench/.cache``. Workload children run with BLAS pinned to one thread,
so worker threads x BLAS threads stays within two cores. Every operation's
output is checked; the last stdout line is the result JSON and the line
before it holds the environment, sample counts and output digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import inputs  # noqa: E402  (after the pins: it imports numpy)
from spans import Recorder, eigen_metrics, inference_self_s, kind_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"

WORKLOADS = ("file_test", "mc_two_block", "mc_interp")
FT, TB, IN = WORKLOADS
THREADS = 2

SIZES = {
    "full": {
        "imports": 3,
        "file_test": {"n": 2000},
        "mc_two_block": {"n": 4000, "reps": 2, "trace_reps": 4},
        "mc_interp": {"n": 2000, "reps": 2, "trace_reps": 4},
    },
    "smoke": {
        "imports": 2,
        "file_test": {"n": 60},
        # n=1000 keeps |T| near 4.5, so every replicate still rejects.
        "mc_two_block": {"n": 1000, "reps": 2, "trace_reps": 2},
        "mc_interp": {"n": 60, "reps": 4, "trace_reps": 4},
    },
}

# name -> (unit, better, bound) of the metrics every --trace 0 run prints.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.2),
}

LAYERS = ("cli", "symmetric", "ranking", "models", "spectra", "inference", "experiments")
FILE_LABELS = tuple(label for label, _, _ in inputs.FILE_INPUTS)


def _per_layer() -> dict[str, tuple[str, str, tuple[str, ...]]]:
    """name -> (unit, better, workloads that call the layer) for --trace 1."""
    out = {f"{layer}.import_s": ("s", "lower", WORKLOADS) for layer in LAYERS}
    for label in FILE_LABELS:
        out[f"cli.test_s.{label}"] = ("s", "lower", (FT,))
        out[f"cli.overhead_s.{label}"] = ("s", "lower", (FT,))
    for label in FILE_LABELS:
        out[f"symmetric.load_matrix.s.{label}"] = ("s", "lower", (FT,))
        out[f"symmetric.load_matrix.mb_per_s.{label}"] = ("MB/s", "higher", (FT,))
        out[f"symmetric.load_matrix.peak_rss_growth_mb.{label}"] = ("MB", "lower", (FT,))
    for kind, where in (("continuous", (FT, TB)), ("ties", (FT,))):
        out[f"ranking.rank_transform.s.{kind}"] = ("s", "lower", where)
        out[f"ranking.rank_transform.ns_per_pair.{kind}"] = ("ns", "lower", where)
        out[f"ranking.rank_transform.peak_alloc_mb.{kind}"] = ("MB", "lower", where)
    out["ranking.tied_entries"] = ("count", "lower", (FT, TB))
    out["models.sample_two_block.s"] = ("s", "lower", (TB,))
    out["models.sample_two_block.peak_alloc_mb"] = ("MB", "lower", (TB,))
    for label in ("k0", "kn", "kn1.5", "kN", "kinf"):
        out[f"models.sample_interpolated_rank.s.{label}"] = ("s", "lower", (IN,))
    out["spectra.leading_eigenpair.s"] = ("s", "lower", WORKLOADS)
    out["spectra.leading_eigenpair.matvecs"] = ("count", "lower", WORKLOADS)
    out["spectra.leading_eigenpair.s_per_matvec"] = ("s", "lower", WORKLOADS)
    out["spectra.leading_eigenpair.gb_per_s_computed"] = ("GB/s", "higher", WORKLOADS)
    out["spectra.leading_eigenpair.peak_alloc_mb"] = ("MB", "lower", WORKLOADS)
    out["inference.run_test.s.continuous"] = ("s", "lower", (FT, TB))
    out["inference.run_test.s.ties"] = ("s", "lower", (FT,))
    out["inference.self_s"] = ("s", "lower", (FT, TB))
    out["experiments.replicates_per_s.threads1"] = ("1/s", "higher", (TB, IN))
    out["experiments.scaling_efficiency"] = ("ratio", "higher", (TB, IN))
    out["experiments.self_s"] = ("s", "lower", (TB, IN))
    out["trace.overhead_s"] = ("s", "lower", WORKLOADS)
    return out


PER_LAYER = _per_layer()


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)


@dataclass
class Exit:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def spawn(args: list[str], env: dict[str, str]) -> Exit:
    """Run a child to completion; wall time is from spawn to exit."""
    err_path = CACHE / "stderr.txt"
    with open(err_path, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Exit(proc.returncode, wall, usage.ru_maxrss / 1024.0, out.decode(), stderr)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_job(job: str, params: dict) -> tuple[dict, Exit]:
    done = spawn([sys.executable, str(HERE / "child.py"), job, json.dumps(params)], child_env())
    if done.code != 0:
        raise RuntimeError(f"{job} job exited with {done.code}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done


def import_processes(count: int, importtime: bool) -> tuple[list[float], dict[str, list[float]]]:
    """Walls of fresh ``import rankspectral.cli`` processes, after one warm-up.

    With ``importtime`` the processes run under ``-X importtime`` and the
    cumulative import time of each layer module is parsed from their stderr.
    """
    flags = ["-X", "importtime"] if importtime else []
    args = [sys.executable, *flags, "-c", "import rankspectral.cli"]
    env = child_env()
    spawn(args, env)  # compiles bytecode once, as an installed package would have
    walls, cumulative = [], {layer: [] for layer in LAYERS}
    for _ in range(count):
        done = spawn(args, env)
        if done.code != 0:
            raise RuntimeError(f"import failed: {done.stderr.strip()[-2000:]}")
        walls.append(done.wall_s)
        for line in done.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("rankspectral."):
                layer = parts[2].split(".", 1)[1]
                if layer in cumulative:
                    cumulative[layer].append(int(parts[1]) / 1e6)
    return walls, cumulative


def cli_call(label: str, fmt: str, path: Path, seed: int) -> Exit:
    args = [sys.executable, "-m", "rankspectral.cli", "test", str(path), "--format", fmt]
    if label == "ties":
        args += ["--ties", "random", "--seed", str(inputs.tie_seed(seed))]
    return spawn(args, child_env())


def check_cli(outcome: Outcome, label: str, done: Exit, expected: str) -> None:
    code = 10 if json.loads(expected)["reject"] else 0
    outcome.check(
        done.code == code and done.stdout == expected,
        f"{label}: exit {done.code} (expected {code}), report matches in-process run_test: "
        f"{done.stdout == expected}; stderr {done.stderr.strip()[-300:]!r}",
    )


def file_test(size: dict, seed: int, seconds: float, trace: bool, imports: int):
    n = size["n"]
    target, paths = inputs.file_paths(CACHE, n, seed)
    if not (target / "complete").exists():
        done = spawn([sys.executable, str(HERE / "inputs.py"), str(CACHE), str(n), str(seed)], dict(os.environ))
        if done.code != 0:
            raise RuntimeError(f"input generation failed: {done.stderr.strip()[-2000:]}")
    outcome = Outcome()
    walls, cumulative = import_processes(imports, importtime=trace)
    rounds: list[dict[str, Exit]] = []
    start = time.perf_counter()
    while not rounds or (not trace and time.perf_counter() - start < seconds):
        rounds.append(
            {label: cli_call(label, fmt, paths[label], seed) for label, fmt, _ in inputs.FILE_INPUTS}
        )
    reference, _ = run_job("reference", {"n": n, "seed": seed})
    for calls in rounds:
        for label, done in calls.items():
            check_cli(outcome, label, done, reference["ties" if label == "ties" else "continuous"])
    digest = hashlib.sha256(
        b"".join(f"{label}\n{done.code}\n{done.stdout}".encode() for label, done in rounds[0].items())
    ).hexdigest()
    detail = {"rounds": len(rounds), "import_processes": imports, "sha256": digest}
    if not trace:
        rates = [len(calls) / sum(done.wall_s for done in calls.values()) for calls in rounds]
        metrics = {
            "setup_s": statistics.median(walls),
            "ops_per_s": statistics.median(rates),
            "peak_rss_mb": max(done.maxrss_mb for calls in rounds for done in calls.values()),
        }
        detail.update(
            setup_walls_s=walls,
            test_s={label: [calls[label].wall_s for calls in rounds] for label in FILE_LABELS},
        )
        return outcome, metrics, detail

    # Per input, in fresh processes each: the untraced load (time and peak RSS
    # growth), then the traced rebuild. The CLI report must match bit for bit.
    cli = rounds[0]
    rec = Recorder()
    problems, traced, metrics, untraced_s = [], {}, {}, 0.0
    for label, fmt, _ in inputs.FILE_INPUTS:
        params = {"label": label, "format": fmt, "path": str(paths[label]), "seed": seed}
        untraced, _ = run_job("load", params)
        traced[label], _ = run_job("trace_file", params)
        rec.merge(traced[label]["spans"])
        problems += traced[label]["problems"]
        if traced[label]["output"] != cli[label].stdout:
            problems.append(f"{label}: rebuilt pipeline report differs from the CLI report")
        load_s = rec.duration("symmetric.load_matrix", label)
        run_s = rec.duration("inference.run_test", label)
        metrics[f"cli.test_s.{label}"] = cli[label].wall_s
        metrics[f"cli.overhead_s.{label}"] = cli[label].wall_s - load_s - run_s
        metrics[f"symmetric.load_matrix.s.{label}"] = load_s
        metrics[f"symmetric.load_matrix.mb_per_s.{label}"] = paths[label].stat().st_size / 1e6 / load_s
        metrics[f"symmetric.load_matrix.peak_rss_growth_mb.{label}"] = untraced["rss_growth_mb"]
        untraced_s += untraced["load_s"] + untraced["run_test_s"]
    rec.write(CACHE / "spans" / f"{FT}-seed{seed}.json")
    continuous = set(inputs.CONTINUOUS_LABELS)
    metrics.update(import_metrics(cumulative))
    metrics.update(
        {
            **kind_metrics(rec, n, "continuous", continuous),
            **kind_metrics(rec, n, "ties", {"ties"}),
            **eigen_metrics(rec, n),
            "ranking.tied_entries": traced["dense-csv"]["tied_entries"] + traced["ties"]["tied_entries"],
            "ranking.rank_transform.peak_alloc_mb.continuous": traced["dense-csv"]["rank_peak_mb"],
            "ranking.rank_transform.peak_alloc_mb.ties": traced["ties"]["rank_peak_mb"],
            "spectra.leading_eigenpair.peak_alloc_mb": max(t["eigen_peak_mb"] for t in traced.values()),
            "inference.self_s": inference_self_s(rec),
            "trace.overhead_s": sum(rec.durations("file_test.call")) - untraced_s,
        }
    )
    outcome.check(not problems, "rebuilt pipeline: " + "; ".join(problems))
    return outcome, metrics, {**detail, "pipeline_ok": not problems}


def mc(workload: str, size: dict, seed: int, seconds: float, trace: bool, imports: int):
    outcome = Outcome()
    walls, cumulative = import_processes(imports, importtime=trace)
    params = {"workload": workload, "n": size["n"], "seed": seed, "threads": THREADS}
    detail = {"import_processes": imports, "n": size["n"]}
    if not trace:
        result, done = run_job("mc", {**params, "reps": size["reps"], "seconds": seconds})
        calls = result["calls"]
        for i, call in enumerate(calls):
            outcome.check(call["ok"], f"call {i}: {call['why']}")
        timed = [call for call in calls if "wall_s" in call]
        metrics = {
            "setup_s": statistics.median(walls),
            "ops_per_s": statistics.median(c["matrices"] / c["wall_s"] for c in timed),
            "peak_rss_mb": done.maxrss_mb,
        }
        detail.update(
            calls=len(calls),
            matrices_per_call=timed[0]["matrices"] if timed else 0,
            setup_walls_s=walls,
            call_s=[c["wall_s"] for c in timed],
            sha256=calls[0].get("sha256"),
        )
        return outcome, metrics, detail
    spans_path = CACHE / "spans" / f"{workload}-seed{seed}.json"
    traced, _ = run_job(
        "trace_mc", {**params, "reps": size["trace_reps"], "spans_path": str(spans_path)}
    )
    outcome.check(not traced["problems"], "rebuilt pipeline: " + "; ".join(traced["problems"]))
    metrics = import_metrics(cumulative)
    metrics.update(traced["metrics"])
    detail.update(sha256=traced["sha256"], pipeline_ok=not traced["problems"])
    return outcome, metrics, detail


def import_metrics(cumulative: dict[str, list[float]]) -> dict[str, float]:
    return {f"{layer}.import_s": statistics.median(values) for layer, values in cumulative.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    sizes = SIZES[scale]
    if workload == FT:
        outcome, metrics, detail = file_test(sizes[FT], seed, seconds, trace, sizes["imports"])
    else:
        outcome, metrics, detail = mc(workload, sizes[workload], seed, seconds, trace, sizes["imports"])
    if trace:
        declared = {name: spec[0] for name, spec in PER_LAYER.items()}
        for name, (_, _, where) in PER_LAYER.items():
            if workload not in where:
                metrics.setdefault(name, 0)  # the workload never calls this layer
    else:
        declared = {name: spec[0] for name, spec in END_TO_END.items()}
    # A rebuilt pipeline that disagrees with the program invalidates its layer numbers.
    valid = detail.get("pipeline_ok", True)
    return {
        "detail": {"workload": workload, "seed": seed, "trace": int(trace), "problems": outcome.problems, **detail},
        "result": {
            "correct": not outcome.problems,
            "attempted": outcome.attempted,
            "failed": len(outcome.problems),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}
            if valid
            else {},
        },
    }


def environment() -> dict:
    """The machine, library versions and thread settings of this run."""
    import numpy

    def read(path: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8")
        except OSError:
            return ""

    def field(text: str, key: str) -> str | None:
        for line in text.splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
        return None

    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": field(read("/proc/cpuinfo"), "model name"),
        "l2": field(lscpu, "L2 cache"),
        "l3": field(lscpu, "L3 cache"),
        "mem_total": field(read("/proc/meminfo"), "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {key: os.environ.get(key) for key in THREAD_PINS},
        "workload_threads": THREADS,
    }


def smoke() -> int:
    """Run every workload at tiny sizes, traced and untraced, and check the names."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    if e2e != END_TO_END:
        failures.append(f"end_to_end in BENCHMARK.json differs from run.py: {e2e}")
    if layer != {name: spec[:2] for name, spec in PER_LAYER.items()}:
        failures.append("per_layer in BENCHMARK.json differs from run.py")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        failures.append("workloads in BENCHMARK.json differ from run.py")
    for workload in WORKLOADS:
        for trace, names in ((False, e2e), (True, layer)):
            start = time.perf_counter()
            out = run_workload(workload, seed=1, seconds=1, trace=trace, scale="smoke")
            result = out["result"]
            emitted = set(result["metrics"])
            tag = f"{workload} trace={int(trace)}"
            if emitted != set(names):
                failures.append(
                    f"{tag}: undeclared {sorted(emitted - set(names))}, missing {sorted(set(names) - emitted)}"
                )
            if not result["correct"] or result["failed"]:
                failures.append(f"{tag}: {out['detail']['problems']}")
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            bad += [k for k in e2e if not trace and result["metrics"].get(k, {}).get("value") == 0]
            if bad:
                failures.append(f"{tag}: non-finite or zero values {bad}")
            print(f"{tag}: {len(emitted)} metrics, {time.perf_counter() - start:.1f} s", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args(argv)
    if not (SRC / "rankspectral" / "__init__.py").is_file():
        print(f"no rankspectral sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # Stop children on SIGTERM too: SystemExit runs the cleanup in spawn().
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    CACHE.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    print(json.dumps({**out["detail"], "environment": environment()}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
