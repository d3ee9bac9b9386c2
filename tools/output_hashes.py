"""Print one sha256 per deterministic output of rankspectral.

A refactor that must not change behaviour should print the same list before
and after. Covered outputs:

- every experiment's ``to_json(include_elapsed=False)`` followed by the bytes
  of its arrays (sorted by name), at threads 1 and 2;
- the per-replicate dump CSVs of the rejection-rate and null experiments;
- the files written by the CLI's ``esd``, ``qq`` and ``simulate``;
- the CLI's ``test`` report on a seeded n=300 matrix in each text format,
  with LF and with CRLF line ends, as upper-triangle text and as dense CSV
  with form feeds among its separators, as dense CSV with vertical tabs,
  and as an edge list whose last line repeats a pair with the other zero,
  on a file of tied integer scores with ``--ties random``, and the exit
  code and stderr record of two asymmetric dense files (one bad pair; a
  small bad pair in an early row and a larger one in the last row), of a
  ``#`` line near the end of a file in each format, of upper-triangle text
  with one value too many, of an edge list whose last line conflicts with
  its first, and of the tied file and its scores plus one under the
  default ``--ties error``; and at n=800, files large enough to be parsed
  in two byte ranges, in each format, as upper-triangle text with
  one value too many, and as an edge list whose last line conflicts with
  its first. The files are written here with ``repr`` of each float, not
  with ``save_matrix``, so a change to the writer cannot change the input;
- for each of those ``test`` input files, the bytes of ``load_matrix(...).values``
  and of ``rank_transform(..., policy).values`` under the run's tie policy, or
  the error either one raises, so parse results and ranks are checked on
  their own, apart from the eigenpair the report carries;
- the ``blas`` buffer of ``sample_interpolated_rank`` at n=45 for k in
  {0, n, n+1, round(n^1.5), N, 10N}, which covers both widths of its
  permutation, and of ``rank_transform`` on tied scores at n=300 under a
  random tie policy;
- every ``reproduce`` target at ``--scale 0.05``.

CSV files are hashed as bytes. JSON files are hashed after dropping every
``elapsed_s`` key, the only field that is not reproducible. Both thread
counts write the same dump path, so their lines must agree too. Reports echo
the dump path, so compare two checkouts by running each against the same
output directory:

    python3 tools/output_hashes.py OUT_DIR

The package is imported from the ``src`` directory next to this script.
The full list takes about twenty minutes on two cores, nearly all of it
in ``reproduce``.

BLAS runs on one thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` are set to 1 before numpy is imported), because the
``reproduce fig1 fig1.json`` hash depends on the BLAS thread count: its
n=3000 dense spectrum rounds differently with more threads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from rankspectral import (  # noqa: E402
    TARGETS,
    ExperimentConfig,
    FormatError,
    MatrixSource,
    TieError,
    SymmetricMatrix,
    TiePolicy,
    eigen_relationship_experiment,
    fk_comparison_experiment,
    load_matrix,
    null_distribution_experiment,
    operator_norm_tail_experiment,
    rank_transform,
    rejection_rate_experiment,
    reproduce_target,
    sample_interpolated_rank,
    semicircle_experiment,
    subspace_recovery_ratio_experiment,
    variance_transition_experiment,
)
from rankspectral.cli import main as cli_main  # noqa: E402

REPRODUCE_SCALE = 0.05
REPRODUCE_THREADS = 2

RATE_CONFIGS = {
    "homogeneous": dict(f1="uniform(0,1)"),
    "two_block": dict(f1="normal(1,1)", f2="normal(2,1)"),
    "planted": dict(f1="normal(2,1)", f2="normal(1,1)", n1=8),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_hash(report) -> str:
    parts = [report.to_json(include_elapsed=False).encode()]
    for key in sorted(report.arrays):
        parts.append(key.encode())
        parts.append(np.ascontiguousarray(report.arrays[key]).tobytes())
    return sha(b"\0".join(parts))


def _drop_elapsed(value):
    if isinstance(value, dict):
        return {k: _drop_elapsed(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [_drop_elapsed(v) for v in value]
    return value


def file_hash(path: Path) -> str:
    if path.suffix == ".json":
        payload = _drop_elapsed(json.loads(path.read_text(encoding="utf-8")))
        return sha(json.dumps(payload, indent=2).encode())
    return sha(path.read_bytes())


def experiment_reports(out: Path, threads: int):
    """(label, report, dump path or None) for every experiment at ``threads``."""
    for name, fields in RATE_CONFIGS.items():
        dump = out / f"rate_{name}.csv"
        config = ExperimentConfig(
            experiment=name, n=30, replicates=8, master_seed=11, threads=threads, **fields
        )
        yield f"rejection_rate.{name}", rejection_rate_experiment(config, dump_path=dump), dump
    for which in ("eigenvalue", "eigenvector"):
        dump = out / f"null_{which}.csv"
        report = null_distribution_experiment(
            25, 12, seed=5, which=which, threads=threads, dump_path=dump
        )
        yield f"null_distribution.{which}", report, dump
    yield "variance_transition", variance_transition_experiment(
        20, [0, 20, 89, 190, math.inf], 4, seed=3, threads=threads
    ), None
    if threads == 1:  # one realization, no worker pool
        _, report = semicircle_experiment(60, 16, seed=4)
        yield "semicircle", report, None
    yield "operator_norm_tail", operator_norm_tail_experiment(
        20, 6, seed=8, threads=threads
    ), None
    yield "fk_comparison", fk_comparison_experiment(20, 10, seed=9, threads=threads), None
    yield "subspace_recovery_ratio", subspace_recovery_ratio_experiment(
        20, 1.0, 1.0, 6, seed=10, threads=threads
    ), None
    yield "eigen_relationship", eigen_relationship_experiment(
        [10, 20], 4, seed=12, threads=threads
    ), None


def cli_outputs(out: Path) -> list[Path]:
    cli = out / "cli"
    cli.mkdir(parents=True, exist_ok=True)
    config = cli / "config.json"
    config.write_text(
        json.dumps(
            {"experiment": "planted", "n": 30, "replicates": 6, "master_seed": 2,
             "f1": "normal(2,1)", "f2": "normal(1,1)", "n1": 10}
        ),
        encoding="utf-8",
    )
    runs = [
        ["esd", "--n", "60", "--bins", "16", "--seed", "3", "--out", str(cli / "esd")],
        ["qq", "--n", "25", "--replicates", "20", "--which", "eigenvector", "--seed", "9",
         "--threads", "2", "--out", str(cli / "qq")],
        ["simulate", "two_block", "normal(1,1)", "normal(2,1)", "--n", "30",
         "--replicates", "8", "--seed", "6", "--dump", str(cli / "sim_dump.csv"),
         "--out", str(cli / "sim.json")],
        ["simulate", "--config", str(config), "--threads", "2",
         "--dump", str(cli / "sim_config_dump.csv"), "--out", str(cli / "sim_config.json")],
    ]
    written = []
    for argv in runs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv)
        if code != 0:
            raise SystemExit(f"rankspectral {' '.join(argv)} exited with {code}")
        written.extend(Path(line) for line in stdout.getvalue().splitlines())
    written += [cli / "sim_dump.csv", cli / "sim.json"]
    written += [cli / "sim_config_dump.csv", cli / "sim_config.json"]
    return written


TEST_N = 300
TEST_SEED = 31
RANGED_N = 800


def _text_lines(format: str, tokens: list[str], n: int = TEST_N) -> list[str]:
    """The lines of a ``format`` file of the packed ``tokens`` at dimension ``n``."""
    rows, cols = np.triu_indices(n, k=1)
    if format == "upper-triangle-text":
        return [str(n)] + tokens
    if format == "weighted-edge-list":
        return [f"{i} {j} {t}" for i, j, t in zip(rows.tolist(), cols.tolist(), tokens)]
    dense = np.full((n, n), "0.0", dtype=object)
    dense[rows, cols] = tokens
    dense[cols, rows] = tokens
    return [",".join(row) for row in dense]


def cli_test_runs(out: Path) -> list[tuple[str, list[str], Path]]:
    """(label, argv, report path) of each ``rankspectral test`` run, after writing its input."""
    folder = out / "test"
    folder.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(TEST_SEED))
    n_pairs = TEST_N * (TEST_N - 1) // 2
    values = rng.standard_normal(n_pairs) + 0.3 * (np.arange(n_pairs) % 7 == 0)
    tokens = list(map(repr, values.tolist()))
    scores = [str(x) for x in rng.integers(0, 100, n_pairs).tolist()]
    runs = []

    def add(label: str, format: str, lines: list[str], newline: str, *extra: str) -> None:
        path, report = folder / f"{label}.txt", folder / f"{label}.json"
        path.write_bytes(newline.join(lines).encode("ascii") + newline.encode("ascii"))
        argv = ["test", str(path), "--format", format, "--out", str(report), *extra]
        runs.append((label, argv, report))

    for format in ("dense-csv", "upper-triangle-text", "weighted-edge-list"):
        lines = _text_lines(format, tokens)
        add(format, format, lines, "\n")
        add(f"{format}-crlf", format, lines, "\r\n")
    ties = _text_lines("upper-triangle-text", scores)
    add("ties", "upper-triangle-text", ties, "\n", "--ties", "random", "--seed", "5")
    # Under the default --ties error: the first tied value is 0, whose
    # example takes the signed-zero route, and shifted by one it is 1.
    add("ties-error", "upper-triangle-text", ties, "\n")
    shifted = _text_lines("upper-triangle-text", [str(int(s) + 1) for s in scores])
    add("ties-error-shifted", "upper-triangle-text", shifted, "\n")
    # Entry (n-1, 2) of the last row moved off its mirror (2, n-1).
    rows = [line.split(",") for line in _text_lines("dense-csv", tokens)]
    rows[-1][2] = repr(float(rows[-1][2]) + 1e-3)
    add("asymmetric", "dense-csv", [",".join(row) for row in rows], "\n")
    # A small excess in row 5 and a larger one in the last row: the error
    # names the worst pair, not the first.
    rows[5][2] = repr(float(rows[5][2]) + 1e-6)
    add("asymmetric-two-pairs", "dense-csv", [",".join(row) for row in rows], "\n")
    # A valid dense file with form feeds after some commas.
    dense = _text_lines("dense-csv", tokens)
    add("dense-csv-formfeed", "dense-csv", [line.replace(",", ",\x0c", 3) for line in dense], "\n")
    # Form feeds between the values of upper-triangle text.
    pairs = ["\x0c".join(tokens[i : i + 2]) for i in range(0, n_pairs, 2)]
    add("upper-triangle-formfeed", "upper-triangle-text", [str(TEST_N), *pairs], "\n")
    # Labels from here on were added after the 83 above; each is a named fault or separator.
    add("dense-csv-vtab", "dense-csv", [line.replace(",", "\x0b,", 5) for line in dense], "\n")
    for format in ("dense-csv", "upper-triangle-text", "weighted-edge-list"):
        # Lines padded to 24 characters make each file two blocks of ~1 MiB;
        # the note is in the second.
        lines = [line.rjust(24) for line in _text_lines(format, tokens)]
        lines.insert(len(lines) - 3, "# a note")
        add(f"{format}-comment", format, lines, "\n")
    add("upper-triangle-extra-value", "upper-triangle-text", [str(TEST_N), *tokens, "0.5"], "\n")
    edges = _text_lines("weighted-edge-list", tokens)
    i, j, w = edges[0].split()
    add("edge-list-conflict", "weighted-edge-list", edges + [f"{j} {i} {float(w) + 1.0!r}"], "\n")
    zero = [f"{i} {j} 0.0", *edges[1:], f"{j} {i} -0.0"]
    add("edge-list-repeat-other-zero", "weighted-edge-list", zero, "\n")
    # Files of 6-12 MiB, which load_matrix cuts into two byte ranges on
    # Linux with two CPUs, against a base that may read them as one.
    big = np.random.Generator(np.random.PCG64(TEST_SEED + 2)).standard_normal(RANGED_N * (RANGED_N - 1) // 2)
    big_tokens = list(map(repr, big.tolist()))
    for format in ("dense-csv", "upper-triangle-text", "weighted-edge-list"):
        add(f"{format}-n{RANGED_N}", format, _text_lines(format, big_tokens, RANGED_N), "\n")
    extra = [str(RANGED_N), *big_tokens, "0.5"]  # the value too many is in the last range
    add(f"upper-triangle-extra-value-n{RANGED_N}", "upper-triangle-text", extra, "\n")
    edges = _text_lines("weighted-edge-list", big_tokens, RANGED_N)
    i, j, w = edges[0].split()  # repeated, conflicting, in the last range
    conflict = edges + [f"{j} {i} {float(w) + 1.0!r}"]
    add(f"edge-list-conflict-n{RANGED_N}", "weighted-edge-list", conflict, "\n")
    return runs


def cli_test_outputs(out: Path):
    """(hash, label) per ``test`` run: its report, or its exit code and stderr."""
    for label, argv, report in cli_test_runs(out):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
        if code in (0, 10):
            digest = file_hash(report)
        else:
            digest = sha(f"exit {code}\n{stderr.getvalue()}".encode())
        yield digest, f"{label} exit={code}"


def rank_outputs(out: Path):
    """(hash, label) per ``test`` input file: its parsed values and their ranks."""
    for label, argv, _ in cli_test_runs(out):
        format = argv[argv.index("--format") + 1]
        policy = TiePolicy.error()
        if "random" in argv:
            policy = TiePolicy.random(int(argv[argv.index("--seed") + 1]))
        try:
            matrix = load_matrix(MatrixSource(format=format, path=argv[1]))
            parts = [matrix.values.tobytes(), rank_transform(matrix, policy).values.tobytes()]
        except (FormatError, TieError) as exc:
            parts = [f"{type(exc).__name__}: {exc}".encode()]
        yield sha(b"\0".join(parts)), label


SAMPLE_N = 45


def buffer_outputs():
    """(hash, label) per ``blas`` buffer of the interpolated sampler and of a tied ranking."""
    n_pairs = SAMPLE_N * (SAMPLE_N - 1) // 2
    for k in (0, SAMPLE_N, SAMPLE_N + 1, round(SAMPLE_N**1.5), n_pairs, 10 * n_pairs):
        matrix = sample_interpolated_rank(SAMPLE_N, k, 17)
        yield sha(matrix.blas.tobytes()), f"sample_interpolated_rank n={SAMPLE_N} k={k}"
    rng = np.random.Generator(np.random.PCG64(TEST_SEED + 1))
    scores = rng.integers(0, 10, TEST_N * (TEST_N - 1) // 2).astype(np.float64)
    scores[1::2] *= -1.0  # odd positions' zeros become -0.0, one tie group with 0.0
    ranked = rank_transform(SymmetricMatrix(TEST_N, scores), TiePolicy.random(6))
    yield sha(ranked.blas.tobytes()), f"rank_transform n={TEST_N} tied scores"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory for the outputs; use the same one for both runs")
    args = parser.parse_args()
    out = Path(args.out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)

    for threads in (1, 2):
        for label, report, dump in experiment_reports(out, threads):
            print(f"{report_hash(report)}  experiment {label} threads={threads}")
            if dump is not None:
                print(f"{file_hash(dump)}  dump {dump.name}")
    for path in cli_outputs(out):
        print(f"{file_hash(path)}  cli {path.relative_to(out)}")
    for digest, label in cli_test_outputs(out):
        print(f"{digest}  test {label}", flush=True)
    for digest, label in rank_outputs(out):
        print(f"{digest}  rank {label}", flush=True)
    for digest, label in buffer_outputs():
        print(f"{digest}  blas {label}", flush=True)
    for target in TARGETS:
        paths = reproduce_target(
            target, seed=1, out_dir=out / "reproduce", scale=REPRODUCE_SCALE,
            threads=REPRODUCE_THREADS,
        )
        for path in paths:
            print(f"{file_hash(path)}  reproduce {target} {path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
