"""Canned reproduction targets: three result tables and two figures as CSV.

Each target writes CSV files mirroring the source layout plus a JSON summary
into an output directory. Full-scale targets are expensive on one core
(table1 runs 3000 replicates per cell up to n=4000); pass ``scale`` to
shrink every replicate count proportionally. The JSON echoes the requested
scale and the effective replicate counts, so a scaled run is never mistaken
for a full one.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from pathlib import Path
from typing import Callable

from .experiments import (
    ExperimentConfig,
    TABLE_REPLICATES,
    QQ_REPLICATES,
    VARIANCE_REPLICATES,
    moment_summary,
    null_distribution_experiment,
    rejection_rate_experiment,
    semicircle_experiment,
    variance_transition_experiment,
    write_csv,
    write_histogram_csv,
    write_qq_csv,
)
from .rng import derive_seed

TARGETS = ("table1", "table2", "table3", "fig1", "fig2")

_SQRT2 = repr(math.sqrt(2.0))

_TABLE1_NS = (1000, 2000, 4000)

# Community-detection rows: (label, within-spec, between-spec), n-dependent.
_TABLE2_ROWS: list[tuple[str, Callable[[int], str], Callable[[int], str]]] = [
    ("a", lambda n: "pareto(1,1)", lambda n: "normal(1,0.1)"),
    ("b", lambda n: "pareto(0.5,2)", lambda n: "normal(1,0.1)"),
    ("c", lambda n: "normal(1,1)", lambda n: "normal(2,1)"),
    ("d", lambda n: "normal(1,0.4)", lambda n: f"normal({1 + n ** -0.125!r},0.4)"),
    ("e", lambda n: "normal(1,0.4)", lambda n: f"normal({1 + n ** -0.25!r},0.4)"),
    ("f", lambda n: "normal(1,0.4)", lambda n: f"normal({1 + n ** -0.5!r},0.4)"),
    ("g", lambda n: "normal(1,1)", lambda n: f"normal(1,{_SQRT2})"),
]

# Planted-submatrix rows: (label, n1 by n, inside-spec, background-spec).
_TABLE3_ROWS: list[tuple[str, dict[int, int], Callable[[int], str], Callable[[int], str]]] = [
    ("a", {2000: 300, 4000: 500}, lambda n: "pareto(1,1)", lambda n: "pareto(1,1)"),
    ("b", {2000: 300, 4000: 500}, lambda n: "normal(1,1)", lambda n: "normal(1,1)"),
    ("c", {2000: 300, 4000: 500}, lambda n: "pareto(0.5,2)", lambda n: "normal(1,1)"),
    ("d", {2000: 300, 4000: 500}, lambda n: "pareto(1,1)", lambda n: "normal(1,1)"),
    ("e", {2000: 300, 4000: 500}, lambda n: "normal(2,1)", lambda n: "normal(1,1)"),
    ("f", {2000: 40, 4000: 60}, lambda n: "normal(2,1)", lambda n: "normal(1,1)"),
    ("g", {2000: 20, 4000: 27}, lambda n: "normal(2,1)", lambda n: "normal(1,1)"),
    ("h", {2000: 780, 4000: 1400}, lambda n: f"normal({1 + n ** -0.25!r},1)", lambda n: "normal(1,1)"),
    ("i", {2000: 780, 4000: 1400}, lambda n: f"normal({1 + n ** -0.375!r},1)", lambda n: "normal(1,1)"),
    ("j", {2000: 780, 4000: 1400}, lambda n: f"normal({1 + n ** -0.75!r},1)", lambda n: "normal(1,1)"),
    ("k", {2000: 780, 4000: 1400}, lambda n: "normal(1,1)", lambda n: f"normal(1,{_SQRT2})"),
]

def table1_k_grid(n: int) -> list[tuple[str, float]]:
    """The interpolation grid k in {0, n, n^{3/2}, N, inf} with row labels."""
    n_pairs = n * (n - 1) // 2
    return [
        ("0", 0),
        ("n", n),
        ("n^1.5", int(round(n**1.5))),
        ("N", n_pairs),
        ("inf", math.inf),
    ]


def _effective(replicates: int, scale: float) -> int:
    return max(1, round(replicates * scale))


def reproduce_target(
    target: str,
    seed: int,
    out_dir: str | Path,
    scale: float = 1.0,
    threads: int = 1,
) -> list[Path]:
    """Run one reproduction target; returns the paths written.

    ``scale`` > 0 and ``threads`` >= 1 are checked before the output
    directory is made.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")
    if not scale > 0:  # also refuses nan, which JSON cannot echo
        raise ValueError(f"scale must be > 0, got {scale}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    drivers = {
        "table1": _reproduce_table1,
        "table2": functools.partial(_rate_table, "table2", "two_block", _TABLE2_ROWS),
        "table3": functools.partial(_rate_table, "table3", "planted", _TABLE3_ROWS),
        "fig1": _reproduce_fig1,
        "fig2": _reproduce_fig2,
    }
    return drivers[target](seed, out, scale, threads)


def _meta(target: str, seed: int, scale: float, replicates: int) -> dict:
    return {
        "target": target,
        "master_seed": seed,
        "requested_scale": scale,
        "replicates": replicates,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _reproduce_table1(seed: int, out: Path, scale: float, threads: int) -> list[Path]:
    replicates = _effective(VARIANCE_REPLICATES, scale)
    start = time.perf_counter()
    labels = [label for label, _ in table1_k_grid(_TABLE1_NS[0])]
    variances: dict[int, list[float]] = {}
    cells: dict[str, dict] = {}
    for idx, n in enumerate(_TABLE1_NS):
        grid = table1_k_grid(n)
        report = variance_transition_experiment(
            n, [k for _, k in grid], replicates, derive_seed(seed, idx), threads
        )
        variances[n] = [row["var_lambda1"] for row in report.summary["rows"]]
        cells[str(n)] = report.to_dict()
    columns = [labels] + [variances[n] for n in _TABLE1_NS]
    csv_path = out / "table1.csv"
    write_csv(csv_path, ["k"] + [f"var_n{n}" for n in _TABLE1_NS], columns)
    json_path = out / "table1.json"
    _write_json(
        json_path,
        {
            **_meta("table1", seed, scale, replicates),
            "cells": cells,
            "elapsed_s": time.perf_counter() - start,
        },
    )
    return [csv_path, json_path]


def _rate_table(
    target: str, experiment: str, rows: list, seed: int, out: Path, scale: float, threads: int
) -> list[Path]:
    """One rejection-rate table: every row at n = 2000 and 4000."""
    fields = ["n", "f1", "f2", "replicates"]
    if len(rows[0]) == 4:  # planted rows carry an n1 table after the label
        fields.insert(1, "n1")
    replicates = _effective(TABLE_REPLICATES, scale)
    start = time.perf_counter()
    csv_rows: list[list] = []
    detail: list[dict] = []
    for cell, (row, n) in enumerate(itertools.product(rows, (2000, 4000))):
        label, *n1_of, f1_of, f2_of = row
        config = ExperimentConfig(
            experiment=experiment,
            n=n,
            replicates=replicates,
            master_seed=derive_seed(seed, cell),
            f1=f1_of(n),
            f2=f2_of(n),
            n1=n1_of[0][n] if n1_of else None,
            threads=threads,
        )
        report = rejection_rate_experiment(config)
        echo = [report.config[field] for field in fields]
        csv_rows.append([label, *echo, report.summary["rejection_rate"]])
        detail.append(report.to_dict())
    csv_path = out / f"{target}.csv"
    write_csv(csv_path, ["row", *fields, "rejection_rate"], list(zip(*csv_rows)))
    json_path = out / f"{target}.json"
    _write_json(
        json_path,
        {
            **_meta(target, seed, scale, replicates),
            "cells": detail,
            "elapsed_s": time.perf_counter() - start,
        },
    )
    return [csv_path, json_path]


def _reproduce_fig1(seed: int, out: Path, scale: float, threads: int) -> list[Path]:
    summary, report = semicircle_experiment(n=3000, bins=80, seed=seed)
    csv_path = out / "fig1_histogram.csv"
    write_histogram_csv(csv_path, summary)
    json_path = out / "fig1.json"
    _write_json(
        json_path,
        {
            "target": "fig1",
            "master_seed": seed,
            "requested_scale": scale,
            **report.to_dict(),
        },
    )
    return [csv_path, json_path]


def _reproduce_fig2(seed: int, out: Path, scale: float, threads: int) -> list[Path]:
    replicates = _effective(QQ_REPLICATES, scale)
    start = time.perf_counter()
    report = null_distribution_experiment(
        n=2000, replicates=replicates, seed=seed, which="eigenvalue", threads=threads
    )
    paths = []
    summaries: dict[str, dict] = {}
    for which in ("eigenvalue", "eigenvector"):
        values = report.arrays[f"{which}_stat"]
        csv_path = out / f"fig2_{which}_qq.csv"
        write_qq_csv(csv_path, values)
        paths.append(csv_path)
        summaries[which] = moment_summary(values)
    json_path = out / "fig2.json"
    _write_json(
        json_path,
        {
            **_meta("fig2", seed, scale, replicates),
            "n": 2000,
            "summaries": summaries,
            "elapsed_s": time.perf_counter() - start,
        },
    )
    paths.append(json_path)
    return paths
