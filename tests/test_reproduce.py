"""Canned reproduction targets: protocols, file layout, determinism."""

import csv
import json
import math

import numpy as np
import pytest

from rankspectral import TARGETS, parse_distribution, reproduce_target
from rankspectral.reproduce import (
    _TABLE2_ROWS,
    _TABLE3_ROWS,
    table1_k_grid,
)


class TestProtocolDefinitions:
    def test_targets(self):
        assert TARGETS == ("table1", "table2", "table3", "fig1", "fig2")

    def test_k_grid(self):
        grid = table1_k_grid(1000)
        assert grid[0] == ("0", 0)
        assert grid[1] == ("n", 1000)
        assert grid[2] == ("n^1.5", 31623)
        assert grid[3] == ("N", 499500)
        assert grid[4][0] == "inf" and math.isinf(grid[4][1])

    def test_community_rows_parse(self):
        labels = [row[0] for row in _TABLE2_ROWS]
        assert labels == list("abcdefg")
        for _, f1_of, f2_of in _TABLE2_ROWS:
            for n in (2000, 4000):
                parse_distribution(f1_of(n))
                parse_distribution(f2_of(n))

    def test_community_vanishing_separation_rows(self):
        # Rows d/e/f shrink the between-mean gap like n^{-1/8}, n^{-1/4},
        # n^{-1/2}; row g differs only in variance.
        for row, power in zip(_TABLE2_ROWS[3:6], (-0.125, -0.25, -0.5)):
            _, f1_of, f2_of = row
            assert parse_distribution(f1_of(2000)).mu == 1.0
            assert parse_distribution(f2_of(2000)).mu == pytest.approx(1 + 2000**power)
        _, g1, g2 = _TABLE2_ROWS[6]
        assert parse_distribution(g1(2000)).sigma == 1.0
        assert parse_distribution(g2(2000)).sigma == pytest.approx(math.sqrt(2))

    def test_planted_rows(self):
        labels = [row[0] for row in _TABLE3_ROWS]
        assert labels == list("abcdefghijk")
        for _, n1_of, f1_of, f2_of in _TABLE3_ROWS:
            assert set(n1_of) == {2000, 4000}
            for n in (2000, 4000):
                assert 1 <= n1_of[n] <= n
                parse_distribution(f1_of(n))
                parse_distribution(f2_of(n))
        # Null rows a and b use identical inside/background laws.
        for row in _TABLE3_ROWS[:2]:
            assert row[2](2000) == row[3](2000)
        assert _TABLE3_ROWS[5][1] == {2000: 40, 4000: 60}
        assert _TABLE3_ROWS[6][1] == {2000: 20, 4000: 27}

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            reproduce_target("table9", seed=1, out_dir="/tmp/x")

    def test_scale_validation(self, tmp_path):
        with pytest.raises(ValueError, match="scale"):
            reproduce_target("fig2", seed=1, out_dir=tmp_path, scale=0.0)

    @pytest.mark.parametrize("target", ["fig1", "fig2", "table1"])
    @pytest.mark.parametrize(
        "args, match",
        [({"scale": 0.0}, "scale"), ({"scale": -1.0}, "scale"), ({"scale": math.nan}, "scale"),
         ({"threads": 0}, "threads"), ({"threads": -4}, "threads")],
    )
    def test_arguments_are_refused_before_the_output_directory(self, tmp_path, target, args, match):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=match):
            reproduce_target(target, seed=1, out_dir=out, **args)
        assert not out.exists()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    paths = reproduce_target("fig2", seed=12, out_dir=out, scale=0.0025)
    return out, paths


class TestFig2Target:
    def test_paths(self, outputs):
        out, paths = outputs
        names = sorted(p.name for p in paths)
        assert names == ["fig2.json", "fig2_eigenvalue_qq.csv", "fig2_eigenvector_qq.csv"]
        for p in paths:
            assert p.exists()

    def test_qq_csv_shape(self, outputs):
        out, _ = outputs
        lines = (out / "fig2_eigenvalue_qq.csv").read_text().splitlines()
        assert lines[0] == "percentile,empirical_quantile,normal_quantile"
        assert len(lines) == 100
        data = np.genfromtxt(out / "fig2_eigenvalue_qq.csv", delimiter=",", names=True)
        assert np.array_equal(data["percentile"], np.arange(1, 100))
        assert list(data["empirical_quantile"]) == sorted(data["empirical_quantile"])

    def test_json_meta(self, outputs):
        out, _ = outputs
        payload = json.loads((out / "fig2.json").read_text())
        assert payload["target"] == "fig2"
        assert payload["master_seed"] == 12
        assert payload["requested_scale"] == 0.0025
        assert payload["replicates"] == 5  # max(1, round(2000 * 0.0025))
        assert payload["n"] == 2000
        assert set(payload["summaries"]) == {"eigenvalue", "eigenvector"}
        assert "elapsed_s" in payload

    def test_deterministic_csv(self, outputs, tmp_path):
        out, _ = outputs
        again = tmp_path / "again"
        reproduce_target("fig2", seed=12, out_dir=again, scale=0.0025)
        for name in ("fig2_eigenvalue_qq.csv", "fig2_eigenvector_qq.csv"):
            assert (again / name).read_bytes() == (out / name).read_bytes()
        a = json.loads((again / "fig2.json").read_text())
        b = json.loads((out / "fig2.json").read_text())
        a.pop("elapsed_s")
        b.pop("elapsed_s")
        assert a == b


@pytest.mark.slow
def test_table2_target_scaled(tmp_path):
    paths = reproduce_target("table2", seed=3, out_dir=tmp_path, scale=0.0025)
    assert sorted(p.name for p in paths) == ["table2.csv", "table2.json"]
    with open(tmp_path / "table2.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "n", "f1", "f2", "replicates", "rejection_rate"]
    assert len(rows) == 1 + len(_TABLE2_ROWS) * 2
    payload = json.loads((tmp_path / "table2.json").read_text())
    assert payload["replicates"] == 1
    assert len(payload["cells"]) == len(_TABLE2_ROWS) * 2
    for cell, fields in zip(payload["cells"], rows[1:]):
        assert cell["config"]["n"] == int(fields[1])
        assert cell["config"]["f1"] == fields[2]
        assert cell["summary"]["rejection_rate"] == float(fields[5])
    # Strong-signal row (a) rejects even with one replicate per cell.
    for fields in rows[1:]:
        if fields[0] == "a":
            assert fields[5] == "1"


@pytest.mark.slow
def test_fig1_target(tmp_path):
    paths = reproduce_target("fig1", seed=5, out_dir=tmp_path)
    assert sorted(p.name for p in paths) == ["fig1.json", "fig1_histogram.csv"]
    lines = (tmp_path / "fig1_histogram.csv").read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,mass"
    assert len(lines) == 81
    data = np.genfromtxt(tmp_path / "fig1_histogram.csv", delimiter=",", names=True)
    assert float(data["mass"].sum()) == pytest.approx(1.0, abs=1e-12)
    payload = json.loads((tmp_path / "fig1.json").read_text())
    assert payload["config"]["n"] == 3000
    assert payload["summary"]["ks_to_semicircle"] < 0.05
    assert abs(payload["summary"]["scaled_operator_norm"] - 2.0) < 0.1