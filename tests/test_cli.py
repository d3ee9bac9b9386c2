"""End-to-end checks of the command-line front end.

Everything runs in-process through ``main(argv)`` except two smoke tests of
the ``rankspectral`` console script. ``test_console_script`` reads the entry
point declared in ``pyproject.toml``, writes the wrapper an installer would
generate for it, and runs that wrapper in a child process against the
checkout's own package, so it needs no install. ``test_installed_console_script``
runs the command found on PATH and is skipped where the package is not
installed. ``test_cli_import_skips_scipy_stats`` imports the CLI module in a
child process too, to see which modules a fresh import loads. Error-path
assertions pin the exit code, the single-line JSON record on stderr, and
silence on stdout.
"""

import json
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from rankspectral import (
    SymmetricMatrix,
    TiePolicy,
    make_generator,
    run_test,
    save_matrix,
    std_normal_cdf,
)
from rankspectral.cli import main

from conftest import checkout_env, random_symmetric


def run_cli(argv, capsys):
    """Invoke main() and normalize both exit styles to (code, out, err)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_error_record(err, cls):
    # Contract: exactly one line of JSON with exactly these two keys.
    assert err.endswith("\n") and err.count("\n") == 1
    record = json.loads(err)
    assert set(record) == {"error", "message"}
    assert record["error"] == cls
    return record["message"]


@pytest.fixture
def small_matrix(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("0,0.9,0.1\n0.9,0,0.5\n0.1,0.5,0\n", encoding="utf-8")
    return path


@pytest.fixture
def tied_matrix(tmp_path):
    path = tmp_path / "tied.csv"
    path.write_text("0,1,1\n1,0,2\n1,2,0\n", encoding="utf-8")
    return path


class TestTestCommand:
    def test_small_matrix_accepts(self, small_matrix, capsys):
        code, out, err = run_cli(["test", str(small_matrix)], capsys)
        assert code == 0
        assert err == ""
        result = json.loads(out)
        assert list(result) == [
            "n",
            "lambda1",
            "t_stat",
            "p_value",
            "alpha",
            "reject",
            "sigma_sq",
            "sigma_tilde",
            "centering",
            "u1_dot_uhat",
        ]
        assert result["n"] == 3
        assert result["reject"] is False

    def test_matches_library_call(self, tmp_path, capsys):
        m = random_symmetric(20, seed=4)
        path = tmp_path / "m.csv"
        save_matrix(m, path)
        code, out, _ = run_cli(["test", str(path), "--alpha", "0.1"], capsys)
        expected = run_test(m, alpha=0.1)
        assert out == expected.to_json(indent=2) + "\n"
        assert code == (10 if expected.reject else 0)

    def test_monotone_invariance_through_cli(self, tmp_path, capsys):
        # The decision path must depend on entry order only, so feeding a
        # strictly increasing transform of the data reproduces the output
        # byte for byte.
        m = random_symmetric(15, seed=11)
        transformed = SymmetricMatrix(15, np.exp(3.0 * m.values) + 100.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_matrix(m, p1)
        save_matrix(transformed, p2)
        _, out1, _ = run_cli(["test", str(p1)], capsys)
        _, out2, _ = run_cli(["test", str(p2)], capsys)
        assert out1 == out2

    def test_structured_matrix_exits_10(self, tmp_path, capsys):
        n = 60
        labels = np.arange(n) < n // 2
        rng = make_generator(5)
        within = np.equal.outer(labels, labels)
        dense = np.where(within, rng.uniform(0, 1, (n, n)), rng.uniform(10, 11, (n, n)))
        dense = np.triu(dense, 1)
        dense = dense + dense.T
        path = tmp_path / "blocks.csv"
        save_matrix(SymmetricMatrix.from_dense(dense), path)
        code, out, err = run_cli(["test", str(path)], capsys)
        assert code == 10
        assert err == ""
        assert json.loads(out)["reject"] is True

    def test_out_flag_writes_file(self, small_matrix, tmp_path, capsys):
        dest = tmp_path / "result.json"
        code, out, _ = run_cli(["test", str(small_matrix), "--out", str(dest)], capsys)
        assert code == 0
        assert out == ""
        _, direct, _ = run_cli(["test", str(small_matrix)], capsys)
        assert dest.read_text(encoding="utf-8") == direct

    def test_alternative_greater(self, small_matrix, capsys):
        _, out, _ = run_cli(
            ["test", str(small_matrix), "--alternative", "greater"], capsys
        )
        result = json.loads(out)
        assert result["p_value"] == pytest.approx(
            1.0 - std_normal_cdf(result["t_stat"]), rel=1e-12
        )

    def test_ties_default_is_error(self, tied_matrix, capsys):
        code, out, err = run_cli(["test", str(tied_matrix)], capsys)
        assert code == 65
        assert out == ""
        message = assert_error_record(err, "TieError")
        assert "tied" in message

    def test_ties_random_with_seed(self, tied_matrix, capsys):
        code, out1, err = run_cli(
            ["test", str(tied_matrix), "--ties", "random", "--seed", "7"], capsys
        )
        assert code in (0, 10)
        assert err == ""
        result = json.loads(out1)
        m = SymmetricMatrix.from_dense(
            np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]], dtype=np.float64)
        )
        expected = run_test(m, policy=TiePolicy.random(7))
        assert result == expected.to_dict()
        _, out2, _ = run_cli(
            ["test", str(tied_matrix), "--ties", "random", "--seed", "7"], capsys
        )
        assert out1 == out2

    def test_ties_random_requires_seed(self, tied_matrix, capsys):
        code, out, err = run_cli(["test", str(tied_matrix), "--ties", "random"], capsys)
        assert code == 64
        assert out == ""
        message = assert_error_record(err, "UsageError")
        assert "--seed" in message

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1,2\n1,0\n2,1,0\n", encoding="utf-8")
        code, out, err = run_cli(["test", str(path)], capsys)
        assert code == 65
        assert out == ""
        message = assert_error_record(err, "FormatError")
        assert "line 2" in message

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(["test", str(path)], capsys)
        assert code == 65
        assert out == ""
        message = assert_error_record(err, "FormatError")
        assert message == "line 1: invalid UTF-8 byte 0xff"

    def test_asymmetric_input(self, tmp_path, capsys):
        path = tmp_path / "asym.csv"
        path.write_text("0,1,2\n3,0,4\n5,6,0\n", encoding="utf-8")
        code, _, err = run_cli(["test", str(path)], capsys)
        assert code == 65
        assert_error_record(err, "AsymmetryError")

    def test_missing_file(self, tmp_path, capsys):
        code, out, err = run_cli(["test", str(tmp_path / "nope.csv")], capsys)
        assert code == 66
        assert out == ""
        assert_error_record(err, "FileNotFoundError")

    def test_bad_alpha_is_usage_error(self, small_matrix, capsys):
        code, _, err = run_cli(["test", str(small_matrix), "--alpha", "1.5"], capsys)
        assert code == 64
        assert_error_record(err, "ValueError")

    def test_upper_triangle_format(self, tmp_path, capsys):
        m = random_symmetric(8, seed=2)
        path = tmp_path / "m.txt"
        save_matrix(m, path, format="upper-triangle-text")
        code, out, _ = run_cli(
            ["test", str(path), "--format", "upper-triangle-text"], capsys
        )
        assert code in (0, 10)
        assert json.loads(out)["n"] == 8


class TestSimulateCommand:
    def test_homogeneous_small(self, capsys):
        code, out, err = run_cli(
            [
                "simulate", "homogeneous", "uniform(0,1)",
                "--n", "25", "--replicates", "8", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["config"]["experiment"] == "homogeneous"
        assert report["config"]["n"] == 25
        assert report["config"]["replicates"] == 8
        assert 0.0 <= report["summary"]["rejection_rate"] <= 1.0
        assert report["elapsed_s"] >= 0.0

    def test_determinism_across_runs(self, capsys):
        argv = [
            "simulate", "two_block", "normal(1,1)", "normal(3,1)",
            "--n", "30", "--replicates", "6", "--seed", "9",
        ]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("elapsed_s")
        d2.pop("elapsed_s")
        assert d1 == d2

    def test_wrong_positional_count(self, capsys):
        code, out, err = run_cli(
            ["simulate", "two_block", "normal(1,1)", "--n", "30", "--seed", "1"],
            capsys,
        )
        assert code == 64
        assert out == ""
        message = assert_error_record(err, "UsageError")
        assert "2 distribution spec(s)" in message

    def test_bad_distribution_spec(self, capsys):
        code, _, err = run_cli(
            ["simulate", "homogeneous", "norl(1,1)", "--n", "25", "--seed", "5"],
            capsys,
        )
        assert code == 65
        assert_error_record(err, "DistributionParseError")

    def test_planted_without_n1_is_usage_error(self, capsys):
        code, _, err = run_cli(
            [
                "simulate", "planted", "normal(2,1)", "normal(1,1)",
                "--n", "30", "--seed", "1",
            ],
            capsys,
        )
        assert code == 64
        message = assert_error_record(err, "ValueError")
        assert "n1" in message

    def test_missing_seed(self, capsys):
        code, _, err = run_cli(
            ["simulate", "homogeneous", "uniform(0,1)", "--n", "25"], capsys
        )
        assert code == 64
        message = assert_error_record(err, "UsageError")
        assert "--seed" in message

    def test_missing_model(self, capsys):
        code, _, err = run_cli(["simulate", "--n", "25", "--seed", "3"], capsys)
        assert code == 64
        assert_error_record(err, "UsageError")

    def test_config_file(self, tmp_path, capsys):
        config = {
            "experiment": "homogeneous",
            "n": 25,
            "replicates": 6,
            "master_seed": 13,
            "alpha": 0.05,
            "f1": "uniform(0,1)",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, _ = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 0
        echoed = json.loads(out)["config"]
        assert echoed == config
        _, direct, _ = run_cli(
            [
                "simulate", "homogeneous", "uniform(0,1)",
                "--n", "25", "--replicates", "6", "--seed", "13",
            ],
            capsys,
        )
        a, b = json.loads(out), json.loads(direct)
        a.pop("elapsed_s")
        b.pop("elapsed_s")
        assert a == b

    @pytest.mark.parametrize(
        "fields",
        [{"n": "50"}, {"n": 50.5}, {"master_seed": 1.5}, {"replicates": 2.5},
         {"alpha": "0.05"}, {"f1": 5}, None],
        ids=["n-str", "n-float", "seed-float", "replicates-float", "alpha-str", "f1-int", "array"],
    )
    def test_config_of_wrong_type_is_usage_error(self, tmp_path, capsys, fields):
        config = {"experiment": "homogeneous", "n": 50, "replicates": 2, "master_seed": 1,
                  "f1": "normal(0,1)"}
        path = tmp_path / "config.json"
        text = json.dumps([1, 2] if fields is None else {**config, **fields})
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 64 and out == ""
        assert_error_record(err, "ValueError")

    def test_config_conflicts_with_seed(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{}", encoding="utf-8")
        code, _, err = run_cli(
            ["simulate", "--config", str(path), "--seed", "4"], capsys
        )
        assert code == 64
        assert_error_record(err, "UsageError")

    def test_config_conflicts_with_model(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{}", encoding="utf-8")
        code, _, err = run_cli(
            ["simulate", "homogeneous", "--config", str(path)], capsys
        )
        assert code == 64
        assert_error_record(err, "UsageError")

    def test_dump_writes_replicate_csv(self, tmp_path, capsys):
        dump = tmp_path / "rows.csv"
        out_json = tmp_path / "report.json"
        code, out, _ = run_cli(
            [
                "simulate", "homogeneous", "uniform(0,1)",
                "--n", "25", "--replicates", "5", "--seed", "2",
                "--dump", str(dump), "--out", str(out_json),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        lines = dump.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "replicate,t_stat,p_value,reject,u1_dot_uhat"
        assert len(lines) == 6
        report = json.loads(out_json.read_text(encoding="utf-8"))
        assert report["config"]["replicates"] == 5


class TestReproduceCommand:
    def test_unknown_target(self, capsys):
        code, _, err = run_cli(["reproduce", "table9", "--seed", "1"], capsys)
        assert code == 64
        assert_error_record(err, "UsageError")

    def test_seed_is_required(self, capsys):
        code, _, err = run_cli(["reproduce", "table1"], capsys)
        assert code == 64
        message = assert_error_record(err, "UsageError")
        assert "--seed" in message

    def test_fig2_tiny_scale(self, tmp_path, capsys):
        code, out, err = run_cli(
            [
                "reproduce", "fig2", "--seed", "12", "--scale", "0.0025",
                "--out", str(tmp_path / "repro"),
            ],
            capsys,
        )
        assert code == 0
        assert err == ""
        printed = [Path(line) for line in out.splitlines()]
        assert sorted(p.name for p in printed) == [
            "fig2.json",
            "fig2_eigenvalue_qq.csv",
            "fig2_eigenvector_qq.csv",
        ]
        for p in printed:
            assert p.is_file()
            assert p.read_text(encoding="utf-8")


class TestEsdCommand:
    def test_writes_histogram_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "esd"
        code, out, err = run_cli(
            ["esd", "--n", "60", "--bins", "16", "--seed", "3", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert err == ""
        csv_path = out_dir / "esd_histogram.csv"
        json_path = out_dir / "esd_summary.json"
        assert out == f"{csv_path}\n{json_path}\n"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "bin_left,bin_right,mass"
        assert len(lines) == 17
        masses = [float(line.split(",")[2]) for line in lines[1:]]
        assert sum(masses) == pytest.approx(1.0)
        summary = json.loads(json_path.read_text(encoding="utf-8"))["summary"]
        assert 0.0 <= summary["ks_to_semicircle"] <= 1.0
        assert summary["scaled_operator_norm"] > 0.0

    def test_seed_is_required(self, capsys):
        code, _, err = run_cli(["esd", "--n", "50"], capsys)
        assert code == 64
        assert_error_record(err, "UsageError")


class TestQQCommand:
    def test_writes_points_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "qq"
        code, out, err = run_cli(
            [
                "qq", "--n", "30", "--replicates", "40", "--seed", "9",
                "--which", "eigenvector", "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        assert err == ""
        csv_path = out_dir / "qq_eigenvector.csv"
        json_path = out_dir / "qq_summary.json"
        assert out == f"{csv_path}\n{json_path}\n"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "percentile,empirical_quantile,normal_quantile"
        assert len(lines) == 100
        empirical = [float(line.split(",")[1]) for line in lines[1:]]
        assert empirical == sorted(empirical)
        report = json.loads(json_path.read_text(encoding="utf-8"))
        assert report["config"]["which"] == "eigenvector"

    def test_which_is_validated(self, capsys):
        code, _, err = run_cli(
            ["qq", "--n", "30", "--seed", "1", "--which", "median"], capsys
        )
        assert code == 64
        assert_error_record(err, "UsageError")


def test_no_subcommand_is_usage_error(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 64
    assert out == ""
    assert_error_record(err, "UsageError")


def assert_script_accepts(cmd, path, env=None):
    """Run the console script on an accepting 3x3 matrix in a child process."""
    proc = subprocess.run(
        [*cmd, "test", str(path)], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3
    assert proc.stderr == ""


def test_console_script(tmp_path, small_matrix):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    entry = EntryPoint(
        name="rankspectral", value=scripts["rankspectral"], group="console_scripts"
    )
    # The wrapper installers generate for a console_scripts entry point.
    wrapper = tmp_path / "rankspectral"
    wrapper.write_text(
        f"import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n",
        encoding="utf-8",
    )
    assert_script_accepts([sys.executable, str(wrapper)], small_matrix, checkout_env())


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs about half a second of import; only the moment
    # summaries of experiments use it, and they import it when they do.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, rankspectral.cli; print('scipy.stats' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.skipif(
    shutil.which("rankspectral") is None,
    reason="rankspectral console script not installed on PATH",
)
def test_installed_console_script(small_matrix):
    exe = shutil.which("rankspectral")
    assert exe is not None, "console script not on PATH"
    assert_script_accepts([exe], small_matrix)
