"""Experiment drivers: determinism, stream layout, summaries, dumps."""

import itertools
import json
import math
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from scipy import stats

from rankspectral import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    eigen_relationship_experiment,
    fk_comparison_experiment,
    normal_qq_points,
    null_distribution_experiment,
    operator_norm_tail_experiment,
    rejection_rate_experiment,
    semicircle_experiment,
    subspace_recovery_ratio_experiment,
    variance_transition_experiment,
)
from rankspectral import experiments, forked
from rankspectral.experiments import _run_indexed

from conftest import checkout_env


def small_config(**overrides):
    base = dict(
        experiment="homogeneous",
        n=25,
        replicates=12,
        master_seed=7,
        f1="uniform(0, 1)",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_valid_roundtrip(self):
        cfg = small_config()
        cfg.validate()
        echo = cfg.to_dict()
        assert echo["experiment"] == "homogeneous"
        assert "threads" not in echo  # execution detail, not config
        again = ExperimentConfig.from_dict(echo)
        assert again.to_dict() == echo

    def test_from_json(self):
        cfg = ExperimentConfig.from_json(
            json.dumps(
                {
                    "experiment": "two_block",
                    "n": 10,
                    "replicates": 3,
                    "master_seed": 1,
                    "f1": "normal(1, 1)",
                    "f2": "normal(2, 1)",
                }
            )
        )
        assert cfg.f2 == "normal(2, 1)"

    def test_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"experiment": "homogeneous", "color": "red"})

    def test_missing_fields(self):
        with pytest.raises(ValueError, match="missing config fields"):
            ExperimentConfig.from_dict({"experiment": "homogeneous"})

    def test_validation_branches(self):
        with pytest.raises(ValueError, match="experiment"):
            small_config(experiment="three_block").validate()
        with pytest.raises(ValueError, match="n must be"):
            small_config(n=2).validate()
        with pytest.raises(ValueError, match="replicates"):
            small_config(replicates=0).validate()
        with pytest.raises(ValueError, match="alpha"):
            small_config(alpha=1.5).validate()
        with pytest.raises(ValueError, match="threads"):
            small_config(threads=0).validate()
        with pytest.raises(ValueError, match="f1 is required"):
            small_config(f1=None).validate()
        with pytest.raises(ValueError, match="f2 is required"):
            small_config(experiment="two_block", f2=None).validate()
        with pytest.raises(ValueError, match="n1 is required"):
            small_config(experiment="planted", f2="normal(2,1)").validate()
        with pytest.raises(ValueError, match="1 <= n1 <= n"):
            small_config(experiment="planted", f2="normal(2,1)", n1=26).validate()
        # Types as JSON can give them: an int field takes no bool, float or string.
        for name in ("n", "replicates", "master_seed", "threads", "n1"):
            for value in (True, 25.0, "25"):
                with pytest.raises(ValueError, match=f"{name} must be an int"):
                    small_config(**{name: value}).validate()
        for value in ("0.05", False, None):
            with pytest.raises(ValueError, match="alpha must be a real number"):
                small_config(alpha=value).validate()
        for name in ("f1", "f2"):
            with pytest.raises(ValueError, match=f"{name} must be a string"):
                small_config(**{name: 5}).validate()
        with pytest.raises(ValueError, match="config must be a JSON object, got list"):
            ExperimentConfig.from_dict([1, 2])


class TestRunIndexed:
    def test_order_preserved(self):
        out = _run_indexed(lambda i: (i * i,), 6, threads=3)
        assert [row[0] for row in out] == [0, 1, 4, 9, 16, 25]

    @pytest.mark.parametrize("route", ["fork", "thread"])
    @pytest.mark.parametrize("faults, first", [((3,), 3), ((3, 4), 3), ((2, 5), 2)])
    def test_lowest_failing_index_wins(self, faults, first, route, monkeypatch):
        # With two workers, faults in one worker's share or in both: the
        # lowest failing replicate is named, as in a serial run.
        if route == "thread":
            monkeypatch.setattr(forked, "may_fork", lambda: False)
        elif not forked.may_fork():
            pytest.skip("replicates run in threads here")

        def worker(i):
            if i in faults:
                raise ValueError("boom")
            return (i,)

        for threads in (1, 2):
            with pytest.raises(ExperimentError, match=f"^replicate {first} failed: boom$"):
                _run_indexed(worker, 8, threads)

    @pytest.mark.parametrize("threads", [0, -4])
    def test_fewer_than_one_thread_is_refused_before_any_replicate(self, threads):
        ran = []
        with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
            _run_indexed(lambda i: ran.append(i) or (i,), 3, threads)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            null_distribution_experiment(n=10, replicates=2, seed=1, threads=threads)
        assert ran == []


def run_script(source: str, env: dict, timeout: float = 300) -> str:
    """Stdout of ``source`` run in a fresh interpreter; fails on error or timeout."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(not forked.may_fork(), reason="replicates run in threads here")
class TestWorkerProcesses:
    def test_dead_worker_is_an_error_not_a_hang(self):
        out = run_script(
            """
            import os
            from rankspectral import ExperimentError
            from rankspectral.experiments import _run_indexed

            def worker(i):
                if i == 3:
                    os._exit(7)  # as a worker killed for memory would vanish
                return (float(i),)

            try:
                _run_indexed(worker, 8, threads=2)
            except ExperimentError as exc:
                print(exc)
            """,
            checkout_env(),
            timeout=120,
        )
        assert out.startswith("a replicate worker process died")

    def test_workers_are_forked_by_the_one_helper(self):
        # min(threads, count) workers, and no process pool's modules.
        out = run_script(
            """
            import os, sys
            from rankspectral import null_distribution_experiment

            forks = []
            fork = os.fork

            def recorded():
                pid = fork()
                if pid:
                    forks.append(pid)
                return pid

            os.fork = recorded
            null_distribution_experiment(n=10, replicates=2, seed=1, threads=3)
            null_distribution_experiment(n=10, replicates=5, seed=1, threads=2)
            print(len(forks))
            print("multiprocessing" in sys.modules, "concurrent.futures.process" in sys.modules)
            """,
            checkout_env(),
            timeout=120,
        )
        assert out.split("\n") == ["4", "False False", ""]

    def test_forked_after_blas_threads_started(self):
        # With no thread pins, OpenBLAS sizes its pool to the cores and starts
        # it at the first large product; the workers fork from that state.
        env = checkout_env()
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(name, None)
        out = run_script(
            """
            import numpy as np
            from rankspectral import ExperimentConfig, rejection_rate_experiment

            a = np.random.default_rng(0).random((600, 600))
            print(float((a @ a).sum()) > 0)

            def report(threads):
                config = ExperimentConfig(
                    experiment="two_block", n=120, replicates=6, master_seed=3,
                    f1="normal(0,1)", f2="normal(1,1)", threads=threads,
                )
                r = rejection_rate_experiment(config)
                parts = [r.to_json(include_elapsed=False).encode()]
                parts += [r.arrays[k].tobytes() for k in sorted(r.arrays)]
                return b"\\n".join(parts)

            print(report(1) == report(2))
            """,
            env,
        )
        assert out.split() == ["True", "True"]


class TestRejectionRateExperiment:
    def test_summary_schema(self):
        report = rejection_rate_experiment(small_config())
        assert isinstance(report, ExperimentReport)
        s = report.summary
        assert s["rejections"] == int(round(s["rejection_rate"] * 12))
        assert 0.0 <= s["rejection_rate"] <= 1.0
        assert s["t_stat"]["count"] == 12
        for key in ("mean", "variance", "skewness", "ks_to_normal"):
            assert key in s["t_stat"]
        assert set(report.arrays) == {"t_stat", "p_value", "reject", "u1_dot_uhat"}
        assert report.elapsed_s > 0

    def test_thread_count_invisible_in_report(self):
        a = rejection_rate_experiment(small_config(threads=1))
        b = rejection_rate_experiment(small_config(threads=3))
        assert a.to_json(include_elapsed=False) == b.to_json(include_elapsed=False)
        for key in a.arrays:
            assert np.array_equal(a.arrays[key], b.arrays[key])

    def test_rerun_identical(self):
        a = rejection_rate_experiment(small_config())
        b = rejection_rate_experiment(small_config())
        assert a.to_json(include_elapsed=False) == b.to_json(include_elapsed=False)

    def test_seed_changes_results(self):
        a = rejection_rate_experiment(small_config())
        b = rejection_rate_experiment(small_config(master_seed=8))
        assert not np.array_equal(a.arrays["t_stat"], b.arrays["t_stat"])

    def test_dump_recomputes_summary(self, tmp_path):
        path = tmp_path / "reps.csv"
        report = rejection_rate_experiment(small_config(), dump_path=path)
        assert report.replicates_path == str(path)
        assert report.to_dict()["replicates_path"] == str(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "replicate,t_stat,p_value,reject,u1_dot_uhat"
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.shape == (12,)
        assert float(data["reject"].mean()) == report.summary["rejection_rate"]
        assert float(data["t_stat"].mean()) == pytest.approx(
            report.summary["t_stat"]["mean"], rel=1e-12
        )
        # Integer-valued columns are written as integers.
        assert lines[1].split(",")[0] == "0"
        assert lines[1].split(",")[3] in ("0", "1")

    def test_two_block_and_planted_run(self):
        two = rejection_rate_experiment(
            small_config(experiment="two_block", f1="normal(1,1)", f2="normal(2,1)")
        )
        assert two.config["f2"] == "normal(2,1)"
        planted = rejection_rate_experiment(
            small_config(experiment="planted", f1="normal(2,1)", f2="normal(1,1)", n1=6)
        )
        assert planted.config["n1"] == 6

    def test_validates_config(self):
        with pytest.raises(ValueError):
            rejection_rate_experiment(small_config(n=2))


class TestNullDistributionExperiment:
    def test_schema_and_qq(self):
        report = null_distribution_experiment(n=20, replicates=150, seed=3)
        assert report.summary["which"] == "eigenvalue"
        assert report.summary["count"] == 150
        qq = report.summary["qq"]
        assert len(qq) == 99
        empirical = [pair[0] for pair in qq]
        theoretical = [pair[1] for pair in qq]
        assert empirical == sorted(empirical)
        assert theoretical[49] == pytest.approx(0.0, abs=1e-12)
        assert set(report.arrays) == {"lambda1", "eigenvalue_stat", "eigenvector_stat"}

    def test_which_selects_statistic(self):
        ev = null_distribution_experiment(n=15, replicates=80, seed=5, which="eigenvector")
        assert ev.summary["which"] == "eigenvector"
        assert ev.summary["mean"] == pytest.approx(
            float(ev.arrays["eigenvector_stat"].mean()), rel=1e-12
        )
        with pytest.raises(ValueError, match="which"):
            null_distribution_experiment(n=15, replicates=10, seed=5, which="both")

    def test_dump_columns(self, tmp_path):
        path = tmp_path / "null.csv"
        report = null_distribution_experiment(n=12, replicates=9, seed=1, dump_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "replicate,lambda1,eigenvalue_stat,eigenvector_stat"
        assert len(lines) == 10
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert np.allclose(data["lambda1"], report.arrays["lambda1"])

    def test_n3_enumeration_exact(self):
        # At n=3 all 6 rank assignments are node relabelings of one matrix,
        # so lambda1 is a.s. constant and the sampler must hit it exactly.
        values = np.array([1.0, 2.0, 3.0]) / 4.0
        tops = []
        for perm in itertools.permutations(values):
            dense = np.zeros((3, 3))
            dense[0, 1] = dense[1, 0] = perm[0]
            dense[0, 2] = dense[2, 0] = perm[1]
            dense[1, 2] = dense[2, 1] = perm[2]
            tops.append(np.linalg.eigvalsh(dense)[-1])
        exact = np.unique(np.round(tops, 12))
        assert exact.shape == (1,)
        report = null_distribution_experiment(n=3, replicates=40, seed=9)
        assert np.allclose(report.arrays["lambda1"], exact[0], atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            null_distribution_experiment(n=2, replicates=5, seed=0)
        with pytest.raises(ValueError, match="replicates"):
            null_distribution_experiment(n=5, replicates=0, seed=0)

    @pytest.mark.slow
    def test_level_holds_for_heavy_tailed_family(self):
        # Distribution-freeness: the level is the uniform-null level even
        # under Pareto(1,1) entries (infinite mean).
        cfg = ExperimentConfig(
            experiment="homogeneous",
            n=1000,
            replicates=400,
            master_seed=17,
            f1="pareto(1, 1)",
        )
        report = rejection_rate_experiment(cfg)
        assert 0.03 <= report.summary["rejection_rate"] <= 0.07

    @pytest.mark.slow
    def test_statistic_law_family_invariant(self):
        # Two-sample KS between t-statistics under uniform and Pareto
        # nulls; identical laws by construction.
        def stats_for(f1, seed):
            cfg = ExperimentConfig(
                experiment="homogeneous",
                n=400,
                replicates=300,
                master_seed=seed,
                f1=f1,
            )
            return rejection_rate_experiment(cfg).arrays["t_stat"]

        a = stats_for("uniform(0, 1)", 21)
        b = stats_for("pareto(1, 1)", 22)
        result = stats.ks_2samp(a, b)
        assert result.pvalue > 0.001


class TestVarianceTransitionExperiment:
    def test_rows_and_layout(self):
        report = variance_transition_experiment(12, [0, 5, math.inf], 6, seed=2)
        rows = report.summary["rows"]
        assert [r["k"] for r in rows] == [0, 5, "inf"]
        assert report.config["k_list"] == [0, 5, "inf"]
        assert report.arrays["lambda1"].shape == (3, 6)
        for r in rows:
            assert r["var_lambda1"] >= 0.0

    def test_extending_k_list_preserves_cells(self):
        short = variance_transition_experiment(10, [0], 5, seed=4)
        longer = variance_transition_experiment(10, [0, math.inf], 5, seed=4)
        assert np.array_equal(
            short.arrays["lambda1"][0], longer.arrays["lambda1"][0]
        )

    def test_variance_ordering(self):
        # Exact ranks are maximally constrained; iid uniform maximally free.
        report = variance_transition_experiment(40, [0, math.inf], 120, seed=6)
        rows = report.summary["rows"]
        assert rows[0]["var_lambda1"] < rows[1]["var_lambda1"]

    def test_validation(self):
        with pytest.raises(ValueError, match="replicates"):
            variance_transition_experiment(10, [0], 1, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            variance_transition_experiment(10, [], 5, seed=0)
        with pytest.raises(ValueError, match="invalid k"):
            variance_transition_experiment(10, [2.5], 5, seed=0)
        with pytest.raises(ValueError, match="invalid k"):
            variance_transition_experiment(10, [10_000], 5, seed=0)

    @pytest.mark.parametrize(
        "k", [-math.inf, math.nan, 2.5, 10 * 45 + 1], ids=["-inf", "nan", "2.5", "10N+1"]
    )
    def test_bad_k_is_refused_before_any_replicate(self, k, monkeypatch):
        # The sampler's own rule, checked for every k before replicate 0 runs.
        def no_replicates(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(experiments, "sample_interpolated_rank", no_replicates)
        with pytest.raises(ValueError, match="invalid k"):
            variance_transition_experiment(10, [0, k], 2, seed=0)

    @pytest.mark.parametrize("n", [2, 1, 0])
    def test_small_n_is_refused_before_any_replicate(self, n):
        with pytest.raises(ValueError, match=f"n must be >= 3, got {n}"):
            variance_transition_experiment(n, [0, math.inf], 2, seed=0)


class TestSemicircleExperiment:
    def test_summary_and_report(self):
        summary, report = semicircle_experiment(n=200, bins=30, seed=5)
        assert summary.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert summary.bin_edges.shape == (31,)
        assert report.summary["ks_to_semicircle"] == summary.ks_to_semicircle
        assert summary.ks_to_semicircle < 0.15
        assert 1.5 < report.summary["scaled_operator_norm"] < 2.5
        assert report.arrays["scaled_eigenvalues"].shape == (200,)

    def test_deterministic(self):
        a = semicircle_experiment(n=60, bins=10, seed=3)[1]
        b = semicircle_experiment(n=60, bins=10, seed=3)[1]
        assert a.to_json(include_elapsed=False) == b.to_json(include_elapsed=False)


class TestOperatorNormTailExperiment:
    def test_no_exceedances_in_small_sample(self):
        report = operator_norm_tail_experiment(n=40, replicates=15, seed=1)
        s = report.summary
        assert s["threshold"] == pytest.approx(6 * math.sqrt(40), rel=1e-15)
        assert s["exceedances"] == 0
        assert s["frequency"] == 0.0
        # Centered rank norms sit near 2 sigma sqrt(n), far below 6 sqrt(n).
        assert s["max_norm_over_sqrt_n"] < 1.0
        assert report.arrays["norm"].shape == (15,)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            operator_norm_tail_experiment(n=2, replicates=5, seed=0)


class TestFkComparisonExperiment:
    def test_schema_and_scaling(self):
        report = fk_comparison_experiment(n=120, replicates=60, seed=4)
        s = report.summary
        assert s["mean_lambda1_over_n"] == pytest.approx(0.5, abs=0.02)
        for key in ("fk_statistic", "eigenvector_statistic"):
            assert s[key]["count"] == 60
            assert len(s[key]["qq"]) == 99
        # Constant-order fluctuations: the fk statistic is O(1).
        assert abs(s["fk_statistic"]["mean"]) < 1.5
        assert 0.2 < s["fk_statistic"]["variance"] < 5.0

    def test_validation(self):
        with pytest.raises(ValueError, match="replicates"):
            fk_comparison_experiment(n=10, replicates=0, seed=0)


class TestSubspaceRecoveryRatioExperiment:
    def test_ratio_in_plausible_band(self):
        report = subspace_recovery_ratio_experiment(
            n=200, mu=1.0, sigma=1.0, replicates=25, seed=6
        )
        s = report.summary
        assert s["limit"] == pytest.approx(1 / 3, rel=1e-12)
        assert 0.15 < s["ratio"] < 0.6
        assert s["mean_dist_rank"] < s["mean_dist_raw"]

    def test_negative_mean_recovers_the_spike(self):
        # The raw spike is the most negative eigenvalue; the ratio's limit
        # depends on mu^2 only.
        report = subspace_recovery_ratio_experiment(
            n=200, mu=-1.0, sigma=1.0, replicates=20, seed=6
        )
        s = report.summary
        assert s["limit"] == pytest.approx(1 / 3, rel=1e-12)
        assert 0.25 < s["ratio"] < 0.42

    def test_rank_transform_loses_when_mean_dominates(self):
        # mu^2 > 3 sigma^2: raw matrix recovers the constant direction better.
        report = subspace_recovery_ratio_experiment(
            n=150, mu=3.0, sigma=1.0, replicates=25, seed=7
        )
        assert report.summary["limit"] == pytest.approx(3.0, rel=1e-12)
        assert report.summary["ratio"] > 1.5

    def test_validation(self):
        with pytest.raises(ValueError, match="mu"):
            subspace_recovery_ratio_experiment(n=10, mu=0.0, sigma=1.0, replicates=5, seed=0)
        with pytest.raises(ValueError, match="sigma"):
            subspace_recovery_ratio_experiment(n=10, mu=1.0, sigma=0.0, replicates=5, seed=0)


class TestEigenRelationshipExperiment:
    def test_rows_and_residual_decay(self):
        report = eigen_relationship_experiment([100, 400], replicates=30, seed=8)
        rows = report.summary["rows"]
        assert [r["n"] for r in rows] == [100, 400]
        assert rows[1]["median_residual"] < rows[0]["median_residual"]
        for r in rows:
            assert 0.9 < r["min_overlap"] <= r["max_overlap"] <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="n >= 3"):
            eigen_relationship_experiment([2], replicates=5, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            eigen_relationship_experiment([], replicates=5, seed=0)


def test_normal_qq_points_gaussian_input():
    rng = np.random.default_rng(3)
    points = normal_qq_points(rng.standard_normal(20_000))
    diffs = [abs(e - t) for e, t in points]
    assert max(diffs) < 0.1


EXPERIMENT_RUNS = [
    pytest.param(
        lambda threads: null_distribution_experiment(
            n=15, replicates=8, seed=2, which="eigenvector", threads=threads
        ),
        id="null_distribution",
    ),
    pytest.param(
        lambda threads: variance_transition_experiment(
            10, [0, 10, 45, math.inf], 2, seed=3, threads=threads
        ),
        id="variance_transition",
    ),
    pytest.param(
        lambda threads: operator_norm_tail_experiment(
            n=12, replicates=7, seed=4, threads=threads
        ),
        id="operator_norm_tail",
    ),
    pytest.param(
        lambda threads: fk_comparison_experiment(n=12, replicates=8, seed=5, threads=threads),
        id="fk_comparison",
    ),
    pytest.param(
        lambda threads: subspace_recovery_ratio_experiment(
            n=12, mu=1.0, sigma=1.0, replicates=7, seed=6, threads=threads
        ),
        id="subspace_recovery_ratio",
    ),
    pytest.param(
        lambda threads: eigen_relationship_experiment(
            [8, 12], replicates=4, seed=7, threads=threads
        ),
        id="eigen_relationship",
    ),
]


def assert_same_report(a, b):
    assert a.to_json(include_elapsed=False) == b.to_json(include_elapsed=False)
    assert list(a.arrays) == list(b.arrays)
    for key in a.arrays:
        assert a.arrays[key].tobytes() == b.arrays[key].tobytes()


@pytest.mark.parametrize("run", EXPERIMENT_RUNS)
def test_thread_count_invisible_in_every_experiment(run):
    # No replicate count here is a multiple of 3: three workers get uneven shares.
    serial = run(1)
    assert_same_report(serial, run(2))
    assert_same_report(serial, run(3))


@pytest.mark.parametrize("run", EXPERIMENT_RUNS)
def test_thread_route_gives_the_same_bits(run, monkeypatch):
    # The route off Linux or beside another thread: worker threads in this process.
    monkeypatch.setattr(forked, "may_fork", lambda: False)
    assert_same_report(run(1), run(2))


def test_no_fork_while_another_thread_runs(forks):
    # A worker would inherit the locks the other thread holds: replicates
    # run in threads instead, with the same bits.
    def run(threads):
        return null_distribution_experiment(n=15, replicates=8, seed=2, threads=threads)

    serial = run(1)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        beside = run(2)
    finally:
        release.set()
        thread.join()
    assert forks == []
    assert_same_report(serial, beside)
