"""Standardized statistics and the structure test."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from rankspectral import (
    SymmetricMatrix,
    TestResult,
    TieError,
    TiePolicy,
    Z_0025,
    eigenvalue_statistic,
    eigenvector_statistic,
    moments,
    run_test,
    std_normal_cdf,
)
from rankspectral.rng import make_generator

from conftest import random_symmetric


class TestStdNormalCdf:
    def test_reference_values(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert std_normal_cdf(-1.0) == pytest.approx(0.15865525393145707, abs=1e-13)
        assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-13)
        assert std_normal_cdf(3.0) == pytest.approx(0.9986501019683699, abs=1e-13)

    def test_exact_tails(self):
        assert std_normal_cdf(-41.0) == 0.0
        assert std_normal_cdf(41.0) == 1.0

    def test_symmetry(self):
        x = np.linspace(-6, 6, 25)
        assert np.allclose(std_normal_cdf(x) + std_normal_cdf(-x), 1.0, atol=1e-14)

    def test_array_and_scalar(self):
        arr = std_normal_cdf(np.array([0.0, 1.0]))
        assert isinstance(arr, np.ndarray)
        assert isinstance(std_normal_cdf(0.0), float)

    def test_critical_value_consistency(self):
        # The pinned cutoff is the 97.5% point to ten decimals.
        assert 2.0 * (1.0 - std_normal_cdf(Z_0025)) == pytest.approx(0.05, abs=1e-10)


class TestEigenvalueStatistic:
    def test_small_example(self):
        # n=3: centering 13/12, scale (1/24) sqrt(8/3).
        expected = float((1.2 - Fraction(13, 12)) / (Fraction(1, 24) * math.sqrt(8 / 3)))
        assert eigenvalue_statistic(1.2, 3) == pytest.approx(expected, rel=1e-12)

    def test_centering_gives_zero(self):
        m = moments(50)
        assert eigenvalue_statistic(m.centering, 50) == 0.0

    def test_scale_is_sigma_tilde(self):
        m = moments(200)
        t = eigenvalue_statistic(m.centering + m.sigma_tilde, 200)
        assert t == pytest.approx(1.0, rel=1e-12)

    def test_large_n_normalization(self):
        # n=2000: sigma_tilde ~ 5.27e-3, centering ~ 999.6667.
        m = moments(2000)
        assert m.sigma_tilde == pytest.approx(5.2705e-3, rel=1e-4)
        assert m.centering == pytest.approx(999.6667, abs=1e-4)
        assert eigenvalue_statistic(999.67, 2000) == pytest.approx(
            (999.67 - m.centering) / m.sigma_tilde, rel=1e-12
        )

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError, match="n >= 3"):
            eigenvalue_statistic(1.0, 2)


class TestEigenvectorStatistic:
    def test_perfect_alignment(self):
        # uhat equal to the constant vector: statistic is 1/(6 sigma_tilde).
        n = 40
        uhat = np.full(n, 1.0 / math.sqrt(n))
        expected = 1.0 / (6.0 * moments(n).sigma_tilde)
        assert eigenvector_statistic(uhat, n) == pytest.approx(expected, rel=1e-12)

    def test_null_expectation_point(self):
        # Overlap exactly 1 - 1/(6n) makes the statistic 0.
        n = 30
        c = 1.0 - 1.0 / (6.0 * n)
        w = np.zeros(n)
        w[0], w[1] = 1.0 / math.sqrt(2), -1.0 / math.sqrt(2)
        uhat = c / math.sqrt(n) + math.sqrt(1.0 - c * c) * w
        assert abs(eigenvector_statistic(uhat, n)) < 1e-9

    def test_rejects_bad_inputs(self):
        n = 10
        with pytest.raises(ValueError, match="shape"):
            eigenvector_statistic(np.ones(n - 1) / math.sqrt(n - 1), n)
        with pytest.raises(ValueError, match="unit"):
            eigenvector_statistic(np.ones(n), n)
        with pytest.raises(ValueError, match="sign-fixed"):
            eigenvector_statistic(-np.ones(n) / math.sqrt(n), n)
        with pytest.raises(ValueError, match="n >= 3"):
            eigenvector_statistic(np.ones(2) / math.sqrt(2), 2)


class TestRunTest:
    def test_result_schema(self):
        m = random_symmetric(30, seed=1)
        res = run_test(m)
        assert isinstance(res, TestResult)
        parsed = json.loads(res.to_json())
        assert list(parsed.keys()) == [
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
        assert parsed["n"] == 30
        assert isinstance(parsed["reject"], bool)

    def test_reject_consistency(self):
        for seed in range(10):
            m = random_symmetric(25, seed=seed)
            for alpha in (0.01, 0.05, 0.5):
                res = run_test(m, alpha=alpha)
                assert res.reject == (res.p_value < alpha)

    def test_statistic_matches_components(self):
        m = random_symmetric(40, seed=6)
        res = run_test(m)
        assert res.t_stat == pytest.approx(eigenvalue_statistic(res.lambda1, 40), rel=1e-12)
        assert res.p_value == pytest.approx(
            2.0 * (1.0 - std_normal_cdf(abs(res.t_stat))), rel=1e-12
        )

    def test_alternative_greater(self):
        m = random_symmetric(40, seed=6)
        two = run_test(m)
        one = run_test(m, alternative="greater")
        assert one.p_value == pytest.approx(1.0 - std_normal_cdf(two.t_stat), rel=1e-12)

    def test_monotone_invariance_end_to_end(self):
        m = random_symmetric(35, seed=9, low=0.1, high=2.0)
        base = run_test(m)
        for f in (np.exp, lambda x: x**3 + 10.0):
            res = run_test(SymmetricMatrix(35, f(m.values)))
            assert res.to_json() == base.to_json()

    def test_tie_handling(self):
        vals = np.array([1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        m = SymmetricMatrix(4, vals)
        with pytest.raises(TieError):
            run_test(m)
        res = run_test(m, policy=TiePolicy.random(3))
        assert 0.0 <= res.p_value <= 1.0

    def test_null_matrix_is_plausible(self):
        # A clean null draw at n=300 should produce a modest statistic.
        rng = make_generator(77)
        m = SymmetricMatrix(300, rng.random(300 * 299 // 2))
        res = run_test(m)
        assert abs(res.t_stat) < 4.0
        assert res.u1_dot_uhat > 0.99

    def test_structured_matrix_rejects(self):
        # Two well-separated blocks: overwhelming evidence.
        n = 60
        labels = np.arange(n) < n // 2
        rng = make_generator(5)
        within = np.equal.outer(labels, labels)
        dense = np.where(within, rng.uniform(0, 1, (n, n)), rng.uniform(10, 11, (n, n)))
        dense = np.triu(dense, 1)
        dense = dense + dense.T
        res = run_test(SymmetricMatrix.from_dense(dense))
        assert res.reject
        assert res.p_value < 1e-3

    def test_parameter_validation(self):
        m = random_symmetric(10, seed=0)
        with pytest.raises(ValueError, match="alpha"):
            run_test(m, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            run_test(m, alpha=1.0)
        with pytest.raises(ValueError, match="alternative"):
            run_test(m, alternative="less")
        with pytest.raises(ValueError, match="n >= 3"):
            run_test(random_symmetric(2, seed=0))

