"""Eigensolvers, semicircle summaries, subspace distance."""

import math
import re
import subprocess
import sys
import types
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg.blas import dspmv

from rankspectral import (
    ConvergenceError,
    EigenPair,
    Exponential,
    MatrixSource,
    Normal,
    SymmetricMatrix,
    TiePolicy,
    esd_from_eigenvalues,
    full_spectrum,
    leading_eigenpair,
    load_matrix,
    moments,
    rank_transform,
    sample_homogeneous,
    sample_interpolated_rank,
    sample_planted_submatrix,
    sample_two_block,
    save_matrix,
    semicircle_cdf,
    spectra,
    subspace_distance_sq,
    whiten,
)
from rankspectral import symmetric
from rankspectral.rng import make_generator

from conftest import checkout_env, random_symmetric
from oracles import column_pack, expectation_matrix


def rank_values_matrix(n, seed):
    """Random rank matrix via the null model."""
    rng = make_generator(seed)
    n_pairs = n * (n - 1) // 2
    return rank_transform(SymmetricMatrix(n, rng.random(n_pairs)))


class TestLeadingEigenpair:
    def test_constant_matrix_exact(self):
        pair = leading_eigenpair(expectation_matrix(5))
        assert pair.value == pytest.approx(2.0, abs=1e-14)
        assert np.allclose(pair.vector, 1 / math.sqrt(5), atol=1e-12)
        assert pair.vector.sum() > 0

    def test_two_by_two(self):
        pair = leading_eigenpair(SymmetricMatrix(2, [0.5]))
        assert pair.value == pytest.approx(0.5, abs=1e-14)
        assert np.allclose(np.abs(pair.vector), 1 / math.sqrt(2), atol=1e-12)

    def test_zero_matrix(self):
        pair = leading_eigenpair(SymmetricMatrix(4, np.zeros(6)))
        assert pair.value == 0.0
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)

    def test_cross_check_against_lapack(self):
        # Positive entries guarantee a dominant simple eigenvalue.
        for trial in range(60):
            n = 3 + trial % 28
            m = random_symmetric(n, seed=1000 + trial, low=0.2, high=1.0)
            pair = leading_eigenpair(m)
            dense = m.dense()
            top = np.linalg.eigvalsh(dense)[-1]
            assert pair.value == pytest.approx(top, rel=1e-9)
            assert np.linalg.norm(dense @ pair.vector - pair.value * pair.vector) < 1e-8

    def test_residual_contract(self):
        for seed in range(5):
            m = rank_values_matrix(30, seed)
            pair = leading_eigenpair(m)
            fro = math.sqrt(2 * float(m.values @ m.values))
            assert pair.residual <= 1e-12 * (abs(pair.value) + fro / math.sqrt(30))

    def test_sign_convention(self):
        for seed in range(10):
            pair = leading_eigenpair(rank_values_matrix(12, seed))
            assert pair.vector.sum() > 0

    def test_unit_vector(self):
        pair = leading_eigenpair(rank_values_matrix(25, 3))
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)

    def test_restart_escapes_orthogonal_start(self):
        # +1 within two blocks of 3, -1 between them: the constant start
        # vector is an eigenvector for -1, orthogonal to the dominant one,
        # (1, 1, 1, -1, -1, -1) for 5. The iteration settles on -1 at once,
        # and the single restart must recover 5.
        labels = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        m = SymmetricMatrix.from_dense(np.outer(labels, labels))
        pair = leading_eigenpair(m)
        assert pair.value == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(pair.vector, labels / math.sqrt(6), atol=1e-12)

    def test_iteration_cap(self):
        # The path graph 0 - 1 - 2 has eigenvalues +-sqrt(2) and 0. The
        # constant vector meets both extreme eigenvectors, so the iterate
        # alternates between two directions and never converges.
        m = SymmetricMatrix(3, [1.0, 0.0, 1.0])
        message = "no convergence in 10000 iterations (tol=1e-12); "
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}"):
            leading_eigenpair(m)

    @pytest.mark.parametrize("seed, largest", [(1, 34.426), (2, None), (3, None)])
    def test_never_returns_a_negative_leading_value(self, seed, largest):
        # A whitened rank matrix has no spike. At seeds 2 and 3 its most
        # negative eigenvalue (-34.62, -34.16) outweighs its largest (33.62,
        # 33.53), and the iteration would converge onto the negative one.
        sample = sample_homogeneous(300, "uniform(0,1)", seed)
        m = whiten(rank_transform(sample, TiePolicy.random(1)))
        if largest is None:
            with pytest.raises(ConvergenceError, match="negative eigenvalue .* dominates"):
                leading_eigenpair(m)
        else:
            assert leading_eigenpair(m).value == pytest.approx(largest, abs=5e-4)

    def test_returns_frozen_pair(self):
        pair = leading_eigenpair(expectation_matrix(4))
        assert isinstance(pair, EigenPair)
        assert pair.iterations >= 1


def upper_route(matrix, monkeypatch):
    """Power iteration on the upper-packed layout: ``column_pack`` and ``dspmv(lower=0)``.

    The same loop as :func:`leading_eigenpair`, fed the upper-packed buffer.
    """
    upper = types.SimpleNamespace(n=matrix.n, blas=column_pack(matrix.values, matrix.n))
    with monkeypatch.context() as patch:
        patch.setattr(
            spectra, "dspmv", lambda n, alpha, ap, v, lower: dspmv(n, alpha, ap, v, lower=0)
        )
        return leading_eigenpair(upper)


def ulps_apart(a: float, b: float) -> int:
    """Distance in units in the last place between two finite floats of one sign."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def triu_scatter(values, n):
    """The lower-packed buffer of row-major ``values``, scattered by ``np.triu_indices``."""
    upper = np.zeros((n, n))
    upper[np.triu_indices(n, 1)] = values
    return upper[np.triu_indices(n)]


def producers(n, tmp_path):
    """(label, matrix, its row-major values built apart from the package), one per producer.

    The samplers' references come from one whole draw of each stream, in
    the order the sampler takes them; the files are read by the vectorized
    route and, with a ``0_`` prefix only the line parser takes, by the line
    route.
    """
    n_pairs = n * (n - 1) // 2
    rng = make_generator(n)
    values = np.where(rng.random(n_pairs) < 0.2, -0.0, rng.standard_normal(n_pairs))
    yield "constructor", SymmetricMatrix(n, values), values
    rows, cols = np.triu_indices(n, 1)
    dense = np.zeros((n, n))
    dense[rows, cols] = dense[cols, rows] = values
    yield "from_dense", SymmetricMatrix.from_dense(dense), values
    for format in symmetric.FORMATS:
        path = tmp_path / f"{format}-{n}.txt"
        save_matrix(SymmetricMatrix(n, values), path, format)
        text = path.read_text()
        for route, prefix in (("vectorized", ""), ("line", "0_")):
            path.write_text(prefix + text)
            with mock.patch.object(symmetric, "_parse", wraps=symmetric._parse) as line_parser:
                matrix = load_matrix(MatrixSource(format, path))
            assert line_parser.called == (route == "line"), (format, route)
            yield f"load {format} {route}", matrix, values
    normal, exponential = Normal(0.0, 1.0), Exponential(1.0)
    yield "homogeneous", sample_homogeneous(n, "normal(0,1)", n), normal.sample(
        n_pairs, make_generator(n)
    )
    matrix, assignment = sample_two_block(n, "normal(0,1)", "exponential(1)", n)
    stream = make_generator(n)
    stream.permutation(n)
    labels = assignment.labels
    within, between = normal.sample(n_pairs, stream), exponential.sample(n_pairs, stream)
    yield "two-block", matrix, np.where(labels[rows] == labels[cols], within, between)
    matrix, assignment = sample_planted_submatrix(n, n // 2 + 1, "exponential(1)", "normal(0,1)", n)
    stream = make_generator(n)
    stream.permutation(n)
    planted = assignment.labels == 1
    inside, background = exponential.sample(n_pairs, stream), normal.sample(n_pairs, stream)
    yield "planted", matrix, np.where(planted[rows] & planted[cols], inside, background)
    for k in (0, n, math.inf):
        stream = make_generator(n)
        if math.isinf(k):
            expected = stream.random(n_pairs)
        else:
            expected = (stream.permutation(n_pairs + k)[:n_pairs] + 1.0) / (n_pairs + k + 1)
        yield f"interpolated k={k}", sample_interpolated_rank(n, k, n), expected
    scores = rng.standard_normal(n_pairs)
    ranks = np.empty(n_pairs)
    ranks[np.argsort(scores)] = np.arange(1, n_pairs + 1)
    ranks /= n_pairs + 1
    ranked = rank_transform(SymmetricMatrix(n, scores))
    yield "rank_transform", ranked, ranks
    if n >= 3:
        yield "whiten", whiten(ranked), (ranks - 0.5) / math.sqrt(moments(n).sigma_sq)


class TestPackedBlas:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 64])
    def test_matches_triu_index_scatter(self, n, tmp_path):
        labels = []
        for label, matrix, values in producers(n, tmp_path):
            labels.append(label)
            assert matrix.blas.tobytes() == triu_scatter(values, n).tobytes(), label
            # +0.0 on the diagonal, not -0.0.
            diagonal = matrix.blas[symmetric.diagonal_slots(n)]
            assert diagonal.tobytes() == np.zeros(n).tobytes(), label
            assert not matrix.blas.flags.writeable, label
        assert len(labels) == 15 + (n >= 3)

    @pytest.mark.parametrize("n", [3, 300, 1000])
    def test_within_four_ulp_of_the_upper_route(self, n, monkeypatch):
        matrices = {
            "ranks": rank_values_matrix(n, n),
            "k=0": sample_interpolated_rank(n, 0, n),
            "k=inf": sample_interpolated_rank(n, math.inf, n),
        }
        for label, matrix in matrices.items():
            new, old = leading_eigenpair(matrix), upper_route(matrix, monkeypatch)
            assert ulps_apart(new.value, old.value) <= 4, label
            assert np.max(np.abs(new.vector - old.vector)) <= 1e-12, label


BLAS_THREADS_CHILD = """
import math
from rankspectral import SymmetricMatrix, leading_eigenpair, rank_transform
from rankspectral import sample_interpolated_rank
from rankspectral.rng import make_generator

n = 2000
ranked = rank_transform(SymmetricMatrix(n, make_generator(4).random(n * (n - 1) // 2)))
for matrix in (ranked, sample_interpolated_rank(n, math.inf, 5)):
    pair = leading_eigenpair(matrix)
    print(pair.value.hex(), pair.iterations, pair.residual.hex(), pair.vector.tobytes().hex())
"""


def test_eigenpair_bits_do_not_depend_on_the_blas_threads():
    # A product whose bits change with the thread count, such as two dtpmv
    # calls on the row-major values, fails here at n = 2000.
    outputs = []
    for threads in ("1", "2"):
        env = checkout_env()
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_CHILD],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]


class TestFullSpectrum:
    def test_matches_numpy(self):
        for seed in range(8):
            m = random_symmetric(20, seed=seed, low=-2.0, high=2.0)
            got = full_spectrum(m)
            expected = np.linalg.eigvalsh(m.dense())[::-1]
            assert np.allclose(got, expected, atol=1e-12)
            assert np.all(np.diff(got) <= 0)

    def test_trace_zero(self):
        eigs = full_spectrum(rank_values_matrix(50, 2))
        assert abs(eigs.sum()) < 1e-10

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(spectra, "FULL_SPECTRUM_CAP", 5)
        with pytest.raises(ValueError, match="^n=6 exceeds the dense-solver cap 5$"):
            full_spectrum(random_symmetric(6, seed=0))
        assert full_spectrum(random_symmetric(5, seed=0)).shape == (5,)

    def test_agrees_with_power_iteration(self):
        m = rank_values_matrix(60, 9)
        assert full_spectrum(m)[0] == pytest.approx(leading_eigenpair(m).value, rel=1e-11)


class TestSemicircleCdf:
    def test_support_endpoints(self):
        assert semicircle_cdf(-2.0) == 0.0
        assert semicircle_cdf(0.0) == 0.5
        assert semicircle_cdf(2.0) == 1.0
        assert semicircle_cdf(-5.0) == 0.0
        assert semicircle_cdf(7.0) == 1.0

    def test_matches_density_integral(self):
        density = lambda t: math.sqrt(4.0 - t * t) / (2.0 * math.pi)
        for x in (-1.7, -0.5, 0.3, 1.0, 1.9):
            integral, err = quad(density, -2.0, x)
            assert semicircle_cdf(x) == pytest.approx(integral, abs=1e-10)

    def test_array_input(self):
        out = semicircle_cdf(np.array([-2.0, 0.0, 2.0]))
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_symmetry(self):
        x = np.linspace(-2, 2, 41)
        assert np.allclose(semicircle_cdf(x) + semicircle_cdf(-x), 1.0, atol=1e-14)


class TestEsd:
    def test_quantile_grid_has_tiny_ks(self):
        # Eigenvalues placed exactly at semicircle quantiles: KS <= 1/n.
        n = 2000
        probs = (np.arange(n) + 0.5) / n
        grid = np.linspace(-2, 2, 400001)
        quantiles = np.interp(probs, semicircle_cdf(grid), grid)
        summary = esd_from_eigenvalues(quantiles, bins=40)
        assert summary.ks_to_semicircle <= 1.0 / n + 1e-4

    def test_masses_sum_to_one(self):
        summary = esd_from_eigenvalues(np.array([-1.0, 0.0, 1.0, 3.0]), bins=10)
        assert summary.masses.sum() == pytest.approx(1.0, abs=1e-15)
        assert summary.bin_edges.shape == (11,)
        assert summary.bin_edges[0] == -2.5 and summary.bin_edges[-1] == 2.5

    def test_bins_validation(self):
        with pytest.raises(ValueError, match="bins"):
            esd_from_eigenvalues(np.zeros(3), bins=0)


class TestSubspaceDistance:
    def test_known_values(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        w = np.array([1.0, 1.0]) / math.sqrt(2)
        assert subspace_distance_sq(u, u) == 0.0
        assert subspace_distance_sq(u, -u) == 0.0
        assert subspace_distance_sq(u, v) == 2.0
        assert subspace_distance_sq(u, w) == pytest.approx(1.0, rel=1e-12)

    def test_half_overlap(self):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        v = np.array([0.5, math.sqrt(3) / 2, 0.0, 0.0])
        assert subspace_distance_sq(u, v) == pytest.approx(1.5, rel=1e-12)

    def test_matches_projector_frobenius(self, rng):
        for _ in range(10):
            u = rng.normal(size=7)
            v = rng.normal(size=7)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            frob = np.linalg.norm(np.outer(u, u) - np.outer(v, v)) ** 2
            assert subspace_distance_sq(u, v) == pytest.approx(frob, abs=1e-12)

    def test_requires_unit_vectors(self):
        with pytest.raises(ValueError, match="unit"):
            subspace_distance_sq(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="equal length"):
            subspace_distance_sq(np.array([1.0]), np.array([1.0, 0.0]))


