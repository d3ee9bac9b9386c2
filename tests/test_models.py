"""Entry distributions, their text forms, and the generative models."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from rankspectral import (
    DistributionParseError,
    Exponential,
    Normal,
    Pareto,
    Uniform,
    parse_distribution,
    sample_homogeneous,
    sample_interpolated_rank,
    sample_planted_submatrix,
    sample_two_block,
)
from rankspectral.models import as_distribution
from rankspectral.rng import make_generator
from rankspectral.symmetric import pair_indices


def reference_two_block(n, within, between, seed):
    """sample_two_block's values by the pair-index formulation it replaced."""
    rng = make_generator(seed)
    labels = np.concatenate([np.ones(n // 2, dtype=np.int64), -np.ones(n - n // 2, dtype=np.int64)])
    labels = rng.permutation(labels)
    rows, cols = pair_indices(n)
    same = labels[rows] == labels[cols]
    n_pairs = rows.shape[0]
    first = as_distribution(within).sample(n_pairs, rng)
    return np.where(same, first, as_distribution(between).sample(n_pairs, rng)), labels


def reference_planted(n, n1, inside, background, seed):
    """sample_planted_submatrix's values by the pair-index formulation it replaced."""
    rng = make_generator(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[:n1] = 1
    labels = rng.permutation(labels)
    rows, cols = pair_indices(n)
    planted = (labels[rows] == 1) & (labels[cols] == 1)
    n_pairs = rows.shape[0]
    first = as_distribution(inside).sample(n_pairs, rng)
    return np.where(planted, first, as_distribution(background).sample(n_pairs, rng)), labels


class TestParseDistribution:
    def test_all_families(self):
        assert parse_distribution("normal(1, 2)") == Normal(1.0, 2.0)
        assert parse_distribution("uniform(0, 1)") == Uniform(0.0, 1.0)
        assert parse_distribution("exponential(3)") == Exponential(3.0)
        assert parse_distribution("pareto(1, 1)") == Pareto(1.0, 1.0)

    def test_whitespace_and_case(self):
        assert parse_distribution("  Normal( 1.5 ,0.25 )  ".strip()) == Normal(1.5, 0.25)
        assert parse_distribution("PARETO(0.5,2)") == Pareto(0.5, 2.0)

    def test_scientific_notation(self):
        assert parse_distribution("normal(1e-3, 2.5e2)") == Normal(0.001, 250.0)

    def test_round_trip(self):
        # Parameters written with repr, as configs carry them, read back exactly.
        for text, dist in (
            (f"normal({1.0!r},{0.1!r})", Normal(1.0, 0.1)),
            (f"normal({1 + 2000 ** (-0.25)!r},{1.0!r})", Normal(1 + 2000 ** (-0.25), 1.0)),
            (f"uniform({-1.5!r},{2.5!r})", Uniform(-1.5, 2.5)),
            (f"exponential({0.3!r})", Exponential(0.3)),
            (f"pareto({0.5!r},{2.0!r})", Pareto(0.5, 2.0)),
        ):
            assert parse_distribution(text) == dist

    def test_missing_head(self):
        with pytest.raises(DistributionParseError, match="column 1"):
            parse_distribution("(1, 2)")

    def test_unknown_family_column(self):
        with pytest.raises(DistributionParseError, match="unknown family") as err:
            parse_distribution("gamma(1, 2)")
        assert err.value.column == 1
        with pytest.raises(DistributionParseError) as err:
            parse_distribution("  cauchy(0, 1)")
        assert err.value.column == 3

    def test_missing_close_paren(self):
        with pytest.raises(DistributionParseError, match="closing"):
            parse_distribution("normal(1, 2")

    def test_trailing_garbage(self):
        with pytest.raises(DistributionParseError, match="closing"):
            parse_distribution("normal(1, 2) extra")

    def test_non_numeric_argument_column(self):
        with pytest.raises(DistributionParseError, match="expected a number") as err:
            parse_distribution("normal(1, sigma)")
        assert err.value.column == 11

    def test_wrong_arity(self):
        with pytest.raises(DistributionParseError, match="takes 2 parameter"):
            parse_distribution("normal(1)")
        with pytest.raises(DistributionParseError, match="takes 1 parameter"):
            parse_distribution("exponential(1, 2)")
        with pytest.raises(DistributionParseError, match="takes 2 parameter"):
            parse_distribution("uniform()")

    def test_constraint_violations(self):
        with pytest.raises(DistributionParseError, match="sigma must be > 0"):
            parse_distribution("normal(0, 0)")
        with pytest.raises(DistributionParseError, match="low < high"):
            parse_distribution("uniform(2, 1)")
        with pytest.raises(DistributionParseError, match="rate must be > 0"):
            parse_distribution("exponential(-1)")
        with pytest.raises(DistributionParseError, match="scale and shape"):
            parse_distribution("pareto(0, 1)")

    def test_direct_constructor_validation(self):
        with pytest.raises(ValueError):
            Normal(0.0, -1.0)
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Pareto(1.0, 0.0)

    def test_as_distribution(self):
        assert as_distribution("normal(0, 1)") == Normal(0.0, 1.0)
        d = Pareto(1.0, 1.0)
        assert as_distribution(d) is d
        with pytest.raises(TypeError):
            as_distribution(42)

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(1e-6, 1e6, allow_nan=False),
    )
    def test_normal_round_trip_property(self, mu, sigma):
        assert parse_distribution(f"normal({mu!r},{sigma!r})") == Normal(mu, sigma)


class TestDistributionSampling:
    def test_normal_moments(self):
        rng = make_generator(1)
        x = Normal(2.0, 0.5).sample(200_000, rng)
        assert x.mean() == pytest.approx(2.0, abs=0.01)
        assert x.std() == pytest.approx(0.5, abs=0.01)

    def test_uniform_bounds(self):
        rng = make_generator(2)
        x = Uniform(-1.0, 3.0).sample(10_000, rng)
        assert x.min() >= -1.0 and x.max() < 3.0
        assert x.mean() == pytest.approx(1.0, abs=0.05)

    def test_exponential_rate(self):
        rng = make_generator(3)
        x = Exponential(4.0).sample(200_000, rng)
        assert x.mean() == pytest.approx(0.25, abs=0.01)

    def test_pareto_support_and_median(self):
        rng = make_generator(4)
        x = Pareto(1.0, 1.0).sample(200_000, rng)
        assert x.min() >= 1.0
        # CDF 1 - 1/x gives median 2.
        assert np.median(x) == pytest.approx(2.0, abs=0.03)

    def test_pareto_mean_finite_shape(self):
        rng = make_generator(5)
        x = Pareto(0.5, 2.0).sample(400_000, rng)
        # Mean shape*scale/(shape-1) = 1. Heavy tail, loose band.
        assert x.mean() == pytest.approx(1.0, abs=0.05)

    def test_pareto_matches_scipy(self):
        rng = make_generator(6)
        x = Pareto(2.0, 3.0).sample(50_000, rng)
        d = stats.kstest(x, stats.pareto(b=3.0, scale=2.0).cdf)
        assert d.statistic < 0.01

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 3.0])
    def test_pareto_in_place_keeps_the_bits(self, shape):
        # Shape 1 takes numpy's reciprocal fast path, 0.5 its square.
        x = Pareto(2.5, shape).sample(10_001, make_generator(7))
        u = make_generator(7).random(10_001)
        expected = 2.5 * (1.0 - u) ** (-1.0 / shape)
        assert x.tobytes() == expected.tobytes()


class TestSampleHomogeneous:
    def test_deterministic(self):
        a = sample_homogeneous(20, "uniform(0, 1)", seed=9)
        b = sample_homogeneous(20, Uniform(0.0, 1.0), seed=9)
        assert np.array_equal(a.values, b.values)
        c = sample_homogeneous(20, "uniform(0, 1)", seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_matches_distribution(self):
        m = sample_homogeneous(150, "normal(0, 1)", seed=3)
        d = stats.kstest(m.values, stats.norm.cdf)
        assert d.statistic < 0.015

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            sample_homogeneous(1, "uniform(0, 1)", seed=0)


class TestSampleTwoBlock:
    def test_balanced_labels(self):
        for n in (10, 11, 300):
            _, assign = sample_two_block(n, "uniform(0,1)", "uniform(0,1)", seed=n)
            pos, neg = assign.sizes
            assert pos == n // 2
            assert neg == n - n // 2

    def test_block_structure(self):
        # Disjoint supports let us verify every entry's block membership.
        m, assign = sample_two_block(40, "uniform(0, 1)", "uniform(10, 11)", seed=7)
        labels = assign.labels
        dense = m.dense()
        for i in range(40):
            for j in range(i + 1, 40):
                v = dense[i, j]
                if labels[i] == labels[j]:
                    assert v < 1.0
                else:
                    assert v > 10.0

    def test_labels_shuffled(self):
        _, assign = sample_two_block(200, "uniform(0,1)", "uniform(0,1)", seed=1)
        labels = assign.labels
        # A sorted assignment would put all +1 first; a shuffle almost
        # surely breaks that and mixes signs in both halves.
        assert len(set(labels[:100])) == 2
        assert len(set(labels[100:])) == 2

    def test_deterministic(self):
        m1, a1 = sample_two_block(30, "normal(1,1)", "normal(2,1)", seed=5)
        m2, a2 = sample_two_block(30, "normal(1,1)", "normal(2,1)", seed=5)
        assert np.array_equal(m1.values, m2.values)
        assert np.array_equal(a1.labels, a2.labels)

    def test_labels_read_only(self):
        _, assign = sample_two_block(10, "uniform(0,1)", "uniform(0,1)", seed=2)
        with pytest.raises(ValueError):
            assign.labels[0] = 5


class TestSamplePlantedSubmatrix:
    def test_planted_size(self):
        _, assign = sample_planted_submatrix(50, 12, "normal(2,1)", "normal(1,1)", seed=0)
        indices = np.flatnonzero(assign.labels)
        assert np.count_nonzero(assign.labels) == 12
        assert indices.shape == (12,)
        assert np.all(assign.labels[indices] == 1)

    def test_block_structure(self):
        m, assign = sample_planted_submatrix(30, 8, "uniform(10, 11)", "uniform(0, 1)", seed=3)
        inside = set(np.flatnonzero(assign.labels).tolist())
        dense = m.dense()
        for i in range(30):
            for j in range(i + 1, 30):
                v = dense[i, j]
                if i in inside and j in inside:
                    assert v > 10.0
                else:
                    assert v < 1.0

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="n1"):
            sample_planted_submatrix(10, 0, "normal(1,1)", "normal(1,1)", seed=0)
        with pytest.raises(ValueError, match="n1"):
            sample_planted_submatrix(10, 11, "normal(1,1)", "normal(1,1)", seed=0)

    def test_deterministic(self):
        m1, a1 = sample_planted_submatrix(40, 10, "normal(2,1)", "normal(1,1)", seed=8)
        m2, a2 = sample_planted_submatrix(40, 10, "normal(2,1)", "normal(1,1)", seed=8)
        assert np.array_equal(m1.values, m2.values)
        assert np.array_equal(a1.labels, a2.labels)


class TestRowBuiltMasks:
    """The samplers build their block masks row by row; values stay bit-identical."""

    @pytest.mark.parametrize(
        "between", ["uniform(0,3)", "exponential(2)", "normal(-1,0.5)", "pareto(1,2)"]
    )
    def test_row_draws_match_one_draw_for_every_family(self, between):
        for n in (5, 33):
            m, _ = sample_two_block(n, "normal(1,1)", between, n)
            values, _ = reference_two_block(n, "normal(1,1)", between, n)
            assert m.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 64, 65])
    def test_two_block_matches_pair_index_formulation(self, n):
        for seed in (0, 9):
            m, assign = sample_two_block(n, "normal(1,1)", "pareto(1,0.5)", seed)
            values, labels = reference_two_block(n, "normal(1,1)", "pareto(1,0.5)", seed)
            assert m.values.tobytes() == values.tobytes()
            assert assign.labels.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 64, 65])
    def test_planted_matches_pair_index_formulation(self, n):
        for n1 in sorted({1, 2, n // 2 or 1, n}):
            m, assign = sample_planted_submatrix(n, n1, "normal(2,1)", "exponential(1)", n1)
            values, labels = reference_planted(n, n1, "normal(2,1)", "exponential(1)", n1)
            assert m.values.tobytes() == values.tobytes()
            assert assign.labels.tobytes() == labels.tobytes()


class TestSampleInterpolatedRank:
    # n = 400 spans several blocks of the in-place float conversion.
    @pytest.mark.parametrize("n", [2, 3, 10, 45, 400])
    def test_matches_integer_division_formulation(self, n):
        n_pairs = n * (n - 1) // 2
        # k <= n draws in int64, k = n + 1 is the first int32 draw.
        for k in sorted({0, 1, n, n + 1, int(n**1.5), n_pairs, 10 * n_pairs}):
            draw = make_generator(n + k).permutation(n_pairs + k)[:n_pairs] + 1
            expected = draw / (n_pairs + k + 1)
            assert sample_interpolated_rank(n, k, n + k).values.tobytes() == expected.tobytes()

    def test_k_zero_is_exact_rank_matrix(self):
        m = sample_interpolated_rank(12, 0, seed=4)
        n_pairs = 12 * 11 // 2
        assert np.array_equal(np.sort(m.values), np.arange(1, n_pairs + 1) / (n_pairs + 1))

    def test_finite_k_grid_membership(self):
        n, k = 8, 5
        n_pairs = n * (n - 1) // 2
        m = sample_interpolated_rank(n, k, seed=6)
        scaled = m.values * (n_pairs + k + 1)
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)
        ints = np.round(scaled).astype(int)
        assert len(set(ints.tolist())) == n_pairs  # without replacement
        assert ints.min() >= 1 and ints.max() <= n_pairs + k

    def test_infinite_k_is_iid_uniform(self):
        m = sample_interpolated_rank(80, math.inf, seed=2)
        assert np.all((m.values > 0) & (m.values < 1))
        d = stats.kstest(m.values, stats.uniform.cdf)
        assert d.statistic < 0.025

    def test_k_validation(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            sample_interpolated_rank(5, -1, seed=0)
        with pytest.raises(ValueError, match="nonnegative integer"):
            sample_interpolated_rank(5, 2.5, seed=0)
        with pytest.raises(ValueError, match="guard"):
            sample_interpolated_rank(5, 101, seed=0)
        for k in (-math.inf, math.nan):
            with pytest.raises(ValueError, match="nonnegative integer"):
                sample_interpolated_rank(5, k, seed=0)

    def test_deterministic(self):
        a = sample_interpolated_rank(10, 7, seed=11)
        b = sample_interpolated_rank(10, 7, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_variance_grows_with_k(self):
        # Dependence weakens as k grows: var(lambda1) rises from the exact
        # rank value toward the iid-uniform value.
        from rankspectral import leading_eigenpair

        def var_lambda(k, trials=60):
            vals = [
                leading_eigenpair(sample_interpolated_rank(60, k, seed=100 + t)).value
                for t in range(trials)
            ]
            return float(np.var(vals, ddof=1))

        v0 = var_lambda(0)
        vinf = var_lambda(math.inf)
        assert v0 < vinf
