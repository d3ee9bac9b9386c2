"""Rank transform, tie policies, exact moments, whitening."""

import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankspectral import (
    RankMatrix,
    SymmetricMatrix,
    TieError,
    TiePolicy,
    make_generator,
    moments,
    rank_transform,
    ranking,
    whiten,
)

from conftest import random_symmetric
from oracles import permute_nodes


def reference_ranks(values: np.ndarray, policy: TiePolicy) -> np.ndarray:
    """The full argsort/lexsort rank transform that the sort-key kernel replaced."""
    n_pairs = values.shape[0]
    order = np.argsort(values)
    sorted_vals = values[order]
    ties = np.flatnonzero(np.diff(sorted_vals) == 0.0)
    if ties.size:
        if policy.kind == "error":
            eq = np.diff(sorted_vals) == 0.0
            involved = np.zeros(n_pairs, dtype=bool)
            involved[:-1] |= eq
            involved[1:] |= eq
            raise TieError(
                f"{int(np.count_nonzero(involved))} tied entries (e.g. value "
                f"{float(sorted_vals[ties[0]])!r}); pass TiePolicy.random(seed) to "
                f"break ties at random"
            )
        shuffle = make_generator(policy.seed).permutation(n_pairs)
        order = np.lexsort((shuffle, values))
    ranks = np.empty(n_pairs, dtype=np.float64)
    ranks[order] = np.arange(1, n_pairs + 1, dtype=np.float64)
    ranks /= n_pairs + 1
    return ranks


def outcome(rank, values: np.ndarray, policy: TiePolicy):
    """Rank bytes, or the TieError message."""
    try:
        return rank(values, policy).tobytes()
    except TieError as exc:
        return str(exc)


def kernel_ranks(values: np.ndarray, policy: TiePolicy) -> np.ndarray:
    n = (1 + math.isqrt(1 + 8 * values.shape[0])) // 2
    return rank_transform(SymmetricMatrix(n, values), policy).values


# Bases for the generated values: signed zeros, subnormals, the extremes of
# the finite range and ordinary numbers of both signs.
_BASES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e308, 1e308, 1.0, -3.5, 0.1)


@st.composite
def kernel_inputs(draw):
    """Packed values for n in {2, 3, 4, 5, 8, 12}, full of near-collisions and ties.

    Each value is a base stepped k ulps away from it, so values of one base
    share all but their lowest bits, which is where the kernel puts the
    pair index. Repeated (base, k) draws make exact tie groups.
    """
    n = draw(st.sampled_from([2, 3, 4, 5, 8, 12]))
    n_pairs = n * (n - 1) // 2
    bases = draw(st.lists(st.sampled_from(_BASES), min_size=1, max_size=3))
    picks = st.tuples(st.sampled_from(bases), st.integers(0, 255))
    drawn = draw(st.lists(picks, min_size=n_pairs, max_size=n_pairs, unique=draw(st.booleans())))
    raw = np.array([np.float64(b).view(np.int64) + k for b, k in drawn], dtype=np.int64)
    return raw.view(np.float64)


class TestRankTransform:
    def test_small_example(self):
        # Values 0.9, 0.1, 0.5 have ranks 3, 1, 2 out of N=3.
        m = SymmetricMatrix(3, [0.9, 0.1, 0.5])
        r = rank_transform(m)
        assert np.array_equal(r.values, [0.75, 0.25, 0.5])
        assert isinstance(r, RankMatrix)

    def test_values_are_exact_rank_grid(self):
        rng = np.random.default_rng(99)
        for n in (2, 3, 10, 40):
            n_pairs = n * (n - 1) // 2
            m = SymmetricMatrix(n, rng.normal(size=n_pairs) * 1e-8)
            r = rank_transform(m)
            expected = np.arange(1, n_pairs + 1) / (n_pairs + 1)
            assert np.array_equal(np.sort(r.values), expected)

    def test_monotone_invariance_bit_exact(self):
        m = random_symmetric(40, seed=17, low=0.05, high=3.0)
        base = rank_transform(m).values
        for f in (np.exp, lambda x: x**3, lambda x: x + 1e3):
            transformed = SymmetricMatrix(40, f(m.values))
            assert np.array_equal(rank_transform(transformed).values, base)

    def test_order_reversal_flips_ranks(self):
        m = random_symmetric(12, seed=4)
        r = rank_transform(m).values
        flipped = rank_transform(SymmetricMatrix(12, -m.values)).values
        assert np.allclose(r + flipped, 1.0, atol=1e-14)

    def test_permutation_equivariance(self):
        m = random_symmetric(15, seed=8)
        perm = np.random.default_rng(2).permutation(15)
        a = rank_transform(permute_nodes(m, perm))
        b = permute_nodes(rank_transform(m), perm)
        assert np.array_equal(a.values, b.values)

    @given(st.integers(0, 2**63 - 1))
    def test_distinct_values_ignore_policy_seed(self, seed):
        m = random_symmetric(6, seed=123)
        with_policy = rank_transform(m, TiePolicy.random(seed))
        assert np.array_equal(with_policy.values, rank_transform(m).values)


class TestSortKeyKernel:
    @given(kernel_inputs(), st.integers(0, 2**32))
    def test_matches_full_sort_reference(self, values, seed):
        for policy in (TiePolicy.error(), TiePolicy.random(seed)):
            assert outcome(kernel_ranks, values, policy) == outcome(reference_ranks, values, policy)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @given(data=st.data())
    def test_bit_width_boundaries(self, n, data):
        # N = 1, 3, 6: zero index bits, then 2 and 3, each with spare codes.
        n_pairs = n * (n - 1) // 2
        pool = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, np.nextafter(1.0, 2.0), -1e308])
        values = np.array(data.draw(st.lists(pool, min_size=n_pairs, max_size=n_pairs)))
        for policy in (TiePolicy.error(), TiePolicy.random(data.draw(st.integers(0, 99)))):
            assert outcome(kernel_ranks, values, policy) == outcome(reference_ranks, values, policy)

    def test_generated_inputs_reach_collision_runs(self, monkeypatch):
        # Non-vacuity: most generated inputs have keys that collide in their
        # high bits, some with exact ties and some with none.
        calls = []
        order_runs = ranking._order_runs

        def spy(a, index, policy):
            calls.append(index.size)
            return order_runs(a, index, policy)

        monkeypatch.setattr(ranking, "_order_runs", spy)
        seen = {"tied": 0, "tie-free": 0, "no runs": 0}

        @given(kernel_inputs())
        def probe(values):
            before = len(calls)
            try:
                kernel_ranks(values, TiePolicy.error())
                tied = False
            except TieError:
                tied = True
            if len(calls) == before:
                seen["no runs"] += 1
            else:
                seen["tied" if tied else "tie-free"] += 1

        probe()
        assert seen["tied"] + seen["tie-free"] >= sum(seen.values()) // 2
        assert seen["tied"] >= 5 and seen["tie-free"] >= 5

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, size: rng.normal(size=size),
            lambda rng, size: rng.pareto(0.5, size=size) + 1.0,
            lambda rng, size: rng.uniform(size=size) * 1e-300,
            lambda rng, size: rng.integers(0, 100, size=size).astype(np.float64),
        ],
        ids=["normal", "pareto", "tiny", "integer-scores"],
    )
    def test_matches_reference_at_moderate_n(self, draw):
        n = 700
        values = draw(np.random.default_rng(n), n * (n - 1) // 2)
        for policy in (TiePolicy.error(), TiePolicy.random(5)):
            assert outcome(kernel_ranks, values, policy) == outcome(reference_ranks, values, policy)

    @pytest.mark.parametrize("n", [8, 20, 40, 100])
    def test_tie_message_names_the_zero_a_full_argsort_puts_first(self, n):
        # np.argsort is not stable, and np.sort can order -0.0 and 0.0 the
        # other way, so the signed zero in the message must come from argsort.
        rng = np.random.default_rng(n)
        n_pairs = n * (n - 1) // 2
        for _ in range(20):
            zeros = rng.choice([0.0, -0.0], size=n_pairs)
            values = np.where(rng.random(n_pairs) < 0.5, zeros, rng.normal(size=n_pairs))
            expected = outcome(reference_ranks, values, TiePolicy.error())
            assert outcome(kernel_ranks, values, TiePolicy.error()) == expected

    def test_result_is_read_only_and_owns_no_input(self):
        m = random_symmetric(9, seed=3)
        r = rank_transform(m)
        assert not r.values.flags.writeable
        assert not np.shares_memory(r.values, m.values)


def blas_inputs(n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Continuous, low-bit collision, signed-zero and tied values for one n."""
    n_pairs = n * (n - 1) // 2
    ulps = np.float64(1.0).view(np.int64) + rng.integers(0, 4 * n_pairs + 2, size=n_pairs)
    return {
        "continuous": rng.normal(size=n_pairs),
        # Values 1 + k ulps share all but their lowest mantissa bits.
        "low-bits": ulps.view(np.float64),
        "signed-zeros": np.where(
            rng.random(n_pairs) < 0.3, rng.choice([0.0, -0.0], n_pairs), rng.normal(size=n_pairs)
        ),
        "ties": rng.integers(0, max(2, n_pairs // 3), size=n_pairs).astype(np.float64),
    }


class TestBlasLayout:
    """rank_transform writes each rank straight into its lower-packed BLAS slot."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 60, 257])
    def test_buffer_is_the_packed_reference_ranks(self, n):
        rng = np.random.default_rng(n)
        for label, values in blas_inputs(n, rng).items():
            m = SymmetricMatrix(n, values)
            for policy in (TiePolicy.error(), TiePolicy.random(n)):
                try:
                    expected = reference_ranks(values, policy)
                except TieError as exc:
                    with pytest.raises(TieError) as raised:
                        rank_transform(m, policy)
                    assert str(raised.value) == str(exc), label
                    continue
                r = rank_transform(m, policy)
                packed = SymmetricMatrix(n, expected).blas
                assert r.blas.tobytes() == packed.tobytes(), (label, policy)

    def test_inputs_reach_collision_runs_and_ties(self, monkeypatch):
        # Non-vacuity: every input but the continuous one has collision
        # runs at n = 257, and the signed zeros and ties raise under ``error``.
        runs = []
        order_runs = ranking._order_runs

        def spy(a, index, policy):
            runs.append(index.size)
            return order_runs(a, index, policy)

        monkeypatch.setattr(ranking, "_order_runs", spy)
        for label, values in blas_inputs(257, np.random.default_rng(257)).items():
            m = SymmetricMatrix(257, values)
            runs.clear()
            rank_transform(m, TiePolicy.random(1))
            assert (len(runs) == 1) == (label != "continuous"), label
            if label in ("signed-zeros", "ties"):
                with pytest.raises(TieError):
                    rank_transform(m)

    @pytest.mark.parametrize("n", [2, 3, 11, 60])
    def test_lazy_values_are_the_reference_ranks(self, n):
        m = random_symmetric(n, seed=n)
        r = rank_transform(m)
        assert "values" not in vars(r)
        values = r.values
        assert values.tobytes() == reference_ranks(m.values, TiePolicy.error()).tobytes()
        assert r.values is values
        assert not values.flags.writeable
        assert not r.blas.flags.writeable
        assert not np.shares_memory(values, m.values)
        assert not np.shares_memory(r.blas, m.values)
        with pytest.raises(ValueError):
            values[0] = 0.0

    def test_constructed_rank_matrix_keeps_its_values(self):
        blas = np.array([0.0, 0.75, 0.25, 0.0, 0.5, 0.0])
        r = RankMatrix.adopt(3, blas)
        assert r.blas is blas and not blas.flags.writeable
        assert np.array_equal(r.values, [0.75, 0.25, 0.5])

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
    def test_runs_scanned_in_small_blocks(self, block, monkeypatch):
        # Runs that cross block ends, batches of several blocks' runs, and a
        # tie count and first tied value carried over blocks.
        monkeypatch.setattr(ranking, "_BLOCK", block)
        for n in (2, 5, 60):
            for label, values in blas_inputs(n, np.random.default_rng(n)).items():
                for policy in (TiePolicy.error(), TiePolicy.random(n)):
                    expected = outcome(reference_ranks, values, policy)
                    assert outcome(kernel_ranks, values, policy) == expected, (n, label)

    def test_refuses_n_above_65536_before_reading_values(self):
        # Slot and rank fill the 63 bits of one int64 key at n = 65,536.
        need = r"n <= 65,536; n=65,537 would need 17,180,655,624 bytes"
        with pytest.raises(ValueError, match=need):
            rank_transform(types.SimpleNamespace(n=65_537))


class TestTiePolicies:
    def test_default_errors_on_ties(self):
        m = SymmetricMatrix(3, [1.0, 1.0, 2.0])
        with pytest.raises(TieError, match="2 tied entries"):
            rank_transform(m)

    def test_error_message_counts_all_tied(self):
        m = SymmetricMatrix(4, [1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
        with pytest.raises(TieError, match="5 tied entries"):
            rank_transform(m)

    def test_random_policy_is_deterministic(self):
        m = SymmetricMatrix(4, [1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
        a = rank_transform(m, TiePolicy.random(7))
        b = rank_transform(m, TiePolicy.random(7))
        assert np.array_equal(a.values, b.values)

    def test_random_policy_breaks_ties_within_group(self):
        m = SymmetricMatrix(3, [1.0, 1.0, 2.0])
        seen = set()
        for seed in range(40):
            r = rank_transform(m, TiePolicy.random(seed))
            # Tied pair must occupy ranks {1, 2}; entry 2.0 always rank 3.
            assert r.values[2] == 0.75
            assert set(np.round(r.values[:2] * 4).astype(int)) == {1, 2}
            seen.add(tuple(r.values[:2]))
        # Both orderings of the tied group appear across seeds.
        assert len(seen) == 2

    def test_random_policy_preserves_strict_order(self):
        rng = np.random.default_rng(5)
        vals = np.repeat(rng.uniform(size=15), 3)  # every value tied 3 ways
        m = SymmetricMatrix(10, vals)
        r = rank_transform(m, TiePolicy.random(11))
        # Ranks of tied groups must occupy contiguous blocks in value order.
        order = np.argsort(vals, kind="stable")
        grouped = np.sort(r.values[order].reshape(15, 3), axis=1).ravel()
        assert np.array_equal(grouped, np.arange(1, 46) / 46)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="unknown tie policy"):
            TiePolicy(kind="median")
        with pytest.raises(ValueError, match="requires a seed"):
            TiePolicy(kind="random")

    def test_tie_uniformity(self):
        # Three-way tie: each of the 6 orderings should appear with
        # frequency near 1/6 across seeds.
        m = SymmetricMatrix(3, [5.0, 5.0, 5.0])
        counts = {}
        trials = 1200
        for seed in range(trials):
            r = tuple(rank_transform(m, TiePolicy.random(seed)).values)
            counts[r] = counts.get(r, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / trials - 1 / 6) < 0.05

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_tied_runs_with_signed_zeros_keep_their_order(self, n):
        # The key "value group * N + random position" puts -0.0 and 0.0 in
        # one group and gives the reference ranks.
        n_pairs = n * (n - 1) // 2
        rng = np.random.default_rng(n)
        values = rng.choice([-0.0, 0.0, 1.0, -2.5, 3.0], size=n_pairs)
        policy = TiePolicy.random(n)
        expected = reference_ranks(values, policy).tobytes()
        assert kernel_ranks(values, policy).tobytes() == expected

    def test_shuffle_draws_the_permutation(self):
        # Row-major position r's draw sits at r's lower-packed slot, r + i + 1
        # in row i, and each diagonal slot holds 0.
        for n in (2, 3, 10, 142):
            n_pairs = n * (n - 1) // 2
            got = ranking._shuffled_slots(n, 3)
            assert got.dtype == np.int32
            assert got.shape == (n * (n + 1) // 2,)
            rows, _ = np.triu_indices(n, k=1)
            slots = np.arange(n_pairs) + rows + 1
            assert np.array_equal(got[slots], make_generator(3).permutation(n_pairs))
            assert not got[np.delete(np.arange(got.shape[0]), slots)].any()


class TestMoments:
    def test_n3_exact(self):
        m = moments(3)
        assert m.n_pairs == 3
        assert m.sigma_sq == pytest.approx(1 / 24, abs=1e-16)
        assert m.cov == pytest.approx(-1 / 48, abs=1e-16)
        assert m.sigma_tilde == pytest.approx((1 / 24) * math.sqrt(8 / 3), rel=1e-15)
        assert m.centering == pytest.approx(13 / 12, rel=1e-15)

    def test_n2_degenerate(self):
        m = moments(2)
        assert m.sigma_sq == 0.0
        assert m.centering == 0.5

    @pytest.mark.parametrize("n", [3, 10, 101, 2000])
    def test_against_rational_arithmetic(self, n):
        big_n = n * (n - 1) // 2
        sigma_sq = Fraction(1, 12) - Fraction(1, 6 * (big_n + 1))
        cov = Fraction(-1, 12 * (big_n + 1))
        centering = Fraction(n - 1, 2) + 2 * sigma_sq
        m = moments(n)
        assert m.sigma_sq == pytest.approx(float(sigma_sq), rel=1e-15)
        assert m.cov == pytest.approx(float(cov), rel=1e-15)
        assert m.centering == pytest.approx(float(centering), rel=1e-15)
        assert m.sigma_tilde == pytest.approx(float(sigma_sq) * math.sqrt(8 / n), rel=1e-15)

    def test_matches_empirical_entry_moments(self):
        # Population moments of the fixed rank multiset, computed directly.
        n = 60
        m = moments(n)
        grid = np.arange(1, m.n_pairs + 1) / (m.n_pairs + 1)
        assert grid.mean() == pytest.approx(0.5, abs=1e-15)
        assert np.mean((grid - 0.5) ** 2) == pytest.approx(m.sigma_sq, rel=1e-13)

    def test_pairwise_covariance_identity(self):
        # Sum of all entries is constant, so N*sigma^2 + N(N-1)*cov = 0.
        for n in (3, 8, 50):
            m = moments(n)
            total = m.n_pairs * m.sigma_sq + m.n_pairs * (m.n_pairs - 1) * m.cov
            # Exact in rational arithmetic; allow float cancellation noise.
            assert abs(total) <= 1e-13 * m.n_pairs * m.sigma_sq

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            moments(1)


class TestWhiten:
    def test_small_example(self):
        r = rank_transform(SymmetricMatrix(3, [0.75, 0.25, 0.5]))
        w = whiten(r)
        s = math.sqrt(1 / 24)
        assert np.allclose(w.values, [0.25 / s, -0.25 / s, 0.0], atol=1e-15)

    def test_population_mean_zero_variance_one(self):
        m = random_symmetric(80, seed=21)
        w = whiten(rank_transform(m))
        assert abs(w.values.mean()) < 1e-12
        assert np.mean(w.values**2) == pytest.approx(1.0, rel=1e-12)

    def test_requires_rank_matrix(self):
        with pytest.raises(TypeError, match="RankMatrix"):
            whiten(random_symmetric(5, seed=1))

    def test_requires_n_at_least_3(self):
        r = rank_transform(random_symmetric(2, seed=1))
        with pytest.raises(ValueError, match="n >= 2|n >= 3"):
            whiten(r)
