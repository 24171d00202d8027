import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpicl_audit import mechanisms
from dpicl_audit.audit import AuditConfig
from dpicl_audit.mechanisms import (
    Exemplar,
    MechanismConfig,
    NeighboringPair,
    aggregate,
    clip_to_unit,
    SENSITIVITY_MODES,
    esa_sensitivity,
    gaussian_release,
    gaussian_sigma,
    gaussian_score_factor,
    noise_scale,
    voting_noise_scale,
)
from dpicl_audit.oracles import CanaryDetector, OracleError, SignalPair, collect
from dpicl_audit.stats import std_normal_cdf

from reference import clip_one, esa_select, vote_select


def make_context(n, canary_index=0, pad=False):
    """A neighbouring pair over n exemplars "in i" -> "out i", the canary at
    ``canary_index``, padded to the partition count if ``pad``."""
    base = [Exemplar(f"in {i}", f"out {i}") for i in range(n)]
    return NeighboringPair(base, Exemplar("CANARY"), canary_index, pad=pad)


def make_pair(n):
    base = [Exemplar(f"in {i}") for i in range(n)]
    return NeighboringPair(base, Exemplar("CANARY"), 0)


class FixedNoise:
    """rng stand-in returning a prescribed (rows, d) noise block."""

    def __init__(self, offsets):
        self.offsets = np.asarray(offsets, dtype=np.float64)

    def normal(self, loc, scale, size):
        assert size == self.offsets.shape
        return self.offsets.copy()


def release_votes(counts, sigma, rng):
    """Private voting on one clean histogram: its noisy values and the released class."""
    noisy = gaussian_release(np.array([counts], dtype=np.float64), np.zeros(1, dtype=np.intp),
                             sigma, rng)
    return noisy[0].tolist(), int(vote_select(noisy)[0])


class TestPartition:
    def test_singletons(self):
        for subsets in make_context(10).partitions(10):
            assert len(subsets) == 10
            assert all(len(s.exemplars) == 1 for s in subsets)

    def test_round_robin(self):
        for subsets in make_context(8).partitions(4):
            for i, subset in enumerate(subsets):
                assert subset.indices == (i, i + 4)

    def test_canary_lands_in_one_subset(self):
        with_canary, without = make_context(8, canary_index=3).partitions(4)
        assert [s.contains_canary for s in with_canary] == [False, False, False, True]
        assert with_canary[3].exemplars == (Exemplar("CANARY"), Exemplar("in 7", "out 7"))
        assert [s.contains_canary for s in without] == [False] * 4
        assert without[3].exemplars == (Exemplar("in 3", "out 3"), Exemplar("in 7", "out 7"))

    @given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=27))
    def test_disjoint_cover(self, T, canary_index):
        n = 28
        for subsets in make_context(n, canary_index=canary_index).partitions(T):
            seen = sorted(i for s in subsets for i in s.indices)
            assert seen == list(range(n))
        with_canary, _ = make_context(n, canary_index=canary_index).partitions(T)
        assert sum(s.contains_canary for s in with_canary) == 1

    def test_too_few_exemplars_errors(self):
        with pytest.raises(ValueError,
                           match="^context has 3 exemplars but 4 partitions were requested$"):
            make_context(3).partitions(4)

    @pytest.mark.parametrize("n, T, message", [
        (3, 0, "num_partitions must be positive"),
        (1, 2, "cannot pad a context whose only exemplar is the canary"),
    ], ids=["no-partitions", "only-the-canary"])
    def test_unpartitionable_request_errors(self, n, T, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_context(n, pad=True).partitions(T)

    def test_padding_duplicates_non_canary(self):
        with_canary, without = make_context(3, canary_index=1, pad=True).partitions(5)
        assert [s.exemplars[0].text_in for s in with_canary] == ["in 0", "CANARY", "in 2",
                                                                  "in 0", "in 2"]
        assert [s.exemplars[0].text_in for s in without] == ["in 0", "in 1", "in 2",
                                                             "in 0", "in 2"]
        assert [s.contains_canary for s in with_canary] == [False, True, False, False, False]

    @pytest.mark.parametrize("n, T, canary_index", [(3, 5, 1), (2, 7, 0), (3, 5, 2), (4, 9, 3)])
    def test_padded_pair_differs_in_the_canary_partition_only(self, n, T, canary_index):
        # padding fills the base once, so the copies never take the canary's place
        with_canary, without = make_context(n, canary_index, pad=True).partitions(T)
        differ = [part for part, (a, b) in enumerate(zip(with_canary, without))
                  if a.exemplars != b.exemplars]
        assert differ == [canary_index % T]
        for subsets in (with_canary, without):
            assert sorted(i for s in subsets for i in s.indices) == list(range(T))

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=12), st.data())
    def test_contexts_differ_at_the_canary_alone(self, n, T, data):
        # padding reaches the contexts only when n < T
        canary_index = data.draw(st.integers(min_value=0, max_value=n - 1))
        with_canary, without = make_context(n, canary_index, pad=True).partitions(T)
        assert [a.indices for a in with_canary] == [b.indices for b in without]
        differ = [(part, slot) for part, (a, b) in enumerate(zip(with_canary, without))
                  for slot, (x, y) in enumerate(zip(a.exemplars, b.exemplars)) if x != y]
        assert differ == [(canary_index % T, canary_index // T)]
        assert with_canary[canary_index % T].exemplars[canary_index // T] == Exemplar("CANARY")


class TestNeighboringPair:
    def test_insert_canary(self):
        pair = make_context(6, canary_index=2)
        assert pair.exemplars[2].text_in == "in 2"
        with_canary, without = pair.partitions(6)
        assert with_canary[2].exemplars == (Exemplar("CANARY"),)
        assert without[2].exemplars == (Exemplar("in 2", "out 2"),)

    def test_rejects_identical_contexts(self):
        # a canary equal to the exemplar it replaces leaves the contexts equal
        base = [Exemplar(f"in {i}") for i in range(4)]
        with pytest.raises(ValueError, match="canary must differ from the exemplar it replaces"):
            NeighboringPair(base, Exemplar("in 1"), 1)

    @pytest.mark.parametrize("index", [-1, 4])
    def test_rejects_an_index_outside_the_context(self, index):
        with pytest.raises(ValueError, match=f"index {index} out of range for 4 exemplars"):
            make_context(4, canary_index=index)


class TestNoiseScales:
    def test_arranged_cancellation(self):
        # delta = 1.25/e makes the log term exactly 1
        assert voting_noise_scale(2.0, 1.25 / math.e) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        assert voting_noise_scale(1.0, 1e-5) == pytest.approx(2.0 * math.sqrt(math.log(125000.0)), abs=1e-12)
        assert voting_noise_scale(1.0, 1e-5) == pytest.approx(6.8517, abs=2e-4)

    def test_inverse_scaling_in_eps(self):
        for eps in (0.5, 1.0, 3.0, 8.0):
            assert voting_noise_scale(eps, 1e-5) == pytest.approx(voting_noise_scale(1.0, 1e-5) / eps)

    def test_classic_calibration_adds_sqrt2(self):
        assert voting_noise_scale(2.0, 1e-5, classic_calibration=True) == pytest.approx(
            math.sqrt(2.0) * voting_noise_scale(2.0, 1e-5)
        )

    def test_esa_tight_cancellation(self):
        config = MechanismConfig(eps_theory=2.0, delta=1.25 / math.e, num_partitions=2,
                                 sensitivity_mode="esa_tight")
        assert noise_scale(config) == pytest.approx(0.5, abs=1e-12)

    def test_esa_tight_is_voting_over_T(self):
        config = MechanismConfig(eps_theory=3.0, delta=1e-5, num_partitions=6,
                                 sensitivity_mode="esa_tight")
        assert noise_scale(config) == pytest.approx(voting_noise_scale(3.0, 1e-5) / 6.0)

    def test_legacy_to_tight_ratio(self):
        for T in (2, 5, 12):
            tight = MechanismConfig(eps_theory=2.0, delta=1e-5, num_partitions=T,
                                    sensitivity_mode="esa_tight")
            legacy = MechanismConfig(eps_theory=2.0, delta=1e-5, num_partitions=T,
                                     sensitivity_mode="esa_legacy")
            assert noise_scale(legacy) / noise_scale(tight) == pytest.approx(T / 2.0)

    def test_voting_mode_rejected_for_esa(self):
        # the mode -> task map keeps the voting calibration off embedding audits
        config = MechanismConfig(eps_theory=2.0, delta=1e-5, num_partitions=4)
        assert SENSITIVITY_MODES[config.sensitivity_mode] == "classification"
        with pytest.raises(ValueError, match="does not fit a generation audit"):
            AuditConfig(mechanism=config, task="generation", threat_model="white_box", n_llm=1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        # NaN would pass a plain eps <= 0 check, and an infinite eps makes sigma 0
        with pytest.raises(ValueError, match="eps_theory must be positive and finite"):
            MechanismConfig(eps_theory=eps, delta=1e-5, num_partitions=4)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_calibration_needs_finite_positive_inputs(self, value):
        # NaN would pass a plain eps <= 0 check and give sigma nan; an
        # infinite eps would give sigma 0
        with pytest.raises(ValueError, match="invalid noise calibration inputs"):
            voting_noise_scale(value, 1e-5)
        with pytest.raises(ValueError, match="invalid noise calibration inputs"):
            gaussian_sigma(value, 1.0, 1e-5)
        with pytest.raises(ValueError, match="invalid noise calibration inputs"):
            gaussian_sigma(2.0, 1.0, value)

    def test_voting_mode_is_the_voting_scale(self):
        # read at call time, so a patched sensitivity moves the scale
        config = MechanismConfig(eps_theory=2.0, delta=1e-5, num_partitions=4)
        voting = voting_noise_scale(2.0, 1e-5)
        assert noise_scale(config) == voting
        with mock.patch.object(mechanisms, "VOTING_SENSITIVITY", 1.0):
            assert noise_scale(config) == voting / 2.0


class TestGaussianRelease:
    def test_draws_one_block_after_the_callers_draws(self):
        # the audit's kernel draws its resampled rows first, then the release
        # draws one (rows, d) block from the same generator
        clean = np.array([[1.0, 3.0, 0.0], [0.0, 4.0, 0.0]])
        rng = np.random.default_rng([7, 0, 3])
        rows = rng.integers(0, 2, size=1000)
        got = gaussian_release(clean, rows, 1.5, rng)
        expected = np.random.default_rng([7, 0, 3])
        expected_rows = expected.integers(0, 2, size=1000)
        want = clean[expected_rows] + expected.normal(0.0, 1.5, size=(1000, 3))
        assert got.tobytes() == want.tobytes()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_release(np.zeros((1, 2)), np.zeros(1, dtype=np.intp), -1.0,
                             np.random.default_rng(0))

    _WIDE = np.random.default_rng(4).normal(size=(30, 5))

    @pytest.mark.parametrize("clean, trials", [
        pytest.param(np.random.default_rng(5).normal(size=(30, 1)), 40_000, id="d1"),
        pytest.param(np.random.default_rng(5).normal(size=(30, 2)), 40_000, id="d2"),
        pytest.param(np.random.default_rng(5).normal(size=(30, 16)), 40_000, id="d16"),
        pytest.param(np.random.default_rng(5).integers(0, 9, size=(30, 3)), 40_000, id="int64"),
        pytest.param(_WIDE[:, 1:3], 40_000, id="column-slice"),
        pytest.param(np.asfortranarray(_WIDE), 40_000, id="fortran"),
        pytest.param(np.zeros((30, 0)), 40_000, id="zero-width"),
        pytest.param(np.random.default_rng(5).normal(size=(30, 2)), 0, id="zero-rows"),
    ])
    def test_gather_matches_clean_rows_plus_noise(self, clean, trials):
        rows = np.random.default_rng(6).integers(0, clean.shape[0], size=trials)
        got = gaussian_release(clean, rows, 0.9, np.random.default_rng(7))
        want = clean[rows] + np.random.default_rng(7).normal(0.0, 0.9, size=(trials, clean.shape[1]))
        assert got.shape == want.shape
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestGaussianScoreFactor:
    """The noise as the audit's linear scores see it: z @ A for
    z ~ N(0, sigma^2 I_d) has the law of g @ F, g ~ N(0, I_r), exactly when
    F^T F = sigma^2 A^T A."""

    @pytest.mark.parametrize("d, columns", [(16, 1), (1, 1), (16, 2), (16, 9), (3, 9)],
                             ids=["one", "one-1d", "two", "nine", "nine-over-d3"])
    def test_gram_matrix_is_the_noise_covariance(self, d, columns):
        a = np.random.default_rng(d * columns).normal(size=(d, columns))
        factor = gaussian_score_factor(a, 0.7)
        assert factor.shape == (min(d, columns), columns)
        np.testing.assert_allclose(factor.T @ factor, 0.49 * (a.T @ a), rtol=0, atol=1e-12)

    def test_one_column_is_sigma_times_its_norm(self):
        # one normal per trial, scaled by sigma |a|; no BLAS call on this path
        a = np.array([[3.0], [4.0]])
        assert gaussian_score_factor(a, 0.5).tolist() == [[2.5]]

    def test_vote_columns_in_score_space(self):
        # class j against class 0 of three: the scores' noise covariance is
        # sigma^2 (I + 1 1^T), variance 2 sigma^2 on each difference
        a = np.eye(3)[1:].T - np.eye(3)[0][:, None]
        factor = gaussian_score_factor(a, 2.0)
        np.testing.assert_allclose(factor.T @ factor, [[8.0, 4.0], [4.0, 8.0]], atol=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_score_factor(np.ones((2, 1)), -1.0)


class TestPrivateVote:
    def test_zero_noise_returns_clean_argmax(self):
        _, winner = release_votes((1, 9), 0.0, np.random.default_rng(0))
        assert winner == 1

    def test_prescribed_noise_flips_winner(self):
        # clean [1, 9] perturbed to [5.5, 4]: the minority class wins
        noisy, winner = release_votes((1, 9), 1.0, FixedNoise([[4.5, -5.0]]))
        assert noisy == [5.5, 4.0]
        assert winner == 0

    def test_prescribed_noise_keeps_winner(self):
        noisy, winner = release_votes((0, 10), 1.0, FixedNoise([[4.0, 1.0]]))
        assert noisy == [4.0, 11.0]
        assert winner == 1

    def test_tie_breaks_to_lowest_index(self):
        _, winner = release_votes((5, 5), 0.0, np.random.default_rng(0))
        assert winner == 0

    def test_two_class_winner_distribution(self):
        # analytic two-class law: P(winner = 0) = Phi((c0 - c1) / (sigma sqrt(2)))
        clean, sigma, draws = np.array([[1.0, 3.0]]), 1.0, 1_000_000
        rng = np.random.default_rng(42)
        noisy = gaussian_release(clean, np.zeros(draws, dtype=np.intp), sigma, rng)
        wins = int(np.count_nonzero(vote_select(noisy) == 0))
        expected = std_normal_cdf((1 - 3) / (sigma * math.sqrt(2.0)))
        se = math.sqrt(expected * (1 - expected) / draws)
        assert abs(wins / draws - expected) <= max(3 * se, 0.003)


class TestVoteVectorInvariants:
    """The vote counts ``aggregate`` makes of each trial's partition votes."""

    @given(st.integers(1, 5), st.integers(1, 14), st.integers(1, 4), st.data())
    @settings(max_examples=50)
    def test_counts_must_sum_to_partitions(self, n_llm, T, num_classes, data):
        votes = np.array(data.draw(st.lists(st.integers(0, num_classes - 1),
                                            min_size=n_llm * T, max_size=n_llm * T)),
                         dtype=np.int64).reshape(n_llm, T)
        counts = aggregate(votes, num_classes)
        assert counts.shape == (n_llm, num_classes)
        assert (counts >= 0).all()
        assert counts.sum(axis=1).tolist() == [T] * n_llm
        assert counts.tolist() == [[row.count(c) for c in range(num_classes)]
                                   for row in votes.tolist()]

    @given(st.integers(min_value=2, max_value=14), st.data())
    @settings(max_examples=50)
    def test_neighboring_vectors_move_by_at_most_two(self, T, data):
        # canary-present vs canary-absent vote vectors from the same query:
        # one partition flips its vote, moving two coordinates by 1 each
        canary_subset = data.draw(st.integers(min_value=0, max_value=T - 1))
        votes_without = [1] * T  # every partition votes "no"
        votes_with = list(votes_without)
        votes_with[canary_subset] = 0  # the canary partition flips to "yes"
        v1, v0 = aggregate(np.array([votes_with, votes_without]), 2)
        diffs = (v1 - v0).tolist()
        assert max(abs(d) for d in diffs) <= 2
        assert sorted(diffs) == [-1, 1]


class TestEsaSensitivity:
    def test_values(self):
        assert esa_sensitivity(1) == 2.0
        assert esa_sensitivity(4) == 0.5

    def test_uv_construction_attains_bound(self):
        rng = np.random.default_rng(7)
        for T in (2, 5, 9):
            others = rng.normal(size=(T - 1, 16))
            others /= np.linalg.norm(others, axis=1, keepdims=True)
            u = np.zeros(16)
            u[0] = 1.0
            mean_plus = np.vstack([others, u]).mean(axis=0)
            mean_minus = np.vstack([others, -u]).mean(axis=0)
            assert abs(np.linalg.norm(mean_plus - mean_minus) - 2.0 / T) <= 1e-12

    def test_random_swaps_respect_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            T = int(rng.integers(2, 15))
            vectors = rng.normal(size=(T, 16))
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
            replacement = rng.normal(size=16)
            replacement /= np.linalg.norm(replacement)
            position = int(rng.integers(0, T))
            swapped = vectors.copy()
            swapped[position] = replacement
            delta = np.linalg.norm(vectors.mean(axis=0) - swapped.mean(axis=0))
            assert delta <= 2.0 / T + 1e-12


ONE_D_PAIR = SignalPair(y1_text="target", y0_text="control",
                        y1_embedding=np.array([-1.0]), y0_embedding=np.array([1.0]))

_ENTRIES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)


@st.composite
def pools_and_means(draw):
    """A pool that repeats its candidates, and noisy means built to tie: on
    the candidates, at midpoints of candidate pairs, at signed zeros, and at
    random points."""
    d = draw(st.integers(min_value=1, max_value=3))
    entry = st.sampled_from(_ENTRIES)
    distinct = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    pool = [np.array(distinct[i]) for i in picks]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=200))
    a, b = rng.integers(0, len(pool), n), rng.integers(0, len(pool), n)
    stacked = np.stack(pool)
    kinds = [stacked[a], (stacked[a] + stacked[b]) / 2.0,
             np.array(_ENTRIES)[rng.integers(0, len(_ENTRIES), (n, d))], rng.normal(0.0, 1.0, (n, d))]
    noisy = np.stack(kinds)[rng.integers(0, len(kinds), n), np.arange(n)]
    return noisy, pool


class TestEsaAggregate:
    """Embedding aggregation releases the clean mean embedding ``collect``
    builds, perturbed by ``gaussian_release``."""

    def test_identity_on_single_embedding(self):
        v = np.array([[0.6, 0.8]])
        out = gaussian_release(v, np.zeros(1, dtype=np.intp), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, v)

    def test_opposite_vectors_cancel(self):
        # two partitions, the canary's answers u and the other -u
        u = np.array([1.0, 0.0])
        oracle = CanaryDetector((-u, u))
        clean = collect(oracle, make_pair(2), "CANARY", 2, 1, seed=0).clean_with
        out = gaussian_release(np.stack(clean), np.zeros(1, dtype=np.intp), 0.0,
                               np.random.default_rng(0))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_one_dimensional_signal_example(self):
        # one partition answered y1 (-1), one answered y0 (+1): clean mean 0,
        # equidistant from both, and the tie releases y1
        oracle = CanaryDetector((ONE_D_PAIR.y0_embedding, ONE_D_PAIR.y1_embedding))
        clean = collect(oracle, make_pair(2), "CANARY", 2, 1, seed=0).clean_with
        out = gaussian_release(np.stack(clean), np.zeros(1, dtype=np.intp), 0.0,
                               np.random.default_rng(0))
        assert out.tolist() == [[0.0]]
        assert esa_select(out, [ONE_D_PAIR.y1_embedding, ONE_D_PAIR.y0_embedding]).tolist() == [0]

    def test_noiseless_mean_is_exact(self):
        rng = np.random.default_rng(3)
        means = rng.normal(size=(7, 5))
        rows = rng.integers(0, 7, size=20)
        out = gaussian_release(means, rows, 0.0, rng)
        np.testing.assert_array_equal(out, means[rows])

    def test_dimension_mismatch(self):
        class Ragged:
            num_classes = None

            def respond(self, subset, query, rng):
                return np.zeros(3 if subset.contains_canary else 4)

        with pytest.raises(OracleError, match=r"embeddings of lengths \[3, 4\] in the 'with' arm"):
            collect(Ragged(), make_pair(2), "CANARY", 2, 1, seed=0)


class TestEsaSelect:
    def test_exact_match(self):
        candidates = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0])]
        assert esa_select(np.array([[-1.0, 0.0]]), candidates).tolist() == [2]

    def test_one_dimensional_signal_example(self):
        # noisy mean -0.2 against the pool {-1, +1}: the -1 candidate wins
        assert esa_select(np.array([[-0.2]]), [np.array([-1.0]), np.array([1.0])]).tolist() == [0]

    def test_equidistant_tie_breaks_low(self):
        assert esa_select(np.array([[0.0]]), [np.array([-1.0]), np.array([1.0])]).tolist() == [0]

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            esa_select(np.array([[0.0]]), [])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            esa_select(np.zeros((3, 2)), [np.zeros(3), np.ones(3)])

    @settings(max_examples=300, deadline=None)
    @given(pools_and_means())
    def test_matches_argmin_over_the_full_pool(self, case):
        noisy, pool = case
        full = np.argmin(np.linalg.norm(noisy[:, None, :] - np.stack(pool)[None], axis=2), axis=1)
        assert esa_select(noisy, pool).tolist() == full.tolist()

    @pytest.mark.parametrize("pool_size", [2, 200])
    def test_temporaries_stay_row_vectors(self, pool_size):
        # a full (65536, 16) trial block: whatever the pool size, the search
        # holds a few row-length vectors (512 KiB each), where the block's
        # (65536, 200, 16) differences alone would take 1.7 GB
        noisy = np.random.default_rng(4).normal(size=(65536, 16))
        pool = list(np.random.default_rng(5).normal(size=(pool_size, 16)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            esa_select(noisy, pool)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        row_vector = noisy.shape[0] * 8
        assert peak <= 4 * row_vector + (1 << 16)


class TestClipToUnit:
    def test_inside_ball_untouched(self):
        v = np.array([0.3, 0.4])
        np.testing.assert_array_equal(clip_to_unit(v), v)

    def test_outside_ball_scaled(self):
        v = np.array([3.0, 4.0])
        assert np.linalg.norm(clip_to_unit(v)) == pytest.approx(1.0)

    def test_batched_over_the_last_axis(self):
        v = np.array([[[0.3, 0.4], [3.0, 4.0], [0.0, 0.0]],
                      [[-6.0, 8.0], [0.6, -0.8], [1e-300, 0.0]]])
        clipped = clip_to_unit(v)
        assert clipped.shape == v.shape
        inside = np.linalg.norm(v, axis=-1) <= 1.0
        np.testing.assert_array_equal(clipped[inside], v[inside])
        np.testing.assert_allclose(clipped[~inside], [[0.6, 0.8], [-0.6, 0.8]], rtol=1e-15)


_EMBEDDING_COORDINATES = st.floats(-1e150, 1e150, allow_nan=False)


class TestAggregate:
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mean_of_clipped_embeddings(self, n_llm, T, d, data):
        # every mean lies in the unit ball, whatever norm the model returned,
        # and equals the mean of the embeddings clipped one at a time
        size = n_llm * T * d
        responses = np.array(data.draw(st.lists(_EMBEDDING_COORDINATES, min_size=size,
                                                max_size=size))).reshape(n_llm, T, d)
        means = aggregate(responses, None)
        assert means.shape == (n_llm, d)
        assert (np.linalg.norm(means, axis=1) <= 1.0 + 1e-15).all()
        reference = np.stack([np.stack([clip_one(e) for e in trial]).mean(axis=0)
                              for trial in responses])
        assert means.tobytes() == reference.tobytes()
