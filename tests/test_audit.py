import json
import math
import threading
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpicl_audit import audit, mechanisms
from dpicl_audit.audit import (
    AuditConfig,
    AuditReport,
    _answer_classes,
    append_report_csv,
    bootstrap_audit,
    generate_noisy_samples,
    run_audit,
    sweep_threshold,
    whitebox_statistic,
    zero_shot_calls,
)
from dpicl_audit.gdp import AttackCounts, ErrorBounds, estimate_from_bounds
from dpicl_audit.mechanisms import (
    Exemplar,
    MechanismConfig,
    NeighboringPair,
    noise_scale,
    voting_noise_scale,
)
from dpicl_audit.oracles import (
    CanaryDetector,
    OracleError,
    ReplayOracle,
    SignalPair,
    collect,
    zero_shot_candidates,
)

from reference import (
    _counts_for_rule,
    _noisy_matrix,
    band_mu_bruteforce,
    bootstrap_audit_full_matrix,
    bootstrap_audit_score_matrix,
    dimensional_decisions,
    esa_select,
    score_decisions,
    split_counts_bruteforce,
    sweep_threshold_bruteforce,
    vote_select,
)


def make_pair(n=8, canary_index=0):
    base = [Exemplar(f"in {i}", f"out {i}") for i in range(n)]
    return NeighboringPair(base, Exemplar("CANARY", "canary out"), canary_index)


def vote_config(threat="white_box", eps_theory=2.0, n_sample=20_000, seed=0, T=4, n_llm=1):
    mech = MechanismConfig(eps_theory=eps_theory, delta=1e-5, num_partitions=T)
    return AuditConfig(mechanism=mech, task="classification", threat_model=threat,
                       n_llm=n_llm, n_sample=n_sample, seed=seed)


def generation_config(threat="white_box", eps_theory=8.0, n_sample=20_000, seed=0, T=8):
    mech = MechanismConfig(eps_theory=eps_theory, delta=1e-5, num_partitions=T,
                           sensitivity_mode="esa_tight")
    return AuditConfig(mechanism=mech, task="generation", threat_model=threat,
                       n_llm=1, n_sample=n_sample, seed=seed)


ONE_D_PAIR = SignalPair(y1_text="target", y0_text="control",
                        y1_embedding=np.array([-1.0]), y0_embedding=np.array([1.0]))


def signal_classes(signal, pool):
    """Each pool candidate's answer class: 1 for y1, 0 for y0, -1 otherwise."""
    return _answer_classes(np.stack([signal.y0_embedding, signal.y1_embedding]), pool)


# Test trial blocks: three full blocks plus a partial one. A release chunk
# holds 32768 one-column scores, so each block is one chunk; at 7 rows a
# chunk, the last chunk of every block is ragged (4096 = 585 * 7 + 1,
# 1234 = 176 * 7 + 2).
SMALL_BLOCK = 4096
SPANNING_N = 3 * SMALL_BLOCK + 1234
RAGGED_CHUNK_ROWS = 7


def generation_pool(signal, near, far=0):
    """y1, y0, then ``near`` non-signal candidates scattered around their
    midpoint, where noisy trials can pick them, and ``far`` ones no trial
    reaches."""
    rng = np.random.default_rng(0)
    d = signal.y1_embedding.size
    mid = (signal.y1_embedding + signal.y0_embedding) / 2.0
    near_pool = [mid + rng.normal(0.0, 0.3, d) for _ in range(near)]
    far_pool = [np.full(d, 100.0 + i) for i in range(far)]
    return [signal.y1_embedding, signal.y0_embedding, *near_pool, *far_pool]


def full_pool_non_signal(clean_with, clean_without, config, signal_pair, candidates):
    """Non-signal picks of both arms by the first maximum over the whole
    pool, repeats included, on the whole-arm scores."""
    return sum(int(np.count_nonzero(score_decisions(clean, config, arm, signal_pair=signal_pair,
                                                    candidates=candidates) < 0))
               for arm, clean in enumerate((clean_with, clean_without)))


def audit_cell(task, threat, width=None):
    """Clean lists, config and keyword arguments for one {task} x {threat}
    audit: 2-class votes and 16-d embeddings, or ``width`` of either."""
    if task == "classification":
        config = vote_config(threat, n_sample=SPANNING_N, seed=9)
        pad = (0,) * ((width or 2) - 2)
        return [(1, 3, *pad), (2, 2, *pad)], [(0, 4, *pad)], config, {}
    signal = SignalPair.synthetic(0.7476, width or 16)
    clean_with = [(signal.y1_embedding + k * signal.y0_embedding) / (k + 1) for k in (3, 7)]
    config = generation_config(threat, n_sample=SPANNING_N, seed=9)
    extra = {"signal_pair": signal}
    if threat == "black_box":
        extra["candidates"] = generation_pool(signal, near=8)
    return clean_with, [signal.y0_embedding], config, extra


PAIR_POOL = [ONE_D_PAIR.y1_embedding, ONE_D_PAIR.y0_embedding]


class TestDecisionRules:
    """The decision rules as the engine applies them to whole trial arrays:
    black-box rules read the mechanism's release, white-box rules threshold
    a statistic of the noisy aggregate."""

    def test_blackbox_classification(self):
        # the released label is the argmax of the noisy votes; yes_index = 0
        winners = vote_select(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert (winners == vote_config("black_box").yes_index).tolist() == [True, False]

    def test_blackbox_classification_on_example_votes(self):
        # noisy [5.5, 4] releases "yes"; noisy [4, 11] releases "no"
        winners = vote_select(np.array([[5.5, 4.0], [4.0, 11.0]]))
        assert (winners == vote_config("black_box").yes_index).tolist() == [True, False]

    def test_whitebox_classification_examples(self):
        stat = whitebox_statistic(np.array([[5.5, 4.0], [4.0, 11.0]]), vote_config())
        tp, fp = _counts_for_rule(stat[:1], stat[1:], np.array([0.0]))
        assert (tp.tolist(), fp.tolist()) == ([1], [0])

    def test_whitebox_classification_is_strict(self):
        stat = whitebox_statistic(np.array([[4.0, 2.5]]), vote_config())
        tp, fp = _counts_for_rule(stat, stat, np.array([1.5]))
        assert (tp.tolist(), fp.tolist()) == ([0], [0])

    def test_blackbox_generation(self):
        noisy = np.stack(PAIR_POOL)
        picks = esa_select(noisy, PAIR_POOL)
        assert (signal_classes(ONE_D_PAIR, PAIR_POOL)[picks] == 1).tolist() == [True, False]

    @pytest.mark.parametrize("task", audit.TASKS)
    def test_blackbox_non_signal_warns(self, task):
        # noise-free trials all release a non-signal output: the third of
        # three classes, or the pool's candidate at 0.25
        if task == "classification":
            clean, extra = [(1, 0, 3)], {}
            config = vote_config("black_box", eps_theory=1e9, n_sample=10)
            assert vote_select(np.array([clean[0]])).tolist() == [2]
        else:
            clean = [np.array([0.25])]
            extra = {"signal_pair": ONE_D_PAIR, "candidates": [*PAIR_POOL, np.array([0.25])]}
            config = generation_config("black_box", eps_theory=1e9, n_sample=10)
            assert esa_select(clean[0][None], extra["candidates"]).tolist() == [2]
        with pytest.warns(UserWarning, match="20 trials selected a non-signal candidate"):
            report = bootstrap_audit(clean, clean, config, **extra)
        assert report.counts.true_positives == 0

    def test_blackbox_generation_duplicate_signal_in_pool(self):
        # a duplicate of y1 later in the pool still counts as y1, and the
        # nearest search returns the first occurrence
        pool = [*PAIR_POOL, ONE_D_PAIR.y1_embedding]
        assert signal_classes(ONE_D_PAIR, pool).tolist() == [1, 0, 1]
        assert esa_select(np.array([[-1.0], [1.0], [-0.9]]), pool).tolist() == [0, 1, 0]

    @pytest.mark.parametrize("order", ["0101", "110", "010", "101"])
    def test_distinct_pool_keeps_the_tie_order(self, order):
        # trials at 0.0 tie between y1 (-1) and y0 (+1): the full pool's
        # argmin takes the first in pool order, and so must the search over
        # the distinct candidates
        signal = {"1": ONE_D_PAIR.y1_embedding, "0": ONE_D_PAIR.y0_embedding}
        pool = [signal[c] for c in order]
        noisy = np.array([[0.0], [-1.0], [1.0], [0.0], [0.3], [-0.3]])
        full = np.argmin(np.linalg.norm(noisy[:, None, :] - np.stack(pool)[None], axis=2), axis=1)
        assert esa_select(noisy, pool).tolist() == full.tolist()

    def test_whitebox_generation(self):
        stat = whitebox_statistic(np.stack(PAIR_POOL), generation_config(), ONE_D_PAIR)
        tp, fp = _counts_for_rule(stat[:1], stat[1:], np.array([0.0]))
        assert (tp.tolist(), fp.tolist()) == ([1], [0])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=20), st.sampled_from([0.1022, 0.7476, 2.0]),
           st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32 - 1))
    def test_whitebox_generation_sign_is_the_pair_release(self, d, distance, n, seed):
        # y1 and y0 are unit vectors, so the bisector of the pair is the
        # zero of the projection on y1 - y0: off it, the projection is
        # positive exactly where the release from {y1, y0} is y1
        pair = SignalPair.synthetic(distance, d)
        noisy = np.random.default_rng(seed).normal(0.0, 1.0, (n, d))
        stat = whitebox_statistic(noisy, generation_config(), pair)
        off = np.abs(stat) > 1e-9
        picks = esa_select(noisy[off], [pair.y1_embedding, pair.y0_embedding])
        assert ((stat[off] > 0) == (picks == 0)).all()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_whitebox_classification_is_the_vote_difference(self, classes, n, seed):
        # the projection on e_yes - e_no is h[yes] - h[no] bit for bit, with
        # zero coefficients on the other classes and yes above no
        rng = np.random.default_rng(seed)
        no, yes = np.sort(rng.choice(classes, size=2, replace=False))
        config = replace(vote_config(), yes_index=int(yes), no_index=int(no))
        noisy = rng.integers(0, 5, (n, classes)) + rng.normal(0.0, 3.0, (n, classes))
        want = noisy[:, yes] - noisy[:, no]
        assert whitebox_statistic(noisy, config).tobytes() == want.tobytes()

    def test_generation_example_mean(self):
        # DP mean -0.2 against the pool {-1, +1} selects the target string
        picks = esa_select(np.array([[-0.2]]), PAIR_POOL)
        assert (signal_classes(ONE_D_PAIR, PAIR_POOL)[picks] == 1).tolist() == [True]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
    def test_score_release_is_the_nearest_output(self, d, m, votes, seed):
        # the first maximum of [0, s_1, ...] over the scores relative to the
        # first output releases what the nearest-candidate search and the
        # vote argmax release from the noisy aggregate itself
        rng = np.random.default_rng(seed)
        outputs = np.eye(d) if votes else rng.normal(0.0, 1.0, (m, d))
        noisy = rng.normal(0.0, 1.0, (500, d))
        columns, offsets = audit._score_space(outputs)
        scores = np.einsum("ij,jk->ik", noisy, columns) + offsets
        want = vote_select(noisy) if votes else esa_select(noisy, list(outputs))
        if not columns.shape[1]:
            return  # one output: every trial releases it, no score is drawn
        assert audit._tally(scores, len(outputs)).tolist() == \
            np.bincount(want, minlength=len(outputs)).tolist()

    def test_threshold_must_be_finite(self):
        # tau lies between or beside the statistics, so they must be finite
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                sweep_threshold([bad, 0.0], [1.0], 0.95)


_ADJACENT = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
# signed zeros and the smallest subnormals, whose midpoints round onto zero
_ZEROS = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0])


@st.composite
def sweep_inputs(draw, max_trials):
    """Statistic pairs built to break the merged counts: ties, adjacent floats,
    signed zeros, identical arms, heavy tails and unequal arm sizes."""
    kind = draw(st.sampled_from(["ties", "adjacent", "zeros", "identical", "cauchy", "normal"]))
    n_with = draw(st.integers(min_value=1, max_value=max_trials))
    n_without = draw(st.integers(min_value=1, max_value=max_trials))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shift = draw(st.sampled_from([0.0, 0.5, 2.0]))
    if kind == "ties":
        w, wo = rng.integers(-2, 5, n_with), rng.integers(-3, 4, n_without)
    elif kind == "adjacent":
        w, wo = _ADJACENT[rng.integers(0, 3, n_with)], _ADJACENT[rng.integers(0, 3, n_without)]
    elif kind == "zeros":
        w, wo = _ZEROS[rng.integers(0, 5, n_with)], _ZEROS[rng.integers(0, 5, n_without)]
    elif kind == "identical":
        w = rng.normal(size=n_with)
        wo = w.copy()
    elif kind == "cauchy":
        w = rng.standard_cauchy(n_with) + shift
        wo = rng.standard_cauchy(n_without)
    else:
        w, wo = rng.normal(shift, 1.0, n_with), rng.normal(0.0, 1.0, n_without)
    confidence = draw(st.floats(min_value=0.5, max_value=0.999999))
    return w.astype(np.float64), wo.astype(np.float64), confidence


# Signed zeros in either merge order, and statistics so large that the
# midpoint of two of one sign overflows and pooled[0] - 1 rounds back onto
# pooled[0]. At one copy the band is vacuous and tau is accept-all's; a
# thousand copies make it informative.
_EDGE_CASES = [
    (np.tile(w, copies), np.tile(wo, copies), 0.95)
    for copies in (1, 1000)
    for w, wo in [([-0.0, 1.0], [-0.0, 0.0, -1.0]), ([-0.0, 1.0], [0.0, -0.0, -1.0]),
                  ([1.7e308], [1.7e308, 1.6e308]), ([-1.7e308], [-1.7e308, -1.6e308])]
]


def with_edge_cases(test):
    """Run a ``sweep_inputs`` test on ``_EDGE_CASES`` too."""
    for case in _EDGE_CASES:
        test = example(case)(test)
    return test


class TestSweepThreshold:
    def test_single_midpoint(self):
        # one trial per arm: the band is saturated at every split, so the
        # sweep falls back to accept-all and certifies nothing
        tau, counts, bounds = sweep_threshold([1.0], [0.0], 0.95)
        assert tau == -1.0
        assert counts == AttackCounts(1, 1, 0, 0)
        assert estimate_from_bounds(bounds).mu_lower == 0.0

    def test_perfect_separation_matches_zero_error_counts(self):
        rng = np.random.default_rng(0)
        with_stats = rng.normal(10.0, 0.1, size=500)
        without_stats = rng.normal(-10.0, 0.1, size=500)
        tau, counts, _ = sweep_threshold(with_stats, without_stats, 0.95)
        assert counts == AttackCounts(500, 0, 0, 500)
        assert -10.0 < tau < 10.0

    def test_identical_distributions_yield_zero(self):
        rng = np.random.default_rng(1)
        stats = rng.normal(size=2000)
        _, _, bounds = sweep_threshold(stats, stats, 0.95)
        estimate = estimate_from_bounds(bounds, 1e-5)
        assert estimate.mu_lower == 0.0
        assert estimate.eps_emp == 0.0

    def test_tie_breaks_to_smallest_tau(self):
        # identical lists of two: every split ranks equal at -inf, and the
        # lowest, accept-all, wins
        tau, _, bounds = sweep_threshold([0.0, 1.0], [0.0, 1.0], 0.95)
        assert tau == -1.0
        assert estimate_from_bounds(bounds, 1e-5).mu_lower == 0.0

    @settings(max_examples=150, deadline=None)
    @given(sweep_inputs(max_trials=3000))
    @with_edge_cases
    def test_counts_are_the_rule_applied_at_tau(self, case):
        # the counts are "canary in above tau" applied to the statistics
        w, wo, confidence = case
        tau, counts, _ = sweep_threshold(w, wo, confidence)
        tp, fp = int(np.count_nonzero(w > tau)), int(np.count_nonzero(wo > tau))
        assert counts == AttackCounts(tp, fp, w.size - tp, wo.size - fp)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sweep_threshold([], [1.0], 0.95)

    def test_statistics_must_be_1d(self):
        # a column of statistics is rejected with its shape, before any sort
        w = np.arange(5.0)
        with pytest.raises(ValueError, match=r"1-D, got shapes \(5, 1\) and \(5,\)"):
            sweep_threshold(w[:, None], w, 0.95)
        with pytest.raises(ValueError, match=r"1-D, got shapes \(5,\) and \(\)"):
            sweep_threshold(w, 1.0, 0.95)


def _reference_corners(w: np.ndarray, wo: np.ndarray) -> np.ndarray:
    """Which splits of ``split_counts_bruteforce`` are corners below the
    largest w statistic: entered by a step that lowers FP (or split 0), left
    by one that raises FN."""
    _, tp, fp = split_counts_bruteforce(w, wo)
    fn = w.size - tp
    entered = np.concatenate([[True], fp[1:] < fp[:-1]])
    left = np.concatenate([fn[1:] > fn[:-1], [False]])
    return entered & left


class TestSweepMatchesBruteForce:
    """The sweep returns exactly what counting and bounding every candidate does."""

    @settings(max_examples=150, deadline=None)
    @given(sweep_inputs(max_trials=3000))
    @with_edge_cases
    def test_random_inputs(self, case):
        got = sweep_threshold(*case)
        assert repr(got) == repr(sweep_threshold_bruteforce(*case))
        # the reported mu is bit for bit the largest mu over the candidates
        best = band_mu_bruteforce(*case)[-1].max()
        assert estimate_from_bounds(got[2]).mu_lower == max(best, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(sweep_inputs(max_trials=3000))
    @with_edge_cases
    def test_candidate_counts_match_the_reference(self, case):
        # every candidate is a corner below the largest w statistic, with
        # the counts a binary search of each arm gives there, and every
        # corner of largest mu is a candidate; reject-all, a corner of the
        # reference when a wo statistic is largest, is not among them
        w, wo, confidence = np.sort(case[0]), np.sort(case[1]), case[2]
        fn, fp = audit._corners(w, wo, confidence)
        corner = _reference_corners(w, wo)
        _, _, fp_ref, fn_ref, _, _, mu = band_mu_bruteforce(w, wo, confidence)
        assert (np.diff(fn) > 0).all()  # in split order
        candidates = set(zip(fn.tolist(), fp.tolist()))
        assert candidates <= set(zip(fn_ref[corner].tolist(), fp_ref[corner].tolist()))
        best = corner & (mu == mu[corner].max())
        assert set(zip(fn_ref[best].tolist(), fp_ref[best].tolist())) <= candidates

    def test_largest_statistic_in_the_without_arm(self):
        # an informative channel with one wo statistic above every w one:
        # reject-all is a corner of the reference, but saturated, and the
        # first corner of largest mu still wins
        rng = np.random.default_rng(6)
        w = rng.normal(2.0, 1.0, 3000)
        wo = np.append(rng.normal(0.0, 1.0, 2500), 50.0)
        _, _, fp = split_counts_bruteforce(w, wo)
        assert fp[-1] < fp[-2]  # reject-all is entered by an FP step
        got = sweep_threshold(w, wo, 0.95)
        assert repr(got) == repr(sweep_threshold_bruteforce(w, wo, 0.95))
        assert 0 < got[1].true_positives < w.size
        assert estimate_from_bounds(got[2]).mu_lower > 1.0

    def test_unequal_arms_saturated_everywhere_pick_accept_all(self):
        # two with-arm and six without-arm statistics: every split's band
        # saturates, so mu is -inf throughout and the first split,
        # accept-all, wins; its counts differ from those of the first
        # corner, which has one wo statistic below it
        w, wo = np.array([0.0, 1.0]), np.array([-1.0, 0.5, 1.5, 2.5, 3.5, 4.5])
        assert np.isneginf(band_mu_bruteforce(w, wo, 0.95)[-1]).all()
        got = sweep_threshold(w, wo, 0.95)
        assert repr(got) == repr(sweep_threshold_bruteforce(w, wo, 0.95))
        assert got[0] == -2.0
        assert got[1] == AttackCounts(2, 6, 0, 0)

    @pytest.mark.parametrize("without", [[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0]])
    def test_signed_zero_threshold(self, without):
        # whichever zero the merged pool holds first, tau is the same. At two
        # and three trials the band is vacuous and tau is accept-all's, below
        # the data; a thousand copies make it informative, splitting the
        # zeros from 1.0.
        for copies in (1, 1000):
            w, wo = np.tile([-0.0, 1.0], copies), np.tile(without, copies)
            got = sweep_threshold(w, wo, 0.95)
            assert got[0] == (-2.0 if copies == 1 else 0.5)
            assert repr(got) == repr(sweep_threshold_bruteforce(w, wo, 0.95))

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_overflowing_midpoints(self, sign):
        # the midpoint of two huge statistics of one sign overflows, and
        # pooled[0] - 1 rounds back onto pooled[0]; tau stays finite and
        # keeps its split
        w, wo = sign * np.array([1.7e308]), sign * np.array([1.7e308, 1.6e308])
        with np.errstate(over="raise"):
            got = sweep_threshold(w, wo, 0.95)
        assert np.isfinite(got[0])
        assert repr(got) == repr(sweep_threshold_bruteforce(w, wo, 0.95))
        below, above = sorted(sign * np.array([1.7e308, 1.8e308]))
        tau = audit._split_tau(float(below), float(above))
        assert below <= tau < above

    def test_bound_below_rounding_at_tiny_confidence(self):
        # near zero confidence the band is at its narrowest, sqrt(ln 2 / 2n);
        # the saturated accept-all sentinel must still rank below the
        # informative thresholds
        rng = np.random.default_rng(5)
        w, wo = rng.normal(2.0, 1.0, 50), rng.normal(0.0, 1.0, 50)
        got = sweep_threshold(w, wo, 1e-15)
        assert repr(got) == repr(sweep_threshold_bruteforce(w, wo, 1e-15))
        assert got[1].false_positives < 50

    def test_classification_channel_at_100k(self):
        # white-box classification, T=4, eps 8, canary-detector votes
        config = vote_config("white_box", eps_theory=8.0, n_sample=100_000, seed=2, n_llm=200)
        collection = collect(CanaryDetector((1, 0), num_classes=2), make_pair(), "CANARY", 4, 200,
                             seed=2)
        w = whitebox_statistic(generate_noisy_samples(collection.clean_with, config, 0), config)
        wo = whitebox_statistic(generate_noisy_samples(collection.clean_without, config, 1), config)
        got = sweep_threshold(w, wo, 0.95)
        assert repr(got) == repr(sweep_threshold_bruteforce(w, wo, 0.95))
        assert estimate_from_bounds(got[2], 1e-5).mu_lower > 1.0


def _shifted_pair(n_with: int, n_without: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.5, 1.0, n_with), rng.normal(0.0, 1.0, n_without)


class TestSweepPruning:
    """The block bounds keep every block that can hold the first corner of
    largest mu, at block edges, ties and -inf alike."""

    @pytest.mark.parametrize("n_with", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("n_without", [1, 64, 129, 5_000])
    def test_arm_sizes_around_a_block(self, n_with, n_without):
        for seed in range(3):
            w, wo = _shifted_pair(n_with, n_without, seed)
            assert repr(sweep_threshold(w, wo, 0.95)) == \
                repr(sweep_threshold_bruteforce(w, wo, 0.95))

    @pytest.mark.parametrize("seed", range(4))
    def test_heavy_integer_ties(self, seed):
        rng = np.random.default_rng(seed)
        w, wo = rng.integers(0, 4, 5_000).astype(float), rng.integers(-1, 3, 4_000).astype(float)
        assert repr(sweep_threshold(w, wo, 0.9)) == repr(sweep_threshold_bruteforce(w, wo, 0.9))

    def test_identical_arms(self):
        w = np.random.default_rng(8).normal(size=10_000)
        got = sweep_threshold(w, w, 0.95)
        assert repr(got) == repr(sweep_threshold_bruteforce(w, w, 0.95))
        assert estimate_from_bounds(got[2]).mu_lower == 0.0

    def test_every_mu_infinite_picks_accept_all(self):
        # five without-arm statistics at confidence 1 - 1e-6: the FP bound
        # saturates at every split, every block bound is -inf, and the first
        # split, accept-all, wins over 200 with-arm ranks
        w, wo = _shifted_pair(200, 5, seed=1)
        assert np.isneginf(band_mu_bruteforce(w, wo, 1 - 1e-6)[-1]).all()
        got = sweep_threshold(w, wo, 1 - 1e-6)
        assert repr(got) == repr(sweep_threshold_bruteforce(w, wo, 1 - 1e-6))
        assert got[1] == AttackCounts(200, 5, 0, 0)

    def test_equal_maxima_in_two_blocks_first_wins(self):
        # a channel and its mirror image: the splits at tau and -tau swap
        # the FP and FN counts, so the largest mu is reached at two corners,
        # here in blocks 1 and 3, and the lower one wins
        w = np.random.default_rng(0).normal(1.0, 1.0, 1_000)
        wo = -w
        corner = _reference_corners(np.sort(w), np.sort(wo))
        _, _, _, fn, _, _, mu = band_mu_bruteforce(w, wo, 0.95)
        best = fn[corner & (mu == mu[corner].max())]
        assert (best // audit._SWEEP_BLOCK).tolist() == [1, 3]
        got = sweep_threshold(w, wo, 0.95)
        assert repr(got) == repr(sweep_threshold_bruteforce(w, wo, 0.95))
        assert got[1].false_negatives == best[0]

    @pytest.mark.parametrize("block", [1, 2])
    def test_best_corner_on_a_blocks_first_rank(self, block):
        # the first 64 * block with-arm statistics lie below every without-arm
        # one and the rest above, so the one informative corner is the first
        # rank of a block whose neighbour before it is pruned
        start = block * audit._SWEEP_BLOCK
        w = np.concatenate([np.arange(start) - 1e3, np.arange(500.0) + 1e3])
        wo = np.arange(300.0)
        got = sweep_threshold(w, wo, 0.95)
        assert repr(got) == repr(sweep_threshold_bruteforce(w, wo, 0.95))
        assert got[1] == AttackCounts(500, 0, start, 300)


class TestSweepGrids:
    """The sweep's memory and work."""

    def test_memory_at_200k_trials_per_arm(self):
        # the sorted copies of the arms, 3.2 MB, and the ranks, counts and
        # bounds of the blocks and of the kept blocks' corners: 3.6 MB
        rng = np.random.default_rng(0)
        w, wo = rng.normal(0.3, 1.0, 200_000), rng.normal(0.0, 1.0, 200_000)
        tracemalloc.start()
        try:
            sweep_threshold(w, wo, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_inputs_are_left_unchanged(self):
        # the sweep sorts copies; the audit alone sorts the arms it owns
        rng = np.random.default_rng(4)
        w, wo = rng.normal(0.3, 1.0, 5_000), rng.normal(0.0, 1.0, 4_000)
        before = w.tobytes(), wo.tobytes()
        sweep_threshold(w, wo, 0.95)
        assert (w.tobytes(), wo.tobytes()) == before

    def test_ranks_the_corners_once(self):
        # mu is computed twice: at two count pairs per block of with-arm
        # ranks, which bound it there, and then ranked at the corners of the
        # blocks that can hold the best one, under 2% of the splits, each a
        # corner of the reference with its bounds; the winner is the
        # reference's first corner of largest mu
        rng = np.random.default_rng(3)
        scale = math.sqrt(2.0) * A1_SIGMA
        w, wo = rng.normal(-2.0, scale, 200_000), rng.normal(-4.0, scale, 200_000)
        ranked, mu_from_bounds = [], audit.mu_from_bounds

        def spy(alpha_bar, beta_bar):
            ranked.append((alpha_bar.copy(), beta_bar.copy()))
            return mu_from_bounds(alpha_bar, beta_bar)

        with mock.patch.object(audit, "mu_from_bounds", spy):
            _, counts, _ = sweep_threshold(w, wo, 0.95)
        assert len(ranked) == 2
        corner = _reference_corners(np.sort(w), np.sort(wo))
        _, _, fp, fn, alpha_bar, beta_bar, mu = band_mu_bruteforce(w, wo, 0.95)
        assert ranked[0][0].size == 2 * math.ceil(w.size / audit._SWEEP_BLOCK)
        assert ranked[1][0].size < 0.02 * alpha_bar.size
        reference = set(zip(alpha_bar[corner].tolist(), beta_bar[corner].tolist()))
        assert set(zip(ranked[1][0].tolist(), ranked[1][1].tolist())) <= reference
        best = int(np.argmax(np.where(corner, mu, -np.inf)))
        assert (counts.false_negatives, counts.false_positives) == (fn[best], fp[best])


# The A1 channel: identical clean rows make the bootstrap statistic exactly
# N(d, 2 sigma^2), with d = -2 for the with-arm and -4 for the without-arm.
A1_SIGMA = voting_noise_scale(8.0, 1e-5)
A1_MU = 2.0 / (math.sqrt(2.0) * A1_SIGMA)


@pytest.fixture(scope="module")
def a1_band_mus():
    """The band's mu_lower on the A1 channel at eps_theory 8, 400k trials
    per arm, for seeds 0-19, with the statistics drawn directly."""
    mus = []
    for seed in range(20):
        rng = np.random.default_rng([seed, 8])
        scale = math.sqrt(2.0) * A1_SIGMA
        w, wo = rng.normal(-2.0, scale, 400_000), rng.normal(-4.0, scale, 400_000)
        mus.append(estimate_from_bounds(sweep_threshold(w, wo, 0.95)[2]).mu_lower)
    return np.asarray(mus)


class TestBandValidity:
    """The white-box bound is a valid gamma lower bound although tau is
    chosen on the trials it is scored on, and it stays tight."""

    def test_null_calibration(self):
        # two identical arms: mu > 0 may be certified in at most 1 - gamma of
        # the replicates, plus binomial slack
        from scipy.stats import binom

        rng = np.random.default_rng(20240813)
        replicates, gamma = 400, 0.95
        certified = 0
        for _ in range(replicates):
            w, wo = rng.normal(0.0, 1.0, 20_000), rng.normal(0.0, 1.0, 20_000)
            certified += estimate_from_bounds(sweep_threshold(w, wo, gamma)[2]).mu_lower > 0.0
        assert certified <= binom.ppf(0.999, replicates, 1.0 - gamma)

    def test_a1_coverage(self, a1_band_mus):
        # mu_lower stays at or below the exact mu in at least a gamma fraction of seeds
        assert A1_MU == pytest.approx(1.6513, abs=1e-4)
        assert np.mean(a1_band_mus <= A1_MU) >= 0.95

    def test_a1_power(self, a1_band_mus):
        # the band costs little: the median is within 1.5% of the exact mu
        assert np.median(a1_band_mus) >= 0.985 * A1_MU


class TestBootstrapAudit:
    def test_noiseless_separation(self):
        # eps_theory so large the noise never moves the clean statistics:
        # the white-box threshold separates perfectly and epsilon is
        # governed purely by the band's width at zero error counts
        config = vote_config(threat="white_box", eps_theory=1e9, n_sample=5_000)
        report = bootstrap_audit([(1, 3)], [(0, 4)], config)
        assert report.counts.true_positives == 5_000
        assert report.counts.false_positives == 0
        margin = math.sqrt(math.log(2.0 / 0.05) / (2.0 * 5_000))
        oracle = estimate_from_bounds(ErrorBounds(margin, margin, 0.95), 1e-5)
        assert report.estimate.eps_emp == pytest.approx(oracle.eps_emp, abs=1e-9)
        assert report.estimate.eps_emp == pytest.approx(25.55, abs=0.01)
        assert math.isinf(report.eps_emp_point)

    def test_noiseless_blackbox_saturates(self):
        # with a yes-minority vote pattern and no noise, the released label
        # is "no" under both hypotheses: the black-box signal vanishes
        config = vote_config(threat="black_box", eps_theory=1e9, n_sample=5_000)
        report = bootstrap_audit([(1, 3)], [(0, 4)], config)
        assert report.counts.true_positives == 0
        assert report.counts.false_positives == 0
        assert report.estimate.eps_emp == 0.0

    def test_degenerate_lists_match_direct_sampling(self):
        # bootstrap over single-vector lists IS the Gaussian channel
        from scipy.stats import ks_2samp

        config = vote_config(n_sample=20_000, seed=4)
        sigma = voting_noise_scale(2.0, 1e-5)
        noisy = generate_noisy_samples([(1, 3)], config, arm=0)
        stat = whitebox_statistic(noisy, config)
        rng = np.random.default_rng(999)
        direct = (1 - 3) + rng.normal(0.0, sigma * math.sqrt(2.0), size=20_000)
        assert ks_2samp(stat, direct).statistic < 0.015

    @pytest.mark.parametrize("threat", audit.THREAT_MODELS)
    @pytest.mark.parametrize("task", audit.TASKS)
    def test_deterministic_across_worker_counts(self, task, threat):
        # streamed blocks give the report of the whole-arm score path at any
        # worker count; generation black-box also picks non-signal candidates
        clean_with, clean_without, config, extra = audit_cell(task, threat)
        with mock.patch.object(audit, "_TRIAL_BLOCK", SMALL_BLOCK), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports = [bootstrap_audit(clean_with, clean_without, config, workers=workers, **extra)
                       for workers in (1, 2, 8)]
            full = bootstrap_audit_score_matrix(clean_with, clean_without, config, **extra)
        assert [report.to_json() for report in reports] == [full.to_json()] * 3
        assert 0 < full.counts.true_positives < config.n_sample

    def test_duplicate_heavy_pool_gives_the_full_pool_report(self):
        # the canary detector's zero-shot pool holds coin-flip copies of y1
        # and y0 (here y0 first); with repeated non-signal candidates 5 of
        # its 19 rows are distinct, and the scores cover those alone
        clean_with, clean_without, config, extra = audit_cell("generation", "black_box")
        signal = extra["signal_pair"]
        detector = CanaryDetector((signal.y0_embedding, signal.y1_embedding))
        zero_shot = zero_shot_candidates(detector, "q", 10, seed=4)
        near = generation_pool(signal, near=3)[2:]
        candidates = [*zero_shot, *near, *near[::-1], *near]
        assert len({candidate.tobytes() for candidate in candidates}) == 5
        with mock.patch.object(audit, "_TRIAL_BLOCK", SMALL_BLOCK):
            expected = full_pool_non_signal(clean_with, clean_without, config, signal, candidates)
            with pytest.warns(UserWarning) as record:
                reports = [bootstrap_audit(clean_with, clean_without, config, workers=workers,
                                           signal_pair=signal, candidates=candidates)
                           for workers in (1, 2, 8)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                full = bootstrap_audit_score_matrix(clean_with, clean_without, config,
                                                    signal_pair=signal, candidates=candidates)
        assert [report.to_json() for report in reports] == [full.to_json()] * 3
        assert 0 < full.counts.true_positives < config.n_sample
        assert expected > 0
        assert [str(w.message) for w in record] == [
            f"{expected} trials selected a non-signal candidate; counted as canary-absent"] * 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_noisy_samples_stack_the_streamed_blocks(self, workers):
        clean_with, _, config, _ = audit_cell("generation", "white_box")
        with mock.patch.object(audit, "_TRIAL_BLOCK", SMALL_BLOCK):
            got = generate_noisy_samples(clean_with, config, arm=1, workers=workers)
            want = _noisy_matrix(np.stack(clean_with), noise_scale(config.mechanism),
                                 config.n_sample, config.seed, 1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("width", [3, 16])
    @pytest.mark.parametrize("threat", audit.THREAT_MODELS)
    @pytest.mark.parametrize("task", audit.TASKS)
    def test_ragged_chunks_give_the_full_matrix_report(self, task, threat, width):
        # blocks released 7 rows at a time give the whole-arm score report:
        # one column for white-box, a column per class or distinct pool row
        # but the first for black-box (width - 1 votes, 9 candidates)
        clean_with, clean_without, config, extra = audit_cell(task, threat, width)
        columns = 1 if threat == "white_box" else width - 1 if task == "classification" else 9
        with mock.patch.object(audit, "_TRIAL_BLOCK", SMALL_BLOCK), \
                mock.patch.object(audit, "_RELEASE_CHUNK_BYTES", RAGGED_CHUNK_ROWS * 8 * columns), \
                mock.patch.object(audit, "_release_scores", wraps=audit._release_scores) as spy, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports = [bootstrap_audit(clean_with, clean_without, config, workers=workers, **extra)
                       for workers in (1, 2, 8)]
            full = bootstrap_audit_score_matrix(clean_with, clean_without, config, **extra)
        assert {call.args[2].size for call in spy.call_args_list} == {7, 1, 2}
        assert [report.to_json() for report in reports] == [full.to_json()] * 3
        assert 0 < full.counts.true_positives < config.n_sample

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 17), st.lists(st.integers(0, 40), max_size=8),
           st.integers(0, 2**32 - 1))
    def test_ragged_normal_draws_are_one_draw(self, d, chunks, seed):
        # the generator keeps no state between normal draws, so a block's
        # noise drawn chunk by chunk in row order is its one whole draw
        whole = np.random.default_rng(seed).normal(0.0, 0.9, size=(sum(chunks), d))
        rng = np.random.default_rng(seed)
        parts = [rng.normal(0.0, 0.9, size=(rows, d)) for rows in chunks]
        assert np.concatenate([np.empty((0, d)), *parts]).tobytes() == whole.tobytes()

    def test_scores_each_distinct_candidate_once(self):
        # a pool of 19 rows, 5 of them distinct: the noise factor is built
        # once per audit, over the 4 columns of the distinct rows after the
        # first, in the order of their first occurrences
        clean_with, clean_without, config, extra = audit_cell("generation", "black_box")
        signal = extra["signal_pair"]
        near = generation_pool(signal, near=3)[2:]
        candidates = [signal.y0_embedding, signal.y1_embedding, signal.y0_embedding,
                      *near, *near[::-1], *near, *[signal.y1_embedding] * 4]
        with mock.patch.object(mechanisms, "gaussian_score_factor",
                               wraps=mechanisms.gaussian_score_factor) as spy, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bootstrap_audit(clean_with, clean_without, replace(config, n_sample=100),
                            signal_pair=signal, candidates=candidates)
        distinct = np.stack([signal.y0_embedding, signal.y1_embedding, *near])
        assert spy.call_count == 1
        assert spy.call_args.args[0].tobytes() == (distinct[1:] - distinct[0]).T.tobytes()

    def test_one_block_holds_its_rows_plus_three_chunks(self):
        # a one-block black-box generation audit: besides the block's int64
        # row indices, the kernel holds a chunk of scores, its normals and
        # the gathered clean scores, whatever the dimension or the pool;
        # one d-wide block of noise would be 8 MiB at d = 16, 128 MiB at 256

        def peak(d, pool_rows):
            signal = SignalPair.synthetic(0.7476, d)
            candidates = generation_pool(signal, near=pool_rows - 2)
            config = generation_config("black_box", n_sample=audit._TRIAL_BLOCK)
            clean_with = [(signal.y1_embedding + 7 * signal.y0_embedding) / 8.0]
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    bootstrap_audit(clean_with, [signal.y0_embedding], config, signal_pair=signal,
                                    candidates=candidates)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = [peak(d, pool_rows) for d in (16, 256) for pool_rows in (2, 10)]
        assert max(peaks) <= audit._TRIAL_BLOCK * 8 + 3 * audit._RELEASE_CHUNK_BYTES + (1 << 16)
        assert max(peaks) - min(peaks) <= audit._RELEASE_CHUNK_BYTES

    @pytest.mark.parametrize("threat", audit.THREAT_MODELS)
    def test_one_block_memory_flat_in_dimension(self, threat):
        # a one-block generation audit: a whole block of noise is 8 MiB at
        # d = 16 and 128 MiB at d = 256, a chunk is the same at both

        def peak(d):
            signal = SignalPair.synthetic(0.7476, d)
            config = generation_config(threat, n_sample=audit._TRIAL_BLOCK)
            tracemalloc.start()
            try:
                bootstrap_audit([(signal.y1_embedding + 7 * signal.y0_embedding) / 8.0],
                                [signal.y0_embedding], config, signal_pair=signal)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(256) - peak(16)) <= 1 << 20

    def test_memory_flat_in_n_sample(self):
        # generation black-box, pool 10, d=16: whole arms would hold n x d
        # noisy trials and an n x pool x d distance tensor
        signal = SignalPair.synthetic(0.7476, 16)
        candidates = generation_pool(signal, near=0, far=8)

        def peak(n_sample):
            config = generation_config("black_box", n_sample=n_sample)
            tracemalloc.start()
            try:
                bootstrap_audit([signal.y1_embedding], [signal.y0_embedding], config,
                                signal_pair=signal, candidates=candidates, workers=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with mock.patch.object(audit, "_TRIAL_BLOCK", SMALL_BLOCK):
            small, large = peak(4 * SMALL_BLOCK), peak(16 * SMALL_BLOCK)
        # at most two float64 per extra trial and arm; one n x d arm is 16
        assert large - small <= 2 * 2 * 8 * (16 - 4) * SMALL_BLOCK

    def test_whitebox_memory_at_400k_trials(self):
        # each block's projections are written into one array per arm, which
        # the sweep sorts in place: 12.0 MB
        config = vote_config("white_box", eps_theory=8.0, n_sample=400_000, seed=1, n_llm=2)
        tracemalloc.start()
        try:
            bootstrap_audit([(1, 3), (2, 2)], [(0, 4)], config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_signal_picks_warn_once_with_their_count(self, workers):
        # the pair's midpoint is as near the first clean row as y0 is, so
        # many trials release it
        clean_with, clean_without, config, extra = audit_cell("generation", "black_box")
        signal = extra["signal_pair"]
        midpoint = (signal.y1_embedding + signal.y0_embedding) / 2.0
        extra["candidates"] = [*extra["candidates"], midpoint]
        with mock.patch.object(audit, "_TRIAL_BLOCK", SMALL_BLOCK):
            expected = full_pool_non_signal(clean_with, clean_without, config, **extra)
            threads = []
            warn = warnings.warn

            def recording(*args, **kwargs):
                threads.append(threading.get_ident())
                warn(*args, **kwargs)

            with mock.patch.object(audit.warnings, "warn", recording), \
                    pytest.warns(UserWarning) as record:
                bootstrap_audit(clean_with, clean_without, config, workers=workers, **extra)
        assert expected > 0
        assert [str(w.message) for w in record] == [
            f"{expected} trials selected a non-signal candidate; counted as canary-absent"]
        assert threads == [threading.get_ident()]

    def test_soundness_against_exact_gaussian_channel(self):
        # clean [1,3] vs [0,4] is the margin-1 channel with mu* = sqrt(2)/sigma;
        # the band holds at the chosen tau, so no seed may overshoot mu*
        sigma = voting_noise_scale(2.0, 1e-5)
        mu_star = math.sqrt(2.0) / sigma
        clean_with = [(1, 3)]
        clean_without = [(0, 4)]
        excesses = []
        for seed in range(10):
            config = vote_config("white_box", n_sample=100_000, seed=seed)
            report = bootstrap_audit(clean_with, clean_without, config)
            excesses.append(report.estimate.mu_lower - mu_star)
        assert max(excesses) <= 0.0

    def test_generation_whitebox_pipeline(self):
        signal = SignalPair.synthetic(0.7476, 16)
        clean_with = [(signal.y1_embedding + 7 * signal.y0_embedding) / 8.0]
        clean_without = [signal.y0_embedding]
        config = generation_config(n_sample=50_000)
        report = bootstrap_audit(clean_with, clean_without, config, signal_pair=signal)
        assert 0.0 < report.estimate.eps_emp < 8.0
        assert report.tau is not None

    def test_generation_blackbox_larger_pool(self):
        signal = SignalPair.synthetic(0.7476, 16)
        far = np.zeros(16)
        far[2] = 1.0
        clean_with = [signal.y1_embedding]
        clean_without = [signal.y0_embedding]
        config = generation_config(threat="black_box", eps_theory=1e9, n_sample=1_000)
        report = bootstrap_audit(clean_with, clean_without, config, signal_pair=signal,
                                 candidates=[signal.y1_embedding, signal.y0_embedding, far])
        assert report.counts.true_positives == 1_000

    def test_missing_signal_pair_rejected(self):
        config = generation_config()
        with pytest.raises(ValueError):
            bootstrap_audit([np.zeros(4)], [np.zeros(4)], config)


GATE_DIMENSIONS = (2, 16, 256)


def gate_cell(task, threat, d):
    """Fixed clean rows for one {task} x {threat} audit in d dimensions: d
    classes of votes, or d-dimensional embeddings with, for black-box, a
    pool of 10 distinct rows (9 score columns, more than d at d = 2)."""
    if task == "classification":
        mech = MechanismConfig(eps_theory=4.0, delta=1e-5, num_partitions=4)
        config = AuditConfig(mechanism=mech, task=task, threat_model=threat, n_llm=2,
                             n_sample=400_000, seed=13)
        pad = (0,) * (d - 2)
        return [(1, 3, *pad), (2, 2, *pad)], [(0, 4, *pad)], config, {}
    clean_with, clean_without, config, extra = audit_cell(task, threat, d)
    return clean_with, clean_without, replace(config, n_sample=400_000, seed=13), extra


class TestScoreReleaseLaw:
    """The score release against the release of the whole d-dimensional
    aggregate, ``reference.dimensional_decisions``, at fixed clean rows:
    white-box statistics agree by KS, black-box counts within binomial
    error."""

    @pytest.mark.parametrize("d", GATE_DIMENSIONS)
    @pytest.mark.parametrize("task", audit.TASKS)
    def test_whitebox_statistics(self, task, d):
        from scipy.stats import ks_2samp

        clean_with, clean_without, config, extra = gate_cell(task, "white_box", d)
        with mock.patch.object(audit, "_sweep_in_place", wraps=audit._sweep_in_place) as spy:
            bootstrap_audit(clean_with, clean_without, config, workers=2, **extra)
        for arm, clean in enumerate((clean_with, clean_without)):
            want = dimensional_decisions(clean, config, arm, **extra)
            assert ks_2samp(spy.call_args.args[arm], want).pvalue > 1e-3

    @pytest.mark.parametrize("d", GATE_DIMENSIONS)
    @pytest.mark.parametrize("task", audit.TASKS)
    def test_blackbox_counts(self, task, d):
        clean_with, clean_without, config, extra = gate_cell(task, "black_box", d)
        if task == "classification" and d == 256:
            # 255 score columns cost more than the d-wide release itself
            config = replace(config, n_sample=40_000)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            report = bootstrap_audit(clean_with, clean_without, config, workers=2, **extra)
        non_signal = sum(int(str(w.message).split()[0]) for w in record)
        arms = [dimensional_decisions(clean, config, arm, **extra)
                for arm, clean in enumerate((clean_with, clean_without))]
        n = config.n_sample
        pairs = [(report.counts.true_positives, int(np.count_nonzero(arms[0] == 1)), n),
                 (report.counts.false_positives, int(np.count_nonzero(arms[1] == 1)), n),
                 (non_signal, sum(int(np.count_nonzero(arm < 0)) for arm in arms), 2 * n)]
        for got, want, trials in pairs:
            p = (got + want) / (2 * trials)
            assert abs(got - want) <= 5 * math.sqrt(2 * trials * p * (1 - p)) + 3, (got, want)
        assert report.counts.true_positives > report.counts.false_positives


class TestRunAudit:
    def test_pure_noise_oracle_certifies_nothing(self):
        oracle = CanaryDetector((1, 0), num_classes=2, flip_probability=0.5)
        for threat in ("black_box", "white_box"):
            config = vote_config(threat, n_sample=50_000, seed=3, n_llm=200)
            report = run_audit(config, oracle, make_pair(), "CANARY")
            assert report.estimate.eps_emp <= 0.05

    def test_headline_desk_scale_point(self):
        oracle = CanaryDetector((1, 0), num_classes=2)
        config = vote_config("white_box", eps_theory=1.0, n_sample=100_000, seed=1, n_llm=200)
        report = run_audit(config, oracle, make_pair(), "CANARY")
        assert report.estimate.eps_emp == pytest.approx(0.735, rel=0.15)

    def test_task_mismatch_rejected(self):
        signal = SignalPair.synthetic(0.5)
        oracle = CanaryDetector((signal.y0_embedding, signal.y1_embedding))
        config = vote_config()
        with pytest.raises(OracleError, match="generation responses for a classification audit"):
            run_audit(config, oracle, make_pair(), "CANARY")

    def test_votes_narrower_than_the_yes_index_rejected(self):
        oracle = CanaryDetector((1, 0), num_classes=2)  # two classes
        mech = MechanismConfig(eps_theory=2.0, delta=1e-5, num_partitions=4)
        config = AuditConfig(mechanism=mech, task="classification", threat_model="black_box",
                             n_llm=1, n_sample=100, yes_index=2)
        with pytest.raises(OracleError,
                           match="class index 2 is outside the 2-class votes the oracle produced"):
            run_audit(config, oracle, make_pair(), "CANARY")

    @pytest.mark.parametrize("index", [{"yes_index": -1}, {"no_index": -1}])
    def test_negative_class_index_rejected(self, index):
        # np.eye(width)[[no, yes]] would wrap -1 around to the last class
        with pytest.raises(ValueError, match="class indices must be non-negative"):
            replace(vote_config(), **index)

    @pytest.mark.parametrize("task, threat, pool_size, replay, calls", [
        ("generation", "black_box", 10, False, 10),
        ("generation", "black_box", 3, False, 3),
        ("generation", "black_box", 2, False, 0),
        ("generation", "black_box", 10, True, 0),
        ("generation", "white_box", 10, False, 0),
        ("classification", "black_box", 10, False, 0),
    ], ids=["pool-10", "pool-3", "signal-pair", "replay", "white-box", "classification"])
    def test_zero_shot_calls(self, task, threat, pool_size, replay, calls):
        mode = "esa_tight" if task == "generation" else "paper_voting"
        mech = MechanismConfig(eps_theory=8.0, delta=1e-5, num_partitions=4,
                               sensitivity_mode=mode, candidate_pool_size=pool_size)
        config = AuditConfig(mechanism=mech, task=task, threat_model=threat, n_llm=1)
        signal = SignalPair.synthetic(0.7476, 16)
        if replay:
            oracle = ReplayOracle(np.zeros(1, np.int8), np.zeros(1, np.int64),
                                  np.zeros(1, np.int64), signal.y0_embedding[None])
        else:
            oracle = CanaryDetector((signal.y0_embedding, signal.y1_embedding))
        assert zero_shot_calls(config, oracle) == calls

    def test_draws_the_zero_shot_pool(self):
        # at seed 624 the canary detector's ten zero-shot calls all answer
        # y0, so every release is y0 and the audit certifies nothing; over
        # the signal pair the same trials certify eps > 0
        signal = SignalPair.synthetic(0.7476, 16)
        oracle = CanaryDetector((signal.y0_embedding, signal.y1_embedding))
        config = generation_config("black_box", n_sample=20_000, seed=624)
        pool = zero_shot_candidates(oracle, "CANARY", 10, seed=624)
        assert all(np.array_equal(candidate, signal.y0_embedding) for candidate in pool)
        report = run_audit(config, oracle, make_pair(), "CANARY", signal_pair=signal)
        assert report.counts.true_positives == 0
        assert report.estimate.eps_emp == 0.0
        pair_pool = replace(config, mechanism=replace(config.mechanism, candidate_pool_size=2))
        report = run_audit(pair_pool, oracle, make_pair(), "CANARY", signal_pair=signal)
        assert report.estimate.eps_emp > 0.0

    def test_monotone_in_n_sample_for_perfect_separation(self):
        oracle = CanaryDetector((1, 0), num_classes=2)
        values = []
        for n_sample in (1_000, 10_000, 100_000):
            config = vote_config("white_box", eps_theory=1e9, n_sample=n_sample, seed=0, n_llm=50)
            report = run_audit(config, oracle, make_pair(), "CANARY")
            values.append(report.estimate.eps_emp)
        assert values == sorted(values)
        assert values[0] > 0


class TestReporting:
    def make_report(self):
        config = vote_config(n_sample=2_000, seed=5)
        return bootstrap_audit([(1, 3)], [(0, 4)], config)

    def test_json_is_deterministic_and_excludes_wall_time(self):
        report = self.make_report()
        payload = json.loads(report.to_json())
        assert "wall_ms" not in payload
        assert payload["counts"]["tp"] + payload["counts"]["fn"] == 2_000
        assert report.to_json() == self.make_report().to_json()

    def test_infinite_point_estimate_serializes_as_flag(self):
        # noiseless yes-majority vs no votes: every trial with the canary
        # releases yes, none without it
        config = vote_config("black_box", eps_theory=1e9, n_sample=500)
        report = bootstrap_audit([(3, 1)], [(0, 4)], config)
        assert (report.counts.true_positives, report.counts.false_positives) == (500, 0)
        payload = json.loads(report.to_json())
        assert payload["eps_emp_point"] == "inf"

    def test_no_positives_serialize_as_minus_inf(self):
        # noiseless yes-minority votes: no trial of either arm releases yes,
        # and an attack that never says "canary in" shows no loss
        config = vote_config("black_box", eps_theory=1e9, n_sample=500)
        report = bootstrap_audit([(1, 3)], [(0, 4)], config)
        assert (report.counts.true_positives, report.counts.false_positives) == (0, 0)
        assert json.loads(report.to_json())["eps_emp_point"] == "-inf"
        assert report.to_csv_row()["eps_emp_point"] == "-inf"

    def test_csv_append(self, tmp_path):
        path = tmp_path / "reports.csv"
        report = self.make_report()
        append_report_csv(path, report)
        append_report_csv(path, report)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].split(",")[:4] == ["task", "threat", "T", "eps_theory"]
        assert lines[1] == lines[2]

    def test_config_validation(self):
        mech = MechanismConfig(eps_theory=1.0, delta=1e-5, num_partitions=4)
        with pytest.raises(ValueError):
            AuditConfig(mechanism=mech, task="nope", threat_model="white_box", n_llm=1)
        with pytest.raises(ValueError):
            AuditConfig(mechanism=mech, task="classification", threat_model="white_box",
                        n_llm=1, n_sample=0)
