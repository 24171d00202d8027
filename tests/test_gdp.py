import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpicl_audit.gdp import (
    AttackCounts,
    ErrorBounds,
    GdpEstimate,
    audit_epsilon,
    delta_from_eps_mu,
    eps_emp_dp,
    eps_from_mu_delta,
    mu_from_bounds,
    mu_from_eps_delta,
    mu_lower,
)
from dpicl_audit.stats import binom_upper_bound, std_normal_cdf

from reference import eps_grid_scan


def bounds(alpha, beta, gamma=0.95):
    return ErrorBounds(alpha_bar=alpha, beta_bar=beta, confidence=gamma)


class TestMuLower:
    def test_chance_level(self):
        assert mu_lower(bounds(0.5, 0.5)) == 0.0

    def test_symmetric_bounds(self):
        # Phi^-1(1 - 0.5) - Phi^-1(0.025) is Phi^-1(0.975)
        expected = 2.0 * float(mu_from_bounds(np.array([0.025]), np.array([0.5]))[0])
        assert mu_lower(bounds(0.025, 0.025)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(3.9199, abs=1e-4)

    def test_worse_than_chance_clamps(self):
        assert mu_lower(bounds(0.9, 0.9)) == 0.0

    @given(st.floats(min_value=1e-9, max_value=1.0),
           st.floats(min_value=1e-9, max_value=1.0))
    def test_never_negative(self, alpha, beta):
        assert mu_lower(bounds(alpha, beta)) >= 0.0

    def test_saturated_bounds_clamp(self):
        assert mu_lower(bounds(1.0, 0.2)) == 0.0
        assert mu_lower(bounds(0.2, 1.0)) == 0.0


class TestDeltaFromEpsMu:
    def test_zero_mu_is_zero_everywhere(self):
        for eps in [0.0, 0.5, 3.0, 100.0]:
            assert delta_from_eps_mu(eps, 0.0) == 0.0

    def test_underflowing_mu_is_zero(self):
        # eps / mu overflows to inf; the limit of delta is 0
        assert delta_from_eps_mu(2.0, 1.1e-308) == 0.0
        assert delta_from_eps_mu(100.0, 5e-324) == 0.0

    def test_symmetry_value(self):
        expected = std_normal_cdf(0.5) - std_normal_cdf(-0.5)
        assert delta_from_eps_mu(0.0, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.382925, abs=1e-6)

    def test_strictly_decreasing_in_eps(self):
        for mu in [0.3, 1.0, 2.5]:
            values = [delta_from_eps_mu(eps, mu) for eps in np.linspace(0.0, 3.0, 40)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_non_decreasing_in_mu(self):
        for eps in [0.0, 0.5, 2.0]:
            values = [delta_from_eps_mu(eps, mu) for mu in np.linspace(0.1, 5.0, 40)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_range(self):
        for eps in np.linspace(0.0, 50.0, 21):
            for mu in np.linspace(0.0, 10.0, 21):
                d = delta_from_eps_mu(eps, mu)
                assert 0.0 <= d < 1.0

    def test_no_overflow_in_audited_regime(self):
        # e^eps * Phi(...) overflows naively around eps > 30
        assert math.isfinite(delta_from_eps_mu(40.0, 8.0))
        assert math.isfinite(delta_from_eps_mu(200.0, 50.0))

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=1e-6, max_value=1.0))
    def test_monotone_in_eps_everywhere(self, eps, mu, step):
        lo = delta_from_eps_mu(eps, mu)
        hi = delta_from_eps_mu(eps + step, mu)
        assert 0.0 <= hi <= lo < 1.0


class TestEpsFromMuDelta:
    def test_zero_mu(self):
        assert eps_from_mu_delta(0.0, 1e-5) == 0.0

    def test_round_trip(self):
        delta0 = delta_from_eps_mu(3.0, 2.0)
        assert eps_from_mu_delta(2.0, delta0) == pytest.approx(3.0, abs=1e-6)

    def test_against_grid_scan_oracle(self):
        oracle = eps_grid_scan(1.0, 1e-5, delta_from_eps_mu)
        got = eps_from_mu_delta(1.0, 1e-5)
        assert got == pytest.approx(oracle, abs=1e-6)
        assert got == pytest.approx(4.377178096, abs=1e-6)  # frozen from the oracle

    def test_small_delta_already_satisfied(self):
        # tiny mu leaks less than the target delta even at eps = 0
        assert eps_from_mu_delta(1e-6, 1e-5) == 0.0

    def test_unbounded_flag(self):
        assert math.isinf(eps_from_mu_delta(50.0, 1e-5))

    def test_non_decreasing_in_mu(self):
        values = [eps_from_mu_delta(mu, 1e-5) for mu in np.linspace(0.0, 6.0, 25)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_rejects_bad_delta(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                eps_from_mu_delta(1.0, bad)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_mu_by_name(self, mu):
        with pytest.raises(ValueError, match=f"^mu must be finite, got {mu}$"):
            eps_from_mu_delta(mu, 1e-5)
        with pytest.raises(ValueError, match=f"^mu must be finite, got {mu}$"):
            delta_from_eps_mu(1.0, mu)


class TestMuFromEpsDelta:
    def test_inverts_delta(self):
        for eps in (0.5, 3.0, 8.0, 250.0):
            mu = mu_from_eps_delta(eps, 1e-5)
            assert delta_from_eps_mu(eps, mu) == pytest.approx(1e-5, rel=1e-9)

    def test_inverts_frozen_eps(self):
        # eps_from_mu_delta(1.0, 1e-5) = 4.377178096, frozen from the grid-scan oracle
        assert mu_from_eps_delta(4.377178096, 1e-5) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_inputs(self):
        for eps, delta in ((-1.0, 1e-5), (math.inf, 1e-5), (math.nan, 1e-5), (1.0, 0.0), (1.0, 1.0)):
            with pytest.raises(ValueError):
                mu_from_eps_delta(eps, delta)


class TestEpsEmpDp:
    def test_equal_rates(self):
        assert eps_emp_dp(0.3, 0.3) == 0.0

    def test_direct_arithmetic(self):
        assert eps_emp_dp(0.9, 0.1) == pytest.approx(math.log(9.0), abs=1e-12)

    def test_composed_with_cp_bound(self):
        fpr = binom_upper_bound(0, 100, 0.95)
        assert eps_emp_dp(1.0, fpr) == pytest.approx(3.523, abs=1e-3)

    def test_zero_fpr_is_infinite(self):
        assert eps_emp_dp(0.5, 0.0) == math.inf

    @pytest.mark.parametrize("fpr", [0.5, 0.0])
    def test_zero_tpr_is_minus_infinite(self, fpr):
        # whatever FPR is: an attack that never says "canary in" shows no loss
        assert eps_emp_dp(0.0, fpr) == -math.inf

    @pytest.mark.parametrize("tpr, fpr", [(-0.1, 0.5), (1.5, 0.5), (0.5, -0.1), (0.5, 1.5)])
    def test_rates_outside_the_unit_interval_rejected(self, tpr, fpr):
        with pytest.raises(ValueError, match="must lie in \\[0, 1\\]"):
            eps_emp_dp(tpr, fpr)


class TestAttackCounts:
    def test_rates(self):
        counts = AttackCounts(90, 10, 10, 90)
        assert counts.tpr == 0.9
        assert counts.fpr == 0.1

    def test_requires_both_hypotheses(self):
        with pytest.raises(ValueError):
            AttackCounts(0, 5, 0, 5)
        with pytest.raises(ValueError):
            AttackCounts(5, 0, 5, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AttackCounts(-1, 1, 1, 1)


class TestAuditEpsilon:
    def test_chance_level(self):
        estimate = audit_epsilon(AttackCounts(100, 100, 100, 100), 0.95, 1e-5)
        assert estimate.mu_lower == 0.0
        assert estimate.eps_emp == 0.0

    def test_confidence_checked_as_passed(self):
        # before (1 + gamma) / 2 is formed, so the message names the gamma passed
        with pytest.raises(ValueError, match=r"got 1\.5$"):
            audit_epsilon(AttackCounts(100, 100, 100, 100), 1.5, 1e-5)

    def test_perfect_attack_regression(self):
        # frozen by composing the CP (at (1 + 0.95) / 2 = 0.975 per bound),
        # inverse-CDF and grid-scan oracles; with each bound at 0.95 they gave
        # mu 8.347584445 and eps 69.636366
        estimate = audit_epsilon(AttackCounts(200_000, 0, 0, 200_000), 0.95, 1e-5)
        assert estimate.mu_lower == pytest.approx(8.252302708, abs=1e-6)
        assert estimate.eps_emp == pytest.approx(68.440866, abs=1e-4)
        assert math.isfinite(estimate.eps_emp)

    def test_more_samples_tighten_perfect_attack(self):
        values = []
        for n in (100, 1_000, 10_000, 200_000):
            estimate = audit_epsilon(AttackCounts(n, 0, 0, n), 0.95, 1e-5)
            values.append(estimate.eps_emp)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_intermediates_reported(self):
        estimate = audit_epsilon(AttackCounts(80, 20, 20, 80), 0.95, 1e-5)
        assert isinstance(estimate, GdpEstimate)
        assert 0.2 < estimate.alpha_bar < 0.35
        assert 0.2 < estimate.beta_bar < 0.35
        # each bound at (1 + gamma) / 2, so that both hold together at gamma
        assert estimate.alpha_bar == binom_upper_bound(20, 100, 0.975)
        assert estimate.confidence == 0.95
        assert estimate.delta_target == 1e-5

    def test_coverage_on_true_gaussian_channel(self):
        # counts drawn through a fixed-threshold test on a mu*=1 channel;
        # the estimate must stay below mu* in >= gamma - 0.02 of the runs
        mu_star, n, gamma = 1.0, 100_000, 0.95
        tpr = std_normal_cdf(mu_star / 2.0)
        fpr = std_normal_cdf(-mu_star / 2.0)
        rng = np.random.default_rng(1234)
        covered = 0
        runs = 1000
        for _ in range(runs):
            tp = int(rng.binomial(n, tpr))
            fp = int(rng.binomial(n, fpr))
            estimate = audit_epsilon(AttackCounts(tp, fp, n - tp, n - fp), gamma, 1e-5)
            covered += estimate.mu_lower <= mu_star
        assert covered / runs >= gamma - 0.02
