import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpicl_audit.gdp import mu_from_bounds
from dpicl_audit.stats import (
    binom_upper_bound,
    binom_upper_bound_array,
    log_std_normal_cdf,
    std_normal_cdf,
)

from reference import (
    binom_tail_exact,
    cp_upper_bisect,
    inv_cdf_bisect,
    normal_cdf_quad,
    normal_log_cdf_mp,
    normal_quantile_mp,
    normal_tail_asymptotic,
)


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_against_quadrature(self):
        # frozen from the quadrature oracle
        assert abs(std_normal_cdf(1.959964) - 0.975) <= 1e-6
        for x in [-6.0, -2.5, -1.0, 0.3, 1.959964, 4.0, 7.5]:
            assert abs(std_normal_cdf(x) - normal_cdf_quad(x)) <= 1e-12

    def test_deep_tail_does_not_underflow(self):
        value = std_normal_cdf(-38.0)
        assert 0.0 < value < 1e-300
        assert std_normal_cdf(-37.0) > 0.0
        # asymptotic tail expansion as oracle (relative agreement)
        oracle = normal_tail_asymptotic(-38.0)
        assert abs(value - oracle) <= 1e-3 * oracle

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                std_normal_cdf(bad)


class TestLogStdNormalCdf:
    def test_matches_log_of_cdf(self):
        for x in [-30.0, -8.0, -1.5, -0.2, 0.0, 1.0, 6.0]:
            assert abs(log_std_normal_cdf(x) - math.log(std_normal_cdf(x))) <= 1e-12

    def test_beyond_erfc_underflow(self):
        # past x = -37.6, where erfc and so Phi itself underflow
        for x in (-40.0, -50.0, -80.0):
            assert log_std_normal_cdf(x) == pytest.approx(normal_log_cdf_mp(x), rel=1e-10)


def std_normal_inv_cdf(p: float) -> float:
    """Phi^-1(p) where the package computes it, in ``gdp.mu_from_bounds``:
    Phi^-1(1 - 0.5) - Phi^-1(p) is exactly -Phi^-1(p)."""
    return -float(mu_from_bounds(np.array([p]), np.array([0.5]))[0])


class TestStdNormalInvCdf:
    def test_median(self):
        assert std_normal_inv_cdf(0.5) == 0.0

    def test_against_bisection_oracle(self):
        oracle = inv_cdf_bisect(0.975, std_normal_cdf)
        assert abs(std_normal_inv_cdf(0.975) - oracle) <= 1e-5
        assert abs(std_normal_inv_cdf(0.975) - 1.959964) <= 1e-5

    def test_relative_error_against_mpmath(self):
        # a few ulps across the body of the distribution
        for p in np.linspace(0.01, 0.99, 197):
            want = normal_quantile_mp(float(p))
            if want != 0.0:
                assert abs(std_normal_inv_cdf(float(p)) - want) <= 2e-15 * abs(want), p

    @given(st.floats(min_value=1e-9, max_value=0.5))
    def test_antisymmetry(self, p):
        x = std_normal_inv_cdf(p)
        # the rounding of 1 - p itself perturbs the quantile by ~ulp(1)/pdf(x),
        # which dominates deep in the tail; tolerate exactly that much
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert std_normal_inv_cdf(1.0 - p) == pytest.approx(-x, abs=1e-12 + 4e-16 / pdf)

    def test_endpoints_are_infinite(self):
        # so a saturated error bound ranks mu at -inf, and a zero one at +inf
        assert std_normal_inv_cdf(0.0) == -math.inf
        assert std_normal_inv_cdf(1.0) == math.inf

    @settings(max_examples=300)
    @given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
    def test_round_trip(self, p):
        assert abs(std_normal_cdf(std_normal_inv_cdf(p)) - p) <= 1e-10


class TestBinomUpperBound:
    def test_zero_success_closed_form(self):
        # (1 - p)^n = 1 - gamma
        assert binom_upper_bound(0, 100, 0.95) == pytest.approx(1.0 - 0.05 ** (1.0 / 100.0), abs=1e-9)

    def test_saturated(self):
        assert binom_upper_bound(100, 100, 0.95) == 1.0

    def test_against_tail_bisection_oracle(self):
        got = binom_upper_bound(95, 100, 0.95)
        assert abs(got - cp_upper_bisect(95, 100, 0.95)) <= 1e-8
        assert got == pytest.approx(0.980094436, abs=1e-8)  # frozen from the oracle

    def test_beta_inversion_path_matches_tail(self):
        # at a large trial count the bound still solves the exact tail equation
        bound = binom_upper_bound(11, 20000, 0.95)
        residual = binom_tail_exact(11, 20000, bound) - 0.05
        assert abs(residual) <= 1e-8

    def test_array_variant_matches_scalar(self):
        successes = np.array([0, 3, 17, 50])
        bounds = binom_upper_bound_array(successes, 50, 0.95)
        for s, b in zip(successes, bounds):
            assert b == pytest.approx(binom_upper_bound(int(s), 50, 0.95), abs=1e-9)

    @given(st.integers(min_value=1, max_value=60), st.data())
    def test_monotone_in_successes(self, trials, data):
        s = data.draw(st.integers(min_value=0, max_value=trials - 1))
        gamma = data.draw(st.floats(min_value=0.05, max_value=0.99))
        assert binom_upper_bound(s + 1, trials, gamma) >= binom_upper_bound(s, trials, gamma)

    @pytest.mark.parametrize("confidence", [0.5, 0.95, 0.999999])
    def test_array_strictly_increasing_to_one(self, confidence):
        # a bound on a rate must grow with the count it bounds
        for trials in [*range(1, 65), 1000, 20000]:
            bounds = binom_upper_bound_array(np.arange(trials + 1), trials, confidence)
            assert np.all(np.diff(bounds) > 0), trials
            assert bounds[-1] == 1.0, trials

    @given(st.integers(min_value=1, max_value=60), st.data())
    def test_dominates_point_estimate(self, trials, data):
        # holds for confidence >= 0.5; below that the bound can cross s/n
        s = data.draw(st.integers(min_value=0, max_value=trials))
        gamma = data.draw(st.floats(min_value=0.5, max_value=0.999))
        assert binom_upper_bound(s, trials, gamma) >= s / trials - 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            binom_upper_bound(5, 0, 0.95)
        with pytest.raises(ValueError):
            binom_upper_bound(6, 5, 0.95)
        with pytest.raises(ValueError):
            binom_upper_bound(1, 5, 1.0)
