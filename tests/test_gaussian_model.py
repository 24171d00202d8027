import math

import numpy as np
import pytest

from dpicl_audit.gaussian_model import (
    SweepRow,
    VotePattern,
    analytic_rates,
    eps_emp_analytic,
    mu_gauss,
    sweep,
    write_sweep_csv,
)
from dpicl_audit.gdp import eps_from_mu_delta
from dpicl_audit.mechanisms import gaussian_release
from dpicl_audit.stats import std_normal_cdf

from reference import vote_select


def released_class_zero(counts, sigma, draws, rng):
    """How many of ``draws`` private-voting releases of one clean histogram name class 0."""
    noisy = gaussian_release(np.array([counts], dtype=np.float64), np.zeros(draws, dtype=np.intp),
                             sigma, rng)
    return int(np.count_nonzero(vote_select(noisy) == 0))


class TestAnalyticRates:
    def test_centered_no_margin(self):
        tpr, fpr = analytic_rates(VotePattern(num_partitions=10, k=5, b=0.0, sigma=1.0))
        assert tpr == 0.5
        assert fpr == 0.5

    def test_direct_substitution(self):
        tpr, fpr = analytic_rates(VotePattern(num_partitions=10, k=1, b=1.0, sigma=1.0 / math.sqrt(2.0)))
        assert tpr == pytest.approx(std_normal_cdf(-8.0), rel=1e-12)
        assert fpr == pytest.approx(std_normal_cdf(-10.0), rel=1e-12)

    def test_monte_carlo_agreement(self):
        # simulate the noisy two-class vote with the real mechanism
        rng = np.random.default_rng(31)
        draws = 200_000
        for _ in range(10):
            T = int(rng.integers(2, 13))
            k = int(rng.integers(1, T + 1))
            sigma = float(rng.uniform(0.5, 4.0))
            pattern = VotePattern(num_partitions=T, k=k, b=1.0, sigma=sigma)
            tpr, fpr = analytic_rates(pattern)
            sim = np.random.default_rng(int(rng.integers(2**32)))
            hits_with = released_class_zero((k, T - k), sigma, draws, sim)
            hits_without = released_class_zero((k - 1, T - k + 1), sigma, draws, sim)
            for hits, expected in ((hits_with, tpr), (hits_without, fpr)):
                se = math.sqrt(max(expected * (1 - expected), 1e-12) / draws)
                assert abs(hits / draws - expected) <= max(3 * se, 2e-4)


class TestMuGauss:
    def test_zero_margin(self):
        assert mu_gauss(0.0, 1.0) == 0.0

    def test_unit_value(self):
        assert mu_gauss(1.0, math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_strictly_increasing_in_b(self):
        values = [mu_gauss(b, 2.0) for b in np.arange(0.0, 1.0 + 1e-9, 0.05)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_independent_of_pattern(self):
        # the channel parameter never sees k or T: the sweep column is flat
        rows = sweep(T_values=range(2, 15, 2), k_rule="all", b=1.0, sigma=2.0, delta_target=1e-5)
        mus = {row.mu_gauss for row in rows}
        assert len(mus) == 1


class TestEpsEmpAnalytic:
    def test_zero_margin_is_zero(self):
        assert eps_emp_analytic(VotePattern(num_partitions=10, k=3, b=0.0, sigma=1.0)) == 0.0

    def test_strictly_decreasing_in_k(self):
        values = [eps_emp_analytic(VotePattern(num_partitions=10, k=k, b=1.0, sigma=2.0))
                  for k in range(1, 11)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_regression_value(self):
        # frozen from direct evaluation through the normal-CDF composition
        value = eps_emp_analytic(VotePattern(num_partitions=10, k=1, b=1.0, sigma=2.0))
        assert value == pytest.approx(2.4418740081, abs=1e-9)

    def test_matches_linear_space_where_safe(self):
        pattern = VotePattern(num_partitions=6, k=2, b=0.75, sigma=1.5)
        tpr, fpr = analytic_rates(pattern)
        assert eps_emp_analytic(pattern) == pytest.approx(math.log(tpr / fpr), rel=1e-12)

    def test_finite_deep_in_the_tail(self):
        # k = T keeps both rates near 1; the log-space path stays exact
        value = eps_emp_analytic(VotePattern(num_partitions=10, k=10, b=1.0, sigma=1.0))
        assert 0.0 < value < 1e-6


class TestSweep:
    def test_extreme_rule_is_k1(self):
        rows = sweep(T_values=[4, 8], k_rule="extreme", b=1.0, sigma=2.0, delta_target=1e-5)
        assert [(row.T, row.k) for row in rows] == [(4, 1), (8, 1)]

    def test_centered_and_fixed_rules(self):
        rows = sweep(T_values=[6], k_rule="centered", b=1.0, sigma=2.0, delta_target=1e-5)
        assert rows[0].k == 3
        rows = sweep(T_values=[6], k_rule="fixed", b=1.0, sigma=2.0, delta_target=1e-5, k_fixed=2)
        assert rows[0].k == 2

    def test_gdp_column_constant_but_analytic_varies(self):
        rows = sweep(T_values=[10], k_rule="all", b=1.0, sigma=2.0, delta_target=1e-5)
        assert len({row.eps_gdp for row in rows}) == 1
        assert len({row.eps_analytic for row in rows}) == len(rows)

    def test_gdp_column_matches_direct_conversion(self):
        rows = sweep(T_values=[4], k_rule="extreme", b=1.0, sigma=2.0, delta_target=1e-5)
        assert rows[0].eps_gdp == pytest.approx(eps_from_mu_delta(mu_gauss(1.0, 2.0), 1e-5), abs=1e-12)

    def test_csv_output(self, tmp_path):
        rows = sweep(T_values=[2, 4], k_rule="extreme", b=1.0, sigma=2.0, delta_target=1e-5)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "T,k,b,sigma,tpr,fpr,mu_gauss,eps_analytic,eps_gdp"
        assert len(lines) == 3

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            VotePattern(num_partitions=4, k=5, b=1.0, sigma=1.0)
        with pytest.raises(ValueError):
            VotePattern(num_partitions=4, k=1, b=1.5, sigma=1.0)
        with pytest.raises(ValueError):
            sweep(T_values=[4], k_rule="bogus", b=1.0, sigma=1.0, delta_target=1e-5)

    @pytest.mark.parametrize("k, b", [(0, 1.0), (0, 0.5)])
    def test_k_below_b_rejected(self, k, b):
        # the canary-out votes [k - b, T - k + b] would go negative
        with pytest.raises(ValueError, match=f"^k must be at least b = {b}, got {k}$"):
            VotePattern(num_partitions=4, k=k, b=b, sigma=1.0)

    def test_k_of_zero_takes_a_zero_margin(self):
        tpr, fpr = analytic_rates(VotePattern(num_partitions=4, k=0, b=0.0, sigma=1.0))
        assert tpr == fpr
