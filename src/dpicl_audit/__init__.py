"""Empirical privacy auditing for DP in-context learning mechanisms.

Runs membership-inference audits against private voting and embedding-space
aggregation, under black-box and white-box threat models, and converts the
observed error rates into Gaussian-DP lower bounds on the privacy loss.
"""

from .audit import (
    AuditConfig,
    AuditReport,
    bootstrap_audit,
    run_audit,
    sweep_threshold,
)
from .gdp import (
    AttackCounts,
    ErrorBounds,
    GdpEstimate,
    audit_epsilon,
    delta_from_eps_mu,
    eps_emp_dp,
    eps_from_mu_delta,
    mu_from_eps_delta,
    mu_lower,
)
from .gaussian_model import VotePattern, analytic_rates, eps_emp_analytic, mu_gauss
from .mechanisms import (
    Exemplar,
    MechanismConfig,
    NeighboringPair,
    esa_sensitivity,
    gaussian_release,
    noise_scale,
    voting_noise_scale,
)
from .oracles import (
    CanaryDetector,
    ReplayOracle,
    Responder,
    SignalPair,
    collect,
)
from .stats import binom_upper_bound, std_normal_cdf

__version__ = "0.1.0"

__all__ = [
    "AttackCounts",
    "AuditConfig",
    "AuditReport",
    "CanaryDetector",
    "ErrorBounds",
    "Exemplar",
    "GdpEstimate",
    "MechanismConfig",
    "NeighboringPair",
    "ReplayOracle",
    "Responder",
    "SignalPair",
    "VotePattern",
    "analytic_rates",
    "audit_epsilon",
    "binom_upper_bound",
    "bootstrap_audit",
    "collect",
    "delta_from_eps_mu",
    "eps_emp_analytic",
    "eps_emp_dp",
    "eps_from_mu_delta",
    "esa_sensitivity",
    "gaussian_release",
    "mu_from_eps_delta",
    "mu_gauss",
    "mu_lower",
    "noise_scale",
    "run_audit",
    "std_normal_cdf",
    "sweep_threshold",
    "voting_noise_scale",
]
