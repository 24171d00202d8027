"""Gaussian-DP accounting: attack error rates -> mu lower bound -> (eps, delta).

The pipeline is: upper confidence bounds on the attack's false positive and
false negative rates that hold together with probability gamma (for a fixed
decision rule, Clopper-Pearson at (1 + gamma) / 2 each; for a threshold
chosen on the trials, the sweep's band over every threshold), then

    mu = Phi^-1(1 - beta_bar) - Phi^-1(alpha_bar)

as a high-confidence lower bound on the Gaussian privacy parameter, then the
smallest eps with delta(eps; mu) <= delta_target under

    delta(eps; mu) = Phi(-eps/mu + mu/2) - e^eps * Phi(-eps/mu - mu/2).

The second term is evaluated in log space: in the regimes audited here
(eps near 8 and beyond) the naive product is e^large * tiny and returns NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .stats import binom_upper_bound, log_std_normal_cdf, std_normal_cdf

# epsilon values beyond this are reported as unbounded (math.inf) rather than
# as a number; they carry no practical meaning and the bracket keeps the
# bisection honest.
EPS_BRACKET_MAX = 200.0

_EPS_BISECTION_TOL = 1e-9

DEFAULT_DELTA_TARGET = 1e-5


@dataclass(frozen=True)
class AttackCounts:
    """Confusion-matrix tallies of a repeated membership inference attack."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    def __post_init__(self) -> None:
        for name in ("true_positives", "false_positives", "false_negatives", "true_negatives"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.trials_with == 0 or self.trials_without == 0:
            raise ValueError("both hypotheses must be sampled at least once")

    @property
    def trials_with(self) -> int:
        return self.true_positives + self.false_negatives

    @property
    def trials_without(self) -> int:
        return self.false_positives + self.true_negatives

    @property
    def tpr(self) -> float:
        return self.true_positives / self.trials_with

    @property
    def fpr(self) -> float:
        return self.false_positives / self.trials_without


@dataclass(frozen=True)
class ErrorBounds:
    """One-sided upper confidence bounds on FPR (alpha) and FNR (beta)."""

    alpha_bar: float
    beta_bar: float
    confidence: float

    def __post_init__(self) -> None:
        for name in ("alpha_bar", "beta_bar"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")


@dataclass(frozen=True)
class GdpEstimate:
    """A mu-GDP lower bound with its (eps, delta) equivalent and intermediates."""

    mu_lower: float
    eps_emp: float
    delta_target: float
    confidence: float
    alpha_bar: float
    beta_bar: float


def mu_from_bounds(alpha_bar: np.ndarray, beta_bar: np.ndarray) -> np.ndarray:
    """Phi^-1(1 - beta_bar) - Phi^-1(alpha_bar) elementwise and unclamped, in place.

    The one expression for mu: the threshold sweep ranks its candidates with
    it and every estimate reports it, so a reported mu is bit for bit the
    value it was chosen by. Both arrays are overwritten; ``beta_bar``'s holds
    the result. A bound of 1 makes its term infinite and mu -inf, so a
    saturated bound ranks below every informative one.
    """
    np.subtract(1.0, beta_bar, out=beta_bar)
    special.ndtri(beta_bar, out=beta_bar)
    special.ndtri(alpha_bar, out=alpha_bar)
    return np.subtract(beta_bar, alpha_bar, out=beta_bar)


def mu_lower(bounds: ErrorBounds) -> float:
    """Lower bound on the Gaussian privacy parameter from error-rate bounds.

    Clamped at zero: a worse-than-chance attack certifies nothing, and
    neither do bounds equal to 1 (saturated error counts).
    """
    mu = float(mu_from_bounds(np.array([bounds.alpha_bar]), np.array([bounds.beta_bar]))[0])
    return mu if mu > 0.0 else 0.0


def _check_mu(mu: float) -> None:
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if mu < 0.0:
        raise ValueError(f"mu must be non-negative, got {mu}")


def delta_from_eps_mu(eps: float, mu: float) -> float:
    """delta(eps; mu) for the Gaussian trade-off curve.

    Defined as 0 at mu = 0 (the continuity limit; the formula itself is 0/0
    there, and a zero-mu channel leaks nothing), and likewise 0 for a
    positive mu so small that eps / mu overflows.
    """
    if eps < 0.0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    _check_mu(mu)
    if mu == 0.0 or math.isinf(eps / mu):
        return 0.0
    delta = std_normal_cdf(mu / 2.0 - eps / mu) - math.exp(eps + log_std_normal_cdf(-eps / mu - mu / 2.0))
    # mathematically delta < 1 for finite mu; rounding can hit 1.0 exactly
    # for huge mu, so pin the value inside the documented [0, 1) range
    return min(math.nextafter(1.0, 0.0), max(0.0, delta))


def eps_from_mu_delta(mu: float, delta_target: float) -> float:
    """Smallest eps with delta(eps; mu) <= delta_target.

    Bisection on [0, EPS_BRACKET_MAX] to absolute tolerance 1e-9. Returns 0
    when delta(0; mu) is already below target, and math.inf (the "unbounded"
    flag) when even the bracket end fails, i.e. mu is too large for any
    meaningful eps.
    """
    if not (0.0 < delta_target < 1.0):
        raise ValueError(f"delta_target must lie in (0, 1), got {delta_target}")
    _check_mu(mu)
    if mu == 0.0:
        return 0.0
    if delta_from_eps_mu(0.0, mu) <= delta_target:
        return 0.0
    if delta_from_eps_mu(EPS_BRACKET_MAX, mu) > delta_target:
        return math.inf
    lo, hi = 0.0, EPS_BRACKET_MAX
    while hi - lo > _EPS_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if delta_from_eps_mu(mid, mu) <= delta_target:
            hi = mid
        else:
            lo = mid
    return hi


def mu_from_eps_delta(eps: float, delta_target: float) -> float:
    """The mu with delta(eps; mu) = delta_target, by one Brent root-find in mu.

    Unlike :func:`eps_from_mu_delta`, not limited to eps <= EPS_BRACKET_MAX.
    """
    if not (0.0 < delta_target < 1.0):
        raise ValueError(f"delta_target must lie in (0, 1), got {delta_target}")
    if not (0.0 <= eps < math.inf):
        raise ValueError(f"eps must be finite and non-negative, got {eps}")

    def excess(mu: float) -> float:
        return delta_from_eps_mu(eps, mu) - delta_target

    # imported here: scipy.optimize adds about 0.25 s to every command's start-up
    from scipy.optimize import brentq

    hi = 1.0
    while excess(hi) <= 0.0:
        hi *= 2.0
    return brentq(excess, 0.0, hi)


def eps_emp_dp(tpr: float, fpr: float) -> float:
    """Point-estimate empirical privacy loss ln(TPR / FPR), the one rule for
    it: -inf when TPR is 0, whatever FPR is, and +inf when only FPR is 0.

    It bounds nothing: an audit's eps (``GdpEstimate.eps_emp``) comes from
    the error-rate bounds.
    """
    if not (0.0 <= tpr <= 1.0):
        raise ValueError(f"tpr must lie in [0, 1], got {tpr}")
    if not (0.0 <= fpr <= 1.0):
        raise ValueError(f"fpr must lie in [0, 1], got {fpr}")
    if tpr == 0.0:
        return -math.inf
    if fpr == 0.0:
        return math.inf
    return math.log(tpr / fpr)


def estimate_from_bounds(bounds: ErrorBounds,
                         delta_target: float = DEFAULT_DELTA_TARGET) -> GdpEstimate:
    """mu and eps from error-rate bounds, with the bounds as intermediates."""
    mu = mu_lower(bounds)
    return GdpEstimate(
        mu_lower=mu,
        eps_emp=eps_from_mu_delta(mu, delta_target),
        delta_target=delta_target,
        confidence=bounds.confidence,
        alpha_bar=bounds.alpha_bar,
        beta_bar=bounds.beta_bar,
    )


def audit_epsilon(counts: AttackCounts, confidence: float, delta_target: float = DEFAULT_DELTA_TARGET) -> GdpEstimate:
    """Full count-to-epsilon pipeline for a fixed decision rule, with all intermediates.

    Each Clopper-Pearson bound is taken at (1 + confidence) / 2, so that by
    the union bound both hold together with probability ``confidence``.
    """
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    each = (1.0 + confidence) / 2.0
    bounds = ErrorBounds(
        alpha_bar=binom_upper_bound(counts.false_positives, counts.trials_without, each),
        beta_bar=binom_upper_bound(counts.false_negatives, counts.trials_with, each),
        confidence=confidence,
    )
    return estimate_from_bounds(bounds, delta_target)
