"""Normal-distribution special functions and exact binomial confidence bounds.

Everything here is a pure function of its arguments. The normal CDF is
computed from the complementary error function, its logarithm by
``scipy.special.log_ndtr``, the inverse CDF from a rational approximation
refined by one Newton step, and the one-sided Clopper-Pearson upper bound by
regularized-incomplete-beta inversion.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x).

    Accurate to well below 1e-12 over [-8, 8] and does not underflow to zero
    for x in [-37, 0].
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return 0.5 * math.erfc(-x / _SQRT2)


def log_std_normal_cdf(x: float) -> float:
    """log Phi(x), stable deep into the lower tail.

    Used in place of Phi wherever a downstream exp() would otherwise hit
    0 * inf or catastrophic cancellation (the GDP delta formula evaluates
    e^eps * Phi(very negative) in exactly that regime).
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return float(special.log_ndtr(x))


# Coefficients of Acklam's rational approximation to the normal quantile.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _acklam(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((( _C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((( _C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return ((((( _A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
        (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)


def std_normal_inv_cdf(p: float) -> float:
    """Inverse standard normal CDF.

    The endpoints p in {0, 1} are out of domain; callers that can produce
    degenerate probabilities must clamp before calling (the gdp module does).
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if p > 0.5:
        # mirror the upper half: 1 - p is exact here (Sterbenz), and the
        # Newton step below stays in the small-probability regime where
        # Phi(x) - p carries no near-1 cancellation
        return -std_normal_inv_cdf(1.0 - p)
    x = _acklam(p)
    # One Newton step against the erfc-based CDF pushes the rational
    # approximation from ~1e-9 to full double precision.
    pdf = math.exp(-0.5 * x * x) / _SQRT_2PI
    if pdf > 0.0:
        x -= (std_normal_cdf(x) - p) / pdf
    return x


def binom_upper_bound(successes: int, trials: int, confidence: float) -> float:
    """One-sided Clopper-Pearson upper confidence bound on a binomial rate.

    Returns the p solving P[Bin(trials, p) <= successes] = 1 - confidence,
    i.e. the largest rate still consistent with observing this few successes
    at the requested confidence. Saturated counts (successes == trials)
    return 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    return float(binom_upper_bound_array(np.array([successes]), trials, confidence)[0])


def binom_upper_bound_array(successes: np.ndarray, trials: int, confidence: float) -> np.ndarray:
    """Vectorized Clopper-Pearson upper bound via beta-quantile inversion.

    Unchecked; :func:`binom_upper_bound` validates and calls it, and the
    threshold sweep calls it once per error count it needs.
    """
    s = np.asarray(successes, dtype=np.float64)
    out = np.ones_like(s)
    open_mask = s < trials
    out[open_mask] = special.betaincinv(s[open_mask] + 1.0, trials - s[open_mask], confidence)
    return out
