"""Normal-distribution special functions and confidence bounds on error rates.

Everything here is a pure function of its arguments. The normal CDF is
computed from the complementary error function, its logarithm by
``scipy.special.log_ndtr``, the one-sided Clopper-Pearson upper bound by
regularized-incomplete-beta inversion, and the bounds of a DKW confidence
band in closed form. The inverse CDF runs in ``gdp.mu_from_bounds`` only.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)


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


def band_upper_bound_array(errors: np.ndarray, trials: int, confidence: float) -> np.ndarray:
    """The DKW band's upper bounds min(errors / trials + e, 1) on error rates.

    By the one-sided Dvoretzky-Kiefer-Wolfowitz inequality with Massart's
    constant, an empirical CDF of n draws exceeds the true one by more than
    e somewhere with probability at most exp(-2 n e^2), and likewise falls
    below it. With e = sqrt(ln(2 / (1 - confidence)) / (2 n)) that is
    (1 - confidence) / 2, so the bounds of two arms hold together, at every
    threshold at once, with probability ``confidence``. Returns a new
    float64 array, which callers may overwrite.
    """
    bound = np.divide(errors, trials)
    bound += math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * trials))
    return np.minimum(bound, 1.0, out=bound)


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

    Unchecked; :func:`binom_upper_bound` validates and calls it.
    """
    s = np.asarray(successes, dtype=np.float64)
    out = np.ones_like(s)
    open_mask = s < trials
    out[open_mask] = special.betaincinv(s[open_mask] + 1.0, trials - s[open_mask], confidence)
    return out
