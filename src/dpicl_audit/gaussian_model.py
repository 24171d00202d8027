"""Closed-form laboratory for the idealized Gaussian vote channel.

A canary flips the two-class clean vote pattern from [k-b, T-k+b] to
[k, T-k]. After per-coordinate Gaussian noise the vote difference is
Gaussian with mean 2k-T (canary in) or 2k-T-2b (canary out) and variance
2 sigma^2, so the sign test has

    TPR = Phi((2k-T) / (sqrt(2) sigma)),  FPR = Phi((2k-T-2b) / (sqrt(2) sigma))

while the underlying Gaussian-DP parameter mu = sqrt(2) b / sigma depends
only on the margin. The log-ratio loss ln(TPR/FPR) is strictly decreasing
in k because the normal Mills ratio is strictly decreasing. These exact
quantities verify the empirical audit engine.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Sequence, Union

from .gdp import eps_from_mu_delta
from .stats import log_std_normal_cdf, std_normal_cdf

_SQRT2 = math.sqrt(2.0)

K_RULES = ("extreme", "centered", "fixed", "all")


@dataclass(frozen=True)
class VotePattern:
    """Two-class vote configuration: [k, T-k] vs [k-b, T-k+b] at noise sigma."""

    num_partitions: int
    k: int
    b: float
    sigma: float

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be positive")
        if not (0 <= self.k <= self.num_partitions):
            raise ValueError(f"k must lie in [0, {self.num_partitions}], got {self.k}")
        if not (0.0 <= self.b <= 1.0):
            raise ValueError(f"b must lie in [0, 1], got {self.b}")
        if self.k < self.b:
            # the canary-out votes [k - b, T - k + b] would go negative
            raise ValueError(f"k must be at least b = {self.b}, got {self.k}")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


def _margins(pattern: VotePattern) -> tuple[float, float]:
    """The sign test's standardized margins (x1, x0): TPR = Phi(x1), FPR = Phi(x0)."""
    scale = _SQRT2 * pattern.sigma
    x1 = (2 * pattern.k - pattern.num_partitions) / scale
    x0 = (2 * pattern.k - pattern.num_partitions - 2 * pattern.b) / scale
    return x1, x0


def analytic_rates(pattern: VotePattern) -> tuple[float, float]:
    """Exact (TPR, FPR) of the sign test on the noisy vote difference."""
    x1, x0 = _margins(pattern)
    return std_normal_cdf(x1), std_normal_cdf(x0)


def mu_gauss(b: float, sigma: float) -> float:
    """Gaussian-DP parameter of the channel: sqrt(2) b / sigma, free of k and T."""
    if not (0.0 <= b <= 1.0):
        raise ValueError(f"b must lie in [0, 1], got {b}")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return _SQRT2 * b / sigma


def eps_emp_analytic(pattern: VotePattern) -> float:
    """Exact ln(TPR/FPR), evaluated in log space so deep tails stay exact."""
    x1, x0 = _margins(pattern)
    return log_std_normal_cdf(x1) - log_std_normal_cdf(x0)


def _ks_for(T: int, k_rule: str, k_fixed: int | None) -> list[int]:
    if k_rule == "extreme":
        return [1]
    if k_rule == "centered":
        return [T // 2]
    if k_rule == "fixed":
        if k_fixed is None:
            raise ValueError("k_rule 'fixed' needs k_fixed")
        return [k_fixed]
    if k_rule == "all":
        return list(range(1, T + 1))
    raise ValueError(f"k_rule must be one of {K_RULES}, got {k_rule!r}")


@dataclass(frozen=True)
class SweepRow:
    T: int
    k: int
    b: float
    sigma: float
    tpr: float
    fpr: float
    mu_gauss: float
    eps_analytic: float
    eps_gdp: float


SWEEP_COLUMNS = tuple(field.name for field in fields(SweepRow))


def sweep(
    T_values: Sequence[int],
    k_rule: str,
    b: float,
    sigma: float,
    delta_target: float,
    k_fixed: int | None = None,
) -> list[SweepRow]:
    """Tabulate the channel quantities over a (T, k) grid.

    The mu_gauss and eps_gdp columns are constant across the grid at fixed
    (b, sigma); the eps_analytic column is not — that contrast is the point.
    """
    mu = mu_gauss(b, sigma)
    eps_gdp = eps_from_mu_delta(mu, delta_target)
    rows = []
    for T in T_values:
        for k in _ks_for(T, k_rule, k_fixed):
            pattern = VotePattern(num_partitions=T, k=k, b=b, sigma=sigma)
            tpr, fpr = analytic_rates(pattern)
            rows.append(SweepRow(
                T=T, k=k, b=b, sigma=sigma, tpr=tpr, fpr=fpr,
                mu_gauss=mu, eps_analytic=eps_emp_analytic(pattern), eps_gdp=eps_gdp,
            ))
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(map(astuple, rows))
