"""The audit engine: bootstrap membership-inference trials into GDP estimates.

Both tasks reduce to one binary decision between a no and a yes answer, two
rows in aggregate space: the one-hot votes e_no and e_yes, or the signal
pair's embeddings y0 and y1. For each of n_sample trials per hypothesis a
clean response is resampled with replacement and the shipped mechanism
perturbs it (``mechanisms.gaussian_release``). The black-box attack says
"canary in" when the release (``vote_select`` or ``esa_select``) is the yes
answer; the white-box attack when the noisy aggregate's projection on
yes - no, the Neyman-Pearson statistic for a Gaussian mean shift, exceeds
the tau maximizing the mu lower bound. That bound comes from a confidence
band that holds at every tau at once, so choosing tau on the trials it is
scored on leaves it valid. The sweep bounds only the splits that can hold
the first maximum: the corners, where an FP step meets an FN step, and the
one run of equal FN counts that ends at the best corner, where ties are
broken.

Trials are streamed in fixed-size blocks: one kernel resamples a block,
releases it through the mechanism and reduces it at once to a decision tally
or a 1-D statistic, so no arm's noisy responses are ever held whole, and
``workers`` threads run whole blocks. All randomness is derived from (seed,
hypothesis, trial block), so a report is a pure function of its config and
identical across worker counts.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import mechanisms
from .gdp import (
    AttackCounts,
    ErrorBounds,
    GdpEstimate,
    audit_epsilon,
    eps_emp_dp,
    estimate_from_bounds,
    mu_from_bounds,
)
from .mechanisms import SENSITIVITY_MODES, MechanismConfig, NeighboringPair, noise_scale
from .oracles import (
    CleanCollection,
    OracleError,
    ReplayOracle,
    SignalPair,
    collect,
    zero_shot_candidates,
)
from .parallel import map_in_order
from .stats import band_upper_bound_array

TASKS = ("classification", "generation")
THREAT_MODELS = ("black_box", "white_box")

# Trials are generated in fixed-size blocks, each with its own derived
# generator; block boundaries are independent of the worker count.
_TRIAL_BLOCK = 1 << 16

_ARM_WITH = 0
_ARM_WITHOUT = 1


@dataclass(frozen=True)
class AuditConfig:
    mechanism: MechanismConfig
    task: str
    threat_model: str
    n_llm: int
    n_sample: int = 400_000
    confidence: float = 0.95
    delta_target: float = 1e-5
    seed: int = 0
    yes_index: int = 0
    no_index: int = 1

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if SENSITIVITY_MODES[self.mechanism.sensitivity_mode] != self.task:
            modes = [mode for mode, task in SENSITIVITY_MODES.items() if task == self.task]
            raise ValueError(f"sensitivity_mode {self.mechanism.sensitivity_mode!r} does not fit "
                             f"a {self.task} audit; choose one of {', '.join(modes)}")
        if self.threat_model not in THREAT_MODELS:
            raise ValueError(f"threat_model must be one of {THREAT_MODELS}, got {self.threat_model!r}")
        if self.n_llm < 1:
            raise ValueError("n_llm must be positive")
        if self.n_sample < 1:
            raise ValueError("n_sample must be positive")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError("confidence must lie in (0, 1)")
        if not (0.0 < self.delta_target < 1.0):
            raise ValueError("delta_target must lie in (0, 1)")
        if self.yes_index == self.no_index:
            raise ValueError("yes and no classes must differ")
        if min(self.yes_index, self.no_index) < 0:
            raise ValueError(f"class indices must be non-negative, got yes {self.yes_index} "
                             f"and no {self.no_index}")


@dataclass(frozen=True)
class AuditReport:
    counts: AttackCounts
    estimate: GdpEstimate
    eps_emp_point: float
    config: AuditConfig
    tau: Optional[float] = None
    wall_ms: float = 0.0

    def to_json_dict(self) -> dict:
        # Deterministic content only: wall time goes to the CSV row, never
        # into the JSON report, so reruns are byte-identical.
        mech = asdict(self.config.mechanism)
        return {
            "task": self.config.task,
            "threat_model": self.config.threat_model,
            "mechanism": mech,
            "n_llm": self.config.n_llm,
            "n_sample": self.config.n_sample,
            "confidence": self.config.confidence,
            "delta_target": self.config.delta_target,
            "seed": self.config.seed,
            "yes_index": self.config.yes_index,
            "no_index": self.config.no_index,
            "counts": {
                "tp": self.counts.true_positives,
                "fp": self.counts.false_positives,
                "fn": self.counts.false_negatives,
                "tn": self.counts.true_negatives,
            },
            "alpha_bar": self.estimate.alpha_bar,
            "beta_bar": self.estimate.beta_bar,
            "mu_lower": self.estimate.mu_lower,
            "eps_emp_gdp": _jsonable(self.estimate.eps_emp),
            "eps_emp_point": _jsonable(self.eps_emp_point),
            "tau": _jsonable(self.tau),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv_row(self) -> dict:
        """The report's ``reports.csv`` row; its keys, in order, are the header."""
        return {
            "task": self.config.task,
            "threat": self.config.threat_model,
            "T": self.config.mechanism.num_partitions,
            "eps_theory": self.config.mechanism.eps_theory,
            "delta": self.config.mechanism.delta,
            "n_llm": self.config.n_llm,
            "n_sample": self.config.n_sample,
            "gamma": self.config.confidence,
            "tp": self.counts.true_positives,
            "fp": self.counts.false_positives,
            "fn": self.counts.false_negatives,
            "tn": self.counts.true_negatives,
            "mu_lower": self.estimate.mu_lower,
            "eps_emp_gdp": _jsonable(self.estimate.eps_emp),
            "eps_emp_point": _jsonable(self.eps_emp_point),
            "tau": _jsonable(self.tau),
            "seed": self.config.seed,
            "wall_ms": round(self.wall_ms, 3),
        }


def _jsonable(value):
    if value is None:
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def append_report_csv(path: Union[str, Path], report: AuditReport) -> None:
    """Append one report row; the fully composed line lands in a single write."""
    path = Path(path)
    row = report.to_csv_row()
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(row), lineterminator="\n")
    if not path.exists() or path.stat().st_size == 0:
        writer.writeheader()
    writer.writerow(row)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(buffer.getvalue())
        handle.flush()
        os.fsync(handle.fileno())


# ---------------------------------------------------------------------------
# Threshold sweep
# ---------------------------------------------------------------------------

def _split_counts(w: np.ndarray, wo: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pooled statistics, sorted, and the FN and FP counts of "canary in
    above" each split of them: between adjacent distinct pooled values, and
    both ends (accept-all / reject-all).

    A stable argsort of the two sorted arms merges them, and a cumulative sum
    of the arm labels counts the ``w`` statistics in every pooled prefix.
    """
    pooled = np.concatenate([w, wo])
    pooled[:w.size].sort()
    pooled[w.size:].sort()
    order = np.argsort(pooled, kind="stable")
    pooled = pooled[order]
    with_below = np.zeros(pooled.size + 1, dtype=np.intp)  # w statistics among the first k pooled
    np.cumsum(order < w.size, out=with_below[1:])
    del order
    at_or_below = np.flatnonzero(np.concatenate([[True], pooled[1:] != pooled[:-1], [True]]))
    fn = with_below[at_or_below]  # w statistics at or below each split
    del with_below
    fp = np.subtract(at_or_below, fn, out=at_or_below)  # wo statistics at or below
    return pooled, fn, np.subtract(wo.size, fp, out=fp)


def _split_tau(pooled: np.ndarray, k: int) -> float:
    """A tau with exactly the ``k`` smallest pooled statistics at or below
    it: the midpoint of its neighbours (the lower one if the midpoint rounds
    onto the upper or overflows), or below or above all the data."""
    if k == 0:
        low = float(pooled[0])
        return low - 1.0 if low - 1.0 < low else math.nextafter(low, -math.inf)
    if k == pooled.size:
        return float(pooled[-1]) + 1.0
    below, above = float(pooled[k - 1]), float(pooled[k])
    tau = 0.5 * (below + above)
    return tau if below <= tau < above else below


def sweep_threshold(
    stats_with: Sequence[float],
    stats_without: Sequence[float],
    confidence: float,
) -> tuple[float, AttackCounts, ErrorBounds]:
    """Pick the tau maximizing the mu lower bound, for the attack that says
    "canary in" above tau.

    The candidates are the splits of the pooled statistics, counted by one
    merge of the two sorted arms (``_split_counts``). Each error rate is
    bounded by a one-sided DKW band, min(rate + e, 1)
    (``stats.band_upper_bound_array``), which holds at every split at once
    with probability ``confidence``; mu is ranked unclamped by
    ``gdp.mu_from_bounds``, so a saturated bound ranks at -inf. Ties break
    toward the lowest split, so a band saturated everywhere picks accept-all.

    Along the splits FN never falls and FP never rises, and mu never rises
    when either count does. So the first maximum shares its FN count with a
    corner, a split entered by a step that lowers FP and left by one that
    raises FN. mu is ranked at the corners first (about a seventh of the
    splits on the A1 channel), then again along the winning corner's run of
    equal FN, whose first split of the same mu is the first maximum over
    every split. tau is computed at that split only (``_split_tau``).
    Returns tau, the attack's counts at tau and the band's bounds there.
    """
    w = np.asarray(stats_with, dtype=np.float64)
    wo = np.asarray(stats_without, dtype=np.float64)
    if w.size == 0 or wo.size == 0:
        raise ValueError("both statistic lists must be non-empty")
    if not (np.isfinite(w).all() and np.isfinite(wo).all()):
        raise ValueError("statistics must be finite")

    pooled, fn, fp = _split_counts(w, wo)

    def band_mu(at) -> np.ndarray:
        return mu_from_bounds(band_upper_bound_array(fp[at], wo.size, confidence),
                              band_upper_bound_array(fn[at], w.size, confidence))

    # The corners: entered by a step that lowers fp (or split 0), left by one
    # that raises fn (or the last split). A mixed step does both.
    corner = np.ones(fn.size, dtype=bool)
    np.less(fp[1:], fp[:-1], out=corner[1:])
    corner[:-1] &= fn[1:] > fn[:-1]
    corners = np.flatnonzero(corner)
    mu = band_mu(corners)
    last = int(corners[np.argmax(mu)])
    # A tie (saturated -inf, or two bounds rounding to one float) can put the
    # first maximum earlier in the run of splits that share fn[last].
    first = int(np.searchsorted(fn, fn[last]))
    best = first + int(np.argmax(band_mu(slice(first, last + 1)) == mu.max()))
    at_best = slice(best, best + 1)
    bounds = ErrorBounds(
        alpha_bar=float(band_upper_bound_array(fp[at_best], wo.size, confidence)[0]),
        beta_bar=float(band_upper_bound_array(fn[at_best], w.size, confidence)[0]),
        confidence=confidence,
    )
    counts = AttackCounts(
        true_positives=int(w.size - fn[best]),
        false_positives=int(fp[best]),
        false_negatives=int(fn[best]),
        true_negatives=int(wo.size - fp[best]),
    )
    return _split_tau(pooled, counts.false_negatives + counts.true_negatives), counts, bounds


# ---------------------------------------------------------------------------
# Bootstrap audit
# ---------------------------------------------------------------------------

def _clean_matrix(clean: Sequence) -> np.ndarray:
    """The clean aggregates as one float64 row each: a 2-D array as it is
    (``collect``'s form), or a sequence of vote counts or mean embeddings."""
    if len(clean) == 0:
        raise ValueError("clean response list is empty")
    return np.asarray(clean, dtype=np.float64)


def _block_sizes(n_sample: int) -> list[int]:
    """The trial count of each block, in block order."""
    return [min(_TRIAL_BLOCK, n_sample - start) for start in range(0, n_sample, _TRIAL_BLOCK)]


def _block_noise(clean: np.ndarray, sigma: float, seed: int, arm: int, index: int,
                 size: int) -> np.ndarray:
    """Trial block ``index`` of an arm: resampled clean rows, released by the mechanism."""
    rng = np.random.default_rng([seed, arm, index])
    rows = rng.integers(0, clean.shape[0], size=size)
    # looked up on the module at each call, so the mechanism audited is the
    # one ``mechanisms`` holds, substitutes included
    return mechanisms.gaussian_release(clean, rows, sigma, rng)


def generate_noisy_samples(
    clean: Sequence,
    config: AuditConfig,
    arm: int,
    workers: int = 1,
) -> np.ndarray:
    """The bootstrap sampling stage: n_sample resampled-and-perturbed responses.

    These are the trial blocks that ``bootstrap_audit`` streams, stacked.
    """
    matrix = _clean_matrix(clean)
    sigma = noise_scale(config.mechanism)
    sizes = _block_sizes(config.n_sample)
    return np.concatenate(map_in_order(
        lambda index: _block_noise(matrix, sigma, config.seed, arm, index, sizes[index]),
        range(len(sizes)), workers))


def _answers(config: AuditConfig, signal_pair: Optional[SignalPair], width: int) -> np.ndarray:
    """The no and yes answers, in that order, as rows in the aggregate space
    of ``width`` coordinates: the one-hot vote rows, or the signal pair's
    embeddings."""
    if config.task == "classification":
        return np.eye(width)[[config.no_index, config.yes_index]]
    if signal_pair is None:
        raise ValueError("generation audits need a signal pair")
    return np.stack([signal_pair.y0_embedding, signal_pair.y1_embedding])


def whitebox_statistic(noisy: np.ndarray, config: AuditConfig,
                       signal_pair: Optional[SignalPair] = None) -> np.ndarray:
    """The 1-D statistic the white-box threshold test reads: each noisy
    aggregate projected on the yes answer minus the no answer."""
    no, yes = _answers(config, signal_pair, noisy.shape[1])
    return mechanisms.project(noisy, yes - no)


def _answer_classes(answers: np.ndarray, outputs: Sequence[np.ndarray]) -> np.ndarray:
    """Per releasable output: 1 for the yes answer, 0 for the no answer, -1
    for any other (counted as canary-absent)."""
    classes = np.full(len(outputs), -1, dtype=np.int64)
    for index, output in enumerate(outputs):
        o = np.asarray(output, dtype=np.float64)
        if np.array_equal(o, answers[1]):
            classes[index] = 1
        elif np.array_equal(o, answers[0]):
            classes[index] = 0
    return classes


def bootstrap_audit(
    clean_with: Sequence,
    clean_without: Sequence,
    config: AuditConfig,
    *,
    signal_pair: Optional[SignalPair] = None,
    candidates: Optional[Sequence[np.ndarray]] = None,
    workers: int = 1,
) -> AuditReport:
    """Resample, perturb, decide, tally, convert. Deterministic given config.seed.

    The no and yes answers are set once per audit: the white-box direction
    yes - no, the black-box release and the answer class of each output it
    can release. One kernel then maps each trial block of either arm, of
    either task, to its decision tally and non-signal count (black-box) or
    its projection on the direction (white-box); the blocks of both arms run
    on ``workers`` threads, and no arm's trials are ever held whole.
    Non-signal releases warn once per audit, with their count.
    """
    start = time.perf_counter()
    black_box = config.threat_model == "black_box"
    sigma = noise_scale(config.mechanism)
    arms = (_clean_matrix(clean_with), _clean_matrix(clean_without))
    answers = _answers(config, signal_pair, arms[0].shape[1])
    direction = answers[1] - answers[0]
    if config.task == "classification":
        outputs = np.eye(arms[0].shape[1])  # class k releases the one-hot row e_k
        release = mechanisms.vote_select
    else:
        outputs = candidates if candidates is not None else answers[::-1]  # y1, then y0
        release = functools.partial(mechanisms.esa_select, candidates=outputs)
    classes = _answer_classes(answers, outputs)
    sizes = _block_sizes(config.n_sample)

    def kernel(block: tuple[int, int]):
        arm, index = block
        noisy = _block_noise(arms[arm], sigma, config.seed, arm, index, sizes[index])
        if not black_box:
            return mechanisms.project(noisy, direction)
        picked = classes[release(noisy)]
        return int(np.count_nonzero(picked == 1)), int(np.count_nonzero(picked < 0))

    results = map_in_order(kernel, [(arm, index) for arm in (_ARM_WITH, _ARM_WITHOUT)
                                    for index in range(len(sizes))], workers)
    with_blocks, without_blocks = results[:len(sizes)], results[len(sizes):]

    tau: Optional[float] = None
    if black_box:
        tp = sum(positives for positives, _ in with_blocks)
        fp = sum(positives for positives, _ in without_blocks)
        non_signal = sum(count for _, count in results)
        if non_signal:
            warnings.warn(f"{non_signal} trials selected a non-signal candidate; "
                          "counted as canary-absent", stacklevel=2)
        counts = AttackCounts(
            true_positives=tp,
            false_positives=fp,
            false_negatives=config.n_sample - tp,
            true_negatives=config.n_sample - fp,
        )
        estimate = audit_epsilon(counts, config.confidence, config.delta_target)
    else:
        tau, counts, bounds = sweep_threshold(np.concatenate(with_blocks),
                                              np.concatenate(without_blocks), config.confidence)
        estimate = estimate_from_bounds(bounds, config.delta_target)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return AuditReport(counts=counts, estimate=estimate,
                       eps_emp_point=eps_emp_dp(counts.tpr, counts.fpr),
                       config=config, tau=tau, wall_ms=wall_ms)


def _check_collection(collection: CleanCollection, config: AuditConfig,
                      signal_pair: Optional[SignalPair]) -> None:
    """Reject clean responses the configured audit cannot read, before any
    trial is drawn: another task's, votes narrower than the yes/no index, or
    embeddings of another dimension than the signal pair's."""
    if collection.task != config.task:
        raise OracleError(f"oracle produced {collection.task} responses for a {config.task} audit")
    if config.task == "classification":
        width = collection.clean_with.shape[1]
        index = max(config.yes_index, config.no_index)
        if index >= width:
            raise OracleError(f"class index {index} is outside the {width}-class votes "
                              "the oracle produced")
    elif signal_pair is not None:
        dimension, expected = collection.clean_with.shape[1], signal_pair.y1_embedding.size
        if dimension != expected:
            raise OracleError(f"oracle produced {dimension}-d embeddings for a "
                              f"{expected}-d signal pair")


def zero_shot_calls(config: AuditConfig, oracle) -> int:
    """How many zero-shot calls of ``oracle`` an audit draws its candidate
    pool from: ``candidate_pool_size`` for a black-box generation audit when
    that is above 2 and the oracle is live. Otherwise 0, and the release is
    over the signal pair [y1, y0]; a replay serves recorded partitions only.
    """
    size = config.mechanism.candidate_pool_size
    draws = (config.task == "generation" and config.threat_model == "black_box" and size > 2
             and not isinstance(oracle, ReplayOracle))
    return size if draws else 0


def run_audit(
    config: AuditConfig,
    oracle,
    pair: NeighboringPair,
    query: str,
    *,
    signal_pair: Optional[SignalPair] = None,
    workers: int = 1,
    retry_budget: int = 0,
) -> AuditReport:
    """Draw the candidate pool (``zero_shot_calls``), collect(n_llm), then
    bootstrap_audit(n_sample), end to end."""
    start = time.perf_counter()
    pool_size = zero_shot_calls(config, oracle)
    candidates = zero_shot_candidates(oracle, query, pool_size, config.seed) if pool_size else None
    collection: CleanCollection = collect(
        oracle, pair, query, config.mechanism.num_partitions, config.n_llm,
        seed=config.seed, workers=workers, retry_budget=retry_budget,
    )
    _check_collection(collection, config, signal_pair)
    report = bootstrap_audit(collection.clean_with, collection.clean_without, config,
                             signal_pair=signal_pair, candidates=candidates, workers=workers)
    return replace(report, wall_ms=(time.perf_counter() - start) * 1000.0)
