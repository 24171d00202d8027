"""The audit engine: bootstrap membership-inference trials into GDP estimates.

Both tasks reduce to one binary decision between a no and a yes answer, two
rows in aggregate space: the one-hot votes e_no and e_yes, or the signal
pair's embeddings y0 and y1. For each of n_sample trials per hypothesis a
clean response is resampled with replacement and the shipped mechanism
perturbs it with N(0, sigma^2 I_d). The black-box attack says "canary in"
when the release, the output nearest to the noisy aggregate, is the yes
answer; the white-box attack when the noisy aggregate's projection on
yes - no, the Neyman-Pearson statistic for a Gaussian mean shift, exceeds
the tau maximizing the mu lower bound. That bound comes from a confidence
band that holds at every tau at once, so choosing tau on the trials it is
scored on leaves it valid. The sweep bounds only the corners, the splits
where an FP step meets an FN step: the first corner of largest mu wins, and
accept-all wins when no split certifies anything. The arms are sorted, in
place when the audit owns them, and never merged: the without-arm is
binary-searched at the last rank of each block of 64 with-arm ranks, which
bounds mu over every block, and then at every rank of the few blocks that
can hold the first corner of largest mu, which finds those corners and
their counts.

Either decision reads the noisy aggregate only through a few linear
scores: the projection on yes - no, or each releasable output's score
relative to the first (``_score_space``). So the audit releases the
scores, not the aggregate: each arm's clean scores are computed once, and
a trial's noisy scores are its clean scores plus g @ F, where
``mechanisms.gaussian_score_factor`` gives F and g holds r standard
normals, one for white-box and for any two-answer release. That is the
noise's exact law in score space, whatever the embedding dimension.

Trials are streamed in fixed-size blocks: one kernel resamples a block,
releases its scores a chunk of rows at a time and reduces each chunk at
once to a tally of releases or writes it straight into its slice of the
arm's one statistic array, so a worker holds a few chunks of scores,
and ``workers`` threads run whole blocks. All randomness is derived from
(seed, hypothesis, trial block), so a report is a pure function of its
config and identical across worker counts.
"""

from __future__ import annotations

import csv
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

# Byte budget of the float64 scores one release call makes (at least one
# row): each block is released and reduced a chunk at a time, so a worker's
# scores and gathered clean scores stay a few chunks, not a block.
_RELEASE_CHUNK_BYTES = 1 << 18

# The white-box sweep bounds mu over blocks of this many with-arm ranks and
# searches in full only the blocks that can hold its best corner (``_corners``);
# a block is kept within _SWEEP_SLACK of the best lower bound.
_SWEEP_BLOCK = 64
_SWEEP_SLACK = 1e-9

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

def _mu(fp: np.ndarray, fn: np.ndarray, n_without: int, n_with: int,
        confidence: float) -> np.ndarray:
    """mu of the band's bounds at FP and FN counts ``fp`` and ``fn``."""
    return mu_from_bounds(band_upper_bound_array(fp, n_without, confidence),
                          band_upper_bound_array(fn, n_with, confidence))


def _corners(w: np.ndarray, wo: np.ndarray, confidence: float) -> tuple[np.ndarray, np.ndarray]:
    """The FN and FP counts of "canary in above" at the corner splits of the
    sorted arms, in split order, in the blocks of with-arm ranks that can
    hold the first corner of largest mu.

    A corner is a split entered by a step that lowers FP (or split 0) and
    left by one that raises FN. A split left by an FN step lies just below
    the first w[i] of some value: FN is i there, and FP the number of wo
    statistics at or above w[i]. It is entered by an FP step when i is 0 or
    a wo statistic lies in [w[i-1], w[i]), that is when below[i], the count
    of wo statistics below w[i], rises at i.

    The with-arm ranks are cut into blocks of ``_SWEEP_BLOCK``, and below is
    searched at each block's last rank only. In block j, from rank s to
    rank l, every corner has FN >= s and FP >= m - below[l], and mu falls in
    both counts, so mu(m - below[l], s) bounds the block's corners from
    above. The split below the first w statistic equal to w[l] has FN <= l
    and FP m - below[l], and some corner's mu is at least its mu, so the
    largest mu(m - below[l], l) bounds the best corner's from below. Only
    the blocks whose upper bound reaches that lower bound are searched in
    full: every block holding a corner of largest mu is among them, and all
    are when the lower bound is -inf. ``special.ndtri`` is not known to be
    monotone to the last ulp, so a block is kept when its upper bound comes
    within ``_SWEEP_SLACK`` of the lower bound, far above that rounding; a
    wider margin would keep more blocks, never fewer.
    """
    n, m = w.size, wo.size
    first = np.arange(0, n, _SWEEP_BLOCK)
    last = np.minimum(first + _SWEEP_BLOCK, n) - 1
    below_last = np.searchsorted(wo, w[last])  # wo statistics strictly below w[last]
    mu = _mu(np.tile(m - below_last, 2), np.concatenate([first, last]), m, n, confidence)
    kept = np.flatnonzero(mu[:first.size] >= mu[first.size:].max() - _SWEEP_SLACK)
    ranks = (first[kept, None] + np.arange(_SWEEP_BLOCK)).ravel()
    ranks = ranks[ranks < n]  # only the last block can be short, and it comes last
    below = np.searchsorted(wo, w[ranks])
    corner = np.empty(ranks.size, dtype=bool)
    np.greater(below[1:], below[:-1], out=corner[1:])
    # a kept block's first rank follows the last rank of the block before it
    starts = np.arange(0, ranks.size, _SWEEP_BLOCK)
    corner[starts] = below[starts] > np.concatenate([[-1], below_last])[kept]
    return ranks[corner], m - below[corner]


def _split_tau(below: Optional[float], above: float) -> float:
    """A tau at or above the statistic ``below`` and under ``above``, the
    neighbours of a split (``below`` None under the data): their midpoint,
    or ``below`` if the midpoint rounds onto ``above`` or overflows; under
    the data, 1 below it (the next float down if ``above - 1`` rounds back
    onto ``above``)."""
    if below is None:
        return above - 1.0 if above - 1.0 < above else math.nextafter(above, -math.inf)
    tau = 0.5 * (below + above)
    return tau if below <= tau < above else below


def _sweep_in_place(w: np.ndarray, wo: np.ndarray,
                    confidence: float) -> tuple[float, AttackCounts, ErrorBounds]:
    """``sweep_threshold`` on two float64 arms its caller owns, which it
    sorts in place."""
    if w.ndim != 1 or wo.ndim != 1:
        raise ValueError(f"statistics must be 1-D, got shapes {w.shape} and {wo.shape}")
    if w.size == 0 or wo.size == 0:
        raise ValueError("both statistic lists must be non-empty")
    w.sort()
    wo.sort()
    # sorted, an infinite statistic is at an end and NaN is last
    if not np.isfinite([w[0], w[-1], wo[0], wo[-1]]).all():
        raise ValueError("statistics must be finite")
    fn, fp = _corners(w, wo, confidence)
    mu = _mu(fp, fn, wo.size, w.size, confidence)
    best = int(np.argmax(mu))
    # f and j count the w and wo statistics at or below the split; when
    # nothing certifies, accept-all
    f, j = (int(fn[best]), wo.size - int(fp[best])) if mu[best] > -np.inf else (0, 0)
    bounds = ErrorBounds(
        alpha_bar=float(band_upper_bound_array(np.array([wo.size - j]), wo.size, confidence)[0]),
        beta_bar=float(band_upper_bound_array(np.array([f]), w.size, confidence)[0]),
        confidence=confidence,
    )
    counts = AttackCounts(true_positives=w.size - f, false_positives=wo.size - j,
                          false_negatives=f, true_negatives=j)
    # the split's neighbours: the largest statistic at or below it, the smallest above
    lower = [float(arm[k - 1]) for arm, k in ((w, f), (wo, j)) if k > 0]
    upper = [float(arm[k]) for arm, k in ((w, f), (wo, j)) if k < arm.size]
    return _split_tau(max(lower, default=None), min(upper)), counts, bounds


def sweep_threshold(
    stats_with: Sequence[float],
    stats_without: Sequence[float],
    confidence: float,
) -> tuple[float, AttackCounts, ErrorBounds]:
    """Pick the tau maximizing the mu lower bound, for the attack that says
    "canary in" above tau.

    The candidates are the splits of the pooled statistics: between adjacent
    distinct values, and both ends. Each error rate is bounded by a one-sided
    DKW band, min(rate + e, 1) (``stats.band_upper_bound_array``), which
    holds at every split at once with probability ``confidence``; mu is
    ranked unclamped by ``gdp.mu_from_bounds``, so a saturated bound ranks
    at -inf. The first maximum wins, so a band saturated everywhere picks
    accept-all.

    Since e > 0, a split with every w statistic at or below it has a
    saturated FN bound and mu -inf. Any other split lies in a run of equal
    FN counts, where FP falls toward the run's end, which is left by an FN
    step; a run's end not entered by an FP step has the FP of the run's end
    before it and more FN. Counts 1/n apart stay far apart in floats, so
    each step lowers mu strictly or leaves it -inf, and the first maximum is
    the first corner of largest mu, a split entered by a step that lowers FP
    and left by one that raises FN, or accept-all when every mu is -inf. The
    arms are never merged: each is sorted, binary searches of the
    without-arm bound mu over blocks of with-arm ranks, and only the blocks
    that can hold the first corner of largest mu are searched for their
    corners and counts (``_corners``): a few dozen to about a hundred of the
    6,250 blocks of a 400k-trial arm on the A1 channel. mu is ranked at
    those corners, and tau is computed at the winning split only, from its
    neighbours in the two arms (``_split_tau``). Both statistic lists must
    be 1-D. The sweep sorts copies of its inputs, never the caller's
    arrays; the audit sorts the arms it owns in place. Returns tau, the
    attack's counts at tau and the band's bounds there.
    """
    return _sweep_in_place(np.array(stats_with, dtype=np.float64),
                           np.array(stats_without, dtype=np.float64), confidence)


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


def _block_rows(n_rows: int, seed: int, arm: int, index: int,
                size: int) -> tuple[np.random.Generator, np.ndarray]:
    """Trial block ``index`` of an arm: its generator and the clean rows it
    resamples, drawn before any noise."""
    rng = np.random.default_rng([seed, arm, index])
    return rng, rng.integers(0, n_rows, size=size)


def generate_noisy_samples(
    clean: Sequence,
    config: AuditConfig,
    arm: int,
    workers: int = 1,
) -> np.ndarray:
    """The bootstrap sampling stage in aggregate space: n_sample resampled
    responses, each trial block's rows drawn as ``bootstrap_audit`` draws
    them and then perturbed in all d coordinates by one
    ``mechanisms.gaussian_release`` call.
    """
    matrix = _clean_matrix(clean)
    sigma = noise_scale(config.mechanism)
    sizes = _block_sizes(config.n_sample)
    noisy = np.empty((config.n_sample, matrix.shape[1]))

    def fill(index: int) -> None:
        rng, rows = _block_rows(matrix.shape[0], config.seed, arm, index, sizes[index])
        first = index * _TRIAL_BLOCK
        noisy[first:first + sizes[index]] = mechanisms.gaussian_release(matrix, rows, sigma, rng)

    map_in_order(fill, range(len(sizes)), workers)
    return noisy


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
    return np.einsum("ij,j->i", noisy, yes - no)


def _score_space(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns a_j - a_0 and offsets -(|a_j|^2 - |a_0|^2) / 2, j >= 1,
    of the releasable outputs a_0..a_{m-1} (one per row): x is nearest to
    a_j where j is the first maximum of [0, s_1, ...], with s_j = x.(a_j -
    a_0) plus its offset. One-hot vote rows have offset 0, so that is the
    vote argmax, ties to the lowest class."""
    norms = np.einsum("ij,ij->i", outputs, outputs)
    return (outputs[1:] - outputs[0]).T, -0.5 * (norms[1:] - norms[0])


def _release_scores(clean_scores: np.ndarray, factor: np.ndarray, rows: np.ndarray,
                    rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """``out`` set to the noisy scores of the trials that resample ``rows``,
    clean_scores[rows] + g @ factor with g ~ N(0, I_r) drawn from ``rng`` in
    row order, and returned; one normal per trial is drawn straight into
    ``out``. einsum, not ``@``: no BLAS threads contend with the pool's, and
    a row's sum does not depend on how many rows a chunk holds."""
    if factor.shape == (1, 1):
        rng.standard_normal(out=out)
        out *= factor[0, 0]
    else:
        np.einsum("ij,jk->ik", rng.standard_normal((len(rows), factor.shape[0])), factor,
                  out=out)
    out += np.take(clean_scores, rows, axis=0)
    return out


def _tally(scores: np.ndarray, outputs: int) -> np.ndarray:
    """How many rows of ``scores`` release each of ``outputs`` outputs: the
    first maximum of [0, s_1, ...], so a tie goes to the lower index."""
    if scores.shape[1] == 1:
        upper = int(np.count_nonzero(scores > 0))
        return np.array([len(scores) - upper, upper])
    picks = scores.argmax(axis=1) + 1
    picks[scores.max(axis=1) <= 0] = 0
    return np.bincount(picks, minlength=outputs)


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

    The no and yes answers are set once per audit, and with them the
    scores the decision reads (``_score_space``): white-box, the one
    column yes - no; black-box, each releasable output's score relative to
    the first, with the answer class of each output. A candidate pool is
    scored over its distinct rows, each at its first occurrence: a repeat
    scores what its first occurrence does and never wins, so the picks'
    classes are the same. Each arm's clean scores are computed once. One
    kernel then resamples each trial block of either arm, of either task,
    and releases its scores a chunk at a time: it adds each chunk's
    releases to the block's tally (black-box) or writes the chunk into its
    slice of the arm's statistics (white-box), which the sweep then sorts
    in place. The blocks of both arms run on ``workers`` threads, each
    writing its own slice. A pool of one distinct answer releases it in
    every trial, with no draw. Non-signal releases warn once per audit,
    with their count.
    """
    start = time.perf_counter()
    black_box = config.threat_model == "black_box"
    sigma = noise_scale(config.mechanism)
    arms = (_clean_matrix(clean_with), _clean_matrix(clean_without))
    answers = _answers(config, signal_pair, arms[0].shape[1])
    if not black_box:
        columns, offsets = (answers[1] - answers[0])[:, None], 0.0
    else:
        if config.task == "classification":
            outputs = np.eye(arms[0].shape[1])  # class k releases the one-hot row e_k
        else:
            distinct = {}
            for candidate in candidates if candidates is not None else answers[::-1]:  # y1, y0
                row = np.asarray(candidate, dtype=np.float64)
                distinct.setdefault((row.shape, row.tobytes()), row)
            if not distinct:
                raise ValueError("candidate pool is empty")
            outputs = np.stack(list(distinct.values()))
        classes = _answer_classes(answers, outputs)
        columns, offsets = _score_space(outputs)
    width = columns.shape[1]
    if width:
        factor = mechanisms.gaussian_score_factor(columns, sigma)
        clean_scores = [np.einsum("ij,jk->ik", arm, columns) + offsets for arm in arms]
        step = max(1, _RELEASE_CHUNK_BYTES // (8 * width))
    sizes = _block_sizes(config.n_sample)
    stats = [] if black_box else [np.empty(config.n_sample) for _ in arms]  # white-box, per arm

    def kernel(block: tuple[int, int]):
        arm, index = block
        if not width:  # one releasable output
            return np.array([sizes[index]])
        rng, rows = _block_rows(arms[arm].shape[0], config.seed, arm, index, sizes[index])
        tally = 0
        if black_box:
            scores = np.empty((min(step, rows.size), width))
        for lo in range(0, rows.size, step):
            chunk = rows[lo:lo + step]
            if black_box:
                released = _release_scores(clean_scores[arm], factor, chunk, rng,
                                           scores[:chunk.size])
                tally = tally + _tally(released, len(outputs))
            else:
                first = index * _TRIAL_BLOCK + lo
                _release_scores(clean_scores[arm], factor, chunk, rng,
                                stats[arm][first:first + chunk.size, None])
        return tally

    results = map_in_order(kernel, [(arm, index) for arm in (_ARM_WITH, _ARM_WITHOUT)
                                    for index in range(len(sizes))], workers)

    tau: Optional[float] = None
    if black_box:
        tallies = sum(results[:len(sizes)]), sum(results[len(sizes):])
        tp, fp = (int(tally[classes == 1].sum()) for tally in tallies)
        non_signal = sum(int(tally[classes < 0].sum()) for tally in tallies)
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
        tau, counts, bounds = _sweep_in_place(*stats, config.confidence)
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
