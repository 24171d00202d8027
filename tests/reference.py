"""Independent reference implementations used as test oracles.

Each function here deliberately avoids the package's own code path for the
quantity it checks: quadrature instead of erfc, bisection on the CDF instead
of ndtri, exact combinatorial tail sums instead of beta inversion, grid scans
instead of bisection, a threshold sweep that counts both arms by binary search
at every split of the pooled distinct values and bounds every split, instead
of bounding mu over blocks of one arm's ranks and searching the other arm for
the corners of the blocks that can hold the best one only, a bootstrap audit that releases the aggregate in all d coordinates
instead of in the decision's score space (the mechanism's specification,
with the vote argmax and the nearest-candidate search), one that holds
each arm's scores whole and picks over the whole pool instead of streaming
trial blocks over the distinct pool rows, and a replay that parses one
record per line into a dict store, looks up each (ctx, trial, partition)
key in turn and clips each embedding alone instead of gathering and
clipping arrays.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np
from scipy import integrate, special

from dpicl_audit import audit, mechanisms
from dpicl_audit.audit import AuditConfig, AuditReport, _clean_matrix, sweep_threshold
from dpicl_audit.gdp import (
    AttackCounts,
    ErrorBounds,
    audit_epsilon,
    eps_emp_dp,
    estimate_from_bounds,
)
from dpicl_audit.mechanisms import noise_scale
from dpicl_audit.oracles import (
    CTX_WITH,
    CTX_WITHOUT,
    OracleError,
    SignalPair,
)


def normal_cdf_quad(x: float) -> float:
    """Phi(x) by adaptive quadrature of the density from 0."""
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    value, _err = integrate.quad(density, 0.0, x, epsabs=1e-13, epsrel=1e-13)
    return 0.5 + value


def normal_tail_asymptotic(x: float) -> float:
    """Lower-tail Phi(x) for very negative x via the Mills-ratio expansion."""
    assert x < -10
    xsq = x * x
    series = 1.0 - 1.0 / xsq + 3.0 / xsq**2 - 15.0 / xsq**3
    return math.exp(-0.5 * xsq) / (-x * math.sqrt(2.0 * math.pi)) * series


def normal_log_cdf_mp(x: float) -> float:
    """log Phi(x) at 60-digit precision (arbitrary-precision oracle)."""
    import mpmath

    with mpmath.workdps(60):
        return float(mpmath.log(mpmath.ncdf(x)))


def normal_quantile_mp(p: float) -> float:
    """Phi^-1(p) at 60-digit precision, as sqrt(2) erfinv(2p - 1)."""
    import mpmath

    with mpmath.workdps(60):
        return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))


def inv_cdf_bisect(p: float, cdf) -> float:
    """Quantile by bisection on a provided CDF."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binom_tail_exact(successes: int, trials: int, p: float) -> float:
    """P[Bin(trials, p) <= successes] as an exact combinatorial sum."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0 if successes < trials else 1.0
    terms = [
        math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)
        for k in range(successes + 1)
    ]
    return math.fsum(terms)


def cp_upper_bisect(successes: int, trials: int, confidence: float) -> float:
    """Clopper-Pearson upper bound by bisection on the exact tail sum."""
    if successes == trials:
        return 1.0
    target = 1.0 - confidence
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if binom_tail_exact(successes, trials, mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def eps_grid_scan(mu: float, delta_target: float, delta_fn) -> float:
    """Smallest eps with delta(eps; mu) <= target by two-stage dense scanning."""
    coarse = 0.01
    eps = 0.0
    while delta_fn(eps, mu) > delta_target:
        eps += coarse
        if eps > 250.0:
            raise AssertionError("scan exhausted")
    lo = max(0.0, eps - coarse)
    fine = 1e-7
    eps = lo
    while delta_fn(eps, mu) > delta_target:
        eps += fine
    return eps


def _counts_for_rule(stat_with: np.ndarray, stat_without: np.ndarray,
                     thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """TP and FP counts of "canary in above tau" at each threshold."""
    sw = np.sort(stat_with)
    swo = np.sort(stat_without)
    above_w = len(sw) - np.searchsorted(sw, thresholds, side="right")
    above_wo = len(swo) - np.searchsorted(swo, thresholds, side="right")
    return above_w, above_wo


def split_counts_bruteforce(w: np.ndarray, wo: np.ndarray):
    """The distinct pooled values, and the TP and FP counts of "canary in
    above" each split: accept-all, then "at or below v" for each distinct
    value v in increasing order, each arm counted by binary search."""
    values = np.unique(np.concatenate([w, wo]))
    tp, fp = _counts_for_rule(w, wo, values)
    return values, np.concatenate([[w.size], tp]), np.concatenate([[wo.size], fp])


def split_tau_bruteforce(values: np.ndarray, split: int) -> float:
    """tau for split ``split`` of ``split_counts_bruteforce``: below the data
    at 0, above it at the last, else the midpoint of the split's neighbours,
    or the lower one if the midpoint is not in [lower, upper)."""
    if split == 0:
        low = float(values[0])
        return low - 1.0 if low - 1.0 < low else math.nextafter(low, -math.inf)
    if split == values.size:
        return float(values[-1]) + 1.0
    lower, upper = float(values[split - 1]), float(values[split])
    mid = 0.5 * (lower + upper)
    return mid if lower <= mid < upper else lower


def band_mu_bruteforce(w: np.ndarray, wo: np.ndarray, confidence: float):
    """The distinct pooled values, every split's TP, FP and FN counts, the
    band's bounds on its error rates and the unclamped mu they give."""
    values, tp, fp = split_counts_bruteforce(w, wo)
    fn = w.size - tp
    # the one-sided DKW band with Massart's constant, (1 - confidence) / 2 per arm
    log_term = math.log(2.0 / (1.0 - confidence))
    alpha_bar = np.minimum(fp / wo.size + math.sqrt(log_term / (2.0 * wo.size)), 1.0)
    beta_bar = np.minimum(fn / w.size + math.sqrt(log_term / (2.0 * w.size)), 1.0)

    # rank on the unclamped bound so an informative split always beats the
    # degenerate accept-all/reject-all ends; saturated bounds rank at -inf
    # (the reported estimate still clamps at zero)
    mu = np.full_like(alpha_bar, -np.inf)
    open_mask = (alpha_bar < 1.0) & (beta_bar < 1.0)
    mu[open_mask] = special.ndtri(1.0 - beta_bar[open_mask]) - special.ndtri(alpha_bar[open_mask])
    return values, tp, fp, fn, alpha_bar, beta_bar, mu


def sweep_threshold_bruteforce(
    stats_with: Sequence[float],
    stats_without: Sequence[float],
    confidence: float,
) -> tuple[float, AttackCounts, ErrorBounds]:
    """The threshold sweep evaluating the band's mu at every split."""
    w = np.asarray(stats_with, dtype=np.float64)
    wo = np.asarray(stats_without, dtype=np.float64)
    if w.size == 0 or wo.size == 0:
        raise ValueError("both statistic lists must be non-empty")
    if not (np.isfinite(w).all() and np.isfinite(wo).all()):
        raise ValueError("statistics must be finite")

    values, tp, fp, fn, alpha_bar, beta_bar, mu = band_mu_bruteforce(w, wo, confidence)
    best = int(np.argmax(mu))  # first maximum = lowest split
    counts = AttackCounts(
        true_positives=int(tp[best]),
        false_positives=int(fp[best]),
        false_negatives=int(fn[best]),
        true_negatives=int(wo.size - fp[best]),
    )
    bounds = ErrorBounds(alpha_bar=float(alpha_bar[best]), beta_bar=float(beta_bar[best]),
                         confidence=confidence)
    return split_tau_bruteforce(values, best), counts, bounds


def _noisy_matrix(clean: np.ndarray, sigma: float, n_sample: int, seed: int,
                  arm: int, workers: int = 1) -> np.ndarray:
    """Resample clean rows and perturb coordinate-wise, in fixed trial blocks."""
    out = np.empty((n_sample, clean.shape[1]), dtype=np.float64)
    blocks = [(b, start, min(start + audit._TRIAL_BLOCK, n_sample))
              for b, start in enumerate(range(0, n_sample, audit._TRIAL_BLOCK))]

    def fill(block: tuple[int, int, int]) -> None:
        index, start, stop = block
        rng = np.random.default_rng([seed, arm, index])
        rows = rng.integers(0, clean.shape[0], size=stop - start)
        out[start:stop] = clean[rows] + rng.normal(0.0, sigma, size=(stop - start, clean.shape[1]))

    if workers == 1:
        for block in blocks:
            fill(block)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, blocks))
    return out


def vote_select(noisy: np.ndarray) -> np.ndarray:
    """The class private voting releases for each noisy histogram: its argmax.

    Ties break toward the lowest class index (measure-zero under continuous
    noise; determinism matters for sigma = 0).
    """
    return np.argmax(noisy, axis=1)


def esa_select(noisy: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
    """Per noisy mean x, the index in ``candidates`` of the nearest
    (Euclidean) candidate; ties -> lowest.

    Since |x - c|^2 = |x|^2 - 2 (x.c - |c|^2 / 2), the nearest candidate is
    the one of highest linear score x.c - |c|^2 / 2. A running maximum
    takes the candidates in pool order and moves a pick only on a strictly
    higher score, so the first maximum wins, and a repeated candidate,
    which scores what its first occurrence does, never does. The
    temporaries are a few row-length vectors, whatever the pool size or the
    dimension.
    """
    if len(candidates) == 0:
        raise ValueError("candidate pool is empty")
    picks = np.zeros(noisy.shape[0], dtype=np.intp)
    best: Optional[np.ndarray] = None  # the picks' scores
    for index, candidate in enumerate(candidates):
        row = np.asarray(candidate, dtype=np.float64)
        if row.shape != noisy.shape[1:]:
            raise ValueError(f"candidate dimension {row.shape} does not match "
                             f"the noisy mean's {noisy.shape[1:]}")
        score = np.einsum("ij,j->i", noisy, row)
        score -= 0.5 * float(row @ row)
        if best is None:
            best = score
        else:
            np.putmask(picks, score > best, index)
            np.maximum(best, score, out=best)
    return picks


def _signal_pool(config: AuditConfig, signal_pair: Optional[SignalPair],
                 candidates: Optional[Sequence[np.ndarray]], width: int):
    """The no and yes answers, the releasable outputs (the one-hot rows, or
    the pool as given, repeats included) and each output's answer class:
    1 yes, 0 no, -1 other."""
    if config.task == "classification":
        outputs = np.eye(width)
        answers = outputs[[config.no_index, config.yes_index]]
    else:
        if signal_pair is None:
            raise ValueError("generation audits need a signal pair")
        answers = np.stack([signal_pair.y0_embedding, signal_pair.y1_embedding])
        pool = candidates if candidates is not None else answers[::-1]
        outputs = np.stack([np.asarray(c, dtype=np.float64) for c in pool])
    classes = np.where((outputs == answers[1]).all(axis=1), 1,
                       np.where((outputs == answers[0]).all(axis=1), 0, -1))
    return answers, outputs, classes


def dimensional_decisions(clean: Sequence, config: AuditConfig, arm: int, *,
                          signal_pair: Optional[SignalPair] = None,
                          candidates: Optional[Sequence[np.ndarray]] = None,
                          rows_per_draw: int = 4096) -> np.ndarray:
    """One arm's trials released in all d coordinates of the aggregate:
    each trial block's resampled rows, then its N(0, sigma^2) noise drawn
    ``rows_per_draw`` rows at a time from the block's generator, reduced to
    the white-box projection on yes - no, or to the answer class of the
    black-box release (the vote argmax, or the first nearest of the pool,
    repeats included). The draws are those of one whole (block, d) draw, so
    memory stays a few draws whatever n_sample or d."""
    matrix = _clean_matrix(clean)
    sigma = noise_scale(config.mechanism)
    answers, outputs, classes = _signal_pool(config, signal_pair, candidates, matrix.shape[1])
    out = np.empty(config.n_sample, dtype=np.float64 if config.threat_model == "white_box"
                   else np.int64)
    for index, start in enumerate(range(0, config.n_sample, audit._TRIAL_BLOCK)):
        stop = min(start + audit._TRIAL_BLOCK, config.n_sample)
        rng = np.random.default_rng([config.seed, arm, index])
        rows = rng.integers(0, matrix.shape[0], size=stop - start)
        for lo in range(0, stop - start, rows_per_draw):
            chunk = rows[lo:lo + rows_per_draw]
            noisy = matrix[chunk] + rng.normal(0.0, sigma, size=(chunk.size, matrix.shape[1]))
            if config.threat_model == "white_box" and config.task == "classification":
                decided = noisy[:, config.yes_index] - noisy[:, config.no_index]
            elif config.threat_model == "white_box":
                decided = np.einsum("ij,j->i", noisy, answers[1] - answers[0])
            elif config.task == "classification":
                decided = classes[vote_select(noisy)]
            else:
                decided = classes[esa_select(noisy, outputs)]
            out[start + lo:start + lo + chunk.size] = decided
    return out


def score_decisions(clean: Sequence, config: AuditConfig, arm: int, *,
                    signal_pair: Optional[SignalPair] = None,
                    candidates: Optional[Sequence[np.ndarray]] = None) -> np.ndarray:
    """One arm's trials released in score space, whole: per trial block, the
    resampled rows, then all the block's standard normals g (one row of r
    per trial) at once; the scores clean_scores[rows] + g @ F, with F from
    ``mechanisms.gaussian_score_factor``, relative to the pool's first row.
    White-box returns the projection on yes - no; black-box the answer
    class of the first maximum of every pool row's score, repeats included,
    each scoring what the first row equal to it scores."""
    matrix = _clean_matrix(clean)
    sigma = noise_scale(config.mechanism)
    answers, outputs, classes = _signal_pool(config, signal_pair, candidates, matrix.shape[1])
    if config.threat_model == "white_box":
        columns, offsets = (answers[1] - answers[0])[:, None], 0.0
    else:
        first = [next(j for j in range(len(outputs)) if np.array_equal(outputs[j], row))
                 for row in outputs]
        distinct = sorted(set(first))
        columns = (outputs[distinct[1:]] - outputs[distinct[0]]).T
        norms = np.einsum("ij,ij->i", outputs[distinct], outputs[distinct])
        offsets = -0.5 * (norms[1:] - norms[0])
    scores = np.zeros((config.n_sample, columns.shape[1]))
    if columns.shape[1]:
        factor = mechanisms.gaussian_score_factor(columns, sigma)
        clean_scores = np.einsum("ij,jk->ik", matrix, columns) + offsets
        for index, start in enumerate(range(0, config.n_sample, audit._TRIAL_BLOCK)):
            stop = min(start + audit._TRIAL_BLOCK, config.n_sample)
            rng = np.random.default_rng([config.seed, arm, index])
            rows = rng.integers(0, matrix.shape[0], size=stop - start)
            g = rng.standard_normal((stop - start, factor.shape[0]))
            noise = g * factor[0, 0] if factor.shape == (1, 1) else np.einsum("ij,jk->ik", g, factor)
            scores[start:stop] = clean_scores[rows] + noise
    if config.threat_model == "white_box":
        return scores[:, 0]
    with_first = np.concatenate([np.zeros((config.n_sample, 1)), scores], axis=1)
    pool_scores = with_first[:, [distinct.index(j) for j in first]]
    return classes[np.argmax(pool_scores, axis=1)]


def _report(decide, clean_with: Sequence, clean_without: Sequence, config: AuditConfig,
            **extra) -> AuditReport:
    """The audit's report from each arm's decisions as ``decide`` makes them."""
    start = time.perf_counter()
    with_arm = decide(clean_with, config, 0, **extra)
    without_arm = decide(clean_without, config, 1, **extra)
    tau: Optional[float] = None
    if config.threat_model == "black_box":
        non_signal = int(np.count_nonzero(with_arm < 0) + np.count_nonzero(without_arm < 0))
        if non_signal:
            warnings.warn(f"{non_signal} trials selected a non-signal candidate; "
                          "counted as canary-absent", stacklevel=3)
        tp, fp = int(np.count_nonzero(with_arm == 1)), int(np.count_nonzero(without_arm == 1))
        counts = AttackCounts(
            true_positives=tp,
            false_positives=fp,
            false_negatives=config.n_sample - tp,
            true_negatives=config.n_sample - fp,
        )
        estimate = audit_epsilon(counts, config.confidence, config.delta_target)
    else:
        tau, counts, bounds = sweep_threshold(with_arm, without_arm, config.confidence)
        estimate = estimate_from_bounds(bounds, config.delta_target)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return AuditReport(counts=counts, estimate=estimate,
                       eps_emp_point=eps_emp_dp(counts.tpr, counts.fpr),
                       config=config, tau=tau, wall_ms=wall_ms)


def bootstrap_audit_full_matrix(clean_with: Sequence, clean_without: Sequence,
                                config: AuditConfig, *, signal_pair: Optional[SignalPair] = None,
                                candidates: Optional[Sequence[np.ndarray]] = None) -> AuditReport:
    """The audit released in all d coordinates of the aggregate
    (``dimensional_decisions``): the mechanism as specified, against which
    the score release is checked in distribution."""
    return _report(dimensional_decisions, clean_with, clean_without, config,
                   signal_pair=signal_pair, candidates=candidates)


def bootstrap_audit_score_matrix(clean_with: Sequence, clean_without: Sequence,
                                 config: AuditConfig, *, signal_pair: Optional[SignalPair] = None,
                                 candidates: Optional[Sequence[np.ndarray]] = None) -> AuditReport:
    """The audit on whole arms of scores (``score_decisions``): every trial's
    noisy scores, then every decision. The streamed audit must give its
    report byte for byte."""
    return _report(score_decisions, clean_with, clean_without, config,
                   signal_pair=signal_pair, candidates=candidates)


def read_records(path: Union[str, Path]) -> list[dict]:
    """The records of a records file, one ``json.loads`` per non-blank line."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def record_lines(records: Iterable[dict]) -> str:
    """Records as a records file holds them: one compact JSON object per line."""
    return "".join(json.dumps(record, separators=(",", ":")) + "\n" for record in records)


def scale_canary_partition(source: Union[str, Path], target: Union[str, Path],
                           scale: float, part: int = 0) -> None:
    """Copy a records file of embeddings, with every embedding that partition
    ``part`` of the canary context returned multiplied by ``scale``: a model
    that answers over-norm where it sees the canary."""
    records = read_records(source)
    for record in records:
        if record["ctx"] == CTX_WITH and record["part"] == part:
            record["emb"] = [scale * x for x in record["emb"]]
    Path(target).write_text(record_lines(records), encoding="utf-8")


def clip_one(vector: np.ndarray) -> np.ndarray:
    """One embedding scaled onto the unit sphere if its norm exceeds 1, else
    itself; the norm is the square root of the summed squares."""
    norm = np.sqrt(np.add.reduce(vector * vector))
    return vector / norm if norm > 1.0 else vector


class DictReplayOracle:
    """Serves recorded responses keyed by (ctx, trial, partition)."""

    def __init__(self, records: Iterable[dict]):
        self._store: dict[tuple[str, int, int], dict] = {}
        kinds = set()
        trials: dict[str, set[int]] = {CTX_WITH: set(), CTX_WITHOUT: set()}
        for record in records:
            self._store[(record["ctx"], record["trial"], record["part"])] = record
            kinds.add("vote" if "vote" in record else "emb")
            trials[record["ctx"]].add(record["trial"])
        if not self._store:
            raise OracleError("no records to replay")
        if len(kinds) != 1:
            raise OracleError("record stream mixes votes and embeddings")
        self.kind = kinds.pop()
        self._num_trials = {ctx: len(ids) for ctx, ids in trials.items()}

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "DictReplayOracle":
        return cls(read_records(path))

    def num_trials(self, ctx: str) -> int:
        return self._num_trials.get(ctx, 0)

    def replay(self, ctx: str, trial: int, part: int):
        try:
            record = self._store[(ctx, trial, part)]
        except KeyError:
            raise OracleError(f"no recorded response for ({ctx}, trial={trial}, part={part})") from None
        return record["vote"] if "vote" in record else np.asarray(record["emb"], dtype=np.float64)


def collect_replay(oracle: DictReplayOracle, num_partitions: int, n_llm: int,
                   num_classes: int) -> tuple[list, list, list[dict]]:
    """The replay branch of ``collect``, one key at a time: each arm's clean
    vote counts or means of the unit-clipped embeddings, then the records
    behind them, as replayed."""
    task = "classification" if oracle.kind == "vote" else "generation"
    clean: dict[str, list] = {CTX_WITH: [], CTX_WITHOUT: []}
    records: list[dict] = []
    for ctx_label in (CTX_WITH, CTX_WITHOUT):
        if oracle.num_trials(ctx_label) < n_llm:
            raise OracleError(
                f"replay stream has {oracle.num_trials(ctx_label)} trials for '{ctx_label}', need {n_llm}"
            )
        per_trial = [[oracle.replay(ctx_label, trial, part) for part in range(num_partitions)]
                     for trial in range(n_llm)]
        for trial, responses in enumerate(per_trial):
            if task == "classification":
                counts = [0] * num_classes
                for part_index, vote in enumerate(responses):
                    if not (0 <= vote < num_classes):
                        raise OracleError(f"vote {vote} outside the {num_classes}-class label set")
                    counts[vote] += 1
                    records.append({"ctx": ctx_label, "trial": trial, "part": part_index,
                                    "vote": int(vote)})
                vector = counts
            else:
                for part_index, emb in enumerate(responses):
                    records.append({"ctx": ctx_label, "trial": trial, "part": part_index,
                                    "emb": emb.tolist()})
                vector = np.stack([clip_one(emb) for emb in responses]).mean(axis=0)
            clean[ctx_label].append(vector)
    return clean[CTX_WITH], clean[CTX_WITHOUT], records
