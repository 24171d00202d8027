"""The two DP-ICL mechanisms under audit, in the batched form the audit runs.

Private voting: partition the exemplar context, collect one class vote per
partition, add Gaussian noise to the vote histogram, release the noisy
argmax. Embedding aggregation: average the per-partition output embeddings,
each clipped to the unit ball, add Gaussian noise to the mean, release the
nearest candidate.

Both release in three stages: aggregate, noise, select. `aggregate` turns
each trial's per-partition responses into its clean aggregate (vote counts,
or the mean of the clipped embeddings); `gaussian_release` perturbs the
clean aggregates of the rows it is given, which the audit passes one chunk of
a trial block at a time; voting then takes each row's argmax (`vote_select`) and
embedding aggregation each row's nearest candidate (`esa_select`), the
candidate of highest score on the one projection kernel (`project`) that
also computes the white-box statistic.
`oracles.collect` aggregates with the first, and the audit's trial kernel
calls the others and nothing else to noise and release, so a fault here
moves its reports.

Noise calibration follows sigma = Delta * sqrt(log(1.25/delta)) / eps with a
natural logarithm. Note the classical Gaussian-mechanism calibration carries
an extra sqrt(2) under the root; `classic_calibration` adds it back for
anyone who wants the textbook scale, the default reproduces the audited
systems as deployed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# each noise calibration and the task whose release it calibrates
SENSITIVITY_MODES = {"paper_voting": "classification", "esa_tight": "generation",
                     "esa_legacy": "generation"}

VOTING_SENSITIVITY = 2.0  # one exemplar can move two histogram coordinates by 1 each


@dataclass(frozen=True)
class Exemplar:
    """One demonstration record: an input/output text pair."""

    text_in: str
    text_out: str = ""


@dataclass(frozen=True)
class ExemplarSubset:
    """One partition: its exemplars, their original indices, canary membership."""

    exemplars: tuple[Exemplar, ...]
    indices: tuple[int, ...]
    contains_canary: bool


@dataclass(frozen=True)
class NeighboringPair:
    """Target context (canary in) and reference context (canary out), both
    derived from one base context: the reference is ``exemplars`` and the
    target puts ``canary`` at ``index`` in their place.

    The adjacency unit of the DP guarantee: the two contexts differ in one
    exemplar by construction, and ``partitions`` keeps it so after padding.
    """

    exemplars: tuple[Exemplar, ...]
    canary: Exemplar
    index: int
    pad: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "exemplars", tuple(self.exemplars))
        if not (0 <= self.index < len(self.exemplars)):
            raise ValueError(f"index {self.index} out of range for {len(self.exemplars)} exemplars")
        if self.canary == self.exemplars[self.index]:
            raise ValueError("canary must differ from the exemplar it replaces")

    def partitions(self, num_partitions: int) -> tuple[list[ExemplarSubset], list[ExemplarSubset]]:
        """The canary-in subsets and the canary-out subsets, in that order.

        Exemplar i goes to subset i mod T in both contexts, so the canary
        lands in exactly one subset and the contexts differ in it alone. A
        base context smaller than T is an error unless ``pad``, which fills
        it once with copies of its non-canary exemplars, in order, before
        the canary goes in.
        """
        if num_partitions < 1:
            raise ValueError("num_partitions must be positive")
        base = list(self.exemplars)
        if len(base) < num_partitions:
            if not self.pad:
                raise ValueError(
                    f"context has {len(base)} exemplars but {num_partitions} partitions were requested"
                )
            fillers = base[:self.index] + base[self.index + 1:]
            if not fillers:
                raise ValueError("cannot pad a context whose only exemplar is the canary")
            base += [fillers[i % len(fillers)] for i in range(num_partitions - len(base))]
        target = list(base)
        target[self.index] = self.canary

        def split(context: list[Exemplar], holds_canary: bool) -> list[ExemplarSubset]:
            return [ExemplarSubset(exemplars=tuple(context[part::num_partitions]),
                                   indices=tuple(range(part, len(context), num_partitions)),
                                   contains_canary=holds_canary and self.index % num_partitions == part)
                    for part in range(num_partitions)]

        return split(target, True), split(base, False)


@dataclass(frozen=True)
class MechanismConfig:
    eps_theory: float
    delta: float
    num_partitions: int
    sensitivity_mode: str = "paper_voting"
    candidate_pool_size: int = 10
    classic_calibration: bool = False

    def __post_init__(self) -> None:
        if self.eps_theory <= 0.0:
            raise ValueError(f"eps_theory must be positive, got {self.eps_theory}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.num_partitions < 2:
            raise ValueError(f"need at least 2 partitions, got {self.num_partitions}")
        if self.sensitivity_mode not in SENSITIVITY_MODES:
            raise ValueError(f"unknown sensitivity_mode {self.sensitivity_mode!r}")
        if self.candidate_pool_size < 1:
            raise ValueError("candidate_pool_size must be positive")


def gaussian_sigma(sensitivity: float, eps: float, delta: float, classic_calibration: bool = False) -> float:
    if sensitivity <= 0.0 or eps <= 0.0 or not (0.0 < delta < 1.0):
        raise ValueError("invalid noise calibration inputs")
    factor = 2.0 if classic_calibration else 1.0
    return sensitivity * math.sqrt(factor * math.log(1.25 / delta)) / eps


def voting_noise_scale(eps: float, delta: float, classic_calibration: bool = False) -> float:
    """Gaussian scale for private voting: 2 * sqrt(log(1.25/delta)) / eps."""
    return gaussian_sigma(VOTING_SENSITIVITY, eps, delta, classic_calibration)


def esa_sensitivity(num_partitions: int) -> float:
    """Tight L2 sensitivity of the released mean embedding: 2/T.

    One exemplar can change at most one partition's unit-clipped embedding,
    moving the mean by at most 2/T; u vs -u attains the bound exactly.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be positive")
    return 2.0 / num_partitions


def noise_scale(config: MechanismConfig) -> float:
    """Gaussian scale of the configured release, keyed on its sensitivity
    mode: ``VOTING_SENSITIVITY`` for voting, 2/T (``esa_tight``) or 1
    (``esa_legacy``) for embedding aggregation."""
    sensitivity = {"paper_voting": VOTING_SENSITIVITY, "esa_legacy": 1.0,
                   "esa_tight": esa_sensitivity(config.num_partitions)}[config.sensitivity_mode]
    return gaussian_sigma(sensitivity, config.eps_theory, config.delta, config.classic_calibration)


def clip_to_unit(vectors: np.ndarray) -> np.ndarray:
    """Scale each vector along the last axis down to the unit ball; vectors
    already inside are divided by exactly 1.0, so they pass through bit for bit."""
    v = np.asarray(vectors, dtype=np.float64)
    return v / np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1.0)


def aggregate(responses: np.ndarray, num_classes: Optional[int]) -> np.ndarray:
    """Each trial's clean aggregate, the release's first stage: from (n_llm, T)
    votes the (n_llm, num_classes) vote counts, from (n_llm, T, d) partition
    embeddings the (n_llm, d) mean of the embeddings clipped to the unit ball.

    The clip is what bounds the mean's sensitivity by 2/T (``esa_sensitivity``),
    whatever norm the model returned. Votes must lie in [0, num_classes).
    """
    if responses.ndim == 3:
        return clip_to_unit(responses).mean(axis=1)
    trials = responses.shape[0]
    slots = responses + num_classes * np.arange(trials)[:, None]
    return np.bincount(slots.ravel(), minlength=trials * num_classes).reshape(trials, num_classes)


def gaussian_release(clean: np.ndarray, rows: np.ndarray, sigma: float,
                     rng: np.random.Generator) -> np.ndarray:
    """The clean aggregates ``clean[rows]`` (vote histograms or mean
    embeddings, one per row), each coordinate perturbed with independent
    N(0, sigma^2) drawn from ``rng`` as one (rows, d) block.

    The result is released as-is, not re-normalized: ``vote_select`` and
    ``esa_select`` read the raw noisy aggregates.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    noisy = rng.normal(0.0, sigma, size=(len(rows), clean.shape[1]))
    # The same sums as clean[rows] + noise. np.take copies each row whole;
    # clean[rows] pays a per-row indexing cost, 8x the gather's time at d = 2.
    noisy += np.take(clean, rows, axis=0)
    return noisy


def vote_select(noisy: np.ndarray) -> np.ndarray:
    """The class private voting releases for each noisy histogram: its argmax.

    Ties break toward the lowest class index (measure-zero under continuous
    noise; determinism matters for sigma = 0).
    """
    return np.argmax(noisy, axis=1)


def project(points: np.ndarray, direction: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Each row of ``points`` projected on ``direction``: the one linear
    score kernel, read by the white-box statistic and by ``esa_select``.

    Written into ``out`` (a float64 vector of one value per row) when it is
    given, and returned; the audit passes each trial block's slice of its
    arm's statistics, so no block keeps an array of its own.
    """
    # The audit's pool threads call this, not the public whitebox_statistic
    # a tracer may wrap. einsum sums each row in one C loop: bit for bit
    # noisy[:, yes] - noisy[:, no] on a one-hot difference, and no BLAS
    # threads to contend with the pool's, as `@` does at d=16.
    return np.einsum("ij,j->i", points, direction, out=out)


def esa_select(noisy: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
    """Per noisy mean x, the index in ``candidates`` of the nearest
    (Euclidean) candidate; ties -> lowest.

    Since |x - c|^2 = |x|^2 - 2 (x.c - |c|^2 / 2), the nearest candidate is
    the one of highest linear score ``project(x, c) - |c|^2 / 2``. A running
    maximum takes the candidates in pool order and moves a pick only on a
    strictly higher score, so the first maximum wins, and a repeated
    candidate, which scores what its first occurrence does, never does: the
    audit scores each distinct candidate once (``audit.bootstrap_audit``).
    The temporaries are a few row-length vectors, whatever the pool size or
    the dimension.
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
        score = project(noisy, row)
        score -= 0.5 * float(row @ row)
        if best is None:
            best = score
        else:
            np.putmask(picks, score > best, index)
            np.maximum(best, score, out=best)
    return picks
