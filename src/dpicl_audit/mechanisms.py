"""The two DP-ICL mechanisms under audit, in the batched form the audit runs.

Private voting: partition the exemplar context, collect one class vote per
partition, add Gaussian noise to the vote histogram, release the noisy
argmax. Embedding aggregation: average the per-partition output embeddings,
each clipped to the unit ball, add Gaussian noise to the mean, release the
nearest candidate.

Both release in three stages: aggregate, noise, select. `aggregate` turns
each trial's per-partition responses into its clean aggregate (vote counts,
or the mean of the clipped embeddings), the noise is N(0, sigma^2 I_d) on
that aggregate, and the release is the output nearest to the noisy
aggregate x: the vote argmax is the nearest one-hot row, and embedding
aggregation releases the nearest candidate. The nearest of outputs
a_0..a_{m-1} is the first maximum of the scores x.(a_j - a_0) -
(|a_j|^2 - |a_0|^2) / 2, with 0 for a_0, so the release reads x only
through the linear map A = [a_1 - a_0, ...]. The audit therefore releases
in that score space: `gaussian_score_factor` gives the factor F with
z @ A ~ g @ F for g ~ N(0, I_r), the exact law of the noise as the scores
see it, and the audit's trial kernel adds g @ F to each trial's clean
scores. `gaussian_release` is the release in the aggregate's own d
coordinates, which `audit.generate_noisy_samples` stacks.
`oracles.collect` aggregates with the first, and the audit's trial kernel
draws its noise through `gaussian_score_factor` and nothing else, so a
fault here moves its reports.

Noise calibration follows sigma = Delta * sqrt(log(1.25/delta)) / eps with a
natural logarithm. Note the classical Gaussian-mechanism calibration carries
an extra sqrt(2) under the root; `classic_calibration` adds it back for
anyone who wants the textbook scale, the default reproduces the audited
systems as deployed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
        if not 0.0 < self.eps_theory < math.inf:
            raise ValueError(f"eps_theory must be positive and finite, got {self.eps_theory}")
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

    The result is released as-is, not re-normalized.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    noisy = rng.normal(0.0, sigma, size=(len(rows), clean.shape[1]))
    # The same sums as clean[rows] + noise. np.take copies each row whole;
    # clean[rows] pays a per-row indexing cost, 8x the gather's time at d = 2.
    noisy += np.take(clean, rows, axis=0)
    return noisy


def gaussian_score_factor(columns: np.ndarray, sigma: float) -> np.ndarray:
    """The release's noise as the linear scores ``columns`` (A, d x k) see
    it: a factor F (r x k) with F^T F = sigma^2 A^T A, so that for
    z ~ N(0, sigma^2 I_d) the scores' noise z @ A has exactly the law of
    g @ F, g ~ N(0, I_r).

    One column is scaled by sigma |a|: one normal per trial. More columns
    take sigma R from A = QR, whose r = min(d, k) rows are the normals a
    trial needs.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if columns.shape[1] == 1:
        # not np.linalg.norm, whose dot product would start the BLAS threads
        return np.array([[sigma * math.sqrt(np.einsum("ij,ij->", columns, columns))]])
    return sigma * np.linalg.qr(columns, mode="r")
