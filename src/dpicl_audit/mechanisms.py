"""The two DP-ICL mechanisms under audit, in the batched form the audit runs.

Private voting: partition the exemplar context, collect one class vote per
partition, add Gaussian noise to the vote histogram, release the noisy
argmax. Embedding aggregation: average the per-partition output embeddings,
each clipped to the unit ball, add Gaussian noise to the mean, release the
nearest candidate.

Both release in three stages: aggregate, noise, select. `aggregate` turns
each trial's per-partition responses into its clean aggregate (vote counts,
or the mean of the clipped embeddings); `gaussian_release` perturbs a block
of clean aggregates; voting then takes each row's argmax (`vote_select`) and
embedding aggregation each row's nearest candidate (`esa_select`).
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
from typing import Iterator, Optional, Sequence

import numpy as np

# each noise calibration and the task whose release it calibrates
SENSITIVITY_MODES = {"paper_voting": "classification", "esa_tight": "generation",
                     "esa_legacy": "generation"}

VOTING_SENSITIVITY = 2.0  # one exemplar can move two histogram coordinates by 1 each

# Byte budget of the rows x k x d difference tensor of one chunk of the
# nearest-candidate search (at least one row), k counting the distinct
# candidates. It bounds the temporaries whatever the pool size and dimension;
# at 10 distinct candidates and d=16, budgets from 0.5 to 8 MiB ran alike on
# a 2-core Xeon.
_NEAREST_CHUNK_BYTES = 1 << 21

# Byte budget of the clean rows ``gaussian_release`` gathers at once (at
# least one row), so its only temporary beside the released block is one
# chunk, not a second block.
_RELEASE_CHUNK_BYTES = 1 << 21


@dataclass(frozen=True)
class Exemplar:
    """One demonstration record: an input/output text pair."""

    text_in: str
    text_out: str = ""


@dataclass(frozen=True)
class ExemplarContext:
    """An ordered exemplar list, optionally marking the canary position."""

    exemplars: tuple[Exemplar, ...]
    canary_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.canary_index is not None and not (0 <= self.canary_index < len(self.exemplars)):
            raise ValueError(
                f"canary_index {self.canary_index} out of range for {len(self.exemplars)} exemplars"
            )

    def __len__(self) -> int:
        return len(self.exemplars)


@dataclass(frozen=True)
class NeighboringPair:
    """Target context (canary in) and reference context (canary out).

    The adjacency unit of the DP guarantee: the two contexts are equal except
    at the canary position.
    """

    with_canary: ExemplarContext
    without_canary: ExemplarContext

    def __post_init__(self) -> None:
        c1, c0 = self.with_canary, self.without_canary
        if len(c1) != len(c0):
            raise ValueError("neighboring contexts must have the same size")
        if c1.canary_index is None:
            raise ValueError("the target context must mark its canary position")
        diffs = [i for i, (a, b) in enumerate(zip(c1.exemplars, c0.exemplars)) if a != b]
        if diffs != [c1.canary_index]:
            raise ValueError(
                f"contexts must differ exactly at the canary position {c1.canary_index}, differ at {diffs}"
            )

    @classmethod
    def insert_canary(cls, exemplars: Sequence[Exemplar], canary: Exemplar, index: int) -> "NeighboringPair":
        """Build a pair by substituting the canary at `index` of a base context."""
        base = tuple(exemplars)
        if not (0 <= index < len(base)):
            raise ValueError(f"index {index} out of range for {len(base)} exemplars")
        if canary == base[index]:
            raise ValueError("canary must differ from the exemplar it replaces")
        target = base[:index] + (canary,) + base[index + 1:]
        return cls(
            with_canary=ExemplarContext(target, canary_index=index),
            without_canary=ExemplarContext(base),
        )


@dataclass(frozen=True)
class ExemplarSubset:
    """One partition: its exemplars, their original indices, canary membership."""

    exemplars: tuple[Exemplar, ...]
    indices: tuple[int, ...]
    contains_canary: bool


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


def partition(context: ExemplarContext, num_partitions: int, pad: bool = False) -> list[ExemplarSubset]:
    """Split a context into disjoint subsets, round-robin by index.

    Exemplar i goes to subset i mod T, so the canary lands in exactly one
    subset and neighboring contexts partition identically. Contexts smaller
    than T are an error unless `pad` duplicates non-canary exemplars to fill.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be positive")
    exemplars = list(context.exemplars)
    canary_index = context.canary_index
    if len(exemplars) < num_partitions:
        if not pad:
            raise ValueError(
                f"context has {len(exemplars)} exemplars but {num_partitions} partitions were requested"
            )
        fillers = [i for i in range(len(exemplars)) if i != canary_index]
        if not fillers:
            raise ValueError("cannot pad a context whose only exemplar is the canary")
        cursor = 0
        while len(exemplars) < num_partitions:
            exemplars.append(exemplars[fillers[cursor % len(fillers)]])
            cursor += 1
    buckets: list[list[int]] = [[] for _ in range(num_partitions)]
    for i in range(len(exemplars)):
        buckets[i % num_partitions].append(i)
    return [
        ExemplarSubset(
            exemplars=tuple(exemplars[i] for i in bucket),
            indices=tuple(bucket),
            contains_canary=canary_index is not None and canary_index in bucket,
        )
        for bucket in buckets
    ]


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
    # the same sums as clean[rows] + noise, with the rows gathered a chunk at a time
    step = max(1, _RELEASE_CHUNK_BYTES // (max(1, clean.shape[1]) * noisy.itemsize))
    for start in range(0, len(rows), step):
        noisy[start:start + step] += clean[rows[start:start + step]]
    return noisy


def vote_select(noisy: np.ndarray) -> np.ndarray:
    """The class private voting releases for each noisy histogram: its argmax.

    Ties break toward the lowest class index (measure-zero under continuous
    noise; determinism matters for sigma = 0).
    """
    return np.argmax(noisy, axis=1)


def esa_select(noisy: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
    """Per noisy mean, the index in ``candidates`` of the nearest (Euclidean)
    candidate; ties -> lowest.

    A zero-shot pool often repeats itself, so the search runs over the
    distinct candidates only, each kept at its first occurrence and in pool
    order, and each pick is mapped back to that first occurrence. The result
    is argmin over the whole pool, index for index: identical rows get
    identical distances, the whole pool's first minimum is a first
    occurrence, and keeping the pool order keeps the first-index tie-break
    between distinct candidates. The distances come a chunk of rows at a
    time from ``_distance_chunks``.
    """
    if len(candidates) == 0:
        raise ValueError("candidate pool is empty")
    first: dict[bytes, int] = {}  # distinct candidate -> its first pool index
    distinct = []
    for index, candidate in enumerate(candidates):
        row = np.asarray(candidate, dtype=np.float64)
        if first.setdefault(row.tobytes(), index) == index:
            distinct.append(row)
    stacked = np.stack(distinct)
    if stacked.shape[1:] != noisy.shape[1:]:
        raise ValueError(f"candidate dimension {stacked.shape[1:]} does not match "
                         f"the noisy mean's {noisy.shape[1:]}")
    origin = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    picks = np.empty(noisy.shape[0], dtype=np.intp)
    for start, distances in _distance_chunks(noisy, stacked):
        # every index is in range, so "clip" only spares the buffered copy of "raise"
        np.take(origin, np.argmin(distances, axis=1), out=picks[start:start + len(distances)],
                mode="clip")
    return picks


def _distance_chunks(points: np.ndarray,
                     targets: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The Euclidean distances of each of n points to each of k targets, as
    (start, distances) per chunk of rows, ``distances`` being the
    (rows, k) block of rows start, start + 1, ...

    Bit for bit ``np.linalg.norm(points[:, None] - targets[None], axis=2)``:
    the same subtraction, squares and ``np.add.reduce`` over the same
    contiguous last axis, then ``sqrt``, without its conjugate copy and
    temporaries. The squares are taken in place in one buffer of
    rows x k x d that fits _NEAREST_CHUNK_BYTES (at least one row), reused
    by every chunk, as is ``distances``: read each chunk before the next.
    Each row's distances come from that row alone, so they do not depend on
    the chunking.
    """
    rows = max(1, _NEAREST_CHUNK_BYTES // max(1, targets.nbytes))
    squares = np.empty((min(rows, points.shape[0]), *targets.shape))
    sums = np.empty(squares.shape[:2])
    for start in range(0, points.shape[0], rows):
        chunk = points[start:start + rows]
        diff, distances = squares[:len(chunk)], sums[:len(chunk)]
        np.subtract(chunk[:, None, :], targets[None, :, :], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=2, out=distances)
        yield start, np.sqrt(distances, out=distances)
