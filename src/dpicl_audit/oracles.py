"""Clean (pre-noise) per-partition responses: simulated, replayed, or remote.

An oracle answers one partition through ``respond(subset, query, rng)``,
or an arm through ``responses(ctx, subsets, n_llm, seed)``: a vote index
(classification) or an embedding (generation) per partition. Its
``num_classes`` says which, the label set's size for votes and None for
embeddings. The two live oracles take their answers as data:

* ``CanaryDetector`` — the idealized responder, answering an arm at once:
  the yes answer (a vote index, or y1's embedding) when the partition holds
  the canary and the no answer otherwise, flipped with p_flip; a zero-shot
  call (no partition) flips a fair coin;
* ``Responder`` — renders a prompt template, sends the request through a
  transport (a line-delimited file batch or one HTTP POST endpoint) and
  maps the reply text onto its answer: a label onto its vote index, a
  signal text onto its embedding. An embedding responder also takes a raw
  ``emb`` reply.

``ReplayOracle`` re-serves responses persisted as JSONL records, held as
columns (ctx, trial, partition, vote or embedding). When ``collect``
starts a records file, it writes beside it a binary companion
(``companion_path``): the SHA-256 of the bytes it wrote and the two
response grids. A replay of a file whose bytes hash to that digest rebuilds
its columns from the grids; any other file (edited, appended to, written by
hand or without a companion) is parsed the general way, with one JSON parse
of all its lines.

`collect` runs the partition-and-query pipeline for both neighboring
contexts. It holds each context's per-partition responses as one array, as
the oracle returned them, rejects non-finite embeddings, and returns the
responses with their per-trial aggregates from ``mechanisms.aggregate``,
the first stage of the release (aggregate -> noise -> select): the clean
vote counts (classification) or the mean of the unit-clipped embeddings
(generation), one row per trial. The per-partition records are written
straight from the arrays, unclipped.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import re
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import mechanisms
from .mechanisms import ExemplarSubset, NeighboringPair, clip_to_unit
from .parallel import map_in_order

CTX_WITH = "with"
CTX_WITHOUT = "without"

# Fixed codes salting the per-trial seed derivation for the two hypotheses.
_ARM_CODES = {CTX_WITH: 101, CTX_WITHOUT: 102}


def _trial_rng(seed: int, ctx: str, trial: int, attempt: int) -> np.random.Generator:
    # Counter-style derivation: the stream depends only on these coordinates,
    # never on scheduling, so parallel collection stays reproducible.
    return np.random.default_rng([seed, _ARM_CODES[ctx], trial, attempt])


class OracleError(RuntimeError):
    """An oracle could not produce a usable response."""


class ResponseParseError(OracleError):
    """External responder text matched none of the configured replies."""


@dataclass(frozen=True, eq=False)
class SignalPair:
    """Two fixed output strings with far-apart unit embeddings.

    For the audit the embeddings carry all the signal; synthetic pairs place
    two unit vectors at an exact L2 distance d (dot product 1 - d^2/2).
    """

    y1_text: str
    y0_text: str
    y1_embedding: np.ndarray
    y0_embedding: np.ndarray

    def __post_init__(self) -> None:
        for name in ("y1_embedding", "y0_embedding"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, v)
            if not math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-9):
                raise ValueError(f"{name} must be unit-norm")

    @property
    def l2_distance(self) -> float:
        return float(np.linalg.norm(self.y1_embedding - self.y0_embedding))

    @classmethod
    def synthetic(cls, distance: float, dimension: int = 16,
                  y1_text: str = "signal-target", y0_text: str = "signal-control") -> "SignalPair":
        if not (0.0 < distance <= 2.0):
            raise ValueError(f"distance must lie in (0, 2], got {distance}")
        if dimension < 2:
            raise ValueError("need at least two dimensions")
        half = distance / 2.0
        a = math.sqrt(1.0 - half * half)
        y1 = np.zeros(dimension)
        y0 = np.zeros(dimension)
        y1[0] = a
        y0[0] = a
        y1[1] = half
        y0[1] = -half
        return cls(y1_text=y1_text, y0_text=y0_text, y1_embedding=y1, y0_embedding=y0)

    @classmethod
    def from_catalog(cls, distance: float, dimension: int = 16) -> "SignalPair":
        """Shipped signal-text pair at one of the tabulated L2 distances."""
        for entry in load_signal_catalog():
            if math.isclose(entry["l2_distance"], distance, abs_tol=1e-9):
                pair = cls.synthetic(distance, dimension,
                                     y1_text=entry["y1"], y0_text=entry["y0"])
                return pair
        raise KeyError(f"no catalog pair at distance {distance}; known: {catalog_distances()}")


def load_signal_catalog() -> list[dict]:
    text = resources.files("dpicl_audit").joinpath("data/signal_pairs.json").read_text("utf-8")
    return json.loads(text)


def catalog_distances() -> tuple[float, ...]:
    return tuple(entry["l2_distance"] for entry in load_signal_catalog())


class CanaryDetector:
    """Answers from canary membership alone: ``answers[1]`` when the subset
    holds the canary and ``answers[0]`` otherwise, then flips with p_flip; a
    zero-shot call (subset None) flips a fair coin.

    ``answers`` is ``(no_index, yes_index)`` for votes over ``num_classes``
    classes, else the ``(y0, y1)`` embeddings, 1-D and of one length.
    """

    def __init__(self, answers: tuple, num_classes: Optional[int] = None,
                 flip_probability: float = 0.0):
        if not (0.0 <= flip_probability <= 0.5):
            raise ValueError(f"flip_probability must lie in [0, 0.5], got {flip_probability}")
        if num_classes is not None:
            no, yes = answers
            if not (0 <= yes < num_classes and 0 <= no < num_classes):
                raise ValueError(f"yes/no indices {yes}/{no} must address the "
                                 f"{num_classes}-class label set")
            if yes == no:
                raise ValueError("yes and no must be distinct classes")
        elif list(map(np.ndim, answers)) != [1, 1] or len(answers[0]) != len(answers[1]):
            raise ValueError("embedding answers must be two 1-D arrays of one length")
        self.answers = tuple(answers)
        self.num_classes = num_classes
        self.flip_probability = flip_probability
        self._rows = np.array(answers, dtype=np.float64 if num_classes is None else np.int64)

    def respond(self, subset: Optional[ExemplarSubset], query: str, rng: np.random.Generator):
        if subset is None:
            return self.answers[rng.random() < 0.5]
        saw_canary = subset.contains_canary
        if self.flip_probability > 0.0 and rng.random() < self.flip_probability:
            saw_canary = not saw_canary
        return self.answers[saw_canary]

    def responses(self, ctx: str, subsets: list[ExemplarSubset], n_llm: int,
                  seed: int) -> np.ndarray:
        """Trials 0..n_llm-1 of ``ctx``, (n_llm, T) votes or (n_llm, T, d)
        embeddings, as ``respond`` answers each trial on ``_trial_rng(seed,
        ctx, trial, 0)``: T draws of flips; a flip-free detector builds none."""
        saw = np.tile([subset.contains_canary for subset in subsets], (n_llm, 1))
        if self.flip_probability > 0.0:
            saw ^= np.array([_trial_rng(seed, ctx, trial, 0).random(len(subsets))
                             for trial in range(n_llm)]) < self.flip_probability
        return self._rows[saw.astype(np.intp)]


# The one encoder of record values: what json.dumps(..., separators=(",", ":"))
# writes, so floats keep their repr and NaN/Infinity their JSON-extension names.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _record_line(ctx: str, trial: int, part: int, kind: str, value) -> str:
    """One record's wire line, without its newline: the JSON object
    {"ctx", "trial", "part", then "vote" or "emb" as ``kind`` says}, compact.

    ``ctx`` is one of the two context labels and ``trial`` and ``part`` are
    ints, so they are written as they are; only ``value`` is encoded.
    """
    return f'{{"ctx":"{ctx}","trial":{trial},"part":{part},"{kind}":{_encode(value)}}}'


def companion_path(records_path: Union[str, Path]) -> Path:
    """Where the binary companion of the records file ``records_path`` lives."""
    return Path(f"{records_path}.npy")


def _write_responses(path: Union[str, Path], responses: dict[str, np.ndarray]) -> None:
    """Append the records of ``collect``'s per-partition responses, one
    ``_record_line`` per (ctx, trial, part) in that order, formatted straight
    from the arrays.

    Into a file that was empty, with every value finite (JSON keeps no NaN
    payload), it also writes the companion: one structured record of the
    written bytes' SHA-256 and each ctx's grid, saved with ``np.save`` and
    moved into place atomically.
    """
    lines = []
    for ctx, grid in responses.items():
        kind = "vote" if grid.ndim == 2 else "emb"
        lines.extend(_record_line(ctx, trial, part, kind, value) + "\n"
                     for trial, row in enumerate(grid.tolist()) for part, value in enumerate(row))
    data = "".join(lines).encode("utf-8")
    with open(path, "ab") as handle:
        fresh = handle.tell() == 0
        handle.write(data)
    if not (fresh and data and all(np.isfinite(grid).all() for grid in responses.values())):
        return
    fields = [("sha256", np.uint8, 32),
              *((ctx, grid.dtype, grid.shape) for ctx, grid in responses.items())]
    record = np.array((np.frombuffer(hashlib.sha256(data).digest(), dtype=np.uint8),
                       *responses.values()), dtype=fields)
    companion = companion_path(path)
    partial = companion.with_name(companion.name + ".tmp")
    try:
        with open(partial, "wb") as handle:
            np.save(handle, record)
        os.replace(partial, companion)
    finally:
        partial.unlink(missing_ok=True)


def zero_shot_candidates(oracle, query: str, pool_size: int, seed: int) -> list[np.ndarray]:
    """Candidate pool from zero-shot oracle calls (no exemplar context), each
    clipped to the unit ball as the mechanism clips the partition embeddings.
    A non-finite embedding raises OracleError."""
    if pool_size < 1:
        raise ValueError("pool_size must be positive")
    rng = np.random.default_rng([seed, 201])
    pool = []
    for call in range(pool_size):
        candidate = oracle.respond(None, query, rng)
        if not np.isfinite(candidate).all():
            raise OracleError(f"non-finite embedding from zero-shot call {call}")
        pool.append(clip_to_unit(candidate))
    return pool


@dataclass
class CleanCollection:
    """Clean responses for both hypotheses.

    ``responses`` maps each ctx to its per-partition responses, (n_llm, T)
    votes or (n_llm, T, d) embeddings; ``clean_with`` and ``clean_without``
    are their per-trial aggregates, (n_llm, classes) vote counts or (n_llm, d)
    mean embeddings.
    """

    task: str  # "classification" | "generation"
    clean_with: np.ndarray
    clean_without: np.ndarray
    responses: dict[str, np.ndarray]
    failures: int = 0

# ctx field -> the code a ReplayOracle keeps per record
_CTX_CODES = {CTX_WITH: 0, CTX_WITHOUT: 1}
_VOTE_FIELDS = frozenset(("ctx", "trial", "part", "vote"))
_EMB_FIELDS = frozenset(("ctx", "trial", "part", "emb"))


def _read_bytes(path: Union[str, Path], kind: str, error: type[Exception]) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise error(f"{kind} {path} cannot be read: {exc.strerror}") from None


def _text_lines(data: bytes, path: Union[str, Path], kind: str,
                error: type[Exception]) -> list[str]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{kind} {path} is not UTF-8 text: {exc}") from None
    # lines end at LF, CRLF or CR, as text mode reads them; each loses only
    # the spaces and tabs JSON allows around a value, so a line padded with
    # other whitespace (U+00A0, U+2028) stays invalid JSON
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [line.strip(" \t") for line in text.split("\n")]


def read_lines(path: Union[str, Path], kind: str, error: type[Exception]) -> list[str]:
    """The lines of a UTF-8 text file, stripped of spaces and tabs; one that
    cannot be read (a directory, say) or is not UTF-8 raises ``error``
    naming the file as a ``kind``."""
    return _text_lines(_read_bytes(path, kind, error), path, kind, error)


def _integers(values: tuple, field: str) -> np.ndarray:
    if set(map(type, values)) != {int}:
        raise ValueError(f"{field} must be an integer")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{field} does not fit in 64 bits") from None


def _record_columns(payloads: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parsed JSON records as columns: ctx codes, trial ids, partition ids,
    and the votes (n,) or float64 embeddings (n, d).

    Raises ValueError saying what breaks the wire format: one record's
    fault, or, when every record is well-formed alone, the stream's (votes
    mixed with embeddings, or embeddings of different lengths).
    """
    if set(map(type, payloads)) != {dict}:
        raise ValueError("a record is not a JSON object")
    fields = set(map(frozenset, payloads))
    if not fields <= {_VOTE_FIELDS, _EMB_FIELDS}:
        raise ValueError("a record's fields are not ctx, trial, part and one of vote or emb")
    if len(fields) != 1:
        raise ValueError("record stream mixes votes and embeddings")
    kind = "vote" if _VOTE_FIELDS in fields else "emb"
    ctx, trial, part, responses = zip(*map(operator.itemgetter("ctx", "trial", "part", kind),
                                           payloads))
    try:
        codes = np.fromiter(map(_CTX_CODES.__getitem__, ctx), dtype=np.int8, count=len(ctx))
    except (KeyError, TypeError):
        bad = next(c for c in ctx if not (isinstance(c, str) and c in _CTX_CODES))
        raise ValueError(f"ctx must be '{CTX_WITH}' or '{CTX_WITHOUT}', got {bad!r}") from None
    trial, part = _integers(trial, "trial"), _integers(part, "part")
    if kind == "vote":
        return codes, trial, part, _integers(responses, "vote")
    try:
        emb = np.array(responses)
    except (ValueError, OverflowError):  # lists of different lengths
        emb = None
    if emb is None or emb.ndim != 2 or emb.dtype.kind not in "iuf":
        raise ValueError("emb must be a list of numbers, of one length in every record")
    return codes, trial, part, emb.astype(np.float64, copy=False)


def _json_columns(path: Union[str, Path], lines: list[str],
                  body: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_record_columns`` of a records file's non-blank lines ``body``, parsed
    with one ``json.loads`` over them joined as one JSON array.

    Only when that parse or the columns fail are ``lines`` parsed one by one,
    to name the first malformed line; a fault of the stream as a whole names
    the file. Raises OracleError.
    """
    try:
        payloads = json.loads("[" + ",".join(body) + "]")
        # each line one object: else a line holding two could stand in for
        # one object split over two lines
        if len(payloads) != len(body) or not all(line[0] == "{" and line[-1] == "}"
                                                 for line in body):
            raise ValueError("not one JSON object per line")
        return _record_columns(payloads)
    except ValueError as exc:
        for number, line in enumerate(lines, 1):
            if line:
                try:
                    _record_columns([json.loads(line)])
                except ValueError as fault:
                    raise OracleError(f"malformed record at {path}:{number}: {fault}") from None
        raise OracleError(f"{exc} ({path})") from None


def _companion_columns(path: Union[str, Path],
                       data: bytes) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray,
                                                      np.ndarray]]:
    """The columns of the records file ``path``, whose bytes are ``data``,
    rebuilt from its companion's grids in ``_write_responses``'s record
    order; None when there is no companion, it cannot be read as one, or
    its digest is not the SHA-256 of ``data``."""
    try:
        with open(companion_path(path), "rb") as handle:
            record = np.lib.format.read_array(handle, allow_pickle=False)
        names = record.dtype.names or ()
        if (record.shape != () or names[:1] != ("sha256",)
                or not set(names[1:]) <= set(_CTX_CODES)
                or record["sha256"].tobytes() != hashlib.sha256(data).digest()):
            return None
    except (OSError, ValueError):
        return None
    columns = []
    for ctx in names[1:]:
        grid = record[ctx]
        trials, parts = grid.shape[:2]
        columns.append((np.full(trials * parts, _CTX_CODES[ctx], dtype=np.int8),
                        np.repeat(np.arange(trials, dtype=np.int64), parts),
                        np.tile(np.arange(parts, dtype=np.int64), trials),
                        grid.reshape(trials * parts, *grid.shape[2:])))
    return tuple(map(np.concatenate, zip(*columns)))


class ReplayOracle:
    """Serves recorded responses keyed by (ctx, trial, partition).

    The records are held as columns in stream order: ctx codes, trial and
    partition ids, and the votes (n,) or embeddings (n, d). ``collect`` takes
    each arm's responses from them with one index lookup (``responses``).
    A vote stream takes the configured label set's size, ``num_classes``;
    an embedding stream's ``num_classes`` is None.
    """

    def __init__(self, ctx: np.ndarray, trial: np.ndarray, part: np.ndarray,
                 responses: np.ndarray, num_classes: Optional[int] = None):
        self._ctx, self._trial, self._part = ctx, trial, part
        self._responses = responses
        if responses.ndim > 1:
            num_classes = None
        elif num_classes is None:
            raise ValueError("a vote stream needs the label set's size, num_classes")
        self.num_classes = num_classes

    @classmethod
    def from_file(cls, path: Union[str, Path], num_classes: Optional[int] = None) -> "ReplayOracle":
        """Read a records file. Its bytes are read once; when its companion
        (``companion_path``) holds their SHA-256, the columns are rebuilt
        from the companion's grids (``_companion_columns``), so only the
        exact bytes ``collect`` wrote take this path. Any other file (no
        companion, an unreadable one, or another digest) is decoded from the
        same bytes and parsed the general way (``_json_columns``), which
        names the first malformed line, or the file for a fault of the
        stream as a whole.
        ``num_classes`` is the configured label set's size, which bounds the
        votes; a vote stream requires it.
        """
        data = _read_bytes(path, "records file", OracleError)
        columns = _companion_columns(path, data)
        if columns is None:
            lines = _text_lines(data, path, "records file", OracleError)
            body = [line for line in lines if line]
            if not body:
                raise OracleError("no records to replay")
            columns = _json_columns(path, lines, body)
        return cls(*columns, num_classes=num_classes)

    def responses(self, ctx: str, subsets: list[ExemplarSubset], n_llm: int,
                  seed: int) -> np.ndarray:
        """Trials 0..n_llm-1 of ``ctx`` as recorded, (n_llm, T) votes or
        (n_llm, T, d) embeddings, gathered with one index lookup (no seed).

        A key recorded more than once serves its last record. Records of
        other trials or partitions are ignored; the first key missing, in
        (trial, part) order, raises.
        """
        num_partitions = len(subsets)
        mine = self._ctx == _CTX_CODES[ctx]
        have = np.unique(self._trial[mine]).size
        if have < n_llm:
            raise OracleError(f"replay stream has {have} trials for '{ctx}', need {n_llm}")
        wanted = np.flatnonzero(mine & (self._trial >= 0) & (self._trial < n_llm)
                                & (self._part >= 0) & (self._part < num_partitions))
        latest = np.full(n_llm * num_partitions, -1, dtype=np.intp)  # record per (trial, part)
        np.maximum.at(latest, self._trial[wanted] * num_partitions + self._part[wanted], wanted)
        missing = np.flatnonzero(latest < 0)
        if missing.size:
            trial, part = divmod(int(missing[0]), num_partitions)
            raise OracleError(f"no recorded response for ({ctx}, trial={trial}, part={part})")
        return self._responses[latest].reshape(n_llm, num_partitions, *self._responses.shape[1:])


def collect(
    oracle,
    pair: NeighboringPair,
    query: str,
    num_partitions: int,
    n_llm: int,
    *,
    seed: int = 0,
    records_path: Optional[Union[str, Path]] = None,
    workers: int = 1,
    retry_budget: int = 0,
) -> CleanCollection:
    """Run the partition-and-query pipeline n_llm times per hypothesis, no DP noise.

    The oracle's ``num_classes`` names the task: votes over that many classes,
    or embeddings when it is None. Each arm's responses form one array,
    aggregated at once by ``mechanisms.aggregate``: one ``responses`` call
    where the oracle answers an arm (a canary detector, a replay), else one
    ``respond`` per partition and trial, the trials on ``workers`` threads.
    A vote outside the label set, or a non-finite embedding, raises
    OracleError naming the first such response; per-partition embeddings of
    unequal lengths raise it naming the arm. A ``respond`` failure is retried
    at the same trial index with a fresh derived stream, each retry
    consuming the shared budget; an exhausted budget aborts the arm. Records
    go out in (hypothesis, trial, partition) order, whatever the worker count.
    """
    if n_llm < 1:
        raise ValueError(f"n_llm must be positive, got {n_llm}")
    if workers < 1:
        raise ValueError("workers must be positive")

    num_classes = oracle.num_classes
    task = "generation" if num_classes is None else "classification"

    responses: dict[str, np.ndarray] = {}
    clean: dict[str, np.ndarray] = {}
    budget = {"left": retry_budget, "failures": 0}
    budget_lock = threading.Lock()

    for ctx_label, subsets in zip((CTX_WITH, CTX_WITHOUT), pair.partitions(num_partitions)):
        def run_trial(trial: int):
            attempt = 0
            while True:
                rng = _trial_rng(seed, ctx_label, trial, attempt)
                try:
                    return [oracle.respond(subset, query, rng) for subset in subsets]
                except OracleError:
                    with budget_lock:
                        if budget["left"] <= 0:
                            raise
                        budget["left"] -= 1
                        budget["failures"] += 1
                    attempt += 1

        if hasattr(oracle, "responses"):
            grid = oracle.responses(ctx_label, subsets, n_llm, seed)
        else:
            per_trial = map_in_order(run_trial, range(n_llm), workers)
            if task == "generation":
                lengths = {len(reply) for replies in per_trial for reply in replies}
                if len(lengths) > 1:
                    raise OracleError(f"embeddings of lengths {sorted(lengths)} in the "
                                      f"'{ctx_label}' arm; every reply must have one length")
            grid = np.array(per_trial, dtype=np.int64 if task == "classification" else np.float64)
        if task == "classification":
            outside = (grid < 0) | (grid >= num_classes)
            if outside.any():
                raise OracleError(f"vote {grid.flat[np.argmax(outside)]} outside the "
                                  f"{num_classes}-class label set")
        else:
            bad = ~np.isfinite(grid).all(axis=2)
            if bad.any():
                trial, part = np.unravel_index(np.argmax(bad), bad.shape)
                raise OracleError(f"non-finite embedding at ({ctx_label}, trial={trial}, "
                                  f"part={part})")
        responses[ctx_label] = grid
        # looked up on the module at each call, so the aggregate is the one
        # ``mechanisms`` holds, substitutes included
        clean[ctx_label] = mechanisms.aggregate(grid, num_classes)

    collection = CleanCollection(task=task, clean_with=clean[CTX_WITH],
                                 clean_without=clean[CTX_WITHOUT], responses=responses,
                                 failures=budget["failures"])
    if records_path is not None:
        _write_responses(records_path, responses)
    return collection


# ---------------------------------------------------------------------------
# External responder adapter
# ---------------------------------------------------------------------------

_MARKER = re.compile(r"\{(\w+)\}")  # a template's {name} placeholder


def load_template(template_id: str) -> str:
    path = resources.files("dpicl_audit").joinpath(f"templates/{template_id}.txt")
    try:
        return path.read_text("utf-8")
    except FileNotFoundError:
        raise KeyError(f"unknown template id {template_id!r}") from None


def render_template(template_text: str, **placeholders: str) -> str:
    """Each {name} marker of the template replaced by its placeholder's text,
    in one pass: text put in is never scanned again, and a marker with no
    placeholder stays as it is."""
    return _MARKER.sub(lambda marker: placeholders.get(marker[1], marker[0]), template_text)


def format_exemplars(subset: Optional[ExemplarSubset]) -> str:
    if subset is None:
        return ""
    lines = []
    for exemplar in subset.exemplars:
        if exemplar.text_out:
            lines.append(f"{exemplar.text_in} -> {exemplar.text_out}")
        else:
            lines.append(exemplar.text_in)
    return "\n".join(lines)


class HttpTransport:
    """Single-POST-endpoint transport; path and auth header come from config."""

    def __init__(self, endpoint: str, auth_header: Optional[str] = None,
                 auth_token: Optional[str] = None, timeout: float = 30.0):
        self.endpoint = endpoint
        self.auth_header = auth_header
        self.auth_token = auth_token
        self.timeout = timeout

    def __call__(self, request: dict) -> dict:
        # imported here: only this transport needs it, and it adds to every
        # command's start-up
        import requests

        headers = {"Content-Type": "application/json"}
        if self.auth_header and self.auth_token:
            headers[self.auth_header] = self.auth_token
        try:
            response = requests.post(self.endpoint, data=_encode(request).encode("utf-8"),
                                     headers=headers, timeout=self.timeout)
            response.raise_for_status()
            return response.json()
        except (requests.RequestException, ValueError) as exc:
            raise OracleError(f"responder endpoint failed: {exc}") from exc


class FileTransport:
    """Offline batch transport: pre-recorded responses served in request order.

    Every request is appended to the request log as it is issued, so the
    operator can regenerate responses for exactly the prompts the audit
    asked for. A responses line that is not JSON raises OracleError naming
    ``path:line``.
    """

    def __init__(self, responses_path: Union[str, Path],
                 requests_log_path: Optional[Union[str, Path]] = None):
        self._responses: list[dict] = []
        for number, line in enumerate(read_lines(responses_path, "responses file", OracleError), 1):
            if line:
                try:
                    self._responses.append(json.loads(line))
                except ValueError as exc:
                    raise OracleError(f"malformed response at {responses_path}:{number}: "
                                      f"{exc}") from None
        self._cursor = 0
        self._log_path = Path(requests_log_path) if requests_log_path else None
        if self._log_path:
            self._log_path.write_text("", encoding="utf-8")

    def __call__(self, request: dict) -> dict:
        if self._log_path:
            with open(self._log_path, "a", encoding="utf-8") as handle:
                handle.write(_encode(request) + "\n")
        if self._cursor >= len(self._responses):
            raise OracleError("response file exhausted before the collection finished")
        response = self._responses[self._cursor]
        self._cursor += 1
        return response


def emit_requests(
    path: Union[str, Path],
    oracle: Responder,
    pair: NeighboringPair,
    query: str,
    num_partitions: int,
    n_llm: int,
    zero_shot: int = 0,
) -> int:
    """Write the full request batch for an offline responder run.

    Each request is the responder ``oracle``'s own, in the order a run
    issues them: ``zero_shot`` zero-shot calls (an audit's candidate pool),
    then the collection's partition calls. So the batch is the request log
    of a file-responder run of the command that draws that many candidates.
    """
    count = zero_shot
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines([_encode(oracle.request(None, query)) + "\n"] * zero_shot)
        for subsets in pair.partitions(num_partitions):
            # every trial issues the same requests
            lines = [_encode(oracle.request(subset, query)) + "\n" for subset in subsets]
            handle.writelines(lines * n_llm)
            count += len(lines) * n_llm
    return count


class Responder:
    """Renders a prompt template for each partition, sends it through
    ``transport`` and maps the reply text onto its answer by exact match.

    ``replies`` maps each reply text to its answer: a label to its vote
    index over ``num_classes`` classes, or a signal text to its embedding
    when ``num_classes`` is None; an embedding responder also takes a raw
    ``emb`` reply as the embedding. The template's ``{context}`` marker
    takes the partition's exemplars, ``{query}`` the query (``canary_text``
    when none is given), and each of ``markers`` its text (for generation,
    ``{y1_text}`` and ``{y0_text}``), all in one pass, so no filled-in text
    is read as a marker. A template marker the responder does not fill
    raises ValueError.
    """

    def __init__(self, transport: Optional[Callable[[dict], dict]], template_id: str,
                 replies: dict, canary_text: str, num_classes: Optional[int] = None,
                 markers: Optional[dict[str, str]] = None,
                 temperature: float = 0.0, max_tokens: int = 16):
        self.transport = transport
        self.template_id = template_id
        self.template = load_template(template_id)
        self.replies = dict(replies)
        self.canary_text = canary_text
        self.num_classes = num_classes
        self.markers = dict(markers or {})
        self.temperature = float(temperature)
        self.max_tokens = int(max_tokens)
        unfilled = set(_MARKER.findall(self.template)) - {"context", "query", *self.markers}
        if unfilled:
            raise ValueError(f"template {template_id!r} keeps markers the responder does not "
                             f"fill: {', '.join(sorted(unfilled))}")

    def request(self, subset: Optional[ExemplarSubset], query: str) -> dict:
        """The wire request for one partition (``None`` for zero-shot):
        {template_id, rendered_prompt, decode: {temperature, max_tokens}}."""
        prompt = render_template(self.template, context=format_exemplars(subset),
                                 query=query or self.canary_text, **self.markers)
        return {"template_id": self.template_id, "rendered_prompt": prompt,
                "decode": {"temperature": self.temperature, "max_tokens": self.max_tokens}}

    def respond(self, subset: Optional[ExemplarSubset], query: str, rng: np.random.Generator):
        reply = self.transport(self.request(subset, query))
        if not isinstance(reply, dict):
            raise ResponseParseError(f"reply {reply!r} is not a JSON object")
        if self.num_classes is None and "emb" in reply:
            try:
                emb = np.asarray(reply["emb"], dtype=np.float64)
            except (TypeError, ValueError):
                emb = None
            if emb is None or emb.ndim != 1:
                raise ResponseParseError(f"emb reply {reply['emb']!r} is not a list of numbers")
            return emb
        text = str(reply.get("text", "")).strip()
        try:
            return self.replies[text]
        except KeyError:
            raise ResponseParseError(f"response {text!r} matches no configured reply") from None
