import json
import math
import re
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpicl_audit import oracles
from dpicl_audit.audit import _clean_matrix
from dpicl_audit.mechanisms import Exemplar, NeighboringPair
from dpicl_audit.oracles import (
    CTX_WITH,
    CTX_WITHOUT,
    CanaryDetector,
    FileTransport,
    HttpTransport,
    OracleError,
    ReplayOracle,
    Responder,
    ResponseParseError,
    SignalPair,
    catalog_distances,
    collect,
    emit_requests,
    format_exemplars,
    load_signal_catalog,
    load_template,
    render_template,
    zero_shot_candidates,
    _encode,
    _record_columns,
    _record_line,
    _write_responses,
)
from reference import DictReplayOracle, collect_replay, read_records, record_lines


def make_pair(n=10, canary_index=0):
    base = [Exemplar(f"in {i}", f"out {i}") for i in range(n)]
    return NeighboringPair(base, Exemplar("CANARY", "canary out"), canary_index)


PAIR = make_pair()
SUBSET_WITH, SUBSET_WITHOUT = (subsets[0] for subsets in PAIR.partitions(10))
TEMPLATES = Path(__file__).resolve().parents[1] / "src" / "dpicl_audit" / "templates"


def vote_detector(flip_probability=0.0):
    """The two-class canary detector: yes is class 0, no is class 1."""
    return CanaryDetector((1, 0), num_classes=2, flip_probability=flip_probability)


def embedding_detector(signal):
    return CanaryDetector((signal.y0_embedding, signal.y1_embedding))


def vote_responder(transport, template_id="audit_classification"):
    return Responder(transport, template_id, {"Yes": 0, "No": 1}, "CANARY", num_classes=2)


def signal_responder(transport, signal, template_id="audit_generation_blackbox"):
    return Responder(transport, template_id,
                     {signal.y0_text: signal.y0_embedding, signal.y1_text: signal.y1_embedding},
                     "CANARY", markers={"y1_text": signal.y1_text, "y0_text": signal.y0_text})


class TestCanaryDetectorVote:
    def test_deterministic_answers(self):
        oracle = vote_detector()
        rng = np.random.default_rng(0)
        assert oracle.num_classes == 2
        assert oracle.respond(SUBSET_WITH, "CANARY", rng) == 0
        assert oracle.respond(SUBSET_WITHOUT, "CANARY", rng) == 1

    def test_flip_rate(self):
        oracle = vote_detector(flip_probability=0.1)
        rng = np.random.default_rng(5)
        draws = 100_000
        yes = sum(oracle.respond(SUBSET_WITH, "CANARY", rng) == 0 for _ in range(draws))
        assert abs(yes / draws - 0.9) <= 0.005

    def test_config_validation(self):
        with pytest.raises(ValueError):
            vote_detector(flip_probability=0.6)
        with pytest.raises(ValueError):
            CanaryDetector((0, 0), num_classes=2)
        with pytest.raises(ValueError, match="yes/no indices 5/1 must address the 2-class"):
            CanaryDetector((1, 5), num_classes=2)


class TestSignalPair:
    def test_synthetic_hits_requested_distance(self):
        for d in catalog_distances():
            pair = SignalPair.synthetic(d, 16)
            assert pair.l2_distance == pytest.approx(d, abs=1e-12)
            assert np.linalg.norm(pair.y1_embedding) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(pair.y0_embedding) == pytest.approx(1.0, abs=1e-12)

    def test_dot_product_relation(self):
        pair = SignalPair.synthetic(0.7476, 16)
        dot = float(pair.y1_embedding @ pair.y0_embedding)
        assert dot == pytest.approx(1.0 - 0.7476**2 / 2.0, abs=1e-12)

    def test_catalog_carries_texts(self):
        pair = SignalPair.from_catalog(0.7476)
        assert "old clock" in pair.y1_text
        assert pair.l2_distance == pytest.approx(0.7476, abs=1e-12)

    def test_catalog_table(self):
        table = load_signal_catalog()
        assert len(table) == 5
        assert sorted(catalog_distances()) == [0.1022, 0.4628, 0.5562, 0.645, 0.7476]

    def test_unknown_distance_rejected(self):
        with pytest.raises(KeyError):
            SignalPair.from_catalog(0.123)


class TestCanaryDetectorEmbedding:
    def test_deterministic_answers(self):
        pair = SignalPair.synthetic(0.7476)
        oracle = embedding_detector(pair)
        rng = np.random.default_rng(0)
        assert oracle.num_classes is None
        np.testing.assert_array_equal(oracle.respond(SUBSET_WITH, "q", rng), pair.y1_embedding)
        np.testing.assert_array_equal(oracle.respond(SUBSET_WITHOUT, "q", rng), pair.y0_embedding)

    def test_zero_shot_is_fair(self):
        pair = SignalPair.synthetic(0.7476)
        oracle = embedding_detector(pair)
        rng = np.random.default_rng(9)
        draws = 100_000
        y1 = sum(np.array_equal(oracle.respond(None, "q", rng), pair.y1_embedding)
                 for _ in range(draws))
        assert abs(y1 / draws - 0.5) <= 0.005


class TestCollect:
    def test_deterministic_vote_vectors(self):
        oracle = vote_detector()
        got = collect(oracle, PAIR, "CANARY", 10, 3, seed=0)
        assert got.clean_with.tolist() == [[1, 9]] * 3
        assert got.clean_without.tolist() == [[0, 10]] * 3
        assert {ctx: grid.shape for ctx, grid in got.responses.items()} == {
            CTX_WITH: (3, 10), CTX_WITHOUT: (3, 10)}

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            collect(vote_detector(), PAIR, "CANARY", 10, 0)

    def test_flip_rate_through_pipeline(self):
        pair = make_pair(8)
        oracle = vote_detector(flip_probability=0.1)
        got = collect(oracle, pair, "CANARY", 4, 500, seed=3)
        yes_counts = got.clean_with[:, 0]
        # 1 * 0.9 + 3 * 0.1 yes votes expected per trial
        se = math.sqrt(0.36 / 500)
        assert abs(np.mean(yes_counts) - 1.2) <= 3 * se

    def test_generation_midpoint_mean(self):
        # two partitions, canary in one: the clean mean sits at the midpoint
        pair = make_pair(2)
        signal = SignalPair.synthetic(0.7476)
        oracle = embedding_detector(signal)
        got = collect(oracle, pair, "CANARY", 2, 1, seed=0)
        midpoint = (signal.y1_embedding + signal.y0_embedding) / 2.0
        np.testing.assert_allclose(got.clean_with[0], midpoint)
        np.testing.assert_allclose(got.clean_without[0], signal.y0_embedding)
        # one 16-d response per partition and context behind the two means
        assert {ctx: grid.shape for ctx, grid in got.responses.items()} == {
            CTX_WITH: (1, 2, 16), CTX_WITHOUT: (1, 2, 16)}

    def test_deterministic_given_seed(self):
        oracle = vote_detector(flip_probability=0.2)
        a = collect(oracle, PAIR, "CANARY", 5, 20, seed=77)
        b = collect(oracle, PAIR, "CANARY", 5, 20, seed=77)
        c = collect(oracle, PAIR, "CANARY", 5, 20, seed=78)
        assert a.clean_with.tolist() == b.clean_with.tolist()
        assert a.clean_with.tolist() != c.clean_with.tolist()

    @staticmethod
    def counting_generators(built: list):
        """``np.random.default_rng`` as ``oracles`` sees it, recording each key."""
        default_rng = np.random.default_rng

        def counting(key):
            built.append(tuple(key))
            return default_rng(key)

        return mock.patch.object(oracles.np.random, "default_rng", counting)

    def test_trial_generators_are_built_on_first_draw(self, tmp_path):
        # a flip-free detector never draws and builds no generator; one that
        # flips builds one per trial and arm, and draws what default_rng
        # gives for the trial's (seed, arm code, trial, attempt 0)
        pair, n_llm, seed, built = make_pair(8), 30, 5, []
        with self.counting_generators(built):
            collect(vote_detector(), pair, "CANARY", 4, n_llm, seed=seed)
            assert built == []
            got = collect(vote_detector(0.1), pair, "CANARY", 4, n_llm, seed=seed,
                          records_path=tmp_path / "records.jsonl")
        codes = {CTX_WITH: 101, CTX_WITHOUT: 102}
        assert built == [(seed, codes[ctx], trial, 0) for ctx in codes for trial in range(n_llm)]
        oracle, records = vote_detector(0.1), []
        for (ctx, code), subsets in zip(codes.items(), pair.partitions(4)):
            votes = []
            for trial in range(n_llm):
                rng = np.random.default_rng([seed, code, trial, 0])
                votes.append([oracle.respond(subset, "CANARY", rng) for subset in subsets])
            counts = np.array([np.bincount(row, minlength=2) for row in votes])
            clean = got.clean_with if ctx == CTX_WITH else got.clean_without
            assert got.responses[ctx].tobytes() == np.array(votes, dtype=np.int64).tobytes()
            assert clean.tobytes() == counts.tobytes()
            records += [{"ctx": ctx, "trial": trial, "part": part, "vote": vote}
                        for trial, row in enumerate(votes) for part, vote in enumerate(row)]
        assert (tmp_path / "records.jsonl").read_bytes() == record_lines(records).encode()

    def test_retries_draw_from_the_next_attempt(self):
        # the first call draws and fails; its trial is retried with attempt 1
        class FailsOnce(CanaryDetector):
            failed = False

            def respond(self, subset, query, rng):
                answer = super().respond(subset, query, rng)
                if not self.failed:
                    self.failed = True
                    raise OracleError("transient")
                return answer

        built = []
        with self.counting_generators(built):
            got = collect(FailsOnce((1, 0), num_classes=2, flip_probability=0.1), make_pair(8),
                          "CANARY", 4, 2, seed=5, retry_budget=1)
        assert got.failures == 1
        assert built == [(5, 101, 0, 0), (5, 101, 0, 1), (5, 101, 1, 0),
                         (5, 102, 0, 0), (5, 102, 1, 0)]

    def test_worker_count_does_not_change_results(self, tmp_path):
        oracle = vote_detector(flip_probability=0.2)
        a = collect(oracle, PAIR, "CANARY", 5, 30, seed=5, workers=1,
                    records_path=tmp_path / "a.jsonl")
        b = collect(oracle, PAIR, "CANARY", 5, 30, seed=5, workers=8,
                    records_path=tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert a.clean_with.tobytes() == b.clean_with.tobytes()


class TestRecords:
    def test_wire_format_fields(self):
        vote_line = _record_line("with", 3, 1, "vote", 0)
        assert json.loads(vote_line) == {"ctx": "with", "trial": 3, "part": 1, "vote": 0}
        emb_line = _record_line("without", 0, 2, "emb", [0.5, -0.5])
        assert json.loads(emb_line) == {"ctx": "without", "trial": 0, "part": 2, "emb": [0.5, -0.5]}

    def test_exactly_one_payload(self):
        with pytest.raises(ValueError, match="fields are not"):
            _record_columns([{"ctx": "with", "trial": 0, "part": 0}])
        with pytest.raises(ValueError, match="fields are not"):
            _record_columns([{"ctx": "with", "trial": 0, "part": 0, "vote": 1, "emb": [1.0]}])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        votes = {ctx: np.array([[t % 2] * 2 for t in range(3)]) for ctx in (CTX_WITH, CTX_WITHOUT)}
        _write_responses(path, votes)
        assert read_records(path) == [{"ctx": ctx, "trial": t, "part": p, "vote": t % 2}
                                      for ctx in (CTX_WITH, CTX_WITHOUT)
                                      for t in range(3) for p in range(2)]
        replayed = collect(ReplayOracle.from_file(path, num_classes=2), make_pair(2), "CANARY", 2, 3)
        assert {ctx: grid.tolist() for ctx, grid in replayed.responses.items()} == {
            ctx: grid.tolist() for ctx, grid in votes.items()}

    def test_append_only(self, tmp_path):
        path = tmp_path / "records.jsonl"
        _write_responses(path, {CTX_WITH: np.array([[1]])})
        _write_responses(path, {CTX_WITH: np.array([[0]])})
        assert len(read_records(path)) == 2


_VOTES = st.integers(min_value=-2**63, max_value=2**63 - 1)
_COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, math.nan, math.inf,
                                          -math.inf, 5e-324, 1.7976931348623157e308]),
                         st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def collected_responses(draw):
    """``collect``'s per-partition responses for both contexts: int64 votes
    (n_llm, T) over the whole 64-bit range, or float64 embeddings (n_llm, T, d)."""
    n_llm, T = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        shape, values, dtype = (n_llm, T), _VOTES, np.int64
    else:
        shape, values, dtype = (n_llm, T, draw(st.integers(1, 4))), _COORDINATES, np.float64
    size = math.prod(shape)
    return {ctx: np.array(draw(st.lists(values, min_size=size, max_size=size)),
                          dtype=dtype).reshape(shape)
            for ctx in (CTX_WITH, CTX_WITHOUT)}


class TestRecordsWriter:
    @settings(max_examples=200, deadline=None)
    @given(collected_responses())
    def test_bytes_equal_the_record_lines(self, responses):
        kind = "vote" if next(iter(responses.values())).ndim == 2 else "emb"
        records = [{"ctx": ctx, "trial": trial, "part": part, kind: value}
                   for ctx, grid in responses.items()
                   for trial, row in enumerate(grid.tolist())
                   for part, value in enumerate(row)]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "records.jsonl"
            _write_responses(path, responses)
            got = path.read_bytes()
        # the wire format as json.dumps writes one dict per record
        assert got == record_lines(records).encode()

    def test_collect_writes_what_its_records_read(self, tmp_path):
        path = tmp_path / "records.jsonl"
        signal = SignalPair.synthetic(0.7476)
        got = collect(embedding_detector(signal), PAIR, "CANARY", 4, 5, seed=3,
                      records_path=path)
        assert path.read_text() == record_lines(
            {"ctx": ctx, "trial": trial, "part": part, "emb": value}
            for ctx, grid in got.responses.items()
            for trial, row in enumerate(grid.tolist())
            for part, value in enumerate(row))


class TestReplay:
    def test_round_trip_is_byte_identical(self, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        oracle = vote_detector(flip_probability=0.15)
        original = collect(oracle, PAIR, "CANARY", 4, 25, seed=11, records_path=first)
        replayed = collect(ReplayOracle.from_file(first, num_classes=2), PAIR, "CANARY", 4, 25,
                           seed=999, records_path=second)
        assert first.read_bytes() == second.read_bytes()
        assert original.clean_with.tolist() == replayed.clean_with.tolist()

    def test_replay_reproduces_empirical_distribution(self, tmp_path):
        path = tmp_path / "records.jsonl"
        oracle = vote_detector(flip_probability=0.3)
        original = collect(oracle, PAIR, "CANARY", 4, 50, seed=2, records_path=path)
        replayed = collect(ReplayOracle.from_file(path, num_classes=2), PAIR, "CANARY", 4, 50,
                           seed=3)
        original_counts = sorted(original.clean_with.tolist())
        replayed_counts = sorted(replayed.clean_with.tolist())
        assert original_counts == replayed_counts

    def test_embedding_replay(self, tmp_path):
        path = tmp_path / "records.jsonl"
        signal = SignalPair.synthetic(0.5562, 8)
        oracle = embedding_detector(signal)
        collect(oracle, make_pair(4), "CANARY", 4, 6, seed=0, records_path=path)
        replayed = collect(ReplayOracle.from_file(path), make_pair(4), "CANARY", 4, 6, seed=1)
        assert replayed.task == "generation"
        assert len(replayed.clean_with) == 6

    def test_too_few_recorded_trials(self, tmp_path):
        path = tmp_path / "records.jsonl"
        collect(vote_detector(), PAIR, "CANARY", 4, 5, seed=0, records_path=path)
        with pytest.raises(OracleError):
            collect(ReplayOracle.from_file(path, num_classes=2), PAIR, "CANARY", 4, 6)

    def test_vote_stream_needs_the_label_set_size(self, tmp_path):
        path = tmp_path / "records.jsonl"
        collect(vote_detector(), PAIR, "CANARY", 4, 5, seed=0, records_path=path)
        with pytest.raises(ValueError, match="a vote stream needs the label set's size"):
            ReplayOracle.from_file(path)
        assert ReplayOracle.from_file(path, num_classes=3).num_classes == 3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_embedding_rejected(self, tmp_path, value):
        path = tmp_path / "records.jsonl"
        signal = SignalPair.synthetic(0.5562, 8)
        collect(embedding_detector(signal), make_pair(4), "CANARY", 4, 3, seed=0,
                records_path=path)
        records = read_records(path)
        for record in records:
            if (record["ctx"], record["trial"], record["part"]) == (CTX_WITHOUT, 2, 1):
                record["emb"][5] = value
        path.write_text(record_lines(records))
        replay = ReplayOracle.from_file(path, num_classes=2)
        assert replay.num_classes is None
        with pytest.raises(OracleError, match=r"non-finite embedding at \(without, trial=2, part=1\)"):
            collect(replay, make_pair(4), "CANARY", 4, 3)


@st.composite
def recorded_streams(draw):
    """A records file's lines as a replay may meet them: shuffled, with keys
    recorded twice, trial ids past n_llm or missing, stray partitions, and
    integer-valued embeddings."""
    task = draw(st.sampled_from(["classification", "generation"]))
    T, d, n_llm = draw(st.integers(2, 40)), draw(st.integers(1, 64)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer_valued = draw(st.booleans())

    def value():
        if task == "classification":
            return int(rng.integers(0, 3))
        emb = rng.normal(0.0, 10.0, d)
        return [int(x) for x in np.round(emb)] if integer_valued else emb.tolist()

    # most streams replay; the rest lack a trial or one (trial, part) key
    fault = draw(st.sampled_from([None, None, None, "trial", "key"]))
    keys = []
    for ctx in (CTX_WITH, CTX_WITHOUT):
        dropped = {draw(st.integers(0, n_llm - 1))} if fault == "trial" else set()
        extra = draw(st.sets(st.integers(-2, n_llm + 5), max_size=2))
        for trial in sorted((set(range(n_llm)) - dropped) | extra):
            keys += [(ctx, trial, part) for part in range(T + draw(st.integers(0, 1)))]
    if fault == "key":
        del keys[draw(st.integers(0, len(keys) - 1))]
    if keys:  # keys recorded twice
        keys += [keys[i] for i in rng.integers(0, len(keys), draw(st.integers(0, 5)))]
    field = "vote" if task == "classification" else "emb"
    lines = [json.dumps({"ctx": ctx, "trial": trial, "part": part, field: value()},
                        separators=(",", ":"))
             for ctx, trial, part in (keys[i] for i in rng.permutation(len(keys)))]
    return task, T, n_llm, lines


class TestReplayMatchesReference:
    """The columnar replay against the per-record parse and dict store it
    replaced: the same clean aggregates, byte for byte, the same records
    written as replayed (embeddings unclipped), or the same error."""

    @settings(max_examples=150, deadline=None)
    @given(recorded_streams())
    def test_clean_aggregates_and_errors(self, tmp_path_factory, stream):
        task, T, n_llm, lines = stream
        path = tmp_path_factory.mktemp("replay") / "records.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        # the streams' votes lie in [0, 3); both replays take that label set
        try:
            want = collect_replay(DictReplayOracle.from_file(path), T, n_llm, num_classes=3)
        except OracleError as exc:
            with pytest.raises(OracleError) as info:
                collect(ReplayOracle.from_file(path, num_classes=3), make_pair(T), "CANARY", T,
                        n_llm)
            assert str(info.value) == str(exc)
            return
        written = path.parent / "written.jsonl"
        got = collect(ReplayOracle.from_file(path, num_classes=3), make_pair(T), "CANARY", T,
                      n_llm, records_path=written)
        assert got.task == task
        for clean, reference in ((got.clean_with, want[0]), (got.clean_without, want[1])):
            assert _clean_matrix(clean).tobytes() == _clean_matrix(reference).tobytes()
        assert written.read_text() == record_lines(want[2])


class TestTemplates:
    def test_all_templates_load(self):
        for template_id in ("audit_classification", "audit_generation_whitebox",
                            "audit_generation_blackbox", "baseline_classification_mislabel"):
            assert load_template(template_id)

    def test_unknown_template(self):
        with pytest.raises(KeyError):
            load_template("nope")

    def test_rendering_substitutes_placeholders(self):
        text = load_template("audit_classification")
        rendered = render_template(text, context="CTX", query="QUERY")
        assert "CTX" in rendered and "QUERY" in rendered
        assert "{context}" not in rendered

    def test_generation_template_placeholders(self):
        text = load_template("audit_generation_blackbox")
        rendered = render_template(text, query="C", y1_text="A", y0_text="B", context="")
        assert '"A"' in rendered and '"B"' in rendered

    def test_filled_in_text_is_not_rendered_again(self):
        # an exemplar that holds a marker keeps it: the canary's text goes
        # only where the template asks for it
        rendered = render_template("C: {context} | Q: {query}", context="note {query} here",
                                   query="CANARY")
        assert rendered == "C: note {query} here | Q: CANARY"

    def test_canary_text_keeps_a_signal_marker(self):
        signal = SignalPair.from_catalog(0.7476)
        prompt = signal_responder(None, signal).request(None, "say {y1_text}")["rendered_prompt"]
        # the template quotes {query} three times, and y1's text twice
        assert prompt.count('"say {y1_text}"') == 3
        assert prompt.count(f'"{signal.y1_text}"') == 2

    def test_marker_without_a_placeholder_stays(self):
        assert render_template("{context} {other}", context="x") == "x {other}"

    @pytest.mark.parametrize("template_id", sorted(path.stem for path in TEMPLATES.glob("*.txt")))
    def test_every_template_renders_completely(self, template_id):
        # each shipped template, through its own task's responder
        if "classification" in template_id:
            oracle = vote_responder(None, template_id)
        else:
            oracle = signal_responder(None, SignalPair.from_catalog(0.7476), template_id)
        for subset in (SUBSET_WITH, None):
            prompt = oracle.request(subset, "")["rendered_prompt"]
            assert re.findall(r"\{\w+\}", prompt) == []
            assert "CANARY" in prompt

    @pytest.mark.parametrize("template_id", ["audit_generation_blackbox",
                                             "audit_generation_whitebox"])
    def test_unfilled_marker_rejected(self, template_id):
        # a classification responder does not fill the signal texts
        with pytest.raises(ValueError, match="keeps markers the responder does not fill: "
                                             "y0_text, y1_text"):
            vote_responder(None, template_id)


class StatefulFakeTransport:
    """Fails the first call, answers from canary membership afterwards."""

    def __init__(self, fail_first=0):
        self.calls = 0
        self.fail_first = fail_first

    def __call__(self, request: dict) -> dict:
        self.calls += 1
        if self.calls <= self.fail_first:
            return {"text": "mumble"}
        context = request["rendered_prompt"].split("<context>\n")[1].split("\n</context>")[0]
        answer = "Yes" if "CANARY" in context else "No"
        return {"text": answer}


class TestResponderVoteOracle:
    def make_oracle(self, transport):
        return vote_responder(transport)

    def test_maps_text_to_class(self):
        oracle = self.make_oracle(StatefulFakeTransport())
        rng = np.random.default_rng(0)
        assert oracle.respond(SUBSET_WITH, "CANARY", rng) == 0
        assert oracle.respond(SUBSET_WITHOUT, "CANARY", rng) == 1

    def test_parse_failure_raises(self):
        oracle = self.make_oracle(StatefulFakeTransport(fail_first=10**9))
        with pytest.raises(ResponseParseError):
            oracle.respond(SUBSET_WITH, "CANARY", np.random.default_rng(0))

    def test_collect_retries_within_budget(self):
        oracle = self.make_oracle(StatefulFakeTransport(fail_first=1))
        got = collect(oracle, PAIR, "CANARY", 2, 3, seed=0, retry_budget=2)
        assert got.failures == 1
        assert len(got.clean_with) == 3

    def test_collect_fails_without_budget(self):
        oracle = self.make_oracle(StatefulFakeTransport(fail_first=1))
        with pytest.raises(ResponseParseError):
            collect(oracle, PAIR, "CANARY", 2, 3, seed=0, retry_budget=0)


class TestResponderEmbeddingOracle:
    def test_raw_vectors_are_recorded_as_returned(self, tmp_path):
        # a responder answering y1's embedding x5: the records keep its
        # norm, the mechanism's aggregate and the zero-shot pool clip it
        signal = SignalPair.synthetic(0.7476, 8)
        raw = 5.0 * signal.y1_embedding
        oracle = signal_responder(lambda request: {"emb": raw.tolist()}, signal)
        path = tmp_path / "records.jsonl"
        got = collect(oracle, make_pair(4), "CANARY", 2, 3, seed=0, records_path=path)
        assert all(record["emb"] == raw.tolist() for record in read_records(path))
        np.testing.assert_allclose(got.clean_with, np.tile(signal.y1_embedding, (3, 1)))
        for candidate in zero_shot_candidates(oracle, "CANARY", 3, seed=0):
            np.testing.assert_allclose(candidate, signal.y1_embedding)

    def test_signal_text_maps_to_its_embedding(self):
        signal = SignalPair.from_catalog(0.7476)
        oracle = signal_responder(lambda request: {"text": f" {signal.y0_text}\n"}, signal)
        assert oracle.num_classes is None
        got = oracle.respond(SUBSET_WITH, "CANARY", np.random.default_rng(0))
        np.testing.assert_array_equal(got, signal.y0_embedding)
        with pytest.raises(ResponseParseError):
            signal_responder(lambda request: {"text": "Yes"}, signal).respond(
                SUBSET_WITH, "CANARY", np.random.default_rng(0))

    @pytest.mark.parametrize("emb", ["abc", [[1.0, 0.0]], [1.0, "x"], 3.0])
    def test_malformed_emb_reply_is_a_parse_failure(self, emb):
        signal = SignalPair.synthetic(0.7476, 2)
        oracle = signal_responder(lambda request: {"emb": emb}, signal)
        with pytest.raises(ResponseParseError, match="is not a list of numbers"):
            oracle.respond(SUBSET_WITH, "CANARY", np.random.default_rng(0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_reply_rejected(self, value):
        signal = SignalPair.synthetic(0.7476, 8)
        emb = [value] + [0.0] * 7
        oracle = signal_responder(lambda request: {"emb": emb}, signal)
        with pytest.raises(OracleError, match=r"non-finite embedding at \(with, trial=0, part=0\)"):
            collect(oracle, make_pair(4), "CANARY", 2, 3, seed=0)
        with pytest.raises(OracleError, match="non-finite embedding from zero-shot call 0"):
            zero_shot_candidates(oracle, "CANARY", 3, seed=0)


class TestFileTransport:
    def test_batch_round_trip(self, tmp_path):
        pair = make_pair(4)
        requests_path = tmp_path / "requests.jsonl"
        renderer = vote_responder(None)
        count = emit_requests(requests_path, renderer, pair, "CANARY", 2, 2)
        assert count == 2 * 2 * 2  # hypotheses x trials x partitions
        requests = [json.loads(line) for line in requests_path.read_text().splitlines()]
        assert set(requests[0]) == {"template_id", "rendered_prompt", "decode"}
        assert set(requests[0]["decode"]) == {"temperature", "max_tokens"}

        # answer each request from its own rendered prompt
        responses_path = tmp_path / "responses.jsonl"
        with open(responses_path, "w") as handle:
            for request in requests:
                context = request["rendered_prompt"].split("<context>\n")[1].split("\n</context>")[0]
                answer = "Yes" if "CANARY" in context else "No"
                handle.write(json.dumps({"text": answer}) + "\n")

        transport = FileTransport(responses_path, tmp_path / "log.jsonl")
        oracle = vote_responder(transport)
        recorded = tmp_path / "records.jsonl"
        got = collect(oracle, pair, "CANARY", 2, 2, seed=0, records_path=recorded)
        assert got.clean_with.tolist() == [[1, 1], [1, 1]]
        assert got.clean_without.tolist() == [[0, 2], [0, 2]]
        # the request log matches the original batch
        logged = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert logged == requests
        # replaying the recorded responder stream is byte-identical
        replayed = tmp_path / "replayed.jsonl"
        collect(ReplayOracle.from_file(recorded, num_classes=2), pair, "CANARY", 2, 2, seed=5,
                records_path=replayed)
        assert recorded.read_bytes() == replayed.read_bytes()

    def test_malformed_response_line_is_named(self, tmp_path):
        responses_path = tmp_path / "responses.jsonl"
        responses_path.write_text('{"text": "Yes"}\n\n{"text": \n')
        with pytest.raises(OracleError, match=f"malformed response at {responses_path}:3: "):
            FileTransport(responses_path)

    def test_exhausted_responses(self, tmp_path):
        responses_path = tmp_path / "responses.jsonl"
        responses_path.write_text(json.dumps({"text": "Yes"}) + "\n")
        transport = FileTransport(responses_path)
        oracle = vote_responder(transport)
        with pytest.raises(OracleError):
            collect(oracle, make_pair(4), "CANARY", 2, 2, seed=0)


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        assert self.path == "/respond"
        assert self.headers.get("X-Audit-Token") == "sekrit"
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        context = request["rendered_prompt"].split("<context>\n")[1].split("\n</context>")[0]
        answer = "Yes" if "CANARY" in context else "No"
        body = json.dumps({"text": answer}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestHttpTransport:
    def test_post_round_trip(self):
        server = HTTPServer(("127.0.0.1", 0), _Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            transport = HttpTransport(
                f"http://127.0.0.1:{server.server_port}/respond",
                auth_header="X-Audit-Token", auth_token="sekrit",
            )
            oracle = vote_responder(transport)
            got = collect(oracle, make_pair(4), "CANARY", 2, 2, seed=0)
            assert got.clean_with.tolist() == [[1, 1], [1, 1]]
        finally:
            server.shutdown()

    def test_unreachable_endpoint(self):
        transport = HttpTransport("http://127.0.0.1:9/nowhere", timeout=0.3)
        with pytest.raises(OracleError):
            transport({"template_id": "audit_classification", "rendered_prompt": "prompt"})


class TestFormatting:
    def test_format_exemplars(self):
        assert format_exemplars(SUBSET_WITH) == "CANARY -> canary out"
        assert format_exemplars(None) == ""

    def test_decode_settings_defaults(self):
        oracle = Responder(None, "audit_classification", {}, "CANARY", 2,
                           temperature=0.7, max_tokens=4)
        assert oracle.request(SUBSET_WITH, "q")["decode"] == {"temperature": 0.7, "max_tokens": 4}
        # an integer temperature goes on the wire as a float
        wire = Responder(None, "audit_classification", {}, "CANARY", 2, temperature=0).request(
            SUBSET_WITH, "q")
        assert _encode(wire["decode"]) == '{"temperature":0.0,"max_tokens":16}'
