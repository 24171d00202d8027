import json
import math
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpicl_audit.audit import _clean_matrix
from dpicl_audit.mechanisms import Exemplar, NeighboringPair, partition
from dpicl_audit.oracles import (
    CTX_WITH,
    CTX_WITHOUT,
    CanaryDetectorConfig,
    CanaryDetectorEmbeddingOracle,
    CanaryDetectorVoteOracle,
    DecodeSettings,
    FileTransport,
    HttpTransport,
    OracleError,
    ReplayOracle,
    ResponderEmbeddingOracle,
    ResponderRequest,
    ResponderVoteOracle,
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
    _record_columns,
    _record_line,
    _write_responses,
)
from reference import DictReplayOracle, collect_replay, read_records, record_lines


def make_pair(n=10, canary_index=0):
    base = [Exemplar(f"in {i}", f"out {i}") for i in range(n)]
    return NeighboringPair.insert_canary(base, Exemplar("CANARY", "canary out"), canary_index)


PAIR = make_pair()
SUBSET_WITH = partition(PAIR.with_canary, 10)[0]
SUBSET_WITHOUT = partition(PAIR.without_canary, 10)[0]


class TestCanaryDetectorVote:
    def test_deterministic_answers(self):
        config = CanaryDetectorConfig()
        oracle = CanaryDetectorVoteOracle(config)
        rng = np.random.default_rng(0)
        assert oracle.vote(SUBSET_WITH, "CANARY", rng) == config.yes_index
        assert oracle.vote(SUBSET_WITHOUT, "CANARY", rng) == config.no_index

    def test_flip_rate(self):
        config = CanaryDetectorConfig(flip_probability=0.1)
        oracle = CanaryDetectorVoteOracle(config)
        rng = np.random.default_rng(5)
        draws = 100_000
        yes = sum(oracle.vote(SUBSET_WITH, "CANARY", rng) == config.yes_index for _ in range(draws))
        assert abs(yes / draws - 0.9) <= 0.005

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CanaryDetectorConfig(flip_probability=0.6)
        with pytest.raises(ValueError):
            CanaryDetectorConfig(yes_index=0, no_index=0)


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
        oracle = CanaryDetectorEmbeddingOracle(pair, CanaryDetectorConfig())
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(oracle.embed(SUBSET_WITH, "q", rng), pair.y1_embedding)
        np.testing.assert_array_equal(oracle.embed(SUBSET_WITHOUT, "q", rng), pair.y0_embedding)

    def test_zero_shot_is_fair(self):
        pair = SignalPair.synthetic(0.7476)
        oracle = CanaryDetectorEmbeddingOracle(pair, CanaryDetectorConfig())
        rng = np.random.default_rng(9)
        draws = 100_000
        y1 = sum(np.array_equal(oracle.embed(None, "q", rng), pair.y1_embedding)
                 for _ in range(draws))
        assert abs(y1 / draws - 0.5) <= 0.005


class TestCollect:
    def test_deterministic_vote_vectors(self):
        oracle = CanaryDetectorVoteOracle()
        got = collect(oracle, PAIR, "CANARY", 10, 3, seed=0)
        assert got.clean_with.tolist() == [[1, 9]] * 3
        assert got.clean_without.tolist() == [[0, 10]] * 3
        assert {ctx: grid.shape for ctx, grid in got.responses.items()} == {
            CTX_WITH: (3, 10), CTX_WITHOUT: (3, 10)}

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            collect(CanaryDetectorVoteOracle(), PAIR, "CANARY", 10, 0)

    def test_flip_rate_through_pipeline(self):
        pair = make_pair(8)
        oracle = CanaryDetectorVoteOracle(CanaryDetectorConfig(flip_probability=0.1))
        got = collect(oracle, pair, "CANARY", 4, 500, seed=3)
        yes_counts = got.clean_with[:, 0]
        # 1 * 0.9 + 3 * 0.1 yes votes expected per trial
        se = math.sqrt(0.36 / 500)
        assert abs(np.mean(yes_counts) - 1.2) <= 3 * se

    def test_generation_midpoint_mean(self):
        # two partitions, canary in one: the clean mean sits at the midpoint
        pair = make_pair(2)
        signal = SignalPair.synthetic(0.7476)
        oracle = CanaryDetectorEmbeddingOracle(signal)
        got = collect(oracle, pair, "CANARY", 2, 1, seed=0)
        midpoint = (signal.y1_embedding + signal.y0_embedding) / 2.0
        np.testing.assert_allclose(got.clean_with[0], midpoint)
        np.testing.assert_allclose(got.clean_without[0], signal.y0_embedding)
        # one 16-d response per partition and context behind the two means
        assert {ctx: grid.shape for ctx, grid in got.responses.items()} == {
            CTX_WITH: (1, 2, 16), CTX_WITHOUT: (1, 2, 16)}

    def test_deterministic_given_seed(self):
        oracle = CanaryDetectorVoteOracle(CanaryDetectorConfig(flip_probability=0.2))
        a = collect(oracle, PAIR, "CANARY", 5, 20, seed=77)
        b = collect(oracle, PAIR, "CANARY", 5, 20, seed=77)
        c = collect(oracle, PAIR, "CANARY", 5, 20, seed=78)
        assert a.clean_with.tolist() == b.clean_with.tolist()
        assert a.clean_with.tolist() != c.clean_with.tolist()

    def test_worker_count_does_not_change_results(self, tmp_path):
        oracle = CanaryDetectorVoteOracle(CanaryDetectorConfig(flip_probability=0.2))
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
        replayed = collect(ReplayOracle.from_file(path), make_pair(2), "CANARY", 2, 3)
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
        got = collect(CanaryDetectorEmbeddingOracle(signal), PAIR, "CANARY", 4, 5, seed=3,
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
        oracle = CanaryDetectorVoteOracle(CanaryDetectorConfig(flip_probability=0.15))
        original = collect(oracle, PAIR, "CANARY", 4, 25, seed=11, records_path=first)
        replayed = collect(ReplayOracle.from_file(first), PAIR, "CANARY", 4, 25,
                           seed=999, records_path=second)
        assert first.read_bytes() == second.read_bytes()
        assert original.clean_with.tolist() == replayed.clean_with.tolist()

    def test_replay_reproduces_empirical_distribution(self, tmp_path):
        path = tmp_path / "records.jsonl"
        oracle = CanaryDetectorVoteOracle(CanaryDetectorConfig(flip_probability=0.3))
        original = collect(oracle, PAIR, "CANARY", 4, 50, seed=2, records_path=path)
        replayed = collect(ReplayOracle.from_file(path), PAIR, "CANARY", 4, 50, seed=3)
        original_counts = sorted(original.clean_with.tolist())
        replayed_counts = sorted(replayed.clean_with.tolist())
        assert original_counts == replayed_counts

    def test_embedding_replay(self, tmp_path):
        path = tmp_path / "records.jsonl"
        signal = SignalPair.synthetic(0.5562, 8)
        oracle = CanaryDetectorEmbeddingOracle(signal)
        collect(oracle, make_pair(4), "CANARY", 4, 6, seed=0, records_path=path)
        replayed = collect(ReplayOracle.from_file(path), make_pair(4), "CANARY", 4, 6, seed=1)
        assert replayed.task == "generation"
        assert len(replayed.clean_with) == 6

    def test_too_few_recorded_trials(self, tmp_path):
        path = tmp_path / "records.jsonl"
        collect(CanaryDetectorVoteOracle(), PAIR, "CANARY", 4, 5, seed=0, records_path=path)
        with pytest.raises(OracleError):
            collect(ReplayOracle.from_file(path), PAIR, "CANARY", 4, 6)


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
        try:
            want = collect_replay(DictReplayOracle.from_file(path), T, n_llm)
        except OracleError as exc:
            with pytest.raises(OracleError) as info:
                collect(ReplayOracle.from_file(path), make_pair(T), "CANARY", T, n_llm)
            assert str(info.value) == str(exc)
            return
        written = path.parent / "written.jsonl"
        got = collect(ReplayOracle.from_file(path), make_pair(T), "CANARY", T, n_llm,
                      records_path=written)
        assert got.task == task
        for clean, reference in ((got.clean_with, want[0]), (got.clean_without, want[1])):
            assert _clean_matrix(clean).tobytes() == _clean_matrix(reference).tobytes()
        assert written.read_text() == record_lines(want[2])


class TestTemplates:
    def test_all_templates_load(self):
        for template_id in ("audit_classification", "audit_generation_whitebox",
                            "audit_generation_blackbox", "baseline_classification_mislabel",
                            "baseline_generation_completion", "baseline_generation_list_probe"):
            assert load_template(template_id)

    def test_unknown_template(self):
        with pytest.raises(KeyError):
            load_template("nope")

    def test_rendering_substitutes_placeholders(self):
        text = load_template("audit_classification")
        rendered = render_template(text, formatted_context="CTX", query_article="QUERY")
        assert "CTX" in rendered and "QUERY" in rendered
        assert "{formatted_context}" not in rendered

    def test_generation_template_placeholders(self):
        text = load_template("audit_generation_blackbox")
        rendered = render_template(text, canary="C", Y1_TARGET="A", Y2_CONTROL="B",
                                   exemplar_context="")
        assert '"A"' in rendered and '"B"' in rendered


class StatefulFakeTransport:
    """Fails the first call, answers from canary membership afterwards."""

    def __init__(self, fail_first=0):
        self.calls = 0
        self.fail_first = fail_first

    def __call__(self, request: ResponderRequest) -> dict:
        self.calls += 1
        if self.calls <= self.fail_first:
            return {"text": "mumble"}
        context = request.rendered_prompt.split("<context>\n")[1].split("\n</context>")[0]
        answer = "Yes" if "CANARY" in context else "No"
        return {"text": answer}


class TestResponderVoteOracle:
    def make_oracle(self, transport):
        return ResponderVoteOracle(transport, "audit_classification", ("Yes", "No"), "CANARY")

    def test_maps_text_to_class(self):
        oracle = self.make_oracle(StatefulFakeTransport())
        rng = np.random.default_rng(0)
        assert oracle.vote(SUBSET_WITH, "CANARY", rng) == 0
        assert oracle.vote(SUBSET_WITHOUT, "CANARY", rng) == 1

    def test_parse_failure_raises(self):
        oracle = self.make_oracle(StatefulFakeTransport(fail_first=10**9))
        with pytest.raises(ResponseParseError):
            oracle.vote(SUBSET_WITH, "CANARY", np.random.default_rng(0))

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
        oracle = ResponderEmbeddingOracle(lambda request: {"emb": raw.tolist()},
                                          "audit_generation_blackbox", signal, "CANARY")
        path = tmp_path / "records.jsonl"
        got = collect(oracle, make_pair(4), "CANARY", 2, 3, seed=0, records_path=path)
        assert all(record["emb"] == raw.tolist() for record in read_records(path))
        np.testing.assert_allclose(got.clean_with, np.tile(signal.y1_embedding, (3, 1)))
        for candidate in zero_shot_candidates(oracle, "CANARY", 3, seed=0):
            np.testing.assert_allclose(candidate, signal.y1_embedding)


class TestFileTransport:
    def test_batch_round_trip(self, tmp_path):
        pair = make_pair(4)
        requests_path = tmp_path / "requests.jsonl"
        renderer = ResponderVoteOracle(None, "audit_classification", ("Yes", "No"), "CANARY")
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
        oracle = ResponderVoteOracle(transport, "audit_classification", ("Yes", "No"), "CANARY")
        recorded = tmp_path / "records.jsonl"
        got = collect(oracle, pair, "CANARY", 2, 2, seed=0, records_path=recorded)
        assert got.clean_with.tolist() == [[1, 1], [1, 1]]
        assert got.clean_without.tolist() == [[0, 2], [0, 2]]
        # the request log matches the original batch
        logged = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert logged == requests
        # replaying the recorded responder stream is byte-identical
        replayed = tmp_path / "replayed.jsonl"
        collect(ReplayOracle.from_file(recorded), pair, "CANARY", 2, 2, seed=5,
                records_path=replayed)
        assert recorded.read_bytes() == replayed.read_bytes()

    def test_exhausted_responses(self, tmp_path):
        responses_path = tmp_path / "responses.jsonl"
        responses_path.write_text(json.dumps({"text": "Yes"}) + "\n")
        transport = FileTransport(responses_path)
        oracle = ResponderVoteOracle(transport, "audit_classification", ("Yes", "No"), "CANARY")
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
            oracle = ResponderVoteOracle(transport, "audit_classification", ("Yes", "No"), "CANARY")
            got = collect(oracle, make_pair(4), "CANARY", 2, 2, seed=0)
            assert got.clean_with.tolist() == [[1, 1], [1, 1]]
        finally:
            server.shutdown()

    def test_unreachable_endpoint(self):
        transport = HttpTransport("http://127.0.0.1:9/nowhere", timeout=0.3)
        with pytest.raises(OracleError):
            transport(ResponderRequest("audit_classification", "prompt"))


class TestFormatting:
    def test_format_exemplars(self):
        assert format_exemplars(SUBSET_WITH) == "CANARY -> canary out"
        assert format_exemplars(None) == ""

    def test_decode_settings_defaults(self):
        wire = ResponderRequest("t", "p", DecodeSettings(temperature=0.7, max_tokens=4)).to_wire()
        assert wire["decode"] == {"temperature": 0.7, "max_tokens": 4}
