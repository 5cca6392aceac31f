import contextvars
import itertools
import json
import math
import threading
from collections import Counter

import pytest
import requests
from hypothesis import given, strategies as st

from claimcheck import llm
from claimcheck.agent import INIT_KG, VERDICT_ACTION, EpisodeConfig, run_episode
from claimcheck.errors import (
    MissingBinding,
    ParseFailure,
    QueryTimeout,
    SchemaViolation,
    ScriptMiss,
    TransportError,
)
from claimcheck.kg import FixtureKgBackend
from claimcheck.llm import (
    CassetteRecorder,
    HttpBackend,
    LlmGateway,
    LlmRequest,
    PromptTemplate,
    ReplyStore,
    ResponseSchema,
    ScriptedBackend,
    TokenBucket,
    extract_json,
    fingerprint,
)
from claimcheck.policy import PromptPolicy, default_policy

from conftest import SMALL_GRAPH, StubRequests, YieldingDeque, YieldingInt, hammer


def make_policy(*templates):
    return PromptPolicy(templates)


class TestRender:
    def test_direct_substitution(self):
        t = PromptTemplate(id="verify", text="Verify: {claim}")
        assert t.render({"claim": "X"}) == "Verify: X"

    def test_no_placeholders_identity(self):
        t = PromptTemplate(id="static", text="no slots here")
        assert t.render({}) == "no slots here"

    def test_missing_binding(self):
        t = PromptTemplate(id="rank", text="Rank {n} of {k}")
        with pytest.raises(MissingBinding) as exc:
            t.render({"n": "2"})
        assert exc.value.name == "k"

    def test_extra_bindings_ignored(self):
        t = PromptTemplate(id="verify", text="Verify: {claim}")
        assert t.render({"claim": "X", "junk": "y"}) == "Verify: X"

    @given(value=st.text(min_size=0, max_size=40))
    def test_substitution_embeds_binding_verbatim(self, value):
        t = PromptTemplate(id="v", text="before {x} after")
        assert t.render({"x": value}) == f"before {value} after"

    @given(a=st.text(max_size=30), b=st.text(max_size=30))
    def test_fingerprint_injective_on_rendered_text(self, a, b):
        same = fingerprint(a, 0.0, 64) == fingerprint(b, 0.0, 64)
        assert same == (a == b)


ANY = ResponseSchema({})


class TestScriptedBackend:
    def test_fingerprint_keyed_response(self):
        text = "Verify: X"
        fp = fingerprint(text, 0.0, 1024)
        backend = ScriptedBackend(by_fingerprint={fp: '{"assessment": "sufficient"}'})
        gateway = LlmGateway(backend, make_policy(PromptTemplate(id="v", text="Verify: {claim}")))
        reply = gateway.complete_structured(LlmRequest(template_id="v", bindings={"claim": "X"}), ANY)
        assert reply == {"assessment": "sufficient"}

    def test_determinism_same_request_twice(self):
        fp = fingerprint("Q", 0.0, 1024)
        backend = ScriptedBackend(by_fingerprint={fp: "A"})
        assert backend.generate("Q", 0.0, 1024) == backend.generate("Q", 0.0, 1024) == "A"

    def test_script_miss(self):
        backend = ScriptedBackend()
        gateway = LlmGateway(backend, make_policy(PromptTemplate(id="q", text="Q")))
        with pytest.raises(ScriptMiss):
            gateway.complete_structured(LlmRequest(template_id="q"), ANY)

    def test_call_counter_counts_every_invocation(self):
        backend = ScriptedBackend(default="{}")
        gateway = LlmGateway(backend, make_policy(PromptTemplate(id="q", text="Q")))
        for _ in range(3):
            gateway.complete_structured(LlmRequest(template_id="q"), ANY)
        assert gateway.call_count == 3

    def test_call_counter_counts_calls_that_raise(self):
        def responder(text):
            raise TransportError("connection reset")

        gateway = LlmGateway(
            ScriptedBackend(responder=responder), make_policy(PromptTemplate(id="q", text="Q"))
        )
        for _ in range(2):
            with pytest.raises(TransportError):
                gateway.complete_structured(LlmRequest(template_id="q"), ANY)
        assert gateway.call_count == 2

    def test_sequence_pops_are_atomic(self):
        for _ in range(5):
            backend = ScriptedBackend(default="rest")
            backend.sequence = YieldingDeque(f"r{i}" for i in range(300))
            results = hammer(lambda: backend.generate("q", 0.0, 16))
            assert Counter(results) == Counter([f"r{i}" for i in range(300)] + ["rest"] * 20)

    def test_counters_under_concurrent_calls(self):
        # every request needs exactly one repair
        backend = ScriptedBackend(
            responder=lambda text: '{"action":"a","label":"b"}' if "repair" in text else "bad"
        )
        gateway = LlmGateway(backend, make_policy(PromptTemplate(id="q", text="Q")))
        gateway.retry_count = YieldingInt(0)
        gateway.requests["q"] = YieldingInt(0)
        schema = ResponseSchema({"action": llm.text, "label": llm.text})
        hammer(lambda: gateway.complete_structured(LlmRequest(template_id="q"), schema))
        assert gateway.call_count == 2 * 320
        assert gateway.retry_count == 320
        assert gateway.requests == {"q": 320}


class TestStructured:
    schema = ResponseSchema({"action": llm.text, "label": llm.text})

    def test_well_formed(self):
        backend = ScriptedBackend(default='{"action":"verdict","label":"Supported"}')
        gateway = LlmGateway(backend, make_policy(PromptTemplate(id="q", text="Q")))
        payload = gateway.complete_structured(LlmRequest(template_id="q"), self.schema)
        assert payload == {"action": "verdict", "label": "Supported"}

    def test_success_on_second_retry(self):
        backend = ScriptedBackend(
            sequence=["not json", "still not json", '{"action":"a","label":"b"}']
        )
        gateway = LlmGateway(backend, make_policy(PromptTemplate(id="q", text="Q")))
        payload = gateway.complete_structured(LlmRequest(template_id="q"), self.schema)
        assert payload["label"] == "b"
        assert gateway.call_count == 3
        assert gateway.retry_count == 2

    def test_missing_required_field_thrice(self):
        backend = ScriptedBackend(default='{"action":"verdict"}')
        gateway = LlmGateway(backend, make_policy(PromptTemplate(id="q", text="Q")))
        with pytest.raises(ParseFailure):
            gateway.complete_structured(LlmRequest(template_id="q"), self.schema)
        assert gateway.call_count == 3  # initial ask + 2 repairs

    def test_value_domain(self):
        schema = ResponseSchema({"label": llm.one_of("a", "b")})
        with pytest.raises(SchemaViolation):
            schema.validate({"label": "c"})
        with pytest.raises(SchemaViolation):
            schema.validate({"label": ["a"]})  # unhashable

    @pytest.mark.parametrize("check, bad, good", [
        pytest.param(llm.text, 3, "a", id="text-3"),
        pytest.param(llm.text, " ", "a", id="text-blank"),
        pytest.param(llm.number, True, 0.5, id="number-true"),
        pytest.param(llm.number, "1", 1, id="number-string"),
        pytest.param(llm.number, math.nan, 0, id="number-nan"),
        pytest.param(llm.number, 10 ** 400, 10 ** 300, id="number-401-digits"),
        pytest.param(llm.whole, 1.5, 1.0, id="whole-1.5"),
        pytest.param(llm.one_of("a", "b"), "c", "b", id="one_of-c"),
        pytest.param(llm.list_of(llm.number, 2), [1, 2, 3], [1, 2], id="list_of-length"),
        pytest.param(llm.list_of(llm.number, 2), [1, "x"], [1, 2], id="list_of-item"),
        pytest.param(llm.list_of(), {}, [], id="list_of-object"),
        pytest.param(llm.mapping, [], {}, id="mapping-list"),
    ])
    def test_wrong_type_is_repaired_like_a_missing_field(self, check, bad, good):
        backend = ScriptedBackend(sequence=[json.dumps({"x": bad}), json.dumps({"x": good})])
        gateway = LlmGateway(backend, make_policy(PromptTemplate(id="q", text="Q")))
        payload = gateway.complete_structured(LlmRequest("q"), ResponseSchema({"x": check}))
        assert payload == {"x": good}
        assert (gateway.call_count, gateway.retry_count) == (2, 1)

    def test_violation_names_the_field_and_what_it_expects(self):
        schema = ResponseSchema({"scores": llm.list_of(llm.number, 2)})
        with pytest.raises(SchemaViolation, match="each a finite number, got") as exc:
            schema.validate({"scores": [1, True]})
        assert exc.value.field == "scores"

    def test_json_embedded_in_prose(self):
        assert extract_json('Sure! Here it is: {"x": 1} hope that helps') == {"x": 1}

    @pytest.mark.parametrize("reply, payload", [
        ('Sure: {"query": "a } b"}', {"query": "a } b"}),
        ('Here it is: {"text": "a { b"} done', {"text": "a { b"}),
    ])
    def test_braces_inside_strings(self, reply, payload):
        assert extract_json(reply) == payload

    @pytest.mark.parametrize("reply", ["[" * 100000, "Sure: " + "[" * 100000],
                             ids=["bare", "in prose"])
    def test_reply_nested_too_deeply_is_a_parse_failure(self, reply):
        # json raises RecursionError past the recursion limit; the scan stops
        # there rather than decode again from each of the other brackets
        gateway = LlmGateway(ScriptedBackend(default=reply),
                             make_policy(PromptTemplate(id="q", text="Q")))
        with pytest.raises(ParseFailure, match="nested too deeply"):
            gateway.complete_structured(LlmRequest(template_id="q"), self.schema)
        assert gateway.call_count == 3  # initial ask + 2 repairs


class TestReplyMemo:
    schema = ResponseSchema({"action": llm.text, "label": llm.text})
    policy = make_policy(PromptTemplate(id="q", text="Q {x}"))

    def ask(self, backend, x="1"):
        gateway = LlmGateway(backend, self.policy)
        try:
            return gateway.complete_structured(LlmRequest("q", {"x": x}), self.schema), gateway
        except (ParseFailure, TransportError) as exc:
            return type(exc), gateway

    def test_each_prompt_goes_to_a_backend_once_from_any_gateway(self):
        first = ScriptedBackend(default='{"action":"a","label":"b"}')
        second = ScriptedBackend()  # any call would miss
        with llm.reply_memo():
            payload, gateway = self.ask(first)
            again, hit = self.ask(second)
        assert again == payload == {"action": "a", "label": "b"}
        assert (gateway.call_count, gateway.memo_hits) == (1, 0)
        assert (hit.call_count, hit.memo_hits, hit.requests["q"]) == (0, 1, 1)

    def test_a_repair_sequence_replays_from_the_memo(self):
        backend = ScriptedBackend(sequence=["not json", "still not", '{"action":"a","label":"b"}'])
        with llm.reply_memo():
            first, asked = self.ask(backend)
            second, replayed = self.ask(backend)  # the sequence is used up
        assert first == second == {"action": "a", "label": "b"}
        assert (asked.call_count, asked.retry_count) == (3, 2)
        assert (replayed.call_count, replayed.retry_count, replayed.memo_hits) == (0, 2, 3)

    def test_a_request_that_raised_is_sent_again(self):
        replies = iter([TransportError("reset"), '{"action":"a","label":"b"}'])

        def responder(text):
            reply = next(replies)
            if isinstance(reply, Exception):
                raise reply
            return reply

        with llm.reply_memo():
            failed, gateway = self.ask(ScriptedBackend(responder=responder))
            payload, retried = self.ask(ScriptedBackend(responder=responder))
        assert failed is TransportError and gateway.call_count == 1
        assert payload == {"action": "a", "label": "b"} and retried.call_count == 1

    def test_counters_under_concurrent_requests(self):
        sent = []  # list.append is atomic
        backend = ScriptedBackend(
            responder=lambda text: sent.append(text) or '{"action":"a","label":"b"}'
        )
        gateway = LlmGateway(backend, self.policy)
        gateway.call_count = YieldingInt(0)
        xs = itertools.count()
        with llm.reply_memo():
            # hammer's threads start in an empty context, so each call runs
            # in a copy of this one, as fan_out's items do
            context = contextvars.copy_context()
            hammer(lambda: context.copy().run(
                gateway.complete_structured, LlmRequest("q", {"x": next(xs) % 5}), self.schema))
        assert set(sent) == {f"Q {x}" for x in range(5)}
        assert gateway.call_count == len(sent)
        assert gateway.memo_hits == 320 - len(sent)

    def test_no_memo_outside_the_block_or_after_it(self):
        backend = ScriptedBackend(default='{"action":"a","label":"b"}')
        with llm.reply_memo():
            self.ask(backend)
        for _ in range(2):
            assert self.ask(backend)[1].call_count == 1
        with llm.reply_memo():  # a new block starts empty
            assert self.ask(backend)[1].call_count == 1
            assert self.ask(backend, x="2")[1].call_count == 1


class TestCassette:
    def test_record_then_replay_byte_identical(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        live = ScriptedBackend(sequence=['{"x": "first"}', '{"x": "second"}'])
        recorder = CassetteRecorder(live, str(cassette))
        policy = make_policy(
            PromptTemplate(id="a", text="ask A"), PromptTemplate(id="b", text="ask B")
        )
        gw = LlmGateway(recorder, policy)
        originals = [
            gw.complete_structured(LlmRequest(template_id="a"), ANY),
            gw.complete_structured(LlmRequest(template_id="b"), ANY),
        ]

        replay = LlmGateway(ScriptedBackend(by_fingerprint=ReplyStore(str(cassette))), policy)
        replayed = [
            replay.complete_structured(LlmRequest(template_id="a"), ANY),
            replay.complete_structured(LlmRequest(template_id="b"), ANY),
        ]
        assert replayed == originals == [{"x": "first"}, {"x": "second"}]

    def test_cassette_format(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        recorder = CassetteRecorder(ScriptedBackend(default="pong"), str(cassette))
        recorder.generate("ping", 0.0, 1024)
        entry = json.loads(cassette.read_text().splitlines()[0])
        assert set(entry) == {"fp", "request_text", "response_text"}
        assert entry["fp"] == fingerprint("ping", 0.0, 1024)
        assert entry["request_text"] == "ping"
        assert entry["response_text"] == "pong"

    def test_concurrent_replay_keeps_the_last_response(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        fp = fingerprint("q", 0.0, 16)
        cassette.write_text("".join(
            json.dumps({"fp": fp, "request_text": "q", "response_text": f"r{i}"}) + "\n"
            for i in range(100)
        ))
        for _ in range(5):
            store = ReplyStore(str(cassette))
            store._replies[fp] = YieldingDeque(store._replies[fp])
            backend = ScriptedBackend(by_fingerprint=store)
            results = hammer(lambda: backend.generate("q", 0.0, 16))
            assert Counter(results) == Counter([f"r{i}" for i in range(99)] + ["r99"] * 221)

    def test_replay_miss(self, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        cassette.write_text("")
        backend = ScriptedBackend(by_fingerprint=ReplyStore(str(cassette)))
        with pytest.raises(ScriptMiss):
            backend.generate("never recorded", 0.0, 16)

    def test_fingerprint_depends_on_rendered_text_only(self):
        # template refactors that preserve rendered text keep the fingerprint
        a = PromptTemplate(id="x", text="Verify: {claim}").render({"claim": "K"})
        b = PromptTemplate(id="y", text="Verify: K").render({})
        assert fingerprint(a, 0.0, 64) == fingerprint(b, 0.0, 64)
        assert fingerprint(a, 0.0, 64) != fingerprint(a, 0.5, 64)


def entry(key, reply):
    return json.dumps({"fp": key, "request_text": "r", "response_text": reply}) + "\n"


class TestReplyStore:
    def test_concurrent_puts_reload_to_every_entry(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store, keys = ReplyStore(path), itertools.count()
        reply = "x" * 5000  # longer than one write buffer
        hammer(lambda: store.put(f"k{next(keys)}", "r", reply))
        reloaded = ReplyStore(path)
        assert all(reloaded.get(f"k{i}") == reply for i in range(320))
        assert reloaded.get("k320") is None

    def test_torn_last_line_is_ignored_and_cut_before_the_next_put(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(entry("k", "a") + entry("j", "b")[:12])
        store = ReplyStore(str(path))
        assert store.get("k") == "a" and store.get("j") is None
        store.put("i", "r", "c")
        assert path.read_text() == entry("k", "a") + json.dumps(
            {"fp": "i", "request_text": "r", "response_text": "c"}, ensure_ascii=False) + "\n"
        assert ReplyStore(str(path)).get("i") == "c"

    @pytest.mark.parametrize("line", [
        "{not json", "[1, 2]", '{"fp": "k"}', '{"fp": "k", "response_text": 3}',
    ])
    def test_malformed_line_before_the_last_raises(self, tmp_path, line):
        path = tmp_path / "store.jsonl"
        path.write_text(line + "\n" + entry("k", "a"))
        with pytest.raises(ValueError, match="store.jsonl line 1 is not a reply entry"):
            ReplyStore(str(path))

    def test_line_separators_inside_replies_round_trip(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        ReplyStore(path).put("k", "r", "a\u2028b\x85c")
        assert ReplyStore(path).get("k") == "a\u2028b\x85c"


class FakeClock:
    """Stands in for the ``time`` module. ``sleep`` wakes its thread at the
    time it last read plus the delay, so concurrent sleeps overlap."""

    def __init__(self):
        self.now, self.sleeps = 0.0, []
        self._lock = threading.Lock()
        self._read = threading.local()

    def monotonic(self):
        with self._lock:
            self._read.at = self.now
            return self.now

    def sleep(self, seconds):
        with self._lock:
            self.sleeps.append(seconds)
            self.now = max(self.now, getattr(self._read, "at", self.now) + seconds)


class TestTokenBucket:
    @pytest.fixture
    def clock(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(llm, "time", clock)
        return clock

    def test_capacity_acquisitions_do_not_sleep(self, clock):
        bucket = TokenBucket(rate_per_sec=2.0, capacity=3)
        for _ in range(3):
            bucket.acquire()
        assert clock.sleeps == []

    def test_next_acquisition_sleeps_until_a_token_is_full(self, clock):
        bucket = TokenBucket(rate_per_sec=2.0, capacity=3)
        for _ in range(3):
            bucket.acquire()
        clock.now += 0.25  # refills half a token
        bucket.acquire()
        assert clock.sleeps == [(1.0 - 0.5) / 2.0]

    def test_threaded_acquisitions_stay_within_the_rate(self, clock):
        bucket = TokenBucket(rate_per_sec=4.0, capacity=2)
        granted = hammer(bucket.acquire, n_threads=8, calls_per_thread=10)
        assert len(granted) == 80 and clock.now > 0
        assert len(granted) <= 2 + 4.0 * clock.now + 1e-6


class TestHttpBackend:
    @pytest.fixture(autouse=True)
    def pauses(self, retry_pauses):
        self.pauses = retry_pauses

    def backend(self, *outcomes, base_url="http://llm.example/v1/"):
        http = HttpBackend(base_url, "m")
        http._requests = StubRequests(outcomes)
        # the live rate of 2 a second would add seconds to the suite
        http._bucket = TokenBucket(1000.0, 1000)
        return http

    MALFORMED = [
        "[]",
        '{"choices": null}',
        '{"choices": [{"message": "x"}]}',
        '{"choices": [{"message": {"content": null}}]}',
    ]
    REPLY = {"choices": [{"message": {"content": "hi"}}]}

    def test_content_of_a_well_formed_reply(self):
        http = self.backend(self.REPLY)
        assert http.generate("q", 0.0, 1024) == "hi"
        assert http._requests.sent == [("http://llm.example/v1/chat/completions", {
            "model": "m", "messages": [{"role": "user", "content": "q"}],
            "temperature": 0.0, "max_tokens": 1024,
        })]

    @pytest.mark.parametrize("body", MALFORMED)
    def test_malformed_body_ends_the_episode_in_a_forced_verdict(self, body):
        # the sufficiency request fails (the one entity has fewer than k
        # relations, so no prune goes out), then the forced verdict request
        # does too; a body that is not a JSON object is sent twice each time
        posts = 4 if body == "[]" else 2
        http = self.backend(*[(200, body)] * posts)
        result, trajectory = run_episode(
            "Barack Obama was born.", default_policy(), EpisodeConfig(), http,
            FixtureKgBackend(data=SMALL_GRAPH),
        )
        assert result.forced and trajectory.forced_reason == "transport_error"
        assert trajectory.action_kinds() == [INIT_KG, VERDICT_ACTION]
        assert len(http._requests.sent) == posts and not http._requests.outcomes

    def test_status_other_than_200_raises_transport_error(self):
        with pytest.raises(TransportError, match="status 503"):
            self.backend((503, "busy"), (503, "busy")).generate("q", 0.0, 1024)
        assert len(self.pauses) == 1

    def test_timeout_raises_transport_error(self):
        with pytest.raises(QueryTimeout, match="timed out"):
            self.backend("timeout", "timeout").generate("q", 0.0, 1024)

    @pytest.mark.parametrize("first", ["timeout", (503, "busy"), (429, "slow down"),
                                       (200, "<html>busy</html>"), (200, "[" * 100000)],
                             ids=["timeout", "503", "429", "html", "nested too deeply"])
    def test_one_failed_request_is_sent_again(self, first):
        http = self.backend(first, self.REPLY)
        assert http.generate("q", 0.0, 1024) == "hi"
        assert len(http._requests.sent) == 2
        assert len(self.pauses) == 1 and 0.5 <= self.pauses[0] <= 1.0

    def test_each_attempt_takes_a_token_and_the_pause_holds_no_slot(self, monkeypatch):
        http = self.backend((503, "busy"), self.REPLY)
        http._bucket = TokenBucket(1e-9, 2)
        slots_held = []
        monkeypatch.setattr(llm.time, "sleep", lambda s: slots_held.append(4 - http._slots._value))
        assert http.generate("q", 0.0, 1024) == "hi"
        assert slots_held == [0] and http._bucket.tokens < 1.0

    def test_503_then_200_over_loopback(self, loopback):
        loopback.replies.extend([(503, "busy"), (200, self.REPLY)])
        http = self.backend(base_url=loopback.url + "/v1")
        http._requests = requests
        assert http.generate("q", 0.0, 1024) == "hi"
        assert [r[:2] for r in loopback.requests] == [("POST", "/v1/chat/completions")] * 2
        assert json.loads(loopback.requests[1][2])["messages"] == [{"role": "user", "content": "q"}]
        assert len(self.pauses) == 1

    @pytest.mark.parametrize("status, retry_after, pause", [
        (429, "3", 3.0),
        (503, "0", 0.0),
        (503, " 7 ", 7.0),
        (429, "3600", llm.MAX_RETRY_AFTER_S),
        (429, None, None),
        (503, "Wed, 21 Oct 2026 07:28:00 GMT", None),
        (503, "1.5", None),
        (500, "3", None),
    ], ids=["429", "503-zero", "503-spaces", "capped", "no-header", "http-date", "fraction",
            "500"])
    def test_retry_after_over_loopback(self, loopback, status, retry_after, pause):
        # a whole number of seconds on a 429 or 503 sets the pause; otherwise
        # it is the jittered 0.5-1 s
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        loopback.replies.extend([(status, "busy", headers), (200, self.REPLY)])
        http = self.backend(base_url=loopback.url + "/v1")
        http._requests = requests
        assert http.generate("q", 0.0, 1024) == "hi"
        assert len(loopback.requests) == 2 and len(self.pauses) == 1
        if pause is None:
            assert 0.5 <= self.pauses[0] <= 1.0
        else:
            assert self.pauses == [pause]

    def test_two_503s_over_loopback_raise_after_two_requests(self, loopback):
        loopback.replies.extend([(503, "busy")] * 2)
        http = self.backend(base_url=loopback.url + "/v1")
        http._requests = requests
        with pytest.raises(TransportError, match="status 503"):
            http.generate("q", 0.0, 1024)
        assert len(loopback.requests) == 2
