import json
import math
import random
import re
import threading
import time
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from claimcheck.agent import (
    INIT_KG,
    VERDICT_ACTION,
    WEB_SEARCH,
    EpisodeConfig,
    EpisodeRunner,
    Evidence,
    run_episode,
    trajectory_from_jsonable,
)
from claimcheck.errors import ParseFailure, ProviderQuotaExceeded, QueryTimeout, TransportError
from claimcheck.evaluation import DatasetRecord, run_benchmark
from claimcheck.graph import EntityId, KnowledgeSubgraph, RelationId, Triplet
from claimcheck.kg import FixtureKgBackend
from claimcheck.llm import LlmGateway, ScriptedBackend
from claimcheck.policy import default_policy
from claimcheck.web import (
    FilteredEvidence,
    FixtureSearchProvider,
    Passage,
    SerperProvider,
    WebDocument,
    WebQuery,
    WebTriplet,
    bm25_scores,
    filter_evidence,
    formulate_query,
    integrate,
    rank_passages,
    search,
    synthetic_entity,
    synthetic_relation,
    to_triplets,
    tokenize,
)

from conftest import (
    SMALL_GRAPH,
    OracleResponder,
    SlowKg,
    SlowLlm,
    SlowSearch,
    StubRequests,
    build_corpus,
)


def gateway(default=None, sequence=None, responder=None):
    backend = ScriptedBackend(default=default, sequence=sequence, responder=responder)
    return LlmGateway(backend, default_policy())


class TestQuery:
    def test_truncated_to_256(self):
        q = WebQuery(text="x" * 500)
        assert len(q.text) == 256

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WebQuery(text="   ")

    def test_formulate_without_evidence_uses_claim_and_no_llm(self):
        gw = gateway()  # would raise ScriptMiss on any call
        q = formulate_query("Paris is in Spain.", Evidence(), gw)
        assert q.text == "Paris is in Spain."
        assert gw.call_count == 0

    def test_formulate_with_evidence_calls_llm_once(self):
        subgraph = KnowledgeSubgraph()
        subgraph.add_triplet(
            Triplet(EntityId("Q1", "Paris"), RelationId("P17", "country"), EntityId("Q2", "France"))
        )
        prompts = []

        def responder(text):
            prompts.append(text)
            return json.dumps({"query": "Paris country", "rationale": "gap"})

        gw = gateway(responder=responder)
        evidence = Evidence.of(subgraph)
        q = formulate_query("Paris is in Spain.", evidence, gw)
        assert q.text == "Paris country"
        assert gw.call_count == 1
        assert f"Evidence:\n{evidence.text}\n" in prompts[0]

    @pytest.mark.parametrize("query", [None, "", "  ", 3, ["Paris"]])
    def test_query_that_is_not_text_is_a_parse_failure(self, query):
        subgraph = KnowledgeSubgraph()
        subgraph.add_triplet(
            Triplet(EntityId("Q1", "Paris"), RelationId("P17", "country"), EntityId("Q2", "France"))
        )
        gw = gateway(default=json.dumps({"query": query}))
        with pytest.raises(ParseFailure):
            formulate_query("Paris is in Spain.", Evidence.of(subgraph), gw)


class TestSerperProvider:
    def provider(self, *outcomes):
        provider = SerperProvider()
        provider._requests = StubRequests(outcomes)
        return provider

    def episode(self, provider):
        return run_episode(
            "Martians landed in Ohio.", default_policy(), EpisodeConfig(),
            ScriptedBackend(responder=OracleResponder()), FixtureKgBackend(data=SMALL_GRAPH),
            provider,
        )

    @pytest.mark.parametrize("text", ["<html>busy</html>", "[]"])
    def test_reply_that_is_not_a_json_object_ends_in_a_forced_verdict(self, text,
                                                                        retry_pauses):
        provider = self.provider(text, text)
        result, trajectory = self.episode(provider)
        assert result.forced and trajectory.forced_reason == "transport_error"
        assert trajectory.action_kinds() == [INIT_KG, WEB_SEARCH, VERDICT_ACTION]
        assert trajectory.steps[1][1].note.endswith("search provider reply is not a JSON object")
        assert len(provider._requests.sent) == 2 and len(retry_pauses) == 1

    def test_results_that_are_not_a_list_end_in_a_forced_verdict(self):
        result, trajectory = self.episode(self.provider({"organic": {"link": "x"}}))
        assert result.forced and trajectory.forced_reason == "transport_error"
        assert trajectory.action_kinds() == [INIT_KG, WEB_SEARCH, VERDICT_ACTION]
        assert trajectory.steps[1][1].note.endswith("results are not a list")

    def test_malformed_rows_are_skipped(self):
        rows = [
            1,
            {"title": "no link", "snippet": "s"},
            {"link": 7, "snippet": "s"},
            {"link": "https://a.example", "title": None, "snippet": ["not", "text"]},
            {"link": "https://b.example", "title": "B", "snippet": "Ohio | has | Martians"},
        ]
        provider = self.provider({"organic": rows}, {"organic": rows})
        assert provider.search("q", 5) == [
            WebDocument("https://a.example", "", "", 1),
            WebDocument("https://b.example", "B", "Ohio | has | Martians", 2),
        ]
        assert [d.url for d in provider.search("q", 1)] == ["https://a.example"]

    def test_timeouts_raise_query_timeout(self, retry_pauses):
        with pytest.raises(QueryTimeout, match="search provider timed out"):
            self.provider("timeout", "timeout").search("q", 5)

    ROW = {"link": "https://a.example", "title": "A", "snippet": "s"}

    def test_429_then_200_over_loopback(self, loopback, retry_pauses):
        loopback.replies.extend([(429, "slow down"), (200, {"organic": [self.ROW]})])
        provider = SerperProvider(endpoint=loopback.url + "/search")
        assert provider.search("q", 5) == [WebDocument("https://a.example", "A", "s", 1)]
        assert [r[:2] for r in loopback.requests] == [("POST", "/search")] * 2
        assert json.loads(loopback.requests[1][2]) == {"q": "q", "num": 5}

    def test_two_429s_over_loopback_raise_quota_exceeded(self, loopback, retry_pauses):
        loopback.replies.extend([(429, "slow down")] * 2)
        with pytest.raises(ProviderQuotaExceeded, match="status 429"):
            SerperProvider(endpoint=loopback.url + "/search").search("q", 5)
        assert len(loopback.requests) == 2 and len(retry_pauses) == 1

    def test_two_429s_over_loopback_end_the_episode_in_one_forced_verdict(self, loopback,
                                                                          retry_pauses):
        loopback.replies.extend([(429, "slow down")] * 2)
        result, trajectory = self.episode(SerperProvider(endpoint=loopback.url + "/search"))
        assert result.forced and trajectory.forced_reason == "transport_error"
        assert trajectory.action_kinds() == [INIT_KG, WEB_SEARCH, VERDICT_ACTION]
        assert trajectory.steps[1][1].note.endswith("status 429")
        assert len(loopback.requests) == 2


def reference_bm25(query, docs, k1=1.2, b=0.75):
    """Textbook Okapi BM25, computed independently term by term."""
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    out = []
    for doc in docs:
        score = 0.0
        for term in query:
            df = sum(1 for d in docs if term in d)
            f = doc.count(term)
            if f == 0:
                continue
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            score += idf * (f * (k1 + 1)) / (f + k1 * (1 - b + b * len(doc) / avgdl))
        out.append(score)
    return out


class TestBm25:
    def test_hand_computed_single_doc(self):
        # one doc, one matching term with f=1, dl=avgdl: idf=ln(1+1/1.5)
        got = bm25_scores(["cat"], [["cat", "dog", "fish"]])
        idf = math.log(1 + (1 - 1 + 0.5) / (1 + 0.5))
        want = idf * (1 * 2.2) / (1 + 1.2)
        assert got[0] == pytest.approx(want, abs=1e-12)

    def test_matches_reference_on_fixed_corpora(self):
        corpora = [
            (["obama", "kenya"], [["obama", "born", "hawaii"], ["kenya", "nairobi"],
                                  ["obama", "obama", "kenya"]]),
            (["a"], [["a"], ["b"], ["a", "a", "a", "b"]]),
            (["x", "y", "z"], [["x", "y"], ["y", "z", "z"], ["q"], ["x", "x", "y", "z"]]),
        ]
        for query, docs in corpora:
            got = bm25_scores(query, docs)
            want = reference_bm25(query, docs)
            assert got == pytest.approx(want, abs=1e-9)

    def test_matches_reference_randomized(self):
        rng = random.Random(3)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(100):
            docs = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 15))]
                for _ in range(rng.randint(1, 8))
            ]
            query = [rng.choice(vocab) for _ in range(rng.randint(1, 4))]
            assert bm25_scores(query, docs) == pytest.approx(
                reference_bm25(query, docs), abs=1e-9
            )

    def test_no_match_scores_zero(self):
        assert bm25_scores(["zzz"], [["a", "b"], ["c"]]) == [0.0, 0.0]

    _token = st.sampled_from(["a", "b", "c", "d", "e"])
    _doc = st.lists(_token, min_size=1, max_size=10)

    @given(query=st.lists(_token, max_size=4), docs=st.lists(_doc, min_size=1, max_size=6))
    def test_scores_nonnegative_and_absent_terms_ignored(self, query, docs):
        scores = bm25_scores(query, docs)
        assert len(scores) == len(docs)
        assert all(s >= 0.0 for s in scores)
        for score, doc in zip(scores, docs):
            if not set(query) & set(doc):
                assert score == 0.0

    @given(query=st.lists(_token, min_size=1, max_size=4),
           docs=st.lists(_doc, min_size=1, max_size=6))
    def test_scores_match_reference(self, query, docs):
        assert bm25_scores(query, docs) == pytest.approx(
            reference_bm25(query, docs), abs=1e-9
        )


class TestRanking:
    def docs(self):
        return [
            WebDocument(url="https://b.example/1", title="", snippet="the cat sat", provider_rank=1),
            WebDocument(url="https://a.example/2", title="", snippet="dogs bark loudly", provider_rank=2),
            WebDocument(url="https://c.example/3", title="", snippet="the cat sat", provider_rank=3),
        ]

    def test_descending_with_url_tiebreak(self):
        ranked = rank_passages(WebQuery(text="cat sat"), self.docs())
        assert [p.source_url for p in ranked] == [
            "https://b.example/1", "https://c.example/3", "https://a.example/2"
        ]
        assert ranked[0].bm25 == ranked[1].bm25 > ranked[2].bm25

    def test_passage_truncation(self):
        doc = WebDocument(url="u", title="", snippet="word " * 1000, provider_rank=1)
        ranked = rank_passages(WebQuery(text="word"), [doc])
        assert len(ranked[0].text) <= 1200

    def test_no_documents_or_snippets_give_no_passages(self):
        blank = WebDocument(url="u", title="t", snippet=" ", provider_rank=1)
        assert rank_passages(WebQuery(text="q"), []) == []
        assert rank_passages(WebQuery(text="q"), [blank]) == []

    def test_first_index_numbers_passages_on(self):
        query = WebQuery(text="cat sat")
        plain = rank_passages(query, self.docs())
        offset = rank_passages(query, self.docs(), first_index=3)
        assert [p.source_url for p in offset] == [p.source_url for p in plain]
        assert [p.index for p in offset] == [p.index + 3 for p in plain]

    def test_fixture_provider_and_search_limit(self):
        provider = FixtureSearchProvider(
            data={"q": [{"url": f"u{i}", "snippet": "s"} for i in range(12)]}
        )
        docs = search(WebQuery(text="q"), provider)
        assert [d.url for d in docs] == [f"u{i}" for i in range(10)]
        assert [d.provider_rank for d in docs] == list(range(1, 11))

    def test_search_sorts_and_cuts_a_provider_reply(self):
        class Unruly:
            """Ignores ``m`` and replies in reverse rank order."""

            def search(self, query_text, m):
                return [WebDocument(f"u{r}", "", "s", r) for r in range(12, 0, -1)]

        docs = search(WebQuery(text="q"), Unruly())
        assert [d.provider_rank for d in docs] == list(range(1, 11))

    def test_search_leaves_the_provider_reply_as_it_was(self):
        class Keeper:
            """Replies with the same list object every time."""

            reply = [WebDocument(f"u{r}", "", "s", r) for r in (3, 1, 2)]

            def search(self, query_text, m):
                return self.reply

        provider = Keeper()
        for _ in range(2):
            docs = search(WebQuery(text="q"), provider)
            assert [d.provider_rank for d in docs] == [1, 2, 3]
            assert [d.provider_rank for d in provider.reply] == [3, 1, 2]
            assert docs is not provider.reply


class TestFilter:
    def passages(self, n):
        return [Passage(text=f"passage {i}", source_url=f"u{i}") for i in range(n)]

    def test_threshold_keeps_at_or_above(self):
        judgments = [
            {"index": 0, "confidence": 0.49, "stance": "supports"},
            {"index": 1, "confidence": 0.5, "stance": "refutes"},
            {"index": 2, "confidence": 0.9, "stance": "neutral"},
        ]
        gw = gateway(default=json.dumps({"judgments": judgments}))
        kept = filter_evidence("c", self.passages(3), gw)
        assert [(e.passage.index, e.stance) for e in kept] == [(0, "refutes"), (0, "neutral")]
        assert [e.consistency_confidence for e in kept] == [0.5, 0.9]

    def test_out_of_range_confidence_clamped_with_warning(self, caplog):
        judgments = [{"index": 0, "confidence": 1.7, "stance": "supports"}]
        gw = gateway(default=json.dumps({"judgments": judgments}))
        with caplog.at_level("WARNING"):
            kept = filter_evidence("c", self.passages(1), gw)
        assert kept[0].consistency_confidence == 1.0
        assert any("clamping" in r.message for r in caplog.records)

    def test_seventeen_passages_send_one_request(self):
        gw = gateway(default=json.dumps({"judgments": []}))
        filter_evidence("c", self.passages(17), gw)
        assert gw.call_count == 1

    def test_bogus_rows_skipped(self):
        judgments = [
            {"index": 99, "confidence": 0.9},
            {"confidence": 0.9},
            {"index": 0, "confidence": "high"},
            {"index": 0, "confidence": 0.8, "stance": "sideways"},
        ]
        gw = gateway(default=json.dumps({"judgments": judgments}))
        kept = filter_evidence("c", self.passages(1), gw)
        assert len(kept) == 1
        assert kept[0].stance == "neutral"

    # each row is skipped, so the next row judges passage 0 (1.7 and true
    # would read as index 1, and the bad confidences would judge passage 0)
    @pytest.mark.parametrize("row", [
        {"index": 0, "confidence": "inf"},
        {"index": 0, "confidence": "-Infinity"},
        {"index": 0, "confidence": math.nan},
        {"index": 0, "confidence": math.inf},
        pytest.param({"index": 0, "confidence": 10 ** 400}, id="confidence of 401 digits"),
        {"index": 0, "confidence": True},
        {"index": 1.7, "confidence": 0.9},
        {"index": True, "confidence": 0.9},
        {"index": math.inf, "confidence": 0.9},
    ], ids=repr)
    def test_row_of_no_whole_index_or_finite_confidence_is_skipped(self, row):
        judgments = [row, {"index": 0, "confidence": 0.6, "stance": "refutes"}]
        gw = gateway(default=json.dumps({"judgments": judgments}))
        kept = filter_evidence("c", self.passages(2), gw)
        assert [(e.passage.text, e.consistency_confidence, e.stance) for e in kept] == [
            ("passage 0", 0.6, "refutes"),
        ]

    def test_whole_float_index_counts(self):
        judgments = [{"index": 1.0, "confidence": 0.7, "stance": "supports"}]
        gw = gateway(default=json.dumps({"judgments": judgments}))
        assert [e.passage.text for e in filter_evidence("c", self.passages(2), gw)] == [
            "passage 1",
        ]

    def test_no_passages_send_no_request(self):
        gw = gateway()
        assert filter_evidence("c", [], gw) == []
        assert gw.call_count == 0

    def test_only_the_first_judgment_of_a_passage_counts(self):
        # a second row for index 0 would list the passage twice in every prompt
        judgments = [
            {"index": 0, "confidence": 0.9, "stance": "supports"},
            {"index": 0, "confidence": 0.8, "stance": "refutes"},
            {"index": 1, "confidence": 0.2, "stance": "supports"},
            {"index": 1, "confidence": 0.9, "stance": "supports"},
        ]
        gw = gateway(default=json.dumps({"judgments": judgments}))
        passages = [
            Passage(text=f"passage {i}", source_url="https://a", index=i) for i in range(2)
        ]
        kept = filter_evidence("c", passages, gw)
        assert [(e.passage.index, e.stance) for e in kept] == [(0, "supports")]
        evidence = Evidence.of(KnowledgeSubgraph(), kept)
        assert evidence.ids == {"p:https://a#0"}
        assert evidence.text.count("[p:https://a#0]") == 1

    @pytest.mark.parametrize("judgments", [None, 3, "x", {}])
    def test_judgments_not_a_list_is_a_parse_failure(self, judgments):
        gw = gateway(default=json.dumps({"judgments": judgments}))
        with pytest.raises(ParseFailure):
            filter_evidence("c", self.passages(1), gw)

    @pytest.mark.parametrize("stance", [None, 3, ["supports"], {}])
    def test_stance_that_is_not_text_reads_neutral(self, stance):
        judgments = [{"index": 0, "confidence": 0.8, "stance": stance}]
        gw = gateway(default=json.dumps({"judgments": judgments}))
        assert [e.stance for e in filter_evidence("c", self.passages(1), gw)] == ["neutral"]


# a graph that links no surface, so every web entity is a synthetic one
EMPTY_GRAPH = FixtureKgBackend(data={"entities": [], "relations": []})


def make_evidence(text, url="https://e.example", confidence=0.8):
    return FilteredEvidence(
        passage=Passage(text=text, source_url=url),
        consistency_confidence=confidence,
        stance="supports",
    )


class TestToTriplets:
    def test_synthetic_ids_are_deterministic(self):
        assert synthetic_entity("Paris").id == synthetic_entity("paris").id
        assert synthetic_entity("Paris").id.startswith("W:")
        assert synthetic_relation("located in").id.startswith("WR:")
        assert synthetic_entity("Paris").id != synthetic_entity("London").id

    def test_extraction(self):
        gw = gateway(
            default=json.dumps({"subject": "Paris", "relation": "capital of", "object": "France"})
        )
        out = to_triplets([make_evidence("Paris is the capital of France")], "c", gw, EMPTY_GRAPH)
        assert len(out) == 1
        t = out[0].triplet
        assert t.origin == "web" and t.confidence == 0.8
        assert t.subject.label == "Paris" and t.object.label == "France"

    def test_failed_items_skipped(self):
        def responder(text):
            if "Passage: one" in text:
                return "garbage"
            return json.dumps({"subject": "A", "relation": "r", "object": "B"})

        gw = gateway(responder=responder)
        out = to_triplets([make_evidence("one"), make_evidence("two")], "c", gw, EMPTY_GRAPH)
        assert len(out) == 1
        assert gw.call_count == 4  # "one" fails its ask and both repairs

    def test_all_failed_gives_no_triplets(self):
        gw = gateway(default="not json at all")
        assert to_triplets([make_evidence("one")], "c", gw, EMPTY_GRAPH) == []

    def test_no_evidence_sends_no_request(self):
        gw = gateway()
        assert to_triplets([], "c", gw, EMPTY_GRAPH) == []
        assert gw.call_count == 0

    @pytest.mark.parametrize("value", [None, "", " ", {}, [], 3], ids=repr)
    @pytest.mark.parametrize("name", ["subject", "relation", "object"])
    def test_field_that_is_not_text_skips_the_item(self, name, value):
        good = {"subject": "A", "relation": "r", "object": "B"}

        def responder(text):
            if "Passage: one" in text:
                return json.dumps(dict(good, **{name: value}))
            return json.dumps(good)

        gw = gateway(responder=responder)
        out = to_triplets([make_evidence("one", url="u1"), make_evidence("two", url="u2")], "c", gw,
                          EMPTY_GRAPH)
        assert [wt.provenance for wt in out] == ["u2"]
        assert gw.call_count == 2  # a well-formed reply is not repaired
        assert to_triplets([make_evidence("one")], "c", gw, EMPTY_GRAPH) == []

    def test_reply_of_no_text_fields_makes_no_triplet(self):
        gw = gateway(default=json.dumps({"subject": None, "relation": {}, "object": 3}))
        assert to_triplets([make_evidence("x")], "c", gw, EMPTY_GRAPH) == []

    def test_whitespace_in_fields_collapses_before_linking(self):
        def responder(text):
            if "Passage: spaced" in text:
                return json.dumps(
                    {"subject": " Barack  Obama ", "relation": "visited\t in", "object": "Mars\nBase"}
                )
            return json.dumps({"subject": "Barack Obama", "relation": "visited in",
                               "object": "Mars Base"})

        kg = CountingKg(SMALL_GRAPH)
        evidence = [make_evidence("spaced"), make_evidence("plain")]
        out = to_triplets(evidence, "c", gateway(responder=responder), kg_backend=kg)
        assert sorted(kg.searches) == ["Barack Obama", "Mars Base"]
        spaced, plain = (wt.triplet for wt in out)
        assert spaced.subject.id == "Q76"
        assert spaced.relation == plain.relation == synthetic_relation("visited in")
        assert spaced.object == plain.object == synthetic_entity("Mars Base")
        assert spaced.key == plain.key

    def test_known_entity_reuses_kg_id(self, small_graph_backend):
        gw = gateway(
            default=json.dumps(
                {"subject": "Barack Obama", "relation": "visited", "object": "Mars Base"}
            )
        )
        out = to_triplets([make_evidence("x")], "c", gw, kg_backend=small_graph_backend)
        assert out[0].triplet.subject.id == "Q76"
        assert out[0].triplet.object.id.startswith("W:")


class CountingKg(FixtureKgBackend):
    """A fixture graph that records every entity search."""

    def __init__(self, data):
        super().__init__(data=data)
        self.searches = []

    def search_entities(self, text, limit=5):
        self.searches.append(text)
        return super().search_entities(text, limit)


def split_passage(text):
    """Extracts "S | r | O" from the prompt's passage."""
    passage = re.search(r"^Passage: (.*)$", text, re.MULTILINE).group(1)
    subject, relation, obj = passage.split(" | ")
    return json.dumps({"subject": subject, "relation": relation, "object": obj})


class TestOneRequestPerTextAndSurface:
    def test_same_text_is_extracted_once(self):
        llm = SlowLlm(split_passage)
        evidence = [
            make_evidence("Barack Obama | visited | Mars Base", url="https://a.example", confidence=0.9),
            make_evidence("Barack Obama | visited | Mars Base", url="https://b.example", confidence=0.6),
        ]
        out = to_triplets(evidence, "c", LlmGateway(llm, default_policy()), EMPTY_GRAPH)
        assert len(llm.prompts) == 1
        assert [(wt.provenance, wt.confidence, wt.triplet.confidence) for wt in out] == [
            ("https://a.example", 0.9, 0.9), ("https://b.example", 0.6, 0.6),
        ]
        assert out[0].triplet.key == out[1].triplet.key

    def test_shared_surface_is_searched_once(self):
        kg = CountingKg(SMALL_GRAPH)
        evidence = [
            make_evidence("Barack Obama | visited | Kenya"),
            make_evidence("Barack Obama | born in | Honolulu"),
            make_evidence("Kenya | hosted | Barack Obama"),
        ]
        out = to_triplets(evidence, "c", gateway(responder=split_passage), kg_backend=kg)
        assert sorted(kg.searches) == ["Barack Obama", "Honolulu", "Kenya"]
        assert [(wt.triplet.subject.id, wt.triplet.object.id) for wt in out] == [
            ("Q76", "Q114"), ("Q76", "Q18094"), ("Q114", "Q76"),
        ]

    def test_unparseable_duplicated_text_skips_both_items(self):
        def responder(text):
            return "garbage" if "Passage: one" in text else split_passage(text)

        gw = gateway(responder=responder)
        evidence = [make_evidence("one", url="u1"), make_evidence("A | r | B", url="u2"),
                    make_evidence("one", url="u3")]
        out = to_triplets(evidence, "c", gw, EMPTY_GRAPH)
        assert [wt.provenance for wt in out] == ["u2"]
        assert gw.call_count == 4  # "one" fails its ask and both repairs, once

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_slow_backends_give_the_serial_result(self, seed):
        evidence = [
            make_evidence(text, url=f"https://{i}.example", confidence=0.5 + i / 20)
            for i, text in enumerate([
                "Barack Obama | visited | Kenya", "Nairobi | capital of | Kenya",
                "Barack Obama | visited | Kenya", "Honolulu | twin of | Nairobi",
                "Barack Obama | met | Zzqx Wobble",
            ])
        ]

        def run(seed):
            gw = LlmGateway(SlowLlm(split_passage, seed), default_policy())
            return [asdict(wt) for wt in to_triplets(evidence, "c", gw, SlowKg(SMALL_GRAPH, seed))]

        assert run(seed) == run(None)


def base_subgraph():
    subgraph = KnowledgeSubgraph()
    subgraph.add_topic_entity(EntityId("Q76", "Barack Obama"))
    subgraph.add_triplet(
        Triplet(
            EntityId("Q76", "Barack Obama"),
            RelationId("P19", "place of birth"),
            EntityId("Q18094", "Honolulu"),
        )
    )
    return subgraph


def web_triplet(s, r, o, confidence=0.7, provenance="https://w.example"):
    return WebTriplet(
        triplet=Triplet(s, r, o, origin="web", confidence=confidence),
        provenance=provenance,
        confidence=confidence,
    )


class TestIntegrate:
    def test_exact_duplicate_skipped(self):
        before = base_subgraph()
        wt = web_triplet(
            EntityId("Q76", "Barack Obama"), RelationId("P19", "place of birth"),
            EntityId("Q18094", "Honolulu"),
        )
        after = integrate(before, [wt])
        assert len(after.triplets) == 1
        assert after.triplets[("Q76", "P19", "Q18094")].origin == "kg"

    def test_web_triplets_argument_unchanged(self):
        wts = [
            web_triplet(EntityId("W:1", "Michelle Obama"), RelationId("WR:1", "place of birth"),
                        EntityId("W:2", "Chicago")),
            web_triplet(EntityId("Q76", "Barack Obama"), RelationId("WR:2", "favorite food"),
                        EntityId("W:3", "Broccoli")),
        ]
        before = [asdict(wt) for wt in wts]
        integrate(base_subgraph(), wts)
        assert [asdict(wt) for wt in wts] == before

    def test_label_match_becomes_schema_aligned(self):
        before = base_subgraph()
        wt = web_triplet(
            EntityId("W:1", "Michelle Obama"),
            RelationId("WR:1", "  Place Of  Birth "),
            EntityId("W:2", "Chicago"),
        )
        after = integrate(before, [wt])
        added = after.triplets[("W:1", "P19", "W:2")]
        assert added.origin == "web" and added.confidence == 0.7

    def test_known_entity_unmatched_relation_becomes_annotation(self):
        before = base_subgraph()
        wt = web_triplet(
            EntityId("Q76", "Barack Obama"), RelationId("WR:2", "favorite food"),
            EntityId("W:3", "Broccoli"),
        )
        after = integrate(before, [wt])
        assert len(after.triplets) == 1
        notes = after.annotations["Q76"]
        assert len(notes) == 1 and "favorite food" in notes[0] and "https://w.example" in notes[0]

    def test_new_entities_become_web_triplet(self):
        after = integrate(
            base_subgraph(),
            [web_triplet(EntityId("W:4", "A"), RelationId("WR:5", "met"), EntityId("W:5", "B"))],
        )
        t = after.triplets[("W:4", "WR:5", "W:5")]
        assert t.origin == "web"

    def test_pure_and_kg_preserving(self):
        before = base_subgraph()
        snapshot = before.to_json()
        wts = [
            web_triplet(EntityId("Q76", "Barack Obama"), RelationId("WR:2", "x"), EntityId("W:3", "C")),
            web_triplet(EntityId("W:4", "A"), RelationId("WR:5", "met"), EntityId("W:5", "B")),
        ]
        after = integrate(before, wts)
        assert before.to_json() == snapshot  # input untouched
        for key, t in before.triplets.items():
            assert after.triplets[key] is t or after.triplets[key] == t
            assert after.triplets[key].origin == "kg"

    def test_idempotent(self):
        wts = [
            web_triplet(EntityId("Q76", "Barack Obama"), RelationId("WR:2", "x"), EntityId("W:3", "C")),
            web_triplet(EntityId("W:4", "A"), RelationId("WR:5", "met"), EntityId("W:5", "B")),
            web_triplet(EntityId("W:1", "M"), RelationId("WR:1", "place of birth"), EntityId("W:2", "D")),
        ]
        evidence = [make_evidence("Barack Obama gave a speech.")]
        once = integrate(base_subgraph(), wts, evidence)
        twice = integrate(once, wts, evidence)
        assert once.to_json() == twice.to_json()

    def test_passage_mentions_annotate_entities(self):
        after = integrate(base_subgraph(), [], [make_evidence("Barack Obama gave a speech.")])
        assert any("speech" in n for n in after.annotations["Q76"])


# -- the web step's filter request and concurrent extractions ------------------


def listed_passages(text):
    return re.findall(r"^(\d+)\. (.*)$", text.split("Passages:\n", 1)[-1], re.MULTILINE)


def keep_statements(text):
    """Keeps the passages that state a triplet; extracts it, except from S4's."""
    if "Judge each passage" in text:
        return json.dumps({"judgments": [
            {"index": int(i), "confidence": 0.9 if "|" in p else 0.1, "stance": "supports"}
            for i, p in listed_passages(text)
        ]})
    passage = re.search(r"^Passage: (.*)$", text, re.MULTILINE).group(1)
    if passage.startswith("S4 "):
        return "garbage"
    subject, relation, obj = passage.split(" | ")
    return json.dumps({"subject": subject, "relation": relation, "object": obj})


def web_corpus(n=4, per_claim=10):
    """Claims whose people link to the graph but whose facts are only on the
    web: each search returns the decisive statement among ``per_claim`` hits."""
    graph, claims = build_corpus(n)
    graph = dict(graph, triples=[])
    results = {}
    for c in claims:
        person = c["support"].split(" | ")[0]
        decisive = c["support"] if c["gold_label"] == "Supported" else c["refute"]
        snippets = [decisive] + [
            f"{person} visited Town{j} Delta in {1990 + j}." for j in range(per_claim - 1)
        ]
        results[c["claim"]] = [
            {"url": f"https://{c['id']}.example/{j}", "snippet": s} for j, s in enumerate(snippets)
        ]
    return graph, claims, results


WEB_GRAPH, WEB_CLAIMS, WEB_RESULTS = web_corpus()


def test_web_episode_trajectory_reads_back_as_written():
    # the webSearch step's query payload is written out as the JSON object it was
    _, trajectory = run_episode(
        WEB_CLAIMS[0]["claim"], default_policy(), EpisodeConfig(),
        ScriptedBackend(responder=OracleResponder(specs=WEB_CLAIMS)),
        FixtureKgBackend(data=WEB_GRAPH), web_provider=FixtureSearchProvider(data=WEB_RESULTS),
    )
    assert WEB_SEARCH in trajectory.action_kinds()
    text = trajectory.to_json()
    assert trajectory_from_jsonable(json.loads(text)).to_json() == text


def web_outputs(seed):
    """Report, trajectories and prompt counts of a two-client eval over the
    web corpus."""
    llm = SlowLlm(OracleResponder(specs=WEB_CLAIMS), seed)
    runner = EpisodeRunner(
        default_policy(), EpisodeConfig(), llm, SlowKg(WEB_GRAPH, seed),
        web_provider=SlowSearch(WEB_RESULTS, seed),
    )
    records = [DatasetRecord(c["id"], c["claim"], c["gold_label"]) for c in WEB_CLAIMS]
    trajectories = []
    report = run_benchmark(records, runner, parallelism=2, collect_trajectories=trajectories)
    kinds = Counter(
        "filter" if "Judge each passage" in p
        else "extract" if "Extract the main factual statement" in p
        else "other"
        for p in llm.prompts
    )
    return report.to_json(), [t.to_json() for t in trajectories], kinds


class TestConcurrentWebStep:
    def passages(self, n):
        return [
            Passage(text=f"S{i} | r{i} | O{i}" if i % 3 else f"noise {i}", source_url=f"u{i}",
                    index=i)
            for i in range(n)
        ]

    def test_ten_passages_are_judged_in_one_request(self):
        passages = self.passages(10)
        llm = SlowLlm(keep_statements)
        kept = filter_evidence("c", passages, LlmGateway(llm, default_policy()))
        assert len(llm.prompts) == 1
        assert listed_passages(llm.prompts[0]) == [(str(i), p.text) for i, p in enumerate(passages)]
        assert [e.passage for e in kept] == [p for p in passages if "|" in p.text]

    def test_extractions_overlap(self):
        barrier = threading.Barrier(4, timeout=5)

        def responder(text):
            barrier.wait()
            return json.dumps({"subject": "A", "relation": "r", "object": "B"})

        evidence = [make_evidence(f"item {i}") for i in range(4)]
        assert len(to_triplets(evidence, "c", gateway(responder=responder), EMPTY_GRAPH)) == 4

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_order_does_not_depend_on_latency(self, seed):
        passages = self.passages(20)
        gw = LlmGateway(SlowLlm(keep_statements, seed, max_ms=3.0), default_policy())
        kept = filter_evidence("c", passages, gw)
        assert [e.passage.text for e in kept] == [p.text for p in passages if "|" in p.text]
        triplets = to_triplets(kept, "c", gw, EMPTY_GRAPH)
        assert [(wt.triplet.subject.label, wt.provenance) for wt in triplets] == [
            (f"S{i}", f"u{i}") for i in range(20) if i % 3 and i != 4
        ]

    def test_first_error_in_input_order_wins(self):
        def responder(text):
            if "item 1" in text:
                time.sleep(0.03)
                raise TransportError("item 1 failed")
            if "item 3" in text:
                raise TransportError("item 3 failed")  # raises first in time
            return json.dumps({"subject": "A", "relation": "r", "object": "B"})

        llm = SlowLlm(responder)
        evidence = [make_evidence(f"item {i}") for i in range(4)]
        with pytest.raises(TransportError, match="item 1 failed"):
            to_triplets(evidence, "c", LlmGateway(llm, default_policy()), EMPTY_GRAPH)
        assert len(llm.prompts) == 4  # every item still asked

    def test_failed_filter_request_ends_the_episode_in_one_forced_verdict(self):
        oracle = OracleResponder(specs=WEB_CLAIMS)

        def responder(text):
            if "Judge each passage" in text:
                raise TransportError("filter failed")
            return oracle(text)

        llm = SlowLlm(responder)
        result, trajectory = run_episode(
            WEB_CLAIMS[0]["claim"], default_policy(), EpisodeConfig(), llm,
            FixtureKgBackend(data=WEB_GRAPH), web_provider=FixtureSearchProvider(data=WEB_RESULTS),
        )
        assert result.forced and trajectory.forced_reason == "transport_error"
        assert trajectory.action_kinds()[-2:] == [WEB_SEARCH, VERDICT_ACTION]
        assert trajectory.steps[-2][1].note == "transport error: filter failed"

        def sent(phrase):
            return sum(phrase in p for p in llm.prompts)

        assert sent("Judge each passage") == 1
        assert sent("Extract the main factual statement") == 0
        assert sent("The retrieval budget is exhausted") == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_episodes_do_not_depend_on_latency(self, seed):
        reference = web_outputs(None)
        report = json.loads(reference[0])
        assert report["balanced_accuracy"] == 1.0 and report["failed_records"] == []
        for trajectory in map(json.loads, reference[1]):
            assert WEB_SEARCH in [step["action"]["kind"] for step in trajectory["steps"]]
        kinds = reference[2]
        assert report["mean_counters"]["llm_calls"] * len(WEB_CLAIMS) == sum(kinds.values())
        searches = sum(
            step["action"]["kind"] == WEB_SEARCH
            for trajectory in map(json.loads, reference[1]) for step in trajectory["steps"]
        )
        assert kinds["filter"] == searches == len(WEB_CLAIMS)
        assert kinds["extract"] == 10 * len(WEB_CLAIMS)
        assert web_outputs(seed) == reference
