import json
import math
import os
import random
import re
import sys
import threading
import time
import zlib

import pytest

from claimcheck import agent, kg, llm
from claimcheck.agent import INIT_KG, VERDICT_ACTION, EpisodeConfig, run_episode
from claimcheck.errors import (
    AllMentionsUnlinkable,
    BudgetExhausted,
    EmptyClaim,
    ParseFailure,
    QueryTimeout,
    TransportError,
)
from claimcheck.graph import EntityId, KnowledgeSubgraph, RelationId
from claimcheck.kg import (
    EntityMention,
    GraphReads,
    RelationCandidate,
    WikidataBackend,
    expand_entity,
    expand_kg,
    extract_mentions,
    fetch_relations,
    init_kg_retrieval,
    link_entities,
    prune_relations,
)
from claimcheck.llm import LlmGateway, ScriptedBackend
from claimcheck.policy import EXPANSION_PRUNE, RELATION_PRUNE, default_policy

from conftest import (
    SMALL_GRAPH,
    OracleResponder,
    SlowKg,
    SlowLlm,
    StubRequests,
    build_corpus,
    build_dense_graph,
    hammer,
)
from claimcheck.kg import FixtureKgBackend


def oracle_gateway(responder=None, **kwargs):
    backend = ScriptedBackend(responder=responder or OracleResponder(**kwargs))
    return LlmGateway(backend, default_policy())


def retrieve(claim, gateway, backend, hops=1, **config):
    """The subgraph ``init_kg_retrieval`` fills under ``EpisodeConfig(**config)``,
    grown by ``expand_kg`` to ``hops`` hops."""
    subgraph, config = KnowledgeSubgraph(), EpisodeConfig(**config)
    reads = GraphReads(backend)
    init_kg_retrieval(claim, subgraph, config, gateway, reads)
    for _ in range(hops - 1):
        expand_kg(claim, subgraph, config, gateway, reads)
    return subgraph


class TestMentions:
    def test_golden_obama_sentence(self):
        mentions = extract_mentions("Barack Obama was born in Kenya.")
        assert [(m.surface, m.span) for m in mentions] == [
            ("Barack Obama", (0, 12)),
            ("Kenya", (25, 30)),
        ]

    def test_empty_claim(self):
        with pytest.raises(EmptyClaim):
            extract_mentions("   ")

    def test_no_proper_nouns(self):
        assert extract_mentions("it rained yesterday") == []

    def test_sentence_initial_lone_capital_dropped(self):
        mentions = extract_mentions("The sky was blue over Paris.")
        assert [m.surface for m in mentions] == ["Paris"]

    def test_quoted_span_and_year(self):
        mentions = extract_mentions('the film "blue valley" premiered in 1999')
        assert [m.surface for m in mentions] == ["blue valley", "1999"]

    def test_spans_ordered_and_disjoint(self):
        mentions = extract_mentions("Ada Lovelace met Charles Babbage in London in 1833.")
        spans = [m.span for m in mentions]
        assert spans == sorted(spans)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2


class TestLinking:
    def test_fixture_lookup(self, small_graph_backend):
        mentions = extract_mentions("Barack Obama was born in Kenya.")
        linked = link_entities(mentions, small_graph_backend)
        assert [e.id for e in linked] == ["Q76", "Q114"]

    def test_dedup_preserving_order(self, small_graph_backend):
        mentions = extract_mentions("Barack Obama praised Barack Obama.")
        linked = link_entities(mentions, small_graph_backend)
        assert [e.id for e in linked] == ["Q76"]

    def test_all_unlinkable(self, small_graph_backend):
        mentions = extract_mentions("Zzqx Wobble said so.")
        with pytest.raises(AllMentionsUnlinkable):
            link_entities(mentions, small_graph_backend)

    def test_unlinkable_mentions_dropped(self, small_graph_backend):
        mentions = extract_mentions("Barack Obama met Zzqx Wobble.")
        linked = link_entities(mentions, small_graph_backend)
        assert [e.id for e in linked] == ["Q76"]

    SURFACES = ("Kenya", "Zzqx Wobble", "Barack Obama", "kenya", "Honolulu")

    def linked(self, backend):
        mentions = [EntityMention(surface, (0, 0)) for surface in self.SURFACES]
        return [e.id for e in link_entities(mentions, backend)]

    def test_mention_searches_overlap(self, small_graph_backend):
        # serial searches would break the barrier after its timeout
        barrier = threading.Barrier(len(self.SURFACES), timeout=5)

        class Meeting:
            def search_entities(self, text, limit=5):
                barrier.wait()
                return small_graph_backend.search_entities(text, limit)

        assert self.linked(Meeting()) == ["Q114", "Q76", "Q18094"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_link_order_does_not_depend_on_latency(self, seed):
        reference = self.linked(FixtureKgBackend(data=SMALL_GRAPH))
        assert self.linked(SlowKg(SMALL_GRAPH, seed, max_ms=5.0)) == reference


class TestFetchRelations:
    def test_fixture_outgoing(self, small_graph_backend):
        candidates = fetch_relations(EntityId("Q76"), "outgoing", GraphReads(small_graph_backend))
        assert {(c.relation.id, c.sample_objects[0].id) for c in candidates} == {
            ("P19", "Q18094"),
            ("P27", "Q30"),
        }
        assert all(c.direction == "outgoing" for c in candidates)

    def test_fixture_incoming(self, small_graph_backend):
        candidates = fetch_relations(EntityId("Q30"), "incoming", GraphReads(small_graph_backend))
        assert [(c.relation.id, c.sample_objects[0].id) for c in candidates] == [("P27", "Q76")]

    def test_isolated_node(self, small_graph_backend):
        assert fetch_relations(EntityId("Q3139"), "outgoing", GraphReads(small_graph_backend)) == []

    def test_expansion_charges_one_query_for_both_directions(self, small_graph_backend):
        fetches = []

        class Counting:
            search_entities = small_graph_backend.search_entities

            def relations_of(self, entity_id, direction):
                fetches.append((entity_id, direction))
                return small_graph_backend.relations_of(entity_id, direction)

        _, trajectory = run_episode(
            "Barack Obama was born in Kenya.", default_policy(), EpisodeConfig(max_steps=1),
            ScriptedBackend(responder=OracleResponder()), Counting(),
        )
        assert sorted(fetches) == [
            (e, d) for e in ("Q114", "Q76") for d in ("incoming", "outgoing")
        ]
        assert trajectory.counters["sparql_queries"] == 2

    def test_directional_fetches_overlap(self, small_graph_backend):
        # serial fetches would break the barrier after its timeout
        barrier = threading.Barrier(2, timeout=5)

        class Meeting:
            def relations_of(self, entity_id, direction):
                barrier.wait()
                if direction == "outgoing":
                    time.sleep(0.01)  # the outgoing fetch finishes last
                return small_graph_backend.relations_of(entity_id, direction)

        candidates = expand_entity(EntityId("Q30"), GraphReads(Meeting()))
        assert [(c.direction, c.relation.id) for c in candidates] == [("incoming", "P27")]
        candidates = expand_entity(EntityId("Q76"), GraphReads(Meeting()))
        assert [(c.direction, c.relation.id) for c in candidates] == [
            ("outgoing", "P19"), ("outgoing", "P27")
        ]


def prune_oracle(candidates, scores, k):
    """Independent full-sort-and-truncate with the documented tie-break."""
    paired = list(zip(candidates, scores))
    paired.sort(key=lambda cs: (-cs[1], cs[0].relation.id, cs[0].anchor.id))
    return [c for c, _ in paired[: min(k, len(paired))]]


def make_candidates(spec):
    return [
        RelationCandidate(
            relation=RelationId(rel, rel),
            direction="outgoing",
            anchor=EntityId(anchor, anchor),
        )
        for rel, anchor in spec
    ]


class TestPrune:
    def score_gateway(self, scores):
        import json

        return LlmGateway(
            ScriptedBackend(default=json.dumps({"scores": scores})), default_policy()
        )

    def test_tie_break_by_ascending_relation_id(self):
        candidates = make_candidates(
            [("P5", "Q1"), ("P3", "Q1"), ("P9", "Q1"), ("P1", "Q1"), ("P7", "Q1"), ("P2", "Q1")]
        )
        scores = [5, 4, 4, 3, 2, 1]
        pruned = prune_relations("c", candidates, 4, self.score_gateway(scores))
        assert pruned == prune_oracle(candidates, scores, 4)
        # the two score-4 candidates order by ascending relation id
        assert [c.relation.id for c in pruned] == ["P5", "P3", "P9", "P1"]

    def test_underfull_beam(self):
        candidates = make_candidates([("P2", "Q1"), ("P1", "Q1")])
        pruned = prune_relations("c", candidates, 4, self.score_gateway([1, 2]))
        assert [c.relation.id for c in pruned] == ["P1", "P2"]

    def test_degenerate_beam(self):
        candidates = make_candidates([("P2", "Q1"), ("P1", "Q1"), ("P3", "Q2")])
        pruned = prune_relations("c", candidates, 1, self.score_gateway([1, 5, 2]))
        assert [c.relation.id for c in pruned] == ["P1"]

    # a bool is a number to Python, and float() of 401 digits raises OverflowError
    @pytest.mark.parametrize("score", ["high", None, [1], {}, pytest.param(True, id="True"),
                                       pytest.param(10 ** 400, id="401 digits")])
    def test_score_that_is_no_number_is_a_parse_failure(self, score):
        with pytest.raises(ParseFailure):
            prune_relations("c", make_candidates([("P1", "Q1"), ("P2", "Q1")]), 1,
                            self.score_gateway([1, score]))

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf, "NaN", "inf"], ids=repr)
    def test_score_that_is_not_finite_is_a_parse_failure(self, score):
        # json reads NaN; sorted on it, [0.1, NaN, 0.9, 0.5] kept 0.1 and NaN at k=2
        candidates = make_candidates([("P0", "Q1"), ("P1", "Q1"), ("P2", "Q1"), ("P3", "Q1")])
        with pytest.raises(ParseFailure, match="finite"):
            prune_relations("c", candidates, 2, self.score_gateway([0.1, score, 0.9, 0.5]))

    def test_miscounted_scores_are_repaired(self):
        backend = ScriptedBackend(sequence=['{"scores": [1, 2]}', '{"scores": [1, 3, 2]}'])
        gateway = LlmGateway(backend, default_policy())
        candidates = make_candidates([("P1", "Q1"), ("P2", "Q1"), ("P3", "Q1")])
        assert [c.relation.id for c in prune_relations("c", candidates, 2, gateway)] == ["P2", "P3"]
        assert (gateway.call_count, gateway.retry_count) == (2, 1)

    def test_exactly_one_llm_call(self):
        gateway = self.score_gateway([1, 2])
        prune_relations("c", make_candidates([("P1", "Q1"), ("P2", "Q1")]), 2, gateway)
        assert gateway.call_count == 1

    def test_randomized_against_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 12)
            spec = [
                (f"P{rng.randint(1, 5)}", f"Q{rng.randint(1, 5)}") for _ in range(n)
            ]
            candidates = make_candidates(spec)
            scores = [rng.randint(0, 4) for _ in range(n)]
            k = rng.randint(1, 6)
            got = prune_relations("c", candidates, k, self.score_gateway(scores))
            want = prune_oracle(make_candidates(spec), scores, k)
            assert [(c.relation.id, c.anchor.id) for c in got] == [
                (c.relation.id, c.anchor.id) for c in want
            ]


class TestRetrieval:
    def test_init_bounds(self, small_graph_backend):
        subgraph = retrieve(
            "Barack Obama was born in Kenya.", oracle_gateway(), small_graph_backend
        )
        assert max(subgraph.hop_of.values()) <= 1
        assert subgraph.hop_of["Q76"] == 0 and subgraph.hop_of["Q114"] == 0
        assert len(subgraph.triplets) <= 2 * 4
        assert ("Q76", "P19", "Q18094") in subgraph.triplets

    def test_unlinkable_claim_yields_empty_observation(self, small_graph_backend):
        subgraph = retrieve("Zzqx Wobble said so.", oracle_gateway(), small_graph_backend)
        assert not subgraph.triplets and not subgraph.annotations

    def test_empty_claim(self, small_graph_backend):
        with pytest.raises(EmptyClaim):
            retrieve("", oracle_gateway(), small_graph_backend)

    def test_chain_reached_at_hop_4(self):
        # chain of length 5: brute-force shortest path from head to tail is 4
        chain = {
            "entities": [{"id": f"C{i}", "label": f"Chain{i} Node"} for i in range(5)],
            "relations": [{"id": "P1", "label": "next"}],
            "triples": [[f"C{i}", "P1", f"C{i+1}"] for i in range(4)],
            "links": {"Chain0 Node": "C0"},
        }
        backend = FixtureKgBackend(data=chain)
        subgraph = retrieve("Chain0 Node starts it.", oracle_gateway(), backend, hops=4)
        assert subgraph.hop_of["C4"] == 4
        assert subgraph.hops_done == 4

    def test_expand_is_monotone_and_hop_arithmetic(self):
        graph, claims = build_corpus(4, depth=2)
        backend = FixtureKgBackend(data=graph)
        gw = oracle_gateway(specs=claims)
        claim = claims[0]["claim"]
        subgraph = retrieve(claim, gw, backend)
        before = set(subgraph.triplets)
        assert max(subgraph.hop_of.values()) == 1
        expand_kg(claim, subgraph, EpisodeConfig(), gw, GraphReads(backend))
        assert before <= set(subgraph.triplets)
        assert max(subgraph.hop_of.values()) == 2

    def test_expand_fixed_point_when_all_visited(self, small_graph_backend):
        config = EpisodeConfig()
        gw = oracle_gateway()
        claim = "Barack Obama was born in Kenya."
        subgraph = retrieve(claim, gw, small_graph_backend)
        for _ in range(3):
            expand_kg(claim, subgraph, config, gw, GraphReads(small_graph_backend))
        snapshot, expanded = subgraph.to_json(), set(subgraph.expanded)
        expand_kg(claim, subgraph, config, gw, GraphReads(small_graph_backend))
        assert subgraph.to_json() == snapshot
        assert subgraph.expanded == expanded

    def test_expand_past_n_hops_errors(self, small_graph_backend):
        config = EpisodeConfig(k=2, n_hops=1)
        gw = oracle_gateway()
        claim = "Barack Obama was born in Kenya."
        subgraph = KnowledgeSubgraph()
        init_kg_retrieval(claim, subgraph, config, gw, GraphReads(small_graph_backend))
        with pytest.raises(BudgetExhausted):
            expand_kg(claim, subgraph, config, gw, GraphReads(small_graph_backend))

    def test_one_hop_expands_k_of_a_larger_frontier(self):
        # six linked topics; each label shares two claim tokens, so ids break
        # the priority tie
        graph = {
            "entities": [{"id": f"E{i}", "label": f"Name{i} Person"} for i in range(6)],
            "relations": [{"id": "P1", "label": "knows"}],
            "triples": [[f"E{i}", "P1", f"E{(i + 1) % 6}"] for i in range(6)],
            "links": {f"Name{i} Person": f"E{i}" for i in range(6)},
        }
        claim = ", ".join(f"Name{i} Person" for i in range(5)) + " and Name5 Person met."
        gw, backend = oracle_gateway(), FixtureKgBackend(data=graph)
        subgraph = retrieve(claim, gw, backend, k=4)
        assert sorted(e for e, hop in subgraph.hop_of.items() if hop == 0) == [
            f"E{i}" for i in range(6)
        ]
        assert subgraph.expanded == {"E0", "E1", "E2", "E3"}
        assert subgraph.hops_done == 1

    def test_hop_values_respect_bfs_layers(self):
        graph, claims = build_corpus(4, depth=2)
        backend = FixtureKgBackend(data=graph)
        gw = oracle_gateway(specs=claims)
        claim = claims[1]["claim"]
        subgraph = retrieve(claim, gw, backend)
        expand_kg(claim, subgraph, EpisodeConfig(), gw, GraphReads(backend))
        # brute-force BFS over the final triplet set
        adjacency = {}
        for s, _, o in subgraph.triplets:
            adjacency.setdefault(s, set()).add(o)
            adjacency.setdefault(o, set()).add(s)
        dist = {e.id: 0 for e in link_entities(extract_mentions(claim), backend)}
        frontier = list(dist)
        while frontier:
            nxt = []
            for node in frontier:
                for nb in adjacency.get(node, ()):
                    if nb not in dist:
                        dist[nb] = dist[node] + 1
                        nxt.append(nb)
            frontier = nxt
        for entity, hop in subgraph.hop_of.items():
            if entity in dist:
                assert hop >= dist[entity]

    def test_determinism_byte_identical_subgraph(self):
        graph, claims = build_corpus(6, depth=2)
        claim = claims[2]["claim"]

        def run():
            backend = FixtureKgBackend(data=graph)
            gw = oracle_gateway(specs=claims)
            subgraph = retrieve(claim, gw, backend)
            expand_kg(claim, subgraph, EpisodeConfig(), gw, GraphReads(backend))
            return subgraph.to_json()

        assert run() == run()


class TestWikidataRetry:
    def backend(self, monkeypatch, outcomes):
        self.sleeps = []
        monkeypatch.setattr(llm.time, "sleep", self.sleeps.append)
        wikidata = WikidataBackend()
        wikidata._requests = StubRequests(outcomes)
        return wikidata

    def test_timeout_is_retried(self, monkeypatch):
        wikidata = self.backend(monkeypatch, ["timeout", {"search": [{"id": "Q1", "label": "X"}]}])
        assert wikidata.search_entities("X") == [EntityId("Q1", "X")]
        assert len(wikidata._requests.sent) == 2
        assert len(self.sleeps) == 1

    def test_second_timeout_raises_query_timeout(self, monkeypatch):
        wikidata = self.backend(monkeypatch, ["timeout", "timeout"])
        with pytest.raises(QueryTimeout):
            wikidata.search_entities("X")
        assert len(wikidata._requests.sent) == 2
        assert len(self.sleeps) == 1  # between the attempts, not after the last

    def test_reply_that_is_not_json_ends_the_episode_in_a_forced_verdict(self, monkeypatch):
        # both mentions' searches try twice, and every reply is an HTML page
        wikidata = self.backend(monkeypatch, ["<html>busy</html>"] * 4)
        result, trajectory = run_episode(
            "Barack Obama was born in Kenya.", default_policy(), EpisodeConfig(),
            ScriptedBackend(responder=OracleResponder()), wikidata,
        )
        assert result.forced and trajectory.forced_reason == "transport_error"
        assert trajectory.action_kinds() == [INIT_KG, VERDICT_ACTION]
        assert trajectory.steps[0][1].note.endswith("is not a JSON object")
        assert not wikidata._requests.outcomes

    SEARCH = {"search": [{"id": "Q76", "label": "Barack Obama"}]}
    ROW = {"p": {"value": "http://www.wikidata.org/entity/P19"},
           "pLabel": {"value": "place of birth"},
           "o": {"value": "http://www.wikidata.org/entity/Q18094"},
           "oLabel": {"value": "Honolulu"}}

    @pytest.mark.parametrize("results", [
        {"bindings": {"p": {"value": "P19"}}}, {"bindings": None}, [1, 2],
    ], ids=["object", "null", "results-list"])
    def test_bindings_not_a_list_end_the_episode_in_a_forced_verdict(self, monkeypatch, results):
        # one mention, then both directional fetches get the malformed reply
        bad = {"results": results}
        wikidata = self.backend(monkeypatch, [self.SEARCH, bad, bad])
        result, trajectory = run_episode(
            "Barack Obama was born.", default_policy(), EpisodeConfig(),
            ScriptedBackend(responder=OracleResponder()), wikidata,
        )
        assert result.forced and trajectory.forced_reason == "transport_error"
        assert trajectory.action_kinds() == [INIT_KG, VERDICT_ACTION]
        assert trajectory.steps[0][1].note.endswith("has no list of bindings")

    def test_malformed_binding_rows_are_skipped(self, monkeypatch):
        rows = [
            1,
            {k: v for k, v in self.ROW.items() if k != "p"},
            {**self.ROW, "p": {"type": "uri"}},
            {**self.ROW, "p": "P19"},
            {**self.ROW, "o": {"value": 7}},
            {**self.ROW, "pLabel": None, "oLabel": "Honolulu"},
            self.ROW,
        ]
        wikidata = self.backend(monkeypatch, [{"results": {"bindings": rows}}])
        assert wikidata.relations_of("Q76", "outgoing") == [
            (RelationId("P19"), [EntityId("Q18094"), EntityId("Q18094")]),
        ]

    def test_malformed_search_hits_are_skipped(self, monkeypatch):
        hits = [1, {"label": "no id"}, {"id": 5}, {"id": "Q1", "label": None}, {"id": "Q2"}]
        wikidata = self.backend(monkeypatch, [{"search": hits}, {"search": {"id": "Q1"}}])
        assert [(e.id, e.label) for e in wikidata.search_entities("X")] == [("Q1", ""), ("Q2", "")]
        with pytest.raises(TransportError, match="no list of hits"):
            wikidata.search_entities("Y")


class TestWikidataCache:
    SEARCH = {"search": [{"id": "Q1", "label": "X"}]}
    SPARQL = {"results": {"bindings": [{
        "p": {"value": "http://www.wikidata.org/entity/P31"}, "pLabel": {"value": "instance of"},
        "o": {"value": "http://www.wikidata.org/entity/Q5"}, "oLabel": {"value": "human"},
        "s": {"value": "http://www.wikidata.org/entity/Q2"}, "sLabel": {"value": "Y"},
    }]}}

    def backend(self, cache_dir, outcomes):
        wikidata = WikidataBackend(cache_dir=str(cache_dir))
        wikidata._requests = StubRequests(outcomes)
        return wikidata

    def lookups(self, wikidata):
        return (
            wikidata.search_entities("X"),
            wikidata.relations_of("Q1", "outgoing"),
            wikidata.relations_of("Q1", "incoming"),
        )

    def test_second_backend_on_the_cache_dir_makes_no_requests(self, tmp_path):
        first = self.backend(tmp_path, [self.SEARCH, self.SPARQL, self.SPARQL])
        found = self.lookups(first)
        assert len(first._requests.sent) == 3
        assert found[0] == [EntityId("Q1", "X")] and found[1][0][1] == [EntityId("Q5", "human")]
        second = self.backend(tmp_path, [])  # any request would pop an empty list
        assert self.lookups(second) == found
        assert len(second._requests.sent) == 0
        assert os.listdir(tmp_path) == ["wikidata.jsonl"]

    def test_repeated_lookup_in_one_backend_is_cached(self, tmp_path):
        wikidata = self.backend(tmp_path, [self.SEARCH])
        assert wikidata.search_entities("X") == wikidata.search_entities("X")
        assert len(wikidata._requests.sent) == 1

    def test_malformed_reply_is_not_cached(self, tmp_path):
        wikidata = self.backend(tmp_path, [{"results": {"bindings": {}}}, self.SPARQL])
        with pytest.raises(TransportError, match="no list of bindings"):
            wikidata.relations_of("Q1", "outgoing")
        assert wikidata.relations_of("Q1", "outgoing") == [
            (RelationId("P31", "instance of"), [EntityId("Q5", "human")]),
        ]
        assert len(wikidata._requests.sent) == 2
        with open(tmp_path / "wikidata.jsonl", encoding="utf-8") as fh:
            assert [json.loads(json.loads(line)["response_text"]) for line in fh] == [self.SPARQL]

    @pytest.mark.parametrize("stale", [{"results": {"bindings": {}}}, [1], "not json"])
    def test_stale_entry_is_followed_by_a_request(self, tmp_path, stale):
        # an entry that parse rejects, as a version that cached every reply
        # could write: the lookup asks Wikidata again
        self.lookups(self.backend(tmp_path, [self.SEARCH, self.SPARQL, self.SPARQL]))
        path = tmp_path / "wikidata.jsonl"
        with open(path, encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh]
        entries[1]["response_text"] = stale if isinstance(stale, str) else json.dumps(stale)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(entry) + "\n" for entry in entries)

        wikidata = self.backend(tmp_path, [self.SPARQL])
        good = [(RelationId("P31", "instance of"), [EntityId("Q5", "human")])]
        assert wikidata.relations_of("Q1", "outgoing") == good
        assert len(wikidata._requests.sent) == 1
        # the good reply now follows the stale entry, in this backend and the next
        assert wikidata.relations_of("Q1", "outgoing") == good
        assert self.backend(tmp_path, []).relations_of("Q1", "outgoing") == good
        assert len(wikidata._requests.sent) == 1

    def test_concurrent_writers_of_one_query(self, tmp_path):
        payload = {"results": {"bindings": self.SPARQL["results"]["bindings"] * 50}}
        wikidata = self.backend(tmp_path, [payload] * 320)
        wikidata.cache.get = lambda key: None  # every call misses and writes
        found = hammer(lambda: wikidata.relations_of("Q1", "outgoing"))
        reread = self.backend(tmp_path, [])
        assert [reread.relations_of("Q1", "outgoing")] * 320 == found
        with open(tmp_path / "wikidata.jsonl", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 320


class TestWikidataLoopback:
    SEARCH = {"search": [{"id": "Q1", "label": "X"}]}

    def backend(self, loopback, cache_dir):
        return WikidataBackend(
            sparql_endpoint=loopback.url + "/sparql",
            action_api=loopback.url + "/w/api.php",
            cache_dir=str(cache_dir),
        )

    def cached(self, cache_dir):
        path = cache_dir / "wikidata.jsonl"
        if not path.exists():
            return []
        with open(path, encoding="utf-8") as fh:
            return [json.loads(json.loads(line)["response_text"]) for line in fh]

    def test_html_page_then_json_is_parsed_and_cached_once(self, loopback, retry_pauses,
                                                           tmp_path):
        loopback.replies.extend([(200, "<html>busy</html>"), (200, self.SEARCH)])
        wikidata = self.backend(loopback, tmp_path)
        assert wikidata.search_entities("X") == [EntityId("Q1", "X")]
        assert wikidata.search_entities("X") == [EntityId("Q1", "X")]
        assert [r[0] for r in loopback.requests] == ["GET", "GET"]
        assert loopback.requests[0][1].startswith("/w/api.php?action=wbsearchentities&search=X")
        assert len(retry_pauses) == 1
        assert self.cached(tmp_path) == [self.SEARCH]

    def test_two_failures_raise_after_two_requests(self, loopback, retry_pauses, tmp_path):
        loopback.replies.extend([(500, "<html>down</html>")] * 2)
        with pytest.raises(TransportError, match="status 500"):
            self.backend(loopback, tmp_path).relations_of("Q1", "outgoing")
        assert [r[1].split("?")[0] for r in loopback.requests] == ["/sparql"] * 2
        assert self.cached(tmp_path) == []

    def test_reply_that_parse_rejects_is_sent_once_and_not_cached(self, loopback,
                                                                 retry_pauses, tmp_path):
        loopback.replies.append((200, {"search": {"id": "Q1"}}))
        with pytest.raises(TransportError, match="no list of hits"):
            self.backend(loopback, tmp_path).search_entities("X")
        assert len(loopback.requests) == 1 and not retry_pauses
        assert self.cached(tmp_path) == []


# -- a hop's concurrent expand-and-prune ----------------------------------------

DENSE_GRAPH, DENSE_CLAIM = build_dense_graph(fanout=4, depth=4, n_roots=4)
DENSE_ORACLE = OracleResponder(sufficiency="never")


def dense_outputs(seed):
    """Subgraph, hop-prune prompts and trajectory of the dense claim."""
    llm, kg = SlowLlm(DENSE_ORACLE, seed), SlowKg(DENSE_GRAPH, seed)
    gateway = LlmGateway(llm, default_policy())
    subgraph = retrieve(DENSE_CLAIM, gateway, kg, hops=4)
    hop_prompts = [p for p in llm.prompts if p.startswith("Score each candidate")]
    _, trajectory = run_episode(
        DENSE_CLAIM, default_policy(), EpisodeConfig(),
        SlowLlm(DENSE_ORACLE, seed), SlowKg(DENSE_GRAPH, seed),
    )
    return subgraph.to_json(), hop_prompts, trajectory.to_json()


class TestConcurrentHop:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_output_does_not_depend_on_latency(self, seed):
        reference = dense_outputs(None)
        assert len(reference[1]) == 4
        assert dense_outputs(seed) == reference

    def test_counters_match_backend_calls(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(50):
                llm = SlowLlm(DENSE_ORACLE, seed, max_ms=0.3)
                kg = SlowKg(DENSE_GRAPH, seed, max_ms=0.3)
                _, trajectory = run_episode(DENSE_CLAIM, default_policy(), EpisodeConfig(), llm, kg)
                counters = trajectory.counters
                assert counters["llm_calls"] == len(llm.prompts), seed
                assert counters["sparql_queries"] * 2 == len(kg.fetches) == 32, seed
                assert counters["core_llm_calls"] == 21, seed
        finally:
            sys.setswitchinterval(interval)

    def test_failed_prune_propagates_first_error_after_every_task(self):
        # the second hop expands the four first children of the roots, by id
        first = retrieve(
            DENSE_CLAIM, LlmGateway(SlowLlm(DENSE_ORACLE), default_policy()), SlowKg(DENSE_GRAPH)
        )
        hop2 = sorted(first.frontier)
        assert len(hop2) == 4
        failing = {first.label_of(hop2[1]): 0.03, first.label_of(hop2[3]): 0.0}

        def responder(text):
            for label, delay in failing.items():
                if f"relation of entity {label} for" in text:
                    time.sleep(delay)  # the later entity in order fails first
                    raise TransportError(f"prune of {label} failed")
            return DENSE_ORACLE(text)

        llm, kg = SlowLlm(responder), SlowKg(DENSE_GRAPH)
        result, trajectory = run_episode(DENSE_CLAIM, default_policy(), EpisodeConfig(), llm, kg)
        assert result.forced and trajectory.forced_reason == "transport_error"
        assert trajectory.steps[-1][1].note.endswith(f"prune of {first.label_of(hop2[1])} failed")
        # every task of the failed hop expanded and asked for its prune; no
        # hop prune followed; the gateway counts the calls that raised too
        assert {e for e, _ in kg.fetches} >= set(hop2)
        assert trajectory.counters["sparql_queries"] == 8
        assert sum(p.startswith("Score each relation of entity") for p in llm.prompts) == 8
        assert sum(p.startswith("Score each candidate") for p in llm.prompts) == 1
        assert trajectory.counters["llm_calls"] == len(llm.prompts)


# -- the hop prune runs only over more than k survivors --------------------------

TWO_TOPICS = {
    "entities": [
        {"id": "A", "label": "Alpha One"}, {"id": "B", "label": "Beta Two"},
        {"id": "C", "label": "Gamma"}, {"id": "D", "label": "Delta"},
    ],
    "relations": [{"id": "P1", "label": "knows"}, {"id": "P2", "label": "owns"}],
    "triples": [["C", "P1", "A"], ["B", "P2", "D"]],
    "links": {"Alpha One": "A", "Beta Two": "B"},
}


def first_hop(claim, graph, k, responder=None):
    gateway = oracle_gateway(responder)
    subgraph = retrieve(claim, gateway, FixtureKgBackend(data=graph), k=k)
    return subgraph, gateway


# Obama with four relations, Kenya with none
RICH_OBAMA = {
    "entities": SMALL_GRAPH["entities"] + [
        {"id": "Q13133", "label": "Michelle Obama"}, {"id": "Q49088", "label": "Columbia"},
    ],
    "relations": SMALL_GRAPH["relations"] + [
        {"id": "P26", "label": "spouse"}, {"id": "P69", "label": "educated at"},
    ],
    "triples": [
        ["Q76", "P19", "Q18094"], ["Q76", "P26", "Q13133"],
        ["Q76", "P27", "Q30"], ["Q76", "P69", "Q49088"],
    ],
    "links": SMALL_GRAPH["links"],
}


class TestHopPrune:
    OBAMA = "Barack Obama was born in Kenya."

    @pytest.mark.parametrize("k", [3, 4])
    def test_at_most_k_survivors_keep_all_without_a_request(self, k):
        # Q76's prune keeps k of its four relations, Q114 has none: k survivors
        subgraph, gateway = first_hop(self.OBAMA, RICH_OBAMA, k)
        assert gateway.requests[EXPANSION_PRUNE] == 1
        assert gateway.requests[RELATION_PRUNE] == 0
        assert list(subgraph.triplets) == [
            ("Q76", "P19", "Q18094"), ("Q76", "P26", "Q13133"),
            ("Q76", "P27", "Q30"), ("Q76", "P69", "Q49088"),
        ][:k]

    def test_survivors_keep_expansion_order(self):
        # A expands first (ids break the priority tie) and its one relation is
        # incoming, scored below B's outgoing one: a score sort would put B first
        subgraph, gateway = first_hop("Alpha One met Beta Two.", TWO_TOPICS, 4)
        assert gateway.requests[RELATION_PRUNE] == 0
        assert list(subgraph.triplets) == [("C", "P1", "A"), ("B", "P2", "D")]

    def test_k_plus_one_survivors_send_one_request_and_keep_k(self):
        prompts = []
        oracle = OracleResponder()

        def responder(text):
            prompts.append(text)
            return oracle(text)

        subgraph, gateway = first_hop(self.OBAMA, SMALL_GRAPH, 2, responder)
        assert gateway.requests[RELATION_PRUNE] == 1
        hop_prompt = [p for p in prompts if p.startswith("Score each candidate")]
        assert len(hop_prompt) == 1 and "2. Kenya --[capital" in hop_prompt[0]
        assert list(subgraph.triplets) == [("Q76", "P19", "Q18094"), ("Q76", "P27", "Q30")]

    def test_garbage_hop_prune_reply_is_never_asked_for(self):
        # the hop prune would get an unparseable reply and force a verdict
        graph, claims = build_corpus(2, depth=1)
        oracle = OracleResponder(specs=claims)
        llm = SlowLlm(
            lambda text: "*** not json ***" if text.startswith("Score each candidate") else oracle(text)
        )
        result, trajectory = run_episode(
            claims[0]["claim"], default_policy(), EpisodeConfig(), llm, FixtureKgBackend(data=graph)
        )
        assert not result.forced and trajectory.forced_reason == ""
        assert result.label == claims[0]["gold_label"]
        assert not any(p.startswith("Score each candidate") for p in llm.prompts)


# -- the per-entity prune runs only over at least k relations -------------------

# Alpha One has one relation, Beta Two four and Delta, Beta Two's second, four
# more of its own; Epsilon, Beta Two's third, has one of its own and Zeta Two
# none
MIXED_SIZES = {
    "entities": [
        {"id": "A", "label": "Alpha One"}, {"id": "B", "label": "Beta Two"},
        {"id": "C", "label": "Gamma"}, {"id": "D", "label": "Delta"},
        {"id": "E", "label": "Epsilon"}, {"id": "F", "label": "Eta"},
        {"id": "G", "label": "Theta"}, {"id": "Z", "label": "Zeta Two"},
    ] + [{"id": f"L{j}", "label": f"Leaf{j}"} for j in range(1, 6)],
    "relations": [
        {"id": "P1", "label": "knows"}, {"id": "P2", "label": "owns"},
        {"id": "P3", "label": "funds"}, {"id": "P4", "label": "runs"},
    ],
    "triples": [
        ["C", "P1", "A"],
        ["B", "P1", "G"], ["B", "P2", "D"], ["B", "P3", "E"], ["B", "P4", "F"],
    ] + [["D", f"P{j}", f"L{j}"] for j in range(1, 5)] + [["E", "P1", "L5"]],
    "links": {"Alpha One": "A", "Beta Two": "B", "Zeta Two": "Z"},
}


def candidate_lines(prompt):
    return re.findall(r"^\d+\. (.*)$", prompt.split("Candidates:\n", 1)[-1], re.MULTILINE)


def reversing(text):
    """Prune scores that rank the candidates in reverse fetch order."""
    return json.dumps({"scores": list(range(len(candidate_lines(text))))})


class TestEntityPrune:
    def test_fewer_than_k_relations_keep_fetch_order_without_a_request(self):
        # Beta Two's four relations, outgoing and sorted by id; a prune would
        # have reversed them
        subgraph, gateway = first_hop("Beta Two met.", MIXED_SIZES, 5, reversing)
        assert sum(gateway.requests.values()) == 0
        assert list(subgraph.triplets) == [
            ("B", "P1", "G"), ("B", "P2", "D"), ("B", "P3", "E"), ("B", "P4", "F"),
        ]

    def test_incoming_relations_follow_the_outgoing_ones(self):
        graph = dict(MIXED_SIZES, triples=MIXED_SIZES["triples"] + [["C", "P1", "B"]])
        subgraph, gateway = first_hop("Beta Two met.", graph, 6, reversing)
        assert sum(gateway.requests.values()) == 0
        assert list(subgraph.triplets)[-2:] == [("B", "P4", "F"), ("C", "P1", "B")]

    def test_exactly_k_relations_are_still_pruned(self):
        # the prune can drop none of the four, but it orders them
        subgraph, gateway = first_hop("Beta Two met.", MIXED_SIZES, 4, reversing)
        assert gateway.requests[EXPANSION_PRUNE] == 1
        assert gateway.requests[RELATION_PRUNE] == 0
        assert list(subgraph.triplets) == [
            ("B", "P4", "F"), ("B", "P3", "E"), ("B", "P2", "D"), ("B", "P1", "G"),
        ]

    def test_zero_relations_send_nothing_and_still_charge_the_expansion(self):
        gateway = oracle_gateway()
        subgraph = retrieve("Zeta Two met.", gateway, FixtureKgBackend(data=MIXED_SIZES))
        assert sum(gateway.requests.values()) == 0
        assert not subgraph.triplets and subgraph.expanded == {"Z"}

    def test_hop_prune_sees_unpruned_and_pruned_survivors_in_expansion_order(self):
        # Alpha One expands first (ids break the priority tie) and keeps its one
        # relation unpruned; Beta Two's prune keeps two of four: 3 survivors > k
        prompts = []
        oracle = OracleResponder()

        def responder(text):
            prompts.append(text)
            return oracle(text)

        subgraph, gateway = first_hop("Alpha One met Beta Two.", MIXED_SIZES, 2, responder)
        assert gateway.requests[EXPANSION_PRUNE] == gateway.requests[RELATION_PRUNE] == 1
        hop_prompt = [p for p in prompts if p.startswith("Score each candidate")]
        assert len(hop_prompt) == 1 and candidate_lines(hop_prompt[0]) == [
            "Alpha One --[knows (incoming)]--> Gamma",
            "Beta Two --[knows (outgoing)]--> Theta",
            "Beta Two --[owns (outgoing)]--> Delta",
        ]
        assert list(subgraph.triplets) == [("B", "P1", "G"), ("B", "P2", "D")]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_slow_backends_give_the_serial_run(self, seed):
        def outputs(llm, kg):
            _, trajectory = run_episode("Alpha One met Beta Two.", default_policy(),
                                        EpisodeConfig(), llm, kg)
            return trajectory.to_json(), sorted(llm.prompts), trajectory.counters

        oracle = OracleResponder(sufficiency="never")
        reference = outputs(SlowLlm(oracle), FixtureKgBackend(data=MIXED_SIZES))
        # hop 1 prunes Beta Two alone, hop 2 Delta alone (Epsilon's one new
        # relation joins the hop prune unpruned): each hop mixes entities with
        # and without a prune
        prompts = reference[1]
        assert sum(p.startswith("Score each relation of entity") for p in prompts) == 2
        assert sum(p.startswith("Score each candidate") for p in prompts) == 2
        assert outputs(SlowLlm(oracle, seed), SlowKg(MIXED_SIZES, seed)) == reference


def episode_requests(monkeypatch, claim, graph, responder):
    """Requests per template id of one episode, as its gateway counted them."""
    gateways = []

    class Recording(LlmGateway):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            gateways.append(self)

    monkeypatch.setattr(agent, "LlmGateway", Recording)
    run_episode(claim, default_policy(), EpisodeConfig(), ScriptedBackend(responder=responder),
                FixtureKgBackend(data=graph))
    return dict(gateways[0].requests)


DEPTH1_GRAPH, DEPTH1_CLAIMS = build_corpus(2, depth=1)
DEPTH2_GRAPH, DEPTH2_CLAIMS = build_corpus(2, depth=2)

# person -member of-> group -works for-> org, with a city and a college beside
# each: hop 2 expands the group and the person's city and college
CHAIN_GRAPH = {
    "entities": [
        {"id": "A", "label": "Alpha One"}, {"id": "G", "label": "Gamma Union"},
        {"id": "O", "label": "Omega Corp"}, {"id": "X", "label": "Xi Corp"},
        {"id": "C1", "label": "Cedar City"}, {"id": "K1", "label": "Kappa College"},
        {"id": "C2", "label": "Birch City"}, {"id": "K2", "label": "Lambda College"},
    ],
    "relations": [
        {"id": "P1", "label": "member of"}, {"id": "P2", "label": "works for"},
        {"id": "P7", "label": "born in"}, {"id": "P8", "label": "alumnus of"},
    ],
    "triples": [
        ["A", "P1", "G"], ["A", "P7", "C1"], ["A", "P8", "K1"],
        ["G", "P2", "O"], ["G", "P7", "C2"], ["G", "P8", "K2"],
    ],
    "links": {"Alpha One": "A"},
}
CHAIN_CLAIMS = [{
    "id": "c1", "claim": "Alpha One works for Omega Corp.", "gold_label": "Supported",
    "support": "Gamma Union | works for | Omega Corp",
    "refute": "Gamma Union | works for | Xi Corp",
}]


class TestEpisodeRequests:
    """Pins every serial LLM request of the reference episodes, so a new one shows."""

    def test_depth1(self, monkeypatch):
        requests = episode_requests(monkeypatch, DEPTH1_CLAIMS[0]["claim"], DEPTH1_GRAPH,
                                    OracleResponder(specs=DEPTH1_CLAIMS))
        # the person's one relation is kept without a prune
        assert requests == {"sufficiency": 1, "verdict": 1}

    def test_depth2(self, monkeypatch):
        requests = episode_requests(monkeypatch, DEPTH2_CLAIMS[0]["claim"], DEPTH2_GRAPH,
                                    OracleResponder(specs=DEPTH2_CLAIMS))
        # neither the person nor its group has k relations to prune
        assert requests == {"sufficiency": 2, "verdict": 1}

    def test_hop2_chain(self, monkeypatch):
        # hop 2 fetches each entity's edge back to the person, which adds no
        # fact: the group keeps its three new relations without a prune, the
        # city and college have none, and three survivors need no hop prune
        requests = episode_requests(monkeypatch, CHAIN_CLAIMS[0]["claim"], CHAIN_GRAPH,
                                    OracleResponder(specs=CHAIN_CLAIMS))
        assert requests == {"sufficiency": 2, "verdict": 1}

    def test_dense(self, monkeypatch):
        # four hops of four expansions, each hop's 16 survivors cut to k=4
        requests = episode_requests(monkeypatch, DENSE_CLAIM, DENSE_GRAPH, DENSE_ORACLE)
        assert requests == {
            "expansion_prune": 16, "relation_prune": 4, "sufficiency": 3, "verdict": 1,
        }


# -- a relation that adds no fact is dropped before any prune -------------------

# Alpha One knows Beta and owns Xi; Gamma knows Beta too, and Beta funds Upsilon
KNOWN_AND_NEW = {
    "entities": [
        {"id": "A", "label": "Alpha One"}, {"id": "B", "label": "Beta"},
        {"id": "C", "label": "Gamma"}, {"id": "X", "label": "Xi"},
        {"id": "Y", "label": "Upsilon"},
    ],
    "relations": [
        {"id": "P1", "label": "knows"}, {"id": "P2", "label": "owns"},
        {"id": "P3", "label": "funds"},
    ],
    "triples": [["A", "P1", "B"], ["A", "P2", "X"], ["C", "P1", "B"], ["B", "P3", "Y"]],
    "links": {"Alpha One": "A"},
}

# Alpha One knows Beta, which has three relations of its own
BACK_EDGE = {
    "entities": [{"id": e, "label": label} for e, label in (
        ("A", "Alpha One"), ("B", "Beta"), ("C", "Gamma"), ("D", "Delta"), ("E", "Epsilon"),
    )],
    "relations": [{"id": f"P{j}", "label": f"rel {j}"} for j in range(1, 5)],
    "triples": [["A", "P1", "B"], ["B", "P2", "C"], ["B", "P3", "D"], ["B", "P4", "E"]],
    "links": {"Alpha One": "A"},
}


def back_edge_first(text):
    """Prune scores that rank incoming candidates, such as a back edge, first."""
    return json.dumps({"scores": [
        1.0 if "(incoming)" in line else 0.5 for line in candidate_lines(text)
    ]})


def hashed_scores(text):
    """Prune scores from a hash of each candidate line; the oracle's other
    replies, never sufficient."""
    if text.startswith("Score each"):
        return json.dumps({"scores": [
            zlib.crc32(line.encode("utf-8")) % 5 for line in candidate_lines(text)
        ]})
    return DENSE_ORACLE(text)


def random_graph(rng):
    """(graph, claim): a few entities joined by random edges, one or two linked."""
    n = rng.randint(3, 10)
    entities = [{"id": f"N{i}", "label": f"Node{i} Alpha"} for i in range(n)]
    triples = []
    for _ in range(rng.randint(2, 4 * n)):
        s, o = rng.sample(range(n), 2)
        triples.append([f"N{s}", f"P{rng.randint(1, 3)}", f"N{o}"])
    linked = rng.sample(entities, rng.randint(1, 2))
    graph = {
        "entities": entities,
        "relations": [{"id": f"P{j}", "label": f"rel {j}"} for j in range(1, 4)],
        "triples": triples,
        "links": {e["label"]: e["id"] for e in linked},
    }
    return graph, " and ".join(e["label"] for e in linked) + " met."


class TestNoOpRelations:
    def test_candidate_with_a_known_and_a_new_neighbor_is_kept_and_listed(self):
        # hop 2: Beta's incoming 'knows' holds Alpha One (known) and Gamma
        # (new), so Beta has k=2 relations that add a fact; Xi has none
        prompts = []
        oracle = OracleResponder()

        def responder(text):
            prompts.append(text)
            return oracle(text)

        gateway = oracle_gateway(responder)
        subgraph = retrieve("Alpha One met.", gateway, FixtureKgBackend(data=KNOWN_AND_NEW),
                            k=2, hops=2)
        beta = [p for p in prompts if p.startswith("Score each relation of entity Beta ")]
        assert len(beta) == 1 and candidate_lines(beta[0]) == [
            "Beta --[funds (outgoing)]--> Upsilon",
            "Beta --[knows (incoming)]--> Alpha One, Gamma",
        ]
        assert gateway.requests[EXPANSION_PRUNE] == 2 and gateway.requests[RELATION_PRUNE] == 0
        assert ("C", "P1", "B") in subgraph.triplets and subgraph.hop_of["C"] == 2

    def test_kept_relations_each_add_a_fact_when_the_back_edge_ranks_first(self):
        gateway = oracle_gateway(back_edge_first)
        subgraph = retrieve("Alpha One met.", gateway, FixtureKgBackend(data=BACK_EDGE),
                            k=2, hops=2)
        assert gateway.requests[EXPANSION_PRUNE] == 1 and gateway.requests[RELATION_PRUNE] == 0
        # hop 2 keeps k=2 of Beta's relations, each a new fact
        assert list(subgraph.triplets) == [("A", "P1", "B"), ("B", "P2", "C"), ("B", "P3", "D")]

    def instrument(self, monkeypatch):
        """Wraps the hop, its fetches and its prunes; returns the list of
        prunes sent, and of law breaks found, as the episodes run."""
        hop, prune, expand = kg.expand_hop, kg.prune_relations, kg.expand_entity
        before = {}
        pruned, problems = [], []

        def keys(cand):
            return [
                (cand.anchor.id, cand.relation.id, o.id) if cand.direction == "outgoing"
                else (o.id, cand.relation.id, cand.anchor.id)
                for o in cand.sample_objects
            ]

        def new_keys(cand):
            return [key for key in keys(cand) if key not in before["keys"]]

        def kept(added, candidates):
            """Fetched candidates whose triplets, one candidate after another,
            are ``added``; None when no such list exists."""
            if not added:
                return []
            for cand in candidates:
                n = len(cand.sample_objects)
                if n and added[:n] == keys(cand):
                    rest = kept(added[n:], candidates)
                    if rest is not None:
                        return [cand] + rest
            return None

        def wrapped_hop(subgraph, *args):
            before["keys"], before["fetched"] = set(subgraph.triplets), []
            added, add = [], subgraph.add_triplet
            subgraph.add_triplet = lambda t: added.append(t.key) or add(t)
            try:
                result = hop(subgraph, *args)
            finally:
                del subgraph.add_triplet
            # each relation the hop kept adds at least one fact
            retained = kept(added, before["fetched"])
            assert retained is not None, added
            problems.extend(("kept", c) for c in retained if not new_keys(c))
            return result

        def wrapped_expand(entity, backend):
            candidates = expand(entity, backend)
            before["fetched"].extend(candidates)
            return candidates

        def wrapped_prune(claim, candidates, *args, **kwargs):
            pruned.append(len(candidates))
            problems.extend(("listed", c) for c in candidates if not new_keys(c))
            return prune(claim, candidates, *args, **kwargs)

        monkeypatch.setattr(kg, "expand_hop", wrapped_hop)
        monkeypatch.setattr(kg, "expand_entity", wrapped_expand)
        monkeypatch.setattr(kg, "prune_relations", wrapped_prune)
        return pruned, problems

    def test_random_graphs_prune_and_keep_only_new_facts(self, monkeypatch):
        pruned, problems = self.instrument(monkeypatch)
        rng = random.Random(22)
        for episode in range(200):
            graph, claim = random_graph(rng)
            config = EpisodeConfig(k=rng.randint(1, 5))
            _, trajectory = run_episode(claim, default_policy(), config,
                                        ScriptedBackend(responder=hashed_scores),
                                        FixtureKgBackend(data=graph))
            assert not problems, (episode, problems)
            counters = trajectory.counters
            assert counters["sparql_queries"] <= config.k * config.n_hops, episode
            assert counters["core_llm_calls"] <= config.n_hops + config.k * config.n_hops + 1
        assert len(pruned) > 100

    def test_dense_worst_case_keeps_its_budget(self, monkeypatch):
        pruned, problems = self.instrument(monkeypatch)
        _, trajectory = run_episode(DENSE_CLAIM, default_policy(), EpisodeConfig(),
                                    ScriptedBackend(responder=DENSE_ORACLE),
                                    FixtureKgBackend(data=DENSE_GRAPH))
        assert not problems and len(pruned) == 20
        assert trajectory.counters["sparql_queries"] == 16
        assert trajectory.counters["core_llm_calls"] == 21
