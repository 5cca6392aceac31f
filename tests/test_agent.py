import json
import re

import pytest

from claimcheck.agent import (
    EXPAND_KG,
    INIT_KG,
    NEED_KG,
    NEED_WEB,
    SUFFICIENT,
    VERDICT_ACTION,
    WEB_SEARCH,
    Action,
    EpisodeConfig,
    EpisodeRunner,
    Trajectory,
    VerdictResult,
    _EpisodeState,
    assess_sufficiency,
    coerce_action,
    read_trajectories,
    run_episode,
    trajectory_from_jsonable,
    write_trajectories,
)
from claimcheck.errors import EmptyClaim, ScriptMiss, TransportError
from claimcheck.graph import KnowledgeSubgraph
from claimcheck.kg import FixtureKgBackend
from claimcheck.llm import LlmGateway, ScriptedBackend
from claimcheck.policy import default_policy
from claimcheck.web import FixtureSearchProvider, WebDocument

from conftest import OracleResponder, build_corpus, build_dense_graph


def make_runner(claims, graph, responder=None, **config_kwargs):
    backend = FixtureKgBackend(data=graph)
    llm = ScriptedBackend(responder=responder or OracleResponder(specs=claims))
    return EpisodeRunner(default_policy(), EpisodeConfig(**config_kwargs), llm, backend)


class TestCoercion:
    def fresh(self, **kw):
        return _EpisodeState(config=EpisodeConfig(**kw))

    def test_first_action_forced_to_init(self):
        state = self.fresh()
        kind, warning = coerce_action(VERDICT_ACTION, state)
        assert kind == INIT_KG and warning

    def test_init_requested_first_is_legal(self):
        assert coerce_action(INIT_KG, self.fresh()) == (INIT_KG, None)

    def test_verdict_always_legal_after_init(self):
        state = self.fresh()
        state.has_init = True
        assert coerce_action(VERDICT_ACTION, state) == (VERDICT_ACTION, None)

    def test_expand_past_hop_budget_coerced(self):
        state = self.fresh(n_hops=2, n_init=1)
        state.has_init = True
        state.expand_count = 1
        state.last_hint = NEED_KG
        kind, warning = coerce_action(EXPAND_KG, state)
        assert kind in (WEB_SEARCH, VERDICT_ACTION) and warning

    def test_web_past_limit_coerced(self):
        state = self.fresh(max_web_searches=1)
        state.has_init = True
        state.web_count = 1
        state.last_hint = NEED_WEB
        kind, warning = coerce_action(WEB_SEARCH, state)
        assert kind in (EXPAND_KG, VERDICT_ACTION) and warning

    def test_everything_exhausted_falls_to_verdict(self):
        state = self.fresh(n_hops=1, n_init=1, max_web_searches=0)
        state.has_init = True
        kind, warning = coerce_action("dance", state)
        assert kind == VERDICT_ACTION and "unrecognized" in warning

    def test_unknown_action_follows_hint(self):
        state = self.fresh()
        state.has_init = True
        state.last_hint = NEED_WEB
        kind, _ = coerce_action("retrieveMoar", state)
        assert kind == WEB_SEARCH

    def test_web_illegal_without_provider(self):
        state = _EpisodeState(config=EpisodeConfig(), has_web=False)
        state.has_init = True
        state.last_hint = NEED_WEB
        kind, warning = coerce_action(WEB_SEARCH, state)
        assert kind == EXPAND_KG and warning
        state.expand_count = 3
        assert coerce_action(WEB_SEARCH, state)[0] == VERDICT_ACTION

    def test_expand_illegal_without_frontier(self):
        state = _EpisodeState(config=EpisodeConfig(), has_frontier=False)
        state.has_init = True
        state.last_hint = NEED_KG
        kind, warning = coerce_action(EXPAND_KG, state)
        assert kind == WEB_SEARCH and warning
        state.has_web = False
        assert coerce_action(EXPAND_KG, state)[0] == VERDICT_ACTION

    def test_action_kind_validated(self):
        with pytest.raises(ValueError):
            Action("sing")


class TestSufficiency:
    def test_empty_subgraph_short_circuits(self):
        gw = LlmGateway(ScriptedBackend(), default_policy())  # any call would miss
        assert assess_sufficiency("c", KnowledgeSubgraph(), gw) == NEED_WEB
        assert gw.call_count == 0

    def test_unparseable_reply_is_unknown(self):
        graph, claims = build_corpus(1)
        backend = FixtureKgBackend(data=graph)
        from claimcheck.kg import RetrievalBudget, init_kg_retrieval

        oracle = LlmGateway(
            ScriptedBackend(responder=OracleResponder(specs=claims)), default_policy()
        )
        subgraph = init_kg_retrieval(
            claims[0]["claim"], 4, 1, RetrievalBudget(), oracle, backend
        )
        broken = LlmGateway(ScriptedBackend(default="not json"), default_policy())
        assert assess_sufficiency(claims[0]["claim"], subgraph, broken) == "unknown"


class TestEpisode:
    def test_oracle_claim_supported(self):
        graph, claims = build_corpus(2)
        runner = make_runner(claims, graph)
        result, traj = runner.run(claims[0]["claim"])
        assert result.label == "Supported"
        assert not result.forced
        assert result.citations and result.citations[0].startswith("t:")

    def test_oracle_claim_refuted(self):
        graph, claims = build_corpus(2)
        runner = make_runner(claims, graph)
        result, _ = runner.run(claims[1]["claim"])
        assert result.label == "Refuted"

    def test_empty_claim_rejected(self):
        graph, claims = build_corpus(1)
        runner = make_runner(claims, graph)
        with pytest.raises(EmptyClaim):
            runner.run("  ")

    def test_first_step_is_init_and_single_verdict(self):
        graph, claims = build_corpus(2)
        _, traj = make_runner(claims, graph).run(claims[0]["claim"])
        kinds = traj.action_kinds()
        assert kinds[0] == INIT_KG
        assert kinds.count(INIT_KG) == 1
        assert kinds.count(VERDICT_ACTION) == 1 and kinds[-1] == VERDICT_ACTION

    def test_step_limit_forces_verdict(self):
        graph, claims = build_corpus(2, depth=2)
        runner = make_runner(
            claims, graph,
            responder=OracleResponder(specs=claims, sufficiency="never"),
            max_steps=3, max_web_searches=0,
        )
        result, traj = runner.run(claims[0]["claim"])
        assert result.forced
        assert traj.forced_reason == "step_limit"
        assert len(traj.steps) == 4  # 3 working steps + terminal verdict step
        assert traj.action_kinds()[-1] == VERDICT_ACTION

    def test_depth2_claim_needs_expansion(self):
        graph, claims = build_corpus(2, depth=2)
        result, traj = make_runner(claims, graph).run(claims[0]["claim"])
        assert result.label == claims[0]["gold_label"]
        assert EXPAND_KG in traj.action_kinds()

    def test_invalid_citations_dropped_with_warning(self):
        graph, claims = build_corpus(1)

        oracle = OracleResponder(specs=claims)

        def responder(text):
            out = oracle(text)
            if out and '"label"' in out:
                payload = json.loads(out)
                payload["citations"] = payload.get("citations", []) + ["t:bogus|x|y"]
                return json.dumps(payload)
            return out

        runner = make_runner(claims, graph, responder=responder)
        result, traj = runner.run(claims[0]["claim"])
        assert "t:bogus|x|y" not in result.citations
        assert any("dropped citation" in w for w in traj.warnings)

    def test_counters_present_and_consistent(self):
        graph, claims = build_corpus(2)
        _, traj = make_runner(claims, graph).run(claims[0]["claim"])
        c = traj.counters
        assert set(c) == {
            "llm_calls", "llm_retries", "sparql_queries", "web_searches",
            "core_llm_calls", "prune_llm_calls", "verdict_llm_calls",
        }
        assert c["core_llm_calls"] == c["prune_llm_calls"] + c["verdict_llm_calls"]
        assert c["llm_calls"] >= c["core_llm_calls"]
        assert c["web_searches"] == 0

    def test_no_web_steps_without_provider(self):
        graph, claim = build_dense_graph(fanout=4, depth=4, n_roots=4)

        def run(max_web_searches):
            llm = ScriptedBackend(responder=OracleResponder(sufficiency="never", action="webSearch"))
            config = EpisodeConfig(max_web_searches=max_web_searches)
            return EpisodeRunner(default_policy(), config, llm, FixtureKgBackend(data=graph)).run(claim)[1]

        traj = run(max_web_searches=2)
        assert WEB_SEARCH not in traj.action_kinds()
        assert traj.counters["llm_calls"] == 29
        assert traj.to_json() == run(max_web_searches=0).to_json()

    def test_unlinkable_claim_without_web_goes_to_verdict(self):
        graph, claims = build_corpus(1)
        _, traj = make_runner(claims, graph).run("Martians Landed in Ohio.")
        assert traj.action_kinds() == [INIT_KG, VERDICT_ACTION]
        assert traj.counters["llm_calls"] == 2
        assert traj.counters["sparql_queries"] == 0

    def web_runner(self, responder):
        graph, claims = build_corpus(1)
        web_data = {
            "Martians Landed in Ohio.": [
                {"url": "https://n.example/a", "snippet": "Martians Landed | visited | Ohio Field"},
                {"url": "https://n.example/b", "snippet": "Ohio Field | hosts | Martians Landed"},
            ]
        }
        oracle = OracleResponder(specs=claims, verdict="refute_all")
        llm = ScriptedBackend(responder=lambda text: responder(oracle, text))
        return EpisodeRunner(
            default_policy(), EpisodeConfig(), llm, FixtureKgBackend(data=graph),
            web_provider=FixtureSearchProvider(data=web_data),
        )

    def test_extraction_transport_error_keeps_passages(self):
        def responder(oracle, text):
            if "Extract the main factual statement" in text:
                raise TransportError("extraction endpoint down")
            return oracle(text)

        result, traj = self.web_runner(responder).run("Martians Landed in Ohio.")
        assert not result.forced and traj.forced_reason == ""
        web_step = traj.steps[traj.action_kinds().index(WEB_SEARCH)][1]
        assert web_step.added_triplets == 0
        assert web_step.added_item_ids == ["p:https://n.example/a#0", "p:https://n.example/b#1"]

    def test_extraction_script_miss_propagates(self):
        def responder(oracle, text):
            if "Extract the main factual statement" in text:
                return None
            return oracle(text)

        with pytest.raises(ScriptMiss):
            self.web_runner(responder).run("Martians Landed in Ohio.")

    def test_second_search_of_same_urls_gets_new_ids(self):
        class ChangingSearch:
            """The same two URLs on every search, with new snippets each time."""

            def __init__(self):
                self.calls = 0

            def search(self, query_text, m):
                self.calls += 1
                return [
                    WebDocument(url=f"https://n.example/{name}", title="", provider_rank=i + 1,
                                snippet=f"Martians Landed | visit {self.calls} | Ohio Field {name}")
                    for i, name in enumerate("ab")
                ]

        graph, claims = build_corpus(1)
        oracle = OracleResponder(specs=claims, action=WEB_SEARCH, verdict="refute_all")
        prompts = []

        def responder(text):
            prompts.append(text)
            return oracle(text)

        _, traj = run_episode(
            "Martians Landed in Ohio.", default_policy(), EpisodeConfig(max_web_searches=2),
            ScriptedBackend(responder=responder), FixtureKgBackend(data=graph), ChangingSearch(),
        )
        assert traj.action_kinds() == [INIT_KG, WEB_SEARCH, WEB_SEARCH, VERDICT_ACTION]
        first, second = (
            [i for i in obs.added_item_ids if i.startswith("p:")] for _, obs in traj.steps[1:3]
        )
        assert first == ["p:https://n.example/a#0", "p:https://n.example/b#1"]
        assert second == ["p:https://n.example/a#2", "p:https://n.example/b#3"]
        verdict_prompt = [p for p in prompts if "Decide whether the claim" in p][-1]
        cited = re.findall(r"^\[(p:[^\]]+)\]", verdict_prompt, re.MULTILINE)
        assert cited == first + second

    def test_forced_verdict_script_miss_propagates(self):
        graph, claims = build_corpus(1)
        oracle = OracleResponder(specs=claims)

        def responder(text):
            return None if "retrieval budget is exhausted" in text else oracle(text)

        with pytest.raises(ScriptMiss):
            make_runner(claims, graph, responder=responder, max_steps=1).run(claims[0]["claim"])

    def test_web_search_on_unlinkable_claim(self):
        graph, claims = build_corpus(1)
        web_data = {
            "Martians Landed in Ohio.": [
                {"url": "https://n.example/a", "snippet": "Martians Landed | visited | Ohio Field"}
            ]
        }
        backend = FixtureKgBackend(data=graph)
        responder = OracleResponder(specs=claims, verdict="refute_all")
        runner = EpisodeRunner(
            default_policy(), EpisodeConfig(), ScriptedBackend(responder=responder),
            backend, web_provider=FixtureSearchProvider(data=web_data),
        )
        result, traj = runner.run("Martians Landed in Ohio.")
        kinds = traj.action_kinds()
        assert WEB_SEARCH in kinds
        assert kinds.index(WEB_SEARCH) > kinds.index(INIT_KG)
        assert result.label == "Refuted"
        assert traj.counters["web_searches"] >= 1

    def test_unparseable_verdict_forces_refuted_fallback(self):
        graph, claims = build_corpus(1)

        oracle = OracleResponder(specs=claims, sufficiency="always")

        def responder(text):
            if "Decide whether the claim" in text or "budget is exhausted" in text:
                return "*** not json ***"
            return oracle(text)

        runner = make_runner(claims, graph, responder=responder)
        result, traj = runner.run(claims[0]["claim"])
        assert result.forced
        assert result.label == "Refuted"
        assert traj.forced_reason == "parse_failure"

    def test_determinism(self):
        graph, claims = build_corpus(3, depth=2)
        a = make_runner(claims, graph).run(claims[2]["claim"])[1].to_json()
        b = make_runner(claims, graph).run(claims[2]["claim"])[1].to_json()
        assert a == b


class TestTrajectory:
    def test_web_after_expand(self):
        def kinds(*names):
            t = Trajectory(claim="c")
            t.steps = [(Action(name), None) for name in names]
            return t.web_after_expand()

        assert kinds(INIT_KG, WEB_SEARCH, EXPAND_KG, VERDICT_ACTION) is None
        assert kinds(INIT_KG, EXPAND_KG, EXPAND_KG, WEB_SEARCH, WEB_SEARCH) == 3


class TestSerialization:
    def trajectory(self):
        graph, claims = build_corpus(2, depth=2)
        return make_runner(claims, graph).run(claims[0]["claim"])[1]

    def test_round_trip(self, tmp_path):
        traj = self.trajectory()
        path = tmp_path / "trajs.jsonl"
        write_trajectories(str(path), [traj])
        loaded = read_trajectories(str(path))
        assert len(loaded) == 1
        assert loaded[0].to_json() == traj.to_json()

    def test_jsonable_round_trip_preserves_fields(self):
        traj = self.trajectory()
        back = trajectory_from_jsonable(json.loads(traj.to_json()))
        assert back.claim == traj.claim
        assert back.action_kinds() == traj.action_kinds()
        assert back.verdict.label == traj.verdict.label
        assert back.counters == traj.counters
        assert back.forced_reason == traj.forced_reason

    def test_verdictless_trajectory_round_trips(self):
        traj = Trajectory(claim="c")
        back = trajectory_from_jsonable(json.loads(traj.to_json()))
        assert back.verdict is None and back.steps == []

    def test_verdict_fields(self):
        v = VerdictResult(label="Supported", justification="j", citations=["t:a|b|c"])
        assert not v.forced
