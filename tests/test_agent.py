import json
import random
import re
import threading
import time
from collections import Counter

import pytest

from claimcheck import kg as kg_mod
from claimcheck.agent import (
    EXPAND_KG,
    INIT_KG,
    NEED_KG,
    NEED_WEB,
    SUFFICIENT,
    UNKNOWN,
    VERDICT_ACTION,
    WEB_SEARCH,
    Action,
    EpisodeConfig,
    Evidence,
    EpisodeRunner,
    Trajectory,
    VerdictResult,
    assess_sufficiency,
    coerce_action,
    legal_actions,
    read_trajectories,
    run_episode,
    select_action,
    trajectory_from_jsonable,
    verdict,
    write_trajectories,
)
from claimcheck.errors import EmptyClaim, ScriptMiss, TransportError
from claimcheck.evaluation import DatasetRecord, run_benchmark
from claimcheck.graph import KnowledgeSubgraph
from claimcheck.kg import FixtureKgBackend
from claimcheck.llm import LlmGateway, ScriptedBackend
from claimcheck.optimize import compute_reward
from claimcheck.policy import (
    EVIDENCE_FILTER,
    EXPANSION_PRUNE,
    FORCED_VERDICT,
    RELATION_PRUNE,
    SUFFICIENCY,
    TRIPLET_EXTRACT,
    VERDICT,
    WEB_QUERY,
    default_policy,
)
from claimcheck.web import FixtureSearchProvider, WebDocument, WebQuery

from conftest import (
    FaultyKg,
    FaultyLlm,
    FaultySearch,
    OracleResponder,
    SlowKg,
    SlowLlm,
    build_corpus,
    build_dense_graph,
    core_requests,
)


def make_runner(claims, graph, responder=None, **config_kwargs):
    backend = FixtureKgBackend(data=graph)
    llm = ScriptedBackend(responder=responder or OracleResponder(specs=claims))
    return EpisodeRunner(default_policy(), EpisodeConfig(**config_kwargs), llm, backend)


def legal(hops_done=1, frontier=("Q1",), expanded=(), web_steps=0, has_web=True, **config):
    """The legal action kinds after ``hops_done`` hops and ``web_steps`` searches."""
    subgraph = KnowledgeSubgraph()
    subgraph.hops_done, subgraph.frontier, subgraph.expanded = hops_done, set(frontier), set(expanded)
    trajectory = Trajectory(claim="c")
    trajectory.steps = [(Action(INIT_KG), None)] + [(Action(WEB_SEARCH), None)] * web_steps
    return legal_actions(EpisodeConfig(**config), subgraph, trajectory, has_web)


class TestCoercion:
    def test_verdict_always_legal_after_init(self):
        assert coerce_action(VERDICT_ACTION, legal(), NEED_KG) == (VERDICT_ACTION, None)
        assert legal(hops_done=4, max_web_searches=0) == {VERDICT_ACTION}

    def test_expand_past_hop_budget_coerced(self):
        kind, warning = coerce_action(EXPAND_KG, legal(hops_done=2, n_hops=2), NEED_KG)
        assert kind in (WEB_SEARCH, VERDICT_ACTION) and warning

    def test_web_past_limit_coerced(self):
        kind, warning = coerce_action(WEB_SEARCH, legal(web_steps=1, max_web_searches=1), NEED_WEB)
        assert kind in (EXPAND_KG, VERDICT_ACTION) and warning

    def test_everything_exhausted_falls_to_verdict(self):
        exhausted = legal(n_hops=1, max_web_searches=0)
        assert exhausted == {VERDICT_ACTION}
        kind, warning = coerce_action("dance", exhausted, SUFFICIENT)
        assert kind == VERDICT_ACTION and "unrecognized" in warning

    def test_unknown_action_follows_hint(self):
        kind, _ = coerce_action("retrieveMoar", legal(), NEED_WEB)
        assert kind == WEB_SEARCH

    def test_web_illegal_without_provider(self):
        kind, warning = coerce_action(WEB_SEARCH, legal(has_web=False), NEED_WEB)
        assert kind == EXPAND_KG and warning
        assert coerce_action(WEB_SEARCH, legal(hops_done=4, has_web=False), NEED_WEB)[0] == VERDICT_ACTION

    def test_expand_illegal_without_frontier(self):
        kind, warning = coerce_action(EXPAND_KG, legal(expanded=("Q1",)), NEED_KG)
        assert kind == WEB_SEARCH and warning
        no_web = legal(expanded=("Q1",), has_web=False)
        assert coerce_action(EXPAND_KG, no_web, NEED_KG)[0] == VERDICT_ACTION

    def test_action_kind_validated(self):
        with pytest.raises(ValueError):
            Action("sing")

    def test_no_call_when_verdict_is_the_only_legal_action(self):
        # select_action takes no gateway; the request is not coerced, so no
        # warning is logged either
        trajectory = Trajectory(claim="c")
        assert select_action(EXPAND_KG, {VERDICT_ACTION}, NEED_KG, trajectory).kind == VERDICT_ACTION
        assert trajectory.warnings == []


EVIDENCE = Evidence(frozenset({"t:E1|R1|O1"}), "[t:E1|R1|O1] E1 | works for | O1")


class TestSufficiency:
    def test_empty_subgraph_short_circuits(self):
        # no evidence: need_web and a webSearch request, which the episode
        # coerces onto the legal actions, with no call
        gw = LlmGateway(ScriptedBackend(), default_policy())  # any call would miss
        assert assess_sufficiency("c", Evidence.of(KnowledgeSubgraph()), gw) == (NEED_WEB, WEB_SEARCH)
        assert gw.call_count == 0

    @pytest.mark.parametrize("assessment, kind", [
        (SUFFICIENT, VERDICT_ACTION), (NEED_KG, EXPAND_KG), (NEED_WEB, WEB_SEARCH),
    ])
    def test_reply_without_action_requests_the_assessments_action(self, assessment, kind):
        gw = LlmGateway(ScriptedBackend(default=json.dumps({"assessment": assessment})),
                        default_policy())
        assert assess_sufficiency("c", EVIDENCE, gw) == (assessment, kind)

    def test_one_call_per_observation_and_no_warning_without_action(self):
        # the oracle's replies name no action; the depth-2 episode follows
        # its assessments with no coercion
        _, trajectory, prompts = depth2_episode(OracleResponder(specs=DEPTH2_CLAIMS))
        assert trajectory.action_kinds() == [INIT_KG, EXPAND_KG, VERDICT_ACTION]
        assert sum("Assess whether the evidence" in p for p in prompts) == 2
        assert trajectory.warnings == []

    @pytest.mark.parametrize("action", ["fly", 5, ["expandKG"], None, INIT_KG])
    def test_illegal_or_non_string_action_is_coerced_with_a_warning(self, action):
        oracle = OracleResponder(specs=DEPTH2_CLAIMS)

        def responder(text):
            reply = json.loads(oracle(text))
            if "assessment" in reply:
                reply["action"] = action
            return json.dumps(reply)

        _, trajectory, _ = depth2_episode(responder)
        # need_kg, then sufficient: each request is coerced to the hint's action
        assert trajectory.action_kinds() == [INIT_KG, EXPAND_KG, VERDICT_ACTION]
        assert [w.split(" to ")[-1] for w in trajectory.warnings] == [
            "expandKG (budget/ordering rule)" if action == INIT_KG else "expandKG",
            "verdict (budget/ordering rule)" if action == INIT_KG else "verdict",
        ]
        assert all(w.startswith("coerced") for w in trajectory.warnings)

    def test_unparseable_reply_is_unknown(self):
        graph, claims = build_corpus(1)
        backend = FixtureKgBackend(data=graph)
        from claimcheck.kg import GraphReads, init_kg_retrieval

        oracle = LlmGateway(
            ScriptedBackend(responder=OracleResponder(specs=claims)), default_policy()
        )
        subgraph = KnowledgeSubgraph()
        init_kg_retrieval(
            claims[0]["claim"], subgraph, EpisodeConfig(), oracle, GraphReads(backend)
        )
        # unparseable, or an assessment that is not a string: repaired, then unknown
        for reply in ("not json", '{"assessment": []}', '{"assessment": {}}',
                      '{"assessment": ["need_kg"]}'):
            broken = LlmGateway(ScriptedBackend(default=reply), default_policy())
            assert assess_sufficiency(
                claims[0]["claim"], Evidence.of(subgraph), broken
            ) == ("unknown", None), reply
            assert broken.call_count == 3, reply


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

    def test_citations_that_are_not_a_list_are_one_citation(self):
        graph, claims = build_corpus(1)
        oracle = OracleResponder(specs=claims)

        def responder(text):
            out = oracle(text)
            if out and '"label"' in out:
                return json.dumps(dict(json.loads(out), citations=5))
            return out

        result, traj = make_runner(claims, graph, responder=responder).run(claims[0]["claim"])
        assert result.label == claims[0]["gold_label"] and result.citations == []
        assert "dropped citation '5': not in evidence" in traj.warnings

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
        # no assessment after hop 4, where the verdict is the only legal action
        assert traj.counters["llm_calls"] == 24
        assert traj.to_json() == run(max_web_searches=0).to_json()

    def test_unlinkable_claim_without_web_goes_to_verdict(self):
        graph, claims = build_corpus(1)
        _, traj = make_runner(claims, graph).run("Martians Landed in Ohio.")
        assert traj.action_kinds() == [INIT_KG, VERDICT_ACTION]
        assert traj.counters["llm_calls"] == 1
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

    def test_no_assessment_after_the_last_search_with_no_frontier(self):
        # an unlinkable claim has no frontier, so after its second and last
        # search the verdict is the only legal action
        graph, claims = build_corpus(1)
        web = FixtureSearchProvider(data={"Martians Landed in Ohio.": [
            {"url": "https://n.example/a", "snippet": "Martians Landed | visited | Ohio Field"},
        ]})
        llm = SlowLlm(OracleResponder(specs=claims, sufficiency="never", action=WEB_SEARCH))
        _, traj = run_episode(
            "Martians Landed in Ohio.", default_policy(), EpisodeConfig(max_web_searches=2),
            llm, FixtureKgBackend(data=graph), web,
        )
        assert traj.action_kinds() == [INIT_KG, WEB_SEARCH, WEB_SEARCH, VERDICT_ACTION]
        # no evidence after the initial retrieval: need_web with no call
        assert [obs.sufficiency_hint for _, obs in traj.steps] == [
            NEED_WEB, NEED_KG, UNKNOWN, UNKNOWN,
        ]
        assert sum("Assess whether the evidence" in p for p in llm.prompts) == 1
        assert traj.warnings == []
        assert traj.counters["llm_calls"] == len(llm.prompts)

    def test_no_assessment_for_the_step_that_reaches_the_limit(self):
        llm = SlowLlm(OracleResponder(specs=DEPTH2_CLAIMS, sufficiency="never"))
        result, traj = run_episode(
            DEPTH2_CLAIMS[0]["claim"], default_policy(), EpisodeConfig(max_steps=3),
            llm, FixtureKgBackend(data=DEPTH2_GRAPH),
        )
        assert traj.action_kinds() == [INIT_KG, EXPAND_KG, EXPAND_KG, VERDICT_ACTION]
        assert result.forced and traj.forced_reason == "step_limit"
        assert [obs.sufficiency_hint for _, obs in traj.steps[:3]] == [NEED_KG, NEED_KG, UNKNOWN]
        assert sum("Assess whether the evidence" in p for p in llm.prompts) == 2
        assert traj.warnings == []

    def test_evidence_is_listed_once_per_observation(self, monkeypatch):
        # a linked claim, so both web queries are formulated from the evidence
        graph, claims = build_corpus(1)
        claim = claims[0]["claim"]
        web = FixtureSearchProvider(data={claim: [
            {"url": "https://n.example/a", "snippet": "Person1 Alpha | lives in | Ohio Field"},
        ]})
        oracle = OracleResponder(specs=claims, sufficiency="never", action=WEB_SEARCH)
        queries = []

        def responder(text):
            if "not enough to decide the claim" in text:
                queries.append(text)
            return oracle(text)

        listings = []
        evidence_lines = KnowledgeSubgraph.evidence_lines
        monkeypatch.setattr(KnowledgeSubgraph, "evidence_lines",
                            lambda self: listings.append(1) or evidence_lines(self))
        _, traj = run_episode(
            claim, default_policy(), EpisodeConfig(max_web_searches=2),
            ScriptedBackend(responder=responder), FixtureKgBackend(data=graph), web,
        )
        assert traj.action_kinds()[:3] == [INIT_KG, WEB_SEARCH, WEB_SEARCH]
        assert len(listings) == sum(obs.kind != "terminal" for _, obs in traj.steps)
        assert len(queries) == 2 and "[t:E001|R1|O001]" in queries[0]

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


DEPTH2_GRAPH, DEPTH2_CLAIMS = build_corpus(6, depth=2)
# the depth-2 corpus with three more relations from each person to its group
# and three from each group to entities of its own: both entities the episode
# expands then have at least k=4 relations that add a fact (the group's four
# back edges to its person add none), so each one's relations go through a prune
_GROUPS = [o for _, p, o in DEPTH2_GRAPH["triples"] if p == "R0"]
PRUNED_GRAPH = dict(
    DEPTH2_GRAPH,
    entities=DEPTH2_GRAPH["entities"] + [
        {"id": f"T{j}{m}", "label": f"Tie{j} Delta"} for m in _GROUPS for j in (2, 3, 4)
    ],
    relations=DEPTH2_GRAPH["relations"] + [{"id": f"R{j}", "label": f"tie {j}"} for j in (2, 3, 4)],
    triples=DEPTH2_GRAPH["triples"] + [
        [s, f"R{j}", o] for s, p, o in DEPTH2_GRAPH["triples"] if p == "R0" for j in (2, 3, 4)
    ] + [[m, f"R{j}", f"T{j}{m}"] for m in _GROUPS for j in (2, 3, 4)],
)


def depth2_episode(responder, claim=DEPTH2_CLAIMS[0]["claim"], wrap=None, graph=DEPTH2_GRAPH):
    """(result, trajectory, prompts) of one depth-2 episode; ``wrap`` wraps
    the LLM backend the episode sees."""
    llm = SlowLlm(responder)
    result, trajectory = run_episode(
        claim, default_policy(), EpisodeConfig(), wrap(llm) if wrap else llm,
        FixtureKgBackend(data=graph),
    )
    return result, trajectory, llm.prompts


def pruned_episode(responder):
    return depth2_episode(responder, graph=PRUNED_GRAPH)


def failing_verdict(reply):
    oracle = OracleResponder(specs=DEPTH2_CLAIMS)

    def responder(text):
        if "Decide whether the claim" in text:
            if isinstance(reply, Exception):
                raise reply
            return reply
        return oracle(text)

    return responder


class TestVerdictRequests:
    @pytest.mark.parametrize("responder, kinds", [
        (OracleResponder(specs=DEPTH2_CLAIMS), [INIT_KG, EXPAND_KG, VERDICT_ACTION]),
        # the policy keeps expanding after 'sufficient'
        (OracleResponder(specs=DEPTH2_CLAIMS, sufficiency="always", action=EXPAND_KG),
         [INIT_KG, EXPAND_KG, EXPAND_KG, VERDICT_ACTION]),
    ], ids=["oracle", "expand-after-sufficient"])
    def test_one_verdict_request_per_episode(self, responder, kinds):
        _, trajectory, prompts = depth2_episode(responder)
        assert trajectory.action_kinds() == kinds
        assert sum("Decide whether the claim" in p for p in prompts) == 1
        assert trajectory.counters["llm_calls"] == len(prompts)
        assert trajectory.counters["verdict_llm_calls"] == 1

    # a dataset's "Correct" is Supported, so a verdict's is too
    @pytest.mark.parametrize("label, expected", [
        ("Correct", "Supported"), ("factual  supported", "Supported"),
        ("mostly true", "Refuted"), ("not enough info", "Refuted"), ("x", "Refuted"),
    ])
    def test_verdict_label_folds_as_a_dataset_label(self, label, expected):
        backend = ScriptedBackend(default=json.dumps({"label": label}))
        result = verdict("c", Evidence(), LlmGateway(backend, default_policy()), Trajectory("c"))
        assert result.label == expected

    def test_verdict_script_miss_propagates(self):
        with pytest.raises(ScriptMiss):
            depth2_episode(failing_verdict(None))

    def test_unparseable_verdict_keeps_the_core_call_bound(self):
        graph, claim = build_dense_graph(fanout=4, depth=4, n_roots=4)
        oracle = OracleResponder(sufficiency="never")
        llm = SlowLlm(lambda text: "*** not json ***" if "Decide whether" in text else oracle(text))
        result, trajectory = run_episode(
            claim, default_policy(), EpisodeConfig(), llm, FixtureKgBackend(data=graph)
        )
        assert result.forced and trajectory.forced_reason == "parse_failure"
        assert (result.label, result.justification) == ("Refuted", "insufficient evidence")
        assert core_requests(llm.prompts) == trajectory.counters["core_llm_calls"] == 21

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_eval_equals_zero_latency_serial_run(self, seed):
        records = [DatasetRecord(c["id"], c["claim"], c["gold_label"]) for c in DEPTH2_CLAIMS]

        def outputs(llm, kg, parallelism):
            runner = EpisodeRunner(default_policy(), EpisodeConfig(), llm, kg)
            trajectories = []
            report = run_benchmark(
                records, runner, parallelism=parallelism, collect_trajectories=trajectories
            )
            return report.to_json(), [t.to_json() for t in trajectories]

        oracle = OracleResponder(specs=DEPTH2_CLAIMS)
        serial = SlowLlm(oracle)
        slow = SlowLlm(oracle, seed, max_ms=3.0)
        reference = outputs(serial, FixtureKgBackend(data=DEPTH2_GRAPH), 1)
        assert outputs(slow, SlowKg(DEPTH2_GRAPH, seed), 2) == reference
        assert sorted(slow.prompts) == sorted(serial.prompts)


class TestTransportErrors:
    # the depth-2 episode over PRUNED_GRAPH, whose two expanded entities each
    # have at least k relations that add a fact; its calls, one at a time: 1
    # the initial prune, 2 sufficiency, 3 the expansion's prune, 4
    # sufficiency, 5 verdict
    # (each hop keeps at most k relations, so neither sends a hop prune); a
    # failed verdict request takes the fallback verdict, any other failed call
    # a forced verdict request
    def test_the_fault_free_episode_makes_five_calls(self):
        _, trajectory, prompts = pruned_episode(OracleResponder(specs=DEPTH2_CLAIMS))
        assert trajectory.action_kinds() == [INIT_KG, EXPAND_KG, VERDICT_ACTION]
        assert len(prompts) == trajectory.counters["llm_calls"] == 5

    def test_each_open_choice_still_sends_one_assessment(self):
        # after both observations the episode may still expand or decide
        _, trajectory, prompts = pruned_episode(OracleResponder(specs=DEPTH2_CLAIMS))
        assert [obs.sufficiency_hint for _, obs in trajectory.steps] == [
            NEED_KG, SUFFICIENT, SUFFICIENT,
        ]
        assert sum("Assess whether the evidence" in p for p in prompts) == 2

    @pytest.mark.parametrize("n", range(1, 6))
    def test_any_call_ends_in_one_forced_verdict(self, n):
        oracle = OracleResponder(specs=DEPTH2_CLAIMS)
        calls = []

        def responder(text):
            calls.append(text)
            if len(calls) == n:
                raise TransportError(f"call {n} failed")
            return oracle(text)

        result, trajectory, prompts = pruned_episode(responder)
        note = f"transport error: call {n} failed"
        kinds = [INIT_KG] if n <= 2 else [INIT_KG, EXPAND_KG]
        assert trajectory.action_kinds() == kinds + [VERDICT_ACTION]
        in_progress = {1: 0, 2: 0, 3: 1, 4: 1}.get(n)
        assert [obs.note for _, obs in trajectory.steps] == [
            note if i == in_progress else "" for i in range(len(kinds))
        ] + [note]
        assert result.forced and trajectory.verdict is result
        assert trajectory.forced_reason == "transport_error"
        assert trajectory.counters["llm_calls"] == len(prompts) == (n if n == 5 else n + 1)

    def test_forced_verdict_shows_the_items_it_checks(self):
        # the sufficiency call after the expansion, the second call of the
        # plain depth-2 episode (no entity there has k relations to prune),
        # fails: the forced verdict sees the expanded subgraph and may cite
        # its decisive triplet
        oracle = OracleResponder(specs=DEPTH2_CLAIMS)
        calls = []

        def responder(text):
            calls.append(text)
            if len(calls) == 2:
                raise TransportError("sufficiency endpoint down")
            return oracle(text)

        result, trajectory, prompts = depth2_episode(responder)
        assert not any(p.startswith("Score each") for p in prompts)
        forced_prompt = prompts[-1]
        assert "retrieval budget is exhausted" in forced_prompt
        listed = re.findall(r"^\[([^\]]+)\]", forced_prompt, re.MULTILINE)
        assert len(listed) == 2 and result.citations and set(result.citations) <= set(listed)
        assert not any("dropped citation" in w for w in trajectory.warnings)
        assert result.label == DEPTH2_CLAIMS[0]["gold_label"]

    def test_step_whose_assessment_failed_keeps_its_items(self):
        # the second assessment, after the expansion, fails: the expandKG step
        # keeps the triplet it added, so the forced verdict's citation of it
        # resolves and the episode scores as the fault-free one does
        oracle = OracleResponder(specs=DEPTH2_CLAIMS)
        assessments = []

        def responder(text):
            if text.startswith("Assess whether the evidence"):
                assessments.append(text)
                if len(assessments) == 2:
                    raise TransportError("sufficiency endpoint down")
            return oracle(text)

        result, trajectory, _ = depth2_episode(responder)
        assert trajectory.action_kinds() == [INIT_KG, EXPAND_KG, VERDICT_ACTION]
        expanded = trajectory.steps[1][1]
        assert expanded.added_item_ids == ["t:M001|R1|O001"]
        assert (expanded.added_triplets, expanded.sufficiency_hint) == (1, UNKNOWN)
        assert expanded.note == "transport error: sufficiency endpoint down"
        assert result.forced and result.citations == ["t:M001|R1|O001"]
        assert compute_reward(trajectory, DEPTH2_CLAIMS[0]["gold_label"]).total == 1.25

    @pytest.mark.parametrize("n", [1, 2])
    def test_unparseable_prune_ends_in_one_forced_verdict(self, n):
        # the n-th entity's prune gets a reply that stays unparseable
        oracle = OracleResponder(specs=DEPTH2_CLAIMS)
        prunes = []

        def responder(text):
            if text.startswith("Score each relation of entity"):
                prunes.append(text)
                if len(prunes) >= n:
                    return "*** not json ***"
            return oracle(text)

        result, trajectory, prompts = pruned_episode(responder)
        kinds = [INIT_KG] if n == 1 else [INIT_KG, EXPAND_KG]
        assert trajectory.action_kinds() == kinds + [VERDICT_ACTION]
        assert trajectory.steps[-2][1].note.startswith("parse failure: ")
        assert result.forced and trajectory.forced_reason == "parse_failure"
        assert trajectory.counters["prune_llm_calls"] == n
        assert trajectory.counters["llm_calls"] == len(prompts)

    # a bool is a number to Python, and float() of 401 digits raises OverflowError
    @pytest.mark.parametrize("score", [True, 10 ** 400], ids=["True", "401 digits"])
    def test_prune_score_that_is_no_number_ends_in_one_forced_verdict(self, score):
        oracle = OracleResponder(specs=DEPTH2_CLAIMS)

        def responder(text):
            reply = oracle(text)
            if text.startswith("Score each relation of entity"):
                data = json.loads(reply)
                data["scores"][0] = score
                return json.dumps(data)
            return reply

        result, trajectory, _ = pruned_episode(responder)
        assert trajectory.action_kinds() == [INIT_KG, VERDICT_ACTION]
        assert trajectory.steps[-2][1].note.startswith("parse failure: ")
        assert result.forced and trajectory.forced_reason == "parse_failure"
        assert trajectory.counters["llm_retries"] == 2


DEPTH1_GRAPH, DEPTH1_CLAIMS = build_corpus(4, depth=1)


class TestReadsAlongsideAssessment:
    # after the initial hop the next hop's entity is fixed: the group M001 of
    # the depth-2 claim, which the assessment asks to expand, and the
    # employer O001 of the depth-1 claim, where it asks for the verdict

    def faulty_episode(self, graph, claims, faults):
        kg = FaultyKg(FixtureKgBackend(data=graph), seed=0, rate=0.0)
        kg.faults = faults
        llm = ScriptedBackend(responder=OracleResponder(specs=claims))
        result, trajectory = run_episode(
            claims[0]["claim"], default_policy(), EpisodeConfig(), llm, kg
        )
        return result, trajectory, kg

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_taken_expansion_sends_no_read_after_its_assessment(self, seed):
        events = []

        class LoggedLlm(SlowLlm):
            def generate(self, text, temperature, max_tokens):
                assessment = text.startswith("Assess whether the evidence")
                events.append(("send", assessment))
                reply = super().generate(text, temperature, max_tokens)
                events.append(("reply", assessment))
                return reply

        class LoggedKg(SlowKg):
            def relations_of(self, entity_id, direction, *args, **kwargs):
                events.append(("read", entity_id))
                return super().relations_of(entity_id, direction, *args, **kwargs)

        llm = LoggedLlm(OracleResponder(specs=DEPTH2_CLAIMS), seed, max_ms=3.0)
        kg = LoggedKg(DEPTH2_GRAPH, seed, max_ms=3.0)
        _, trajectory = run_episode(
            DEPTH2_CLAIMS[0]["claim"], default_policy(), EpisodeConfig(), llm, kg
        )
        assert trajectory.action_kinds() == [INIT_KG, EXPAND_KG, VERDICT_ACTION]
        first_reply = events.index(("reply", True))
        # the expansion's reads went out while its assessment was in flight;
        # what is read later is the hop after it, alongside the next assessment
        assert ("read", "M001") in events[:first_reply]
        assert {e for kind, e in events[first_reply:] if kind == "read"} == {"O001"}
        assert len(kg.fetches) == len(set(kg.fetches))

    def test_failed_read_alongside_a_verdict_changes_nothing(self):
        _, clean, _ = self.faulty_episode(DEPTH1_GRAPH, DEPTH1_CLAIMS, {})
        result, trajectory, kg = self.faulty_episode(
            DEPTH1_GRAPH, DEPTH1_CLAIMS, {("O001", "incoming"): "transport"}
        )
        assert kg.fired == ["transport"]
        assert trajectory.action_kinds() == [INIT_KG, VERDICT_ACTION]
        assert trajectory.to_json() == clean.to_json() and not result.forced

    def test_failed_read_of_a_taken_expansion_is_read_again_and_ends_the_episode(self):
        result, trajectory, kg = self.faulty_episode(
            DEPTH2_GRAPH, DEPTH2_CLAIMS, {("M001", "outgoing"): "transport"}
        )
        assert [read for read in kg.reads if read[0] == ("M001", "outgoing")] == [
            (("M001", "outgoing"), True)
        ] * 2
        assert trajectory.action_kinds() == [INIT_KG, EXPAND_KG, VERDICT_ACTION]
        assert trajectory.steps[1][1].note.startswith("transport error: injected transport")
        assert result.forced and trajectory.forced_reason == "transport_error"
        assert trajectory.counters["sparql_queries"] == 2

    def test_a_read_that_raises_a_bug_propagates(self):
        class Broken(FixtureKgBackend):
            def relations_of(self, entity_id, direction, *args, **kwargs):
                if entity_id == "O001":
                    raise KeyError("a bug in the graph client")
                return super().relations_of(entity_id, direction, *args, **kwargs)

        llm = ScriptedBackend(responder=OracleResponder(specs=DEPTH1_CLAIMS))
        with pytest.raises(KeyError, match="a bug"):
            run_episode(DEPTH1_CLAIMS[0]["claim"], default_policy(), EpisodeConfig(), llm,
                        Broken(data=DEPTH1_GRAPH))

    def test_a_verdict_does_not_wait_for_a_read_it_does_not_use(self):
        # the employer O001's reads start before the assessment, which asks
        # for the verdict: the verdict request goes out while they run, and
        # the episode returns only once they have ended
        events, running, lock = [], [0], threading.Lock()

        class SlowEmployer(FixtureKgBackend):
            def relations_of(self, entity_id, direction, *args, **kwargs):
                if entity_id == "O001":
                    with lock:
                        running[0] += 1
                    time.sleep(0.1)
                    with lock:
                        running[0] -= 1
                        events.append("read ends")
                return super().relations_of(entity_id, direction, *args, **kwargs)

        class Llm(ScriptedBackend):
            def generate(self, text, temperature, max_tokens):
                if text.startswith("Decide whether the claim"):
                    with lock:
                        events.append("verdict sent")
                time.sleep(0.001)
                return super().generate(text, temperature, max_tokens)

        _, trajectory = run_episode(
            DEPTH1_CLAIMS[0]["claim"], default_policy(), EpisodeConfig(),
            Llm(responder=OracleResponder(specs=DEPTH1_CLAIMS)), SlowEmployer(data=DEPTH1_GRAPH),
        )
        assert trajectory.action_kinds() == [INIT_KG, VERDICT_ACTION]
        assert events == ["verdict sent", "read ends", "read ends"]
        assert running == [0]

    def test_each_episode_makes_its_own_reads(self):
        records = [DatasetRecord(f"{c['id']}-{i}", c["claim"], c["gold_label"])
                   for c in DEPTH2_CLAIMS[:2] for i in (1, 2)]
        kg = SlowKg(DEPTH2_GRAPH)
        runner = EpisodeRunner(default_policy(), EpisodeConfig(),
                               ScriptedBackend(responder=OracleResponder(specs=DEPTH2_CLAIMS)), kg)
        run_benchmark(records, runner, parallelism=2)
        assert kg.fetches and set(Counter(kg.fetches).values()) == {2}


def fault_environments():
    envs = []
    for depth in (1, 2):
        graph, claims = build_corpus(10, depth=depth)
        envs.append((graph, claims, [c["claim"] for c in claims]))
    dense_graph, dense_claim = build_dense_graph(fanout=4, depth=4, n_roots=4)
    envs.append((dense_graph, [], [dense_claim]))
    return envs


def fault_web_results(claim, claims):
    return {claim: [
        {"url": f"https://w.example/{i}", "snippet": c["support"]}
        for i, c in enumerate(claims[:3])
    ]}


def random_episodes(rng, n):
    """(episode, claim, claims, graph, config, responder, with web)."""
    environments = fault_environments()
    for episode in range(n):
        graph, claims, claim_texts = environments[episode % 3]
        claim = rng.choice(claim_texts)
        with_web = rng.random() < 0.5
        config = EpisodeConfig(
            max_steps=rng.choice([3, 4, 6]), max_web_searches=rng.choice([0, 1, 2])
        )
        responder = OracleResponder(
            specs=claims,
            sufficiency=rng.choice(["oracle", "never", "always"]),
            action=rng.choice(["follow_hint", WEB_SEARCH, VERDICT_ACTION, EXPAND_KG]),
        )
        yield episode, claim, claims, graph, config, responder, with_web


def llm_fault_episodes():
    """(episode, config, llm, kg, result, trajectory) of 540 seeded episodes
    with LLM faults."""
    rng = random.Random(11)
    for episode, claim, claims, graph, config, responder, with_web in random_episodes(rng, 540):
        web = FixtureSearchProvider(data=fault_web_results(claim, claims)) if with_web else None
        llm = FaultyLlm(ScriptedBackend(responder=responder), seed=episode,
                        rate=rng.choice([0.03, 0.1, 0.3]))
        kg = FixtureKgBackend(data=graph)
        result, trajectory = run_episode(claim, default_policy(), config, llm, kg, web)
        yield episode, config, llm, kg, web, result, trajectory


def backend_fault_episodes():
    """The same, with KG and web faults as well."""
    rng = random.Random(12)
    for episode, claim, claims, graph, config, responder, with_web in random_episodes(rng, 540):
        kg = FaultyKg(FixtureKgBackend(data=graph), seed=episode,
                      rate=rng.choice([0.03, 0.1, 0.3]))
        web = None
        if with_web:
            web = FaultySearch(FixtureSearchProvider(data=fault_web_results(claim, claims)),
                               seed=episode, rate=rng.choice([0.1, 0.3, 0.6]))
        llm = FaultyLlm(ScriptedBackend(responder=responder), seed=episode,
                        rate=rng.choice([0.0, 0.03, 0.1]))
        result, trajectory = run_episode(claim, default_policy(), config, llm, kg, web)
        yield episode, config, llm, kg, web, result, trajectory


def fault_trajectories_json():
    """Every trajectory of both fault sets, one JSON line each: the same in
    every process, whatever the thread timing or hash seed."""
    return "\n".join(
        run[-1].to_json() for episodes in (llm_fault_episodes, backend_fault_episodes)
        for run in episodes()
    )


class TestFaultInjection:
    def check(self, episode, config, llm, result, trajectory):
        kinds = trajectory.action_kinds()
        assert kinds[0] == INIT_KG and kinds.count(INIT_KG) == 1, episode
        assert kinds[-1] == VERDICT_ACTION and kinds.count(VERDICT_ACTION) == 1, episode
        assert result is trajectory.verdict and result.label in ("Supported", "Refuted")
        assert len(trajectory.steps) <= config.max_steps + 1, episode
        assert kinds.count(WEB_SEARCH) <= config.max_web_searches, episode
        assert trajectory.counters["sparql_queries"] <= 16, episode
        assert trajectory.counters["core_llm_calls"] <= 21, episode
        assert trajectory.counters["llm_calls"] == len(llm.prompts), episode
        assert trajectory.counters["core_llm_calls"] == core_requests(llm.prompts), episode
        # a verdict cites only items some observation added, faults or not
        added = {item for _, obs in trajectory.steps for item in obs.added_item_ids}
        assert set(result.citations) <= added, episode

    def test_every_episode_ends_in_one_verdict_within_budget(self):
        for episode, config, llm, _, _, result, trajectory in llm_fault_episodes():
            self.check(episode, config, llm, result, trajectory)

    def test_backend_faults_end_in_one_verdict_within_budget(self, monkeypatch):
        fired = Counter()
        expanded = []  # the entities of the episode's charged expansions
        expand = kg_mod.expand_entity

        def recorded(entity, reads):
            expanded.append(entity.id)
            return expand(entity, reads)

        monkeypatch.setattr(kg_mod, "expand_entity", recorded)
        for episode, config, llm, kg, web, result, trajectory in backend_fault_episodes():
            self.check(episode, config, llm, result, trajectory)
            assert len(set(expanded)) == len(expanded) == trajectory.counters["sparql_queries"]
            raised = {}
            for key, failed in kg.reads:
                # a key is read again only after its earlier reads raised
                assert all(raised.get(key, [])), (episode, key)
                raised.setdefault(key, []).append(failed)
            # both reads of every charged expansion reached the backend
            assert {(e, d) for e in expanded for d in ("outgoing", "incoming")} <= set(raised)
            # the reads sent alongside assessments cover at most one hop
            assert len({key for key in raised if key[0] not in expanded}) <= 2 * config.k, episode
            fired.update(kg.fired + (web.fired if web else []))
            expanded.clear()
        assert set(fired) == {"timeout", "transport", "empty", "quota"}

    def test_llm_script_miss_propagates(self):
        # a miss at any one request of an episode leaves run_episode
        graph, claims = build_corpus(4, depth=2)
        claim = claims[1]["claim"]
        web = FixtureSearchProvider(data=fault_web_results(claim, claims))
        config = EpisodeConfig(max_web_searches=1)
        responder = OracleResponder(specs=claims, sufficiency="never")
        clean = FaultyLlm(ScriptedBackend(responder=responder), seed=0, rate=0.0)
        run_episode(claim, default_policy(), config, clean, FixtureKgBackend(data=graph), web)
        assert any("Judge each passage" in p for p in clean.prompts)
        seen = Counter()
        for text in clean.prompts:
            request = (text, seen[text])
            seen[text] += 1
            llm = FaultyLlm(ScriptedBackend(responder=responder), seed=0, rate=0.0)
            llm.faults = {request: "miss"}
            with pytest.raises(ScriptMiss, match="injected miss"):
                run_episode(claim, default_policy(), config, llm, FixtureKgBackend(data=graph), web)
            assert llm.fired == ["miss"]


# the fields of each structured reply an episode asks for: "f" is a
# top-level field, "f[]" each element of list f, "f[].g" field g of each row
REPLY_FIELDS = {
    EXPANSION_PRUNE: ("scores", "scores[]"),
    RELATION_PRUNE: ("scores", "scores[]"),
    SUFFICIENCY: ("assessment", "action"),
    VERDICT: ("label", "justification", "citations", "citations[]"),
    FORCED_VERDICT: ("label", "justification", "citations", "citations[]"),
    WEB_QUERY: ("query", "rationale"),
    EVIDENCE_FILTER: ("judgments", "judgments[]", "judgments[].index",
                      "judgments[].confidence", "judgments[].stance"),
    TRIPLET_EXTRACT: ("subject", "relation", "object"),
}
ODD_VALUES = (None, "", [], {}, 3, "x")
# a rendered prompt starts with its template's text up to the first binding
PROMPT_PREFIXES = {
    tid: default_policy().template(tid).text.split("{", 1)[0] for tid in REPLY_FIELDS
}


class MutatingResponder:
    """The oracle's replies, with one field of one template's replies set to
    ``value``. Records the templates it was asked for."""

    def __init__(self, oracle, template_id=None, field=None, value=None):
        self.oracle, self.template_id, self.field, self.value = oracle, template_id, field, value
        self.seen = set()

    def __call__(self, text):
        reply = self.oracle(text)
        template_id = next(
            (tid for tid, prefix in PROMPT_PREFIXES.items() if text.startswith(prefix)), None
        )
        self.seen.add(template_id)
        if template_id != self.template_id:
            return reply
        data = json.loads(reply)
        name, each, key = self.field.partition("[]")
        if not each:
            data[name] = self.value
        elif not key:
            data[name] = [self.value for _ in data[name]]
        else:
            for row in data[name]:
                row[key.lstrip(".")] = self.value
        return json.dumps(data)


class TestReplyShapes:
    def episodes(self):
        """(claim, config, oracle, kg data, web data): a KG corpus, dense and
        with a web provider, and a web corpus whose claims link to nothing."""
        dense_graph, dense_claim = build_dense_graph(fanout=4, depth=4, n_roots=4)
        graph, claims = build_corpus(4, depth=2)
        web = {c["claim"]: [{"url": f"https://w.example/{i}", "snippet": s["support"]}
                            for i, s in enumerate(claims[:3])] for c in claims}
        empty = {"entities": [], "relations": [], "triples": [], "links": {}}
        to_web = OracleResponder(specs=claims, sufficiency="never", action=WEB_SEARCH)
        return [
            (dense_claim, EpisodeConfig(), OracleResponder(sufficiency="never"), dense_graph, None),
            (claims[0]["claim"], EpisodeConfig(max_steps=3), to_web, graph, web),
            (claims[1]["claim"], EpisodeConfig(), OracleResponder(specs=claims), empty, web),
            (claims[2]["claim"], EpisodeConfig(max_steps=2), to_web, empty, web),
        ]

    def run(self, episode, responder):
        claim, config, _, graph, web = episode
        web = FixtureSearchProvider(data=web) if web is not None else None
        return run_episode(claim, default_policy(), config, ScriptedBackend(responder=responder),
                           FixtureKgBackend(data=graph), web)

    def test_any_reply_field_of_any_type_ends_in_one_verdict(self):
        episodes = self.episodes()
        sends = [MutatingResponder(e[2]) for e in episodes]
        for episode, responder in zip(episodes, sends):
            self.run(episode, responder)
        assert set().union(*(r.seen for r in sends)) >= set(REPLY_FIELDS)
        for template_id, fields in REPLY_FIELDS.items():
            for field in fields:
                for value in ODD_VALUES:
                    case = (template_id, field, value)
                    for episode, clean in zip(episodes, sends):
                        if template_id not in clean.seen:
                            continue
                        responder = MutatingResponder(episode[2], *case)
                        result, trajectory = self.run(episode, responder)
                        kinds = trajectory.action_kinds()
                        assert kinds[0] == INIT_KG and kinds.count(INIT_KG) == 1, case
                        assert kinds[-1] == VERDICT_ACTION, case
                        assert kinds.count(VERDICT_ACTION) == 1, case
                        assert result is trajectory.verdict, case
                        assert result.label in ("Supported", "Refuted"), case
                        if (template_id, field) == (VERDICT, "label"):
                            # a label of no text is repaired, then forced; any
                            # other text reads Refuted (binary standardization)
                            assert result.forced if value != "x" else result.label == "Refuted", case
                        assert len(trajectory.steps) <= episode[1].max_steps + 1, case
                        back = trajectory_from_jsonable(json.loads(trajectory.to_json()))
                        assert back.action_kinds() == kinds, case
                        # a text field that is not text reads as absent, not as its repr
                        texts = [result.justification] + [
                            action.payload.rationale for action, _ in trajectory.steps
                            if isinstance(action.payload, WebQuery)
                        ]
                        assert isinstance(value, str) or str(value) not in texts, case


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
