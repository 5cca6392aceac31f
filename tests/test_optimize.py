import contextlib
import functools
import hashlib
import itertools
import json
import threading
from collections import Counter
from types import SimpleNamespace

import pytest

from claimcheck import llm as llm_mod
from claimcheck import optimize as optimize_mod
from claimcheck.agent import (
    EXPAND_KG,
    INIT_KG,
    SUFFICIENT,
    VERDICT_ACTION,
    WEB_SEARCH,
    Action,
    EpisodeConfig,
    EpisodeRunner,
    Observation,
    Trajectory,
    VerdictResult,
    run_episode,
)
from claimcheck.errors import InsufficientData, ScriptMiss, TransportError
from claimcheck.evaluation import DatasetRecord, run_benchmark
from claimcheck.kg import FixtureKgBackend
from claimcheck.llm import LlmGateway, ScriptedBackend
from claimcheck.optimize import (
    CONTRADICTION_MISHANDLED,
    INSUFFICIENT_COVERAGE,
    OTHER,
    PREMATURE_TERMINATION,
    REDUNDANT_RETRIEVAL,
    Critique,
    OptimizationConfig,
    compute_reward,
    optimize,
    reflect,
    rule_based_critiques,
    textual_gradient,
)
from claimcheck.policy import SUFFICIENCY, VERDICT, default_policy

from conftest import (
    FLAWED_MARKER,
    OracleResponder,
    SlowKg,
    SlowLlm,
    build_corpus,
    core_requests,
    flawed_policy,
)


def traj(kinds, label="Supported", citations=(), forced=False, forced_reason="",
         cited_at=None, hints=None):
    """Hand-built trajectory: one (action, observation) per kind."""
    t = Trajectory(claim="c")
    for i, kind in enumerate(kinds):
        items = list(citations) if cited_at is not None and i == cited_at else []
        hint = hints[i] if hints else "unknown"
        t.steps.append(
            (Action(kind), Observation(kind="subgraph_delta", added_item_ids=items,
                                       sufficiency_hint=hint))
        )
    t.verdict = VerdictResult(
        label=label, justification="j", citations=list(citations), forced=forced
    )
    t.forced_reason = forced_reason
    return t


class TestReward:
    def test_perfect_episode_scores_1_25(self):
        # correct, all citations resolve, nothing retrieved after the cited step
        t = traj([INIT_KG, VERDICT_ACTION], citations=["t:a|b|c"], cited_at=0)
        r = compute_reward(t, "Supported")
        assert (r.correctness, r.sufficiency, r.efficiency_penalty) == (1, 1.0, 0.0)
        assert r.total == 1.25

    def test_wrong_verdict_with_three_wasted_retrievals_scores_minus_0_15(self):
        t = traj([INIT_KG, EXPAND_KG, EXPAND_KG, WEB_SEARCH, VERDICT_ACTION],
                 label="Refuted")
        r = compute_reward(t, "Supported")
        assert r.correctness == 0 and r.sufficiency == 0.0
        assert r.efficiency_penalty == pytest.approx(-0.15)
        assert r.total == pytest.approx(-0.15)

    def test_correct_without_citations_scores_1(self):
        t = traj([INIT_KG, VERDICT_ACTION])
        assert compute_reward(t, "Supported").total == 1.0

    def test_partial_citation_resolution(self):
        t = traj([INIT_KG, VERDICT_ACTION], citations=["t:a|b|c", "t:ghost|x|y"], cited_at=0)
        # only the first citation appears among observed item ids
        t.steps[0][1].added_item_ids = ["t:a|b|c"]
        r = compute_reward(t, "Supported")
        assert r.sufficiency == 0.5
        assert r.total == pytest.approx(1.125)

    def test_retrieval_after_last_cited_step_penalized(self):
        t = traj([INIT_KG, EXPAND_KG, WEB_SEARCH, VERDICT_ACTION],
                 citations=["t:a|b|c"], cited_at=1)
        r = compute_reward(t, "Supported")
        # only the web search (step 2) comes after the last useful step
        assert r.efficiency_penalty == pytest.approx(-0.05)
        assert r.total == pytest.approx(1.20)

    def test_total_clamped_to_lower_bound(self):
        kinds = [INIT_KG] + [EXPAND_KG, WEB_SEARCH] * 15 + [VERDICT_ACTION]
        t = traj(kinds, label="Refuted")
        assert compute_reward(t, "Supported").total == -1.0

    def test_nonterminal_trajectory_rejected(self):
        t = traj([INIT_KG])
        t.verdict = None
        with pytest.raises(ValueError):
            compute_reward(t, "Supported")


class TestRuleCritiques:
    def test_wrong_without_expansion_is_premature(self):
        t = traj([INIT_KG, VERDICT_ACTION], label="Refuted")
        tags = [c.tag for c in rule_based_critiques(t, "Supported")]
        assert tags == [PREMATURE_TERMINATION]

    def test_wrong_with_web_after_expand_is_insufficient_coverage(self):
        t = traj([INIT_KG, EXPAND_KG, WEB_SEARCH, VERDICT_ACTION], label="Refuted")
        tags = [c.tag for c in rule_based_critiques(t, "Supported")]
        assert INSUFFICIENT_COVERAGE in tags
        assert PREMATURE_TERMINATION not in tags

    def test_correct_expansion_after_sufficient_is_redundant(self):
        t = traj([INIT_KG, EXPAND_KG, VERDICT_ACTION],
                 hints=[SUFFICIENT, SUFFICIENT, SUFFICIENT])
        critiques = rule_based_critiques(t, "Supported")
        assert [c.tag for c in critiques] == [REDUNDANT_RETRIEVAL]
        assert critiques[0].step_index == 1

    def test_correct_clean_episode_has_no_critiques(self):
        t = traj([INIT_KG, VERDICT_ACTION], hints=["need_kg", SUFFICIENT])
        assert rule_based_critiques(t, "Supported") == []


class TestReflect:
    def test_llm_tags_merged_with_rule_tags(self):
        reply = json.dumps(
            {"critiques": [
                {"tag": CONTRADICTION_MISHANDLED, "step_index": 1, "text": "missed negation"},
                {"tag": "MadeUpTag", "step_index": 99, "text": "?"},
            ]}
        )
        gw = LlmGateway(ScriptedBackend(default=reply), default_policy())
        t = traj([INIT_KG, VERDICT_ACTION], label="Refuted")
        critiques = reflect(t, "Supported", gw)
        tags = [c.tag for c in critiques]
        assert tags[0] == CONTRADICTION_MISHANDLED
        assert tags[1] == OTHER  # unknown tag collapsed
        assert critiques[1].step_index == 1  # clamped into range
        assert PREMATURE_TERMINATION in tags  # rule tag still present

    def test_reflection_script_miss_propagates(self):
        gw = LlmGateway(ScriptedBackend(), default_policy())
        t = traj([INIT_KG, VERDICT_ACTION], label="Refuted")
        with pytest.raises(ScriptMiss):
            reflect(t, "Supported", gw)

    def test_malformed_critique_rows_skipped(self):
        reply = {"critiques": [
            {"tag": CONTRADICTION_MISHANDLED, "step_index": 1, "text": "a"},
            "not an object",
            {"tag": OTHER, "step_index": "last", "text": "b"},
            {"tag": REDUNDANT_RETRIEVAL, "step_index": 0, "text": "c"},
        ]}
        gw = LlmGateway(ScriptedBackend(default=json.dumps(reply)), default_policy())
        t = traj([INIT_KG, VERDICT_ACTION], label="Refuted")
        critiques = reflect(t, "Supported", gw)
        assert [(c.tag, c.text) for c in critiques] == [
            (CONTRADICTION_MISHANDLED, "a"),
            (REDUNDANT_RETRIEVAL, "c"),
            (PREMATURE_TERMINATION, "wrong verdict with no graph expansion beyond the initial retrieval"),
        ]

    def test_reflection_failure_swallowed(self):
        gw = LlmGateway(ScriptedBackend(default="not json"), default_policy())
        t = traj([INIT_KG, VERDICT_ACTION], label="Refuted")
        tags = [c.tag for c in reflect(t, "Supported", gw)]
        assert tags == [PREMATURE_TERMINATION]


def records_with(tag):
    return [Critique(tag=tag, step_index=0, text="x")]


class TestTextualGradient:
    def meta_backend(self, templates):
        return ScriptedBackend(default=json.dumps({"templates": templates}))

    def test_premature_termination_routes_to_sufficiency(self):
        current = default_policy()
        backend = self.meta_backend({SUFFICIENCY: "Assess whether the evidence v2"})
        candidate = textual_gradient(records_with(PREMATURE_TERMINATION), current, backend)
        assert candidate is not None
        assert candidate.template(SUFFICIENCY).text == "Assess whether the evidence v2"
        assert candidate.template(SUFFICIENCY).version == current.template(SUFFICIENCY).version + 1
        for tid in current.template_ids():
            if tid != SUFFICIENCY:
                assert candidate.template(tid).text == current.template(tid).text

    def test_contradiction_routes_to_verdict_only(self):
        current = default_policy()
        backend = self.meta_backend(
            {VERDICT: "Decide v2", SUFFICIENCY: "should be ignored"}
        )
        candidate = textual_gradient(records_with(CONTRADICTION_MISHANDLED), current, backend)
        assert candidate.template(VERDICT).text == "Decide v2"
        # sufficiency is not a target for this tag, so the edit is discarded
        assert candidate.template(SUFFICIENCY).text == current.template(SUFFICIENCY).text

    def test_identical_proposal_returns_none(self):
        current = default_policy()
        backend = self.meta_backend({SUFFICIENCY: current.template(SUFFICIENCY).text})
        assert textual_gradient(records_with(OTHER), current, backend) is None

    def test_empty_critique_batch_rejected(self):
        with pytest.raises(ValueError):
            textual_gradient([], default_policy(), self.meta_backend({}))


class TestOptimize:
    def test_insufficient_data(self):
        cfg = OptimizationConfig(epochs=1, train_size=4, val_size=2)
        with pytest.raises(InsufficientData):
            optimize(default_policy(), [{"id": "1", "claim": "c", "gold_label": "Supported"}],
                     cfg, None, None)

    def test_flawed_sufficiency_prompt_is_repaired(self):
        graph, claims = build_corpus(8, depth=2)
        kg_backend = FixtureKgBackend(data=graph)
        llm = ScriptedBackend(
            responder=OracleResponder(specs=claims, flawed_marker=FLAWED_MARKER)
        )

        def runner_factory(policy):
            return EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend)

        cfg = OptimizationConfig(epochs=3, train_size=5, val_size=3, seed=1)
        run = optimize(flawed_policy(), claims, cfg, runner_factory, llm)
        assert len(run.history) == 3
        assert run.selected_val_reward > run.initial_val_reward
        assert FLAWED_MARKER not in run.selected.template(SUFFICIENCY).text
        assert any(e["accepted"] for e in run.history)

    @pytest.mark.parametrize("templates", [[], "str", None])
    def test_meta_reply_without_template_object_gives_no_candidate(self, templates):
        graph, claims = build_corpus(8, depth=2)
        kg_backend = FixtureKgBackend(data=graph)
        llm = ScriptedBackend(
            responder=OracleResponder(specs=claims, flawed_marker=FLAWED_MARKER)
        )
        meta = ScriptedBackend(default=json.dumps({"templates": templates}))

        def runner_factory(policy):
            return EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend)

        cfg = OptimizationConfig(epochs=2, train_size=5, val_size=3, seed=1)
        initial = flawed_policy()
        run = optimize(initial, claims, cfg, runner_factory, llm, meta_backend=meta)
        assert [e["policy_id"] for e in run.history] == [None, None]
        assert run.selected is initial

    def test_selected_never_worse_than_initial(self):
        graph, claims = build_corpus(8, depth=1)
        kg_backend = FixtureKgBackend(data=graph)
        llm = ScriptedBackend(responder=OracleResponder(specs=claims))

        def runner_factory(policy):
            return EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend)

        cfg = OptimizationConfig(epochs=2, train_size=5, val_size=3, seed=0)
        run = optimize(default_policy(), claims, cfg, runner_factory, llm)
        assert run.selected_val_reward >= run.initial_val_reward

    @staticmethod
    def repair_run(llm, kg_backend, claims, parallel):
        def runner_factory(policy):
            return EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend)

        cfg = OptimizationConfig(epochs=3, train_size=6, val_size=4, seed=2, parallel=parallel)
        return optimize(flawed_policy(), claims, cfg, runner_factory, llm).to_jsonable()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_concurrent_epochs_equal_a_serial_run(self, seed):
        graph, claims = build_corpus(10, depth=2)
        oracle = OracleResponder(specs=claims, flawed_marker=FLAWED_MARKER)
        serial = self.repair_run(SlowLlm(oracle), SlowKg(graph), claims, parallel=1)
        assert OptimizationConfig().parallel > 1
        slow = self.repair_run(SlowLlm(oracle, seed), SlowKg(graph, seed), claims,
                               parallel=OptimizationConfig().parallel)
        assert slow == serial
        assert any(entry["accepted"] for entry in serial["history"])

    def test_meta_transport_error_keeps_every_epoch(self):
        graph, claims = build_corpus(8, depth=2)
        kg_backend = FixtureKgBackend(data=graph)
        llm = ScriptedBackend(
            responder=OracleResponder(specs=claims, flawed_marker=FLAWED_MARKER)
        )

        class Down:
            calls = 0

            def generate(self, text, temperature, max_tokens):
                self.calls += 1
                raise TransportError("meta endpoint down")

        def runner_factory(policy):
            return EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend)

        meta = Down()
        cfg = OptimizationConfig(epochs=3, train_size=5, val_size=3, seed=1)
        initial = flawed_policy()
        run = optimize(initial, claims, cfg, runner_factory, llm, meta_backend=meta)
        assert [e["epoch"] for e in run.history] == [1, 2, 3]
        assert [e["policy_id"] for e in run.history] == [None, None, None]
        assert run.selected is initial
        assert run.selected_val_reward == run.initial_val_reward
        assert meta.calls == 3  # a failed call is not memoized: every epoch asks again

    def test_training_script_miss_propagates(self):
        graph, claims = build_corpus(8, depth=1)
        kg_backend = FixtureKgBackend(data=graph)
        llm = ScriptedBackend(responder=OracleResponder(specs=claims))
        factory_calls = itertools.count()

        def runner_factory(policy):
            # the first runner validates the initial policy; the second runs
            # the first epoch's training episodes against an empty script
            backend = ScriptedBackend() if next(factory_calls) == 1 else llm
            return EpisodeRunner(policy, EpisodeConfig(), backend, kg_backend)

        cfg = OptimizationConfig(epochs=1, train_size=5, val_size=3)
        with pytest.raises(ScriptMiss):
            optimize(default_policy(), claims, cfg, runner_factory, llm)


class CountingLlm:
    """Answers from ``responder`` after a hashed delay (with a seed), records
    every prompt, and raises TransportError on the first try of each prompt
    whose hash is 0 mod ``flaky_mod`` (0 for none)."""

    def __init__(self, responder, seed=None, flaky_mod=0):
        self.slow = SlowLlm(responder, seed)
        self.flaky_mod = flaky_mod
        self.prompts = []
        self.failed = set()
        self._lock = threading.Lock()

    def flaky(self, text):
        digest = int(hashlib.sha256(text.encode()).hexdigest(), 16)
        return bool(self.flaky_mod) and digest % self.flaky_mod == 0

    def generate(self, text, temperature, max_tokens):
        with self._lock:
            self.prompts.append(text)
            fail = self.flaky(text) and text not in self.failed
            if fail:
                self.failed.add(text)
        if fail:
            raise TransportError("first try fails")
        return self.slow.generate(text, temperature, max_tokens)


class EpisodeLog:
    """A runner factory whose every episode gets its own CountingLlm, as
    the benchmark's per-episode latency wrappers do; keeps each episode's
    policy, claim, trajectory and backend."""

    def __init__(self, responder, kg_backend):
        self.responder, self.kg_backend = responder, kg_backend
        self.episodes = []
        self._lock = threading.Lock()

    def __call__(self, policy):
        return SimpleNamespace(run=functools.partial(self.run, policy))

    def run(self, policy, claim):
        backend = CountingLlm(self.responder)
        result, trajectory = run_episode(claim, policy, EpisodeConfig(), backend, self.kg_backend)
        with self._lock:
            self.episodes.append((policy, claim, trajectory, backend))
        return result, trajectory


class TestReplyMemo:
    """Within one optimize() call each distinct prompt text goes to a backend
    once; the run's report is unchanged."""

    CONFIG = OptimizationConfig(epochs=4, train_size=6, val_size=4, seed=2)

    @staticmethod
    def environment(flaky_mod=0, seed=None):
        graph, claims = build_corpus(10, depth=2)
        oracle = OracleResponder(specs=claims, flawed_marker=FLAWED_MARKER)
        llm = CountingLlm(oracle, seed, flaky_mod)
        kg_backend = SlowKg(graph, seed)

        def runner_factory(policy):
            return EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend)

        return claims, llm, runner_factory

    @pytest.mark.parametrize("flaky_mod, seed", [(0, None), (0, 3), (5, None), (5, 4), (3, 5)])
    def test_no_prompt_goes_out_twice_unless_it_failed(self, flaky_mod, seed, monkeypatch):
        claims, llm, runner_factory = self.environment(flaky_mod, seed)
        run = optimize(flawed_policy(), claims, self.CONFIG, runner_factory, llm)
        counts = Counter(llm.prompts)
        repeated = {text for text, n in counts.items() if n > 1}
        assert repeated <= llm.failed
        assert all(counts[text] <= 2 for text in llm.failed)
        if flaky_mod:
            assert llm.failed and repeated  # some failed request was asked again
        else:
            assert run.to_jsonable() == self.run_without_memo(seed, monkeypatch)

    def run_without_memo(self, seed, monkeypatch):
        """The same run with every request sent."""
        claims, llm, runner_factory = self.environment(0, seed)
        monkeypatch.setattr(optimize_mod, "reply_memo", contextlib.nullcontext)
        run = optimize(flawed_policy(), claims, self.CONFIG, runner_factory, llm)
        assert len(llm.prompts) > len(set(llm.prompts))  # the run repeats requests
        return run.to_jsonable()

    def test_runs_share_nothing_and_eval_sends_every_request(self):
        claims, llm, runner_factory = self.environment()
        records = [DatasetRecord(id=c["id"], claim=c["claim"], gold_label=c["gold_label"])
                   for c in claims]
        policy_runner = runner_factory(flawed_policy())

        def eval_prompts():
            start = len(llm.prompts)
            run_benchmark(records, policy_runner, parallelism=2)
            return llm.prompts[start:]

        before = eval_prompts()
        first = optimize(flawed_policy(), claims, self.CONFIG, runner_factory, llm)
        first_prompts = llm.prompts[len(before):]
        second = optimize(flawed_policy(), claims, self.CONFIG, runner_factory, llm)
        second_prompts = llm.prompts[len(before) + len(first_prompts):]
        after = eval_prompts()

        assert first.to_jsonable() == second.to_jsonable()
        assert Counter(second_prompts) == Counter(first_prompts)
        assert len(first_prompts) == len(set(first_prompts))
        # the eval asks for prompts the optimize runs got replies to, and
        # sends every one of them again
        assert set(after) & set(first_prompts)
        assert Counter(after) == Counter(before)
        assert llm_mod._REPLY_MEMO.get() is None

    def test_memo_ends_with_a_run_that_raises(self):
        claims, llm, runner_factory = self.environment()

        def failing_factory(policy):
            if policy.policy_id != flawed_policy().policy_id:
                raise RuntimeError("no runner for candidates")
            return runner_factory(policy)

        with pytest.raises(RuntimeError, match="no runner"):
            optimize(flawed_policy(), claims, self.CONFIG, failing_factory, llm)
        assert llm_mod._REPLY_MEMO.get() is None

    def test_episode_counters_count_round_trips_and_requests(self):
        graph, claims = build_corpus(10, depth=2)
        oracle = OracleResponder(specs=claims, flawed_marker=FLAWED_MARKER)
        kg_backend = FixtureKgBackend(data=graph)
        log = EpisodeLog(oracle, kg_backend)
        optimize(flawed_policy(), claims, self.CONFIG, log, CountingLlm(oracle))

        memoized = unmemoized = 0
        for policy, claim, trajectory, backend in log.episodes:
            counters = trajectory.counters
            assert counters["llm_calls"] == len(backend.prompts)
            alone = CountingLlm(oracle)
            _, fresh = run_episode(claim, policy, EpisodeConfig(), alone, kg_backend)
            assert counters["core_llm_calls"] == core_requests(alone.prompts)
            assert fresh.counters["llm_calls"] == len(alone.prompts)
            # the same episode in every other respect
            counters.pop("llm_calls")
            fresh.counters.pop("llm_calls")
            assert trajectory.to_jsonable() == fresh.to_jsonable()
            memoized += len(backend.prompts)
            unmemoized += len(alone.prompts)
        assert any(not backend.prompts for *_, backend in log.episodes)  # all memo hits
        assert memoized < unmemoized
