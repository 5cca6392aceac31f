import contextlib
import functools
import hashlib
import json
import random
import threading
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from claimcheck import fanout
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
from claimcheck.errors import (
    InsufficientData,
    ProviderQuotaExceeded,
    QueryTimeout,
    ScriptMiss,
    TransportError,
)
from claimcheck.evaluation import DatasetRecord, run_benchmark
from claimcheck.kg import FixtureKgBackend
from claimcheck.llm import LlmGateway, ScriptedBackend
from claimcheck.optimize import (
    CONTRADICTION_MISHANDLED,
    INSUFFICIENT_COVERAGE,
    META_OPTIMIZER_PROMPT,
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
from claimcheck.policy import REFLECT, SUFFICIENCY, VERDICT, default_policy

from conftest import (
    FLAWED_MARKER,
    OracleResponder,
    SlowKg,
    SlowLlm,
    SlowSearch,
    build_corpus,
    core_requests,
    flawed_policy,
)
from test_acceptance import optimization_report_json


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

    @pytest.mark.parametrize("text", [None, 3, {"a": 1}, ["a"]])
    def test_critique_text_that_is_not_text_reads_as_empty(self, text):
        reply = {"critiques": [{"tag": OTHER, "step_index": 0, "text": text}]}
        gw = LlmGateway(ScriptedBackend(default=json.dumps(reply)), default_policy())
        t = traj([INIT_KG, VERDICT_ACTION])
        critiques = reflect(t, "Supported", gw)
        assert [(c.tag, c.text) for c in critiques] == [(OTHER, "")]

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
        candidate = textual_gradient(records_with(PREMATURE_TERMINATION), current, backend,
                                     "candidate-1")
        assert candidate.policy_id == "candidate-1"
        assert candidate.template(SUFFICIENCY).text == "Assess whether the evidence v2"
        assert candidate.template(SUFFICIENCY).version == current.template(SUFFICIENCY).version + 1
        for tid in sorted(current.to_jsonable()):
            if tid != SUFFICIENCY:
                assert candidate.template(tid).text == current.template(tid).text

    def test_contradiction_routes_to_verdict_only(self):
        current = default_policy()
        backend = self.meta_backend(
            {VERDICT: "Decide v2", SUFFICIENCY: "should be ignored"}
        )
        candidate = textual_gradient(records_with(CONTRADICTION_MISHANDLED), current, backend,
                                     "candidate-1")
        assert candidate.template(VERDICT).text == "Decide v2"
        # sufficiency is not a target for this tag, so the edit is discarded
        assert candidate.template(SUFFICIENCY).text == current.template(SUFFICIENCY).text

    def test_identical_proposal_returns_none(self):
        current = default_policy()
        backend = self.meta_backend({SUFFICIENCY: current.template(SUFFICIENCY).text})
        assert textual_gradient(records_with(OTHER), current, backend, "candidate-1") is None

    @pytest.mark.parametrize("text", [None, {"a": 1}, 7, "", "  \n"], ids=repr)
    def test_revision_that_is_not_nonempty_text_is_ignored(self, text):
        # str() would make the prompt text "None", "{'a': 1}" or "7"
        backend = self.meta_backend({SUFFICIENCY: text, VERDICT: "Decide v2"})
        candidate = textual_gradient(records_with(PREMATURE_TERMINATION)
                                     + records_with(CONTRADICTION_MISHANDLED),
                                     default_policy(), backend, "candidate-1")
        assert candidate.template(SUFFICIENCY) is default_policy().template(SUFFICIENCY)
        assert candidate.template(VERDICT).text == "Decide v2"

    def test_revision_naming_a_placeholder_its_template_lacks_is_ignored(self):
        # an episode binds no {last_action}: validating the candidate would
        # raise MissingBinding and end the optimize run
        current = default_policy()
        old = current.template(SUFFICIENCY)
        backend = self.meta_backend({SUFFICIENCY: old.text + " Last: {last_action}"})
        assert textual_gradient(records_with(OTHER), current, backend, "candidate-1") is None
        fewer = self.meta_backend({SUFFICIENCY: "Claim: {claim}. Enough?"})
        candidate = textual_gradient(records_with(OTHER), current, fewer, "candidate-1")
        assert candidate.template(SUFFICIENCY).text == "Claim: {claim}. Enough?"

    def test_empty_critique_batch_rejected(self):
        with pytest.raises(ValueError):
            textual_gradient([], default_policy(), self.meta_backend({}), "candidate-1")


META_PREFIX = META_OPTIMIZER_PROMPT.text.split("{", 1)[0]


def split(claims, cfg):
    """The training and validation claims, drawn as optimize() draws them."""
    pool = sorted(claims, key=lambda r: str(r["id"]))
    random.Random(cfg.seed).shuffle(pool)
    return pool[: cfg.train_size], pool[cfg.train_size : cfg.train_size + cfg.val_size]


def answering_meta(responder, meta):
    """A responder that hands meta-optimizer prompts to ``meta`` and every
    other prompt to ``responder``."""
    return lambda text: (meta if text.startswith(META_PREFIX) else responder)(text)


class TestOptimize:
    def test_insufficient_data(self):
        cfg = OptimizationConfig(epochs=1, train_size=4, val_size=2)
        with pytest.raises(InsufficientData):
            optimize(default_policy(), [{"id": "1", "claim": "c", "gold_label": "Supported"}],
                     cfg, None, None)

    @pytest.mark.parametrize("sizes", [{"val_size": 0}, {"val_size": -1}, {"parallel": 0},
                                       {"parallel": -1}])
    def test_sizes_below_1_are_rejected_before_any_runner_is_built(self, sizes):
        # a val_size of 0 would divide by zero once epoch 1 had run, and a
        # parallel of 0 would run serially without the width-1 rules
        built = []
        cfg = OptimizationConfig(**{"epochs": 1, "train_size": 2, "val_size": 2, **sizes})
        claims = [{"id": str(i), "claim": f"c{i}", "gold_label": "Supported"} for i in range(4)]
        with pytest.raises(ValueError, match="must be at least 1"):
            optimize(default_policy(), claims, cfg, built.append, None)
        assert built == []

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
        llm = ScriptedBackend(responder=answering_meta(
            OracleResponder(specs=claims, flawed_marker=FLAWED_MARKER),
            lambda text: json.dumps({"templates": templates}),
        ))

        def runner_factory(policy):
            return EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend)

        cfg = OptimizationConfig(epochs=2, train_size=5, val_size=3, seed=1)
        initial = flawed_policy()
        run = optimize(initial, claims, cfg, runner_factory, llm)
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
        meta_calls = []

        def down(text):
            meta_calls.append(text)
            raise TransportError("meta endpoint down")

        llm = ScriptedBackend(responder=answering_meta(
            OracleResponder(specs=claims, flawed_marker=FLAWED_MARKER), down,
        ))

        def runner_factory(policy):
            return EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend)

        cfg = OptimizationConfig(epochs=3, train_size=5, val_size=3, seed=1)
        initial = flawed_policy()
        run = optimize(initial, claims, cfg, runner_factory, llm)
        assert [e["epoch"] for e in run.history] == [1, 2, 3]
        assert [e["policy_id"] for e in run.history] == [None, None, None]
        assert run.selected is initial
        assert run.selected_val_reward == run.initial_val_reward
        assert len(meta_calls) == 3  # a failed call is not memoized: every epoch asks again

    def test_training_script_miss_propagates(self):
        graph, claims = build_corpus(8, depth=1)
        kg_backend = FixtureKgBackend(data=graph)
        llm = ScriptedBackend(responder=OracleResponder(specs=claims))
        cfg = OptimizationConfig(epochs=1, train_size=5, val_size=3)
        training = {r["claim"] for r in split(claims, cfg)[0]}

        def runner_factory(policy):
            # training episodes run against an empty script, validation
            # episodes against the oracle
            empty = EpisodeRunner(policy, EpisodeConfig(), ScriptedBackend(), kg_backend)
            oracle = EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend)
            return SimpleNamespace(run=lambda claim: (empty if claim in training else oracle).run(claim))

        with pytest.raises(ScriptMiss):
            optimize(default_policy(), claims, cfg, runner_factory, llm)


REFLECT_PREFIX = default_policy().template(REFLECT).text.split("{", 1)[0]


class DelayedCritiques:
    """Answers from ``backend``; a critique (``reflect``) call first calls
    ``hold()``. Records every prompt in arrival order, what each ``hold()``
    returned, the calls running and their peak, and the calls sent after
    ``close()``."""

    def __init__(self, backend, hold):
        self.backend, self.hold = backend, hold
        self.prompts, self.held = [], []
        self.running, self.peak, self.late, self.closed = 0, 0, 0, False
        self._lock = threading.Lock()

    def generate(self, text, temperature, max_tokens):
        with self._lock:
            self.prompts.append(text)
            self.running += 1
            self.peak = max(self.peak, self.running)
            self.late += self.closed
        try:
            if text.startswith(REFLECT_PREFIX):
                self.held.append(self.hold())
            return self.backend.generate(text, temperature, max_tokens)
        finally:
            with self._lock:
                self.running -= 1

    def close(self):
        """Marks the end of the run; returns how many calls were running."""
        with self._lock:
            self.closed = True
            return self.running


class CountedRunner:
    """An EpisodeRunner that counts the episodes it starts of ``claims``, and
    raises ScriptMiss in place of the ``fail_at``-th of them (from 1). The
    episodes of other claims run uncounted."""

    def __init__(self, runner, claims, fail_at=None):
        self.runner, self.claims, self.fail_at = runner, claims, fail_at
        self.started = 0
        self._lock = threading.Lock()

    def run(self, claim):
        if claim not in self.claims:
            return self.runner.run(claim)
        with self._lock:
            self.started += 1
            fail = self.started == self.fail_at
        if fail:
            raise ScriptMiss("no scripted reply for this episode")
        return self.runner.run(claim)


class TestCritiquesOffTheLanes:
    """Each training episode starts its critique call off the episode lanes."""

    @staticmethod
    def environment(n=8, depth=2):
        graph, claims = build_corpus(n, depth=depth)
        oracle = OracleResponder(specs=claims, flawed_marker=FLAWED_MARKER)
        return FixtureKgBackend(data=graph), claims, oracle

    @pytest.mark.parametrize("fail_at", [None, 3, "critique"])
    def test_no_critique_call_outlives_the_run(self, fail_at):
        kg_backend, claims, oracle = self.environment()
        llm = ScriptedBackend(responder=oracle)
        cfg = OptimizationConfig(epochs=2, train_size=6, val_size=2, seed=1)
        train, _ = split(claims, cfg)
        training = {r["claim"] for r in train}
        first = f"Claim: {train[0]['claim']}\n"  # the first training claim in claim order

        def critique(text):
            # with fail_at "critique", that claim's critique call raises
            if fail_at == "critique" and first in text:
                raise ScriptMiss("no scripted critique of the first claim")
            return oracle(text)

        critic = DelayedCritiques(ScriptedBackend(responder=critique),
                                  functools.partial(time.sleep, 0.03))

        def runner_factory(policy):
            # at fail_at 3 the third training episode of epoch 1 raises; no
            # runner counts validation claims
            fails = fail_at if fail_at != "critique" else None
            return CountedRunner(EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend),
                                 training, fails)

        raised = {None: contextlib.nullcontext(),
                  3: pytest.raises(ScriptMiss, match="episode"),
                  "critique": pytest.raises(ScriptMiss, match="critique of the first claim")}
        try:
            with raised[fail_at]:
                optimize(flawed_policy(), claims, cfg, runner_factory, critic)
        finally:
            running = critic.close()
        assert any(p.startswith(REFLECT_PREFIX) for p in critic.prompts)
        time.sleep(0.1)
        assert running == 0 and critic.late == 0

    @staticmethod
    def serial_run(backend, kg_backend, claims):
        def runner_factory(policy):
            return EpisodeRunner(policy, EpisodeConfig(), backend, kg_backend)

        cfg = OptimizationConfig(epochs=3, train_size=5, val_size=3, seed=1, parallel=1)
        return optimize(flawed_policy(), claims, cfg, runner_factory, backend).to_jsonable()

    def test_a_sequence_script_at_parallel_1_replays_a_serial_run(self):
        # a sequence script answers in arrival order, so a critique call still
        # running when the next episode sends would take that episode's reply;
        # these episodes send one request at a time, so a serial run never has
        # two in flight
        kg_backend, claims, oracle = self.environment()
        slow = functools.partial(time.sleep, 0.01)
        recorded = DelayedCritiques(ScriptedBackend(responder=oracle), slow)
        expected = self.serial_run(recorded, kg_backend, claims)
        assert recorded.peak == 1
        assert any(entry["accepted"] for entry in expected["history"])
        sequence = ScriptedBackend(sequence=[oracle(p) for p in recorded.prompts])
        replayed = DelayedCritiques(sequence, slow)
        assert self.serial_run(replayed, kg_backend, claims) == expected
        assert replayed.prompts == recorded.prompts and replayed.peak == 1
        assert not sequence.sequence

    def test_idle_workers_exit_after_the_run(self, monkeypatch):
        # slow critique calls pile up on worker threads while the lanes run
        # on; once the run has ended those threads are idle, and they exit
        monkeypatch.setattr(fanout, "IDLE_EXIT_S", 0.05)
        kg_backend, claims, oracle = self.environment(n=42, depth=1)
        llm = ScriptedBackend(responder=oracle)
        critic = DelayedCritiques(ScriptedBackend(responder=oracle),
                                  functools.partial(time.sleep, 0.05))

        def runner_factory(policy):
            return EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend)

        cfg = OptimizationConfig(epochs=1, train_size=40, val_size=2, seed=1, parallel=2)
        before = set(threading.enumerate())
        optimize(flawed_policy(), claims, cfg, runner_factory, critic)
        assert critic.peak > 2  # critique calls ran at once, on threads of their own
        started = [t for t in threading.enumerate() if t not in before]
        assert started
        for thread in started:
            thread.join(timeout=5)
            assert not thread.is_alive()
        # threads older than the run may still wait out the unpatched timeout
        deadline = time.monotonic() + 5
        while fanout._workers._threads and time.monotonic() < deadline:
            time.sleep(0.01)
        assert fanout._workers._threads == 0

    def test_training_episodes_overlap_earlier_critique_calls(self):
        # each critique call waits until every training episode has started:
        # on the lanes the first one would hold its lane, the other lane would
        # soon hold in its own, and no later episode could start
        kg_backend, claims, oracle = self.environment(depth=1)
        llm = ScriptedBackend(responder=oracle)
        cfg = OptimizationConfig(epochs=1, train_size=6, val_size=2, seed=1, parallel=2)
        training = {r["claim"] for r in split(claims, cfg)[0]}
        runners = []
        all_started = threading.Event()

        def runner_factory(policy):
            # only the runner of the epoch's training episodes counts any
            runners.append(CountedRunner(EpisodeRunner(policy, EpisodeConfig(), llm, kg_backend),
                                         training))
            return runners[-1]

        def hold():
            if any(runner.started == 6 for runner in runners):
                all_started.set()  # a call made after the sixth episode started lets all go
            return all_started.wait(5)

        critic = DelayedCritiques(ScriptedBackend(responder=oracle), hold)
        optimize(default_policy(), claims, cfg, runner_factory, critic)
        assert critic.held == [True] * 6

    def test_acceptance_run_digest(self):
        report = optimization_report_json()
        assert hashlib.sha256(report.encode()).hexdigest()[:8] == "b6796d78"


class TestInitialValidationBesideEpoch1:
    """The initial policy's validation runs beside epoch 1's training
    episodes, and has ended before optimize() returns or raises."""

    CONFIG = OptimizationConfig(epochs=2, train_size=6, val_size=2, seed=1)

    def optimize(self, cfg, episode, hold=lambda: None):
        """optimize() from the flawed policy over TestCritiquesOffTheLanes'
        corpus. Each episode under that policy runs as ``episode(kind, claim,
        run)``, where ``kind`` is "val" for a validation claim (so for the
        initial validation) and "train" for a training claim. Every LLM call
        goes to ``self.llm``, a DelayedCritiques whose critique calls call
        ``hold()``, closed once the run has returned or raised."""
        kg_backend, claims, oracle = TestCritiquesOffTheLanes.environment()
        self.train, self.val = split(claims, cfg)
        training = {r["claim"] for r in self.train}
        initial = flawed_policy()
        self.llm = DelayedCritiques(ScriptedBackend(responder=oracle), hold)

        def runner_factory(policy):
            runner = EpisodeRunner(policy, EpisodeConfig(), self.llm, kg_backend)
            if policy is not initial:
                return runner
            return SimpleNamespace(run=lambda claim: episode(
                "train" if claim in training else "val", claim, runner.run))

        try:
            return optimize(initial, claims, cfg, runner_factory, self.llm)
        finally:
            self.running = self.llm.close()

    def test_initial_validation_episodes_run_beside_training_episodes(self):
        trained = threading.Event()
        opened = []

        def episode(kind, claim, run):
            if kind == "train":
                trained.set()
            else:  # held until a training episode has started
                opened.append(trained.wait(5))
            return run(claim)

        self.optimize(self.CONFIG, episode)
        assert opened == [True] * self.CONFIG.val_size

    @pytest.mark.parametrize("training_fails", [False, True])
    def test_an_initial_validation_error_is_raised_once_all_work_has_ended(self, training_fails):
        # the last validation claim's episode raises once epoch 1's training
        # has begun; with training_fails a training episode raises too, while
        # the initial validation still runs, and its error goes first
        def episode(kind, claim, run):
            if kind == "val":
                time.sleep(0.05)
                if claim == self.val[-1]["claim"]:
                    raise ScriptMiss("no scripted reply for a validation episode")
            elif training_fails and claim == self.train[2]["claim"]:
                raise ScriptMiss("no scripted reply for a training episode")
            return run(claim)

        with pytest.raises(ScriptMiss, match="training" if training_fails else "validation"):
            self.optimize(self.CONFIG, episode, functools.partial(time.sleep, 0.03))
        assert any(p.startswith(REFLECT_PREFIX) for p in self.llm.prompts)
        time.sleep(0.1)
        assert self.running == 0 and self.llm.late == 0

    def test_at_parallel_1_training_starts_once_the_initial_validation_has_ended(self):
        events = []

        def episode(kind, claim, run):
            events.append(("start", kind))
            if kind == "val":
                time.sleep(0.02)  # training beside it would start meanwhile
            try:
                return run(claim)
            finally:
                events.append(("end", kind))

        cfg = OptimizationConfig(epochs=1, train_size=6, val_size=2, seed=1, parallel=1)
        self.optimize(cfg, episode)
        first = events.index(("start", "train"))
        assert events[:first] == [("start", "val"), ("end", "val")] * cfg.val_size


class LookupMemo(dict):
    """A reply memo that remembers, per thread, whether its last lookup of
    each key missed."""

    def __init__(self, items=()):
        super().__init__(items)
        self._local = threading.local()

    def _lookups(self):
        if not hasattr(self._local, "missed"):
            self._local.missed = {}
        return self._local.missed

    def __contains__(self, key):
        found = super().__contains__(key)
        self._lookups()[key] = not found
        return found

    def missed_here(self, key):
        """Whether this thread's last lookup of ``key`` missed."""
        return self._lookups().get(key, False)


class LookupMemos:
    """Stands in for ``llm._REPLY_MEMO``, so that each memo a
    ``reply_memo()`` block sets is a LookupMemo."""

    def __init__(self, var):
        self.var = var

    def get(self):
        return self.var.get()

    def set(self, memo):
        return self.var.set(LookupMemo(memo))

    def reset(self, token):
        self.var.reset(token)


class Counting:
    """Records the key of every request sent through ``send``, and raises on
    the first try of each key that ``flaky`` picks. ``overlaps`` counts, per
    key, the sends whose lookup in the run's reply memo (a LookupMemo) missed
    while the same key was in flight, or after a send of it returned but
    before the memo stored its result (``llm.memoized`` stores a result only
    once its fetch has returned, and sends only after its lookup missed).
    The memo's keys are the keys recorded here."""

    def __init__(self, flaky_mod=0):
        self.flaky_mod = flaky_mod
        self.sent = []
        self.failed = set()
        self.overlaps = Counter()
        self._in_flight = Counter()
        self._returned = {}  # key -> the memo that was active when a send of it returned
        self._lock = threading.Lock()

    def send(self, key, error, fetch):
        memo = llm_mod._REPLY_MEMO.get()
        with self._lock:
            self.sent.append(key)
            raced = memo is not None and self._returned.get(key) is memo and memo.missed_here(key)
            if self._in_flight[key] or raced:
                self.overlaps[key] += 1
            fail = self.flaky(key) and key not in self.failed
            if fail:
                self.failed.add(key)
            else:
                self._in_flight[key] += 1
        if fail:
            raise error(f"first try of {key!r} fails")
        returned = False
        try:
            result = fetch()
            returned = True
            return result
        finally:
            with self._lock:
                self._in_flight[key] -= 1
                if returned:
                    self._returned[key] = memo

    def assert_sent_once(self):
        """Each key went out once, and again only after its first try raised
        or while another lane had it in flight."""
        for key, n in Counter(self.sent).items():
            assert n <= 1 + (key in self.failed) + self.overlaps[key], key


class CountingLlm(Counting):
    """Answers from ``responder`` after a hashed delay (with a seed), records
    every prompt, and raises TransportError on the first try of each prompt
    whose hash is 0 mod ``flaky_mod`` (0 for none)."""

    def __init__(self, responder, seed=None, flaky_mod=0):
        super().__init__(flaky_mod)
        self.slow = SlowLlm(responder, seed)
        self.prompts = self.sent

    def flaky(self, text):
        digest = int(hashlib.sha256(text.encode()).hexdigest(), 16)
        return bool(self.flaky_mod) and digest % self.flaky_mod == 0

    def generate(self, text, temperature, max_tokens):
        return self.send(text, TransportError,
                         lambda: self.slow.generate(text, temperature, max_tokens))


class CountingReads(Counting):
    """A ``SlowKg`` and a ``SlowSearch`` in one object, which records the key
    of every graph and web read and raises on the first try of each read
    whose key hashes to 0 mod ``flaky_mod`` (0 for none): QueryTimeout for a
    relation fetch, TransportError for an entity search and
    ProviderQuotaExceeded for a web search."""

    def __init__(self, graph, results, seed=None, flaky_mod=0):
        super().__init__(flaky_mod)
        self.kg = SlowKg(graph, seed)
        self.web = SlowSearch(results, seed)
        self.reads = self.sent

    def flaky(self, key):
        digest = int(hashlib.sha256(repr(key).encode()).hexdigest(), 16)
        return bool(self.flaky_mod) and digest % self.flaky_mod == 0

    def search_entities(self, text, limit=5):
        return self.send(("search_entities", text), TransportError,
                         lambda: self.kg.search_entities(text, limit))

    def relations_of(self, entity_id, direction, *args, **kwargs):
        return self.send(("relations_of", entity_id, direction), QueryTimeout,
                         lambda: self.kg.relations_of(entity_id, direction, *args, **kwargs))

    def search(self, query_text, m):
        return self.send(("search", query_text), ProviderQuotaExceeded,
                         lambda: self.web.search(query_text, m))


def web_corpus():
    """``build_corpus(10, depth=2)`` where every third person has no link, so
    their claims go to the web; the search for such a claim finds its gold
    line twice, from two sites, so both passages link the same surfaces."""
    graph, claims = build_corpus(10, depth=2)
    results = {}
    for spec in claims[2::3]:
        del graph["links"][spec["claim"].split(" works for ")[0]]
        line = spec["support"] if spec["gold_label"] == "Supported" else spec["refute"]
        results[spec["claim"]] = [
            {"url": f"https://{site}.example/{spec['id']}", "title": "", "snippet": line}
            for site in ("a", "b")
        ]
    return graph, claims, results


class EpisodeLog:
    """A runner factory whose every episode gets its own CountingLlm and
    CountingReads over one graph and web, as the benchmark's per-episode
    latency wrappers do; keeps each episode's policy, claim, trajectory and
    backends."""

    def __init__(self, responder, graph, results):
        self.responder, self.graph, self.results = responder, graph, results
        self.episodes = []
        self._lock = threading.Lock()

    def __call__(self, policy):
        return SimpleNamespace(run=functools.partial(self.run, policy))

    def run(self, policy, claim):
        backend = CountingLlm(self.responder)
        reads = CountingReads(self.graph, self.results)
        result, trajectory = run_episode(claim, policy, EpisodeConfig(), backend, reads, reads)
        with self._lock:
            self.episodes.append((policy, claim, trajectory, backend, reads))
        return result, trajectory


class TestReplyMemo:
    """Within one optimize() call each distinct prompt text, graph lookup and
    web search goes to a backend once, or again only if its first try raised
    or another lane sent it at the same time; the run's report is
    unchanged."""

    CONFIG = OptimizationConfig(epochs=4, train_size=6, val_size=4, seed=2)

    @pytest.fixture(autouse=True)
    def lookup_memos(self, monkeypatch):
        monkeypatch.setattr(llm_mod, "_REPLY_MEMO", LookupMemos(llm_mod._REPLY_MEMO))

    @staticmethod
    def environment(flaky_mod=0, seed=None):
        graph, claims, results = web_corpus()
        oracle = OracleResponder(specs=claims, flawed_marker=FLAWED_MARKER)
        llm = CountingLlm(oracle, seed, flaky_mod)
        reads = CountingReads(graph, results, seed, flaky_mod)

        def runner_factory(policy):
            return EpisodeRunner(policy, EpisodeConfig(), llm, reads, reads)

        return claims, llm, reads, runner_factory

    @pytest.mark.parametrize("flaky_mod, seed", [(0, None), (0, 3), (5, None), (5, 4), (3, 5)])
    def test_no_prompt_goes_out_twice_unless_it_failed(self, flaky_mod, seed, monkeypatch):
        """Nor does a graph lookup or a web search; one that another lane
        has in flight may go out again."""
        claims, llm, reads, runner_factory = self.environment(flaky_mod, seed)
        run = optimize(flawed_policy(), claims, self.CONFIG, runner_factory, llm)
        for counting in (llm, reads):
            counting.assert_sent_once()
        assert {key[0] for key in reads.reads} == {"search_entities", "relations_of", "search"}
        if flaky_mod:
            # some failed prompt and some failed read were asked again
            for counting in (llm, reads):
                assert {key for key, n in Counter(counting.sent).items() if n > 1} & counting.failed
        else:
            # web linking's entity searches too
            assert ("search_entities", "Group3 Beta") in reads.reads
            assert run.to_jsonable() == self.run_without_memo(seed, monkeypatch)

    def run_without_memo(self, seed, monkeypatch):
        """The same run with every request sent."""
        claims, llm, reads, runner_factory = self.environment(0, seed)
        monkeypatch.setattr(optimize_mod, "reply_memo", contextlib.nullcontext)
        run = optimize(flawed_policy(), claims, self.CONFIG, runner_factory, llm)
        # the run repeats prompts and reads of every kind
        assert len(llm.prompts) > len(set(llm.prompts))
        repeated = {key[0] for key, n in Counter(reads.reads).items() if n > 1}
        assert repeated == {"search_entities", "relations_of", "search"}
        return run.to_jsonable()

    def test_runs_share_nothing_and_eval_sends_every_request(self):
        claims, llm, reads, runner_factory = self.environment()
        records = [DatasetRecord(id=c["id"], claim=c["claim"], gold_label=c["gold_label"])
                   for c in claims]
        policy_runner = runner_factory(flawed_policy())

        def sent():
            return len(llm.prompts), len(reads.reads)

        def since(start):
            return llm.prompts[start[0]:], reads.reads[start[1]:]

        def eval_requests():
            start = sent()
            run_benchmark(records, policy_runner, parallelism=2)
            return since(start)

        before = eval_requests()
        start = sent()
        first = optimize(flawed_policy(), claims, self.CONFIG, runner_factory, llm)
        first_requests = since(start)
        start = sent()
        second = optimize(flawed_policy(), claims, self.CONFIG, runner_factory, llm)
        second_requests = since(start)
        after = eval_requests()

        assert first.to_jsonable() == second.to_jsonable()
        for b, f, s, a, counting in zip(before, first_requests, second_requests, after,
                                        (llm, reads)):
            # each run sends each request once, or again while it was in flight
            assert set(s) == set(f)
            for sent in (f, s):
                assert all(n <= 1 + counting.overlaps[key] for key, n in Counter(sent).items())
            # the eval asks for what the optimize runs got, and sends every
            # request again
            assert set(a) & set(f)
            assert Counter(a) == Counter(b)
        assert len(after[1]) > len(set(after[1]))  # an eval's own reads repeat
        assert llm_mod._REPLY_MEMO.get() is None

    @pytest.mark.parametrize("flaky_mod", [0, 3])
    def test_reads_sent_alongside_assessments_go_out_once_too(self, flaky_mod):
        """No episode expands an employer (O or X): its relation reads are
        only those an episode sends alongside the assessment that picks the
        verdict, and the memo holds them for the rest of the run."""
        claims, llm, reads, runner_factory = self.environment(flaky_mod, seed=6)
        optimize(flawed_policy(), claims, self.CONFIG, runner_factory, llm)
        reads.assert_sent_once()
        assert any(key[0] == "relations_of" and key[1].startswith(("O", "X"))
                   for key in reads.reads)

    def test_a_resend_before_the_memo_stores_the_result_is_an_overlap(self):
        counting = CountingReads({"entities": [], "relations": []}, {})
        key = ("search", "q")

        def send(store_between=False):
            memo = llm_mod._REPLY_MEMO.get()
            key in memo  # memoized's lookup
            if store_between:  # another lane stores its result meanwhile
                memo[key] = ()
            return counting.send(key, TransportError, lambda: ())

        with llm_mod.reply_memo():
            send()  # returned; memoized has not stored it yet
            send()
            assert counting.overlaps[key] == 1
            llm_mod._REPLY_MEMO.get()[key] = ()
            send()  # sent again after the store: a second request, not an overlap
        assert counting.overlaps[key] == 1
        with llm_mod.reply_memo():
            send()  # a new run's first send
            # a lookup that missed just before another lane stored the result
            send(store_between=True)
        assert counting.overlaps[key] == 2

    def test_memo_ends_with_a_run_that_raises(self):
        claims, llm, _, runner_factory = self.environment()

        def failing_factory(policy):
            if policy.policy_id != flawed_policy().policy_id:
                raise RuntimeError("no runner for candidates")
            return runner_factory(policy)

        with pytest.raises(RuntimeError, match="no runner"):
            optimize(flawed_policy(), claims, self.CONFIG, failing_factory, llm)
        assert llm_mod._REPLY_MEMO.get() is None

    def test_episode_counters_count_round_trips_and_requests(self):
        """Each episode equals the same episode run alone, sparql_queries
        included; only llm_calls counts what the memo saved."""
        graph, claims, results = web_corpus()
        oracle = OracleResponder(specs=claims, flawed_marker=FLAWED_MARKER)
        log = EpisodeLog(oracle, graph, results)
        optimize(flawed_policy(), claims, self.CONFIG, log, CountingLlm(oracle))

        memoized = unmemoized = 0
        for policy, claim, trajectory, backend, reads in log.episodes:
            counters = trajectory.counters
            assert counters["llm_calls"] == len(backend.prompts)
            alone, alone_reads = CountingLlm(oracle), CountingReads(graph, results)
            _, fresh = run_episode(claim, policy, EpisodeConfig(), alone, alone_reads,
                                   alone_reads)
            assert counters["core_llm_calls"] == core_requests(alone.prompts)
            assert fresh.counters["llm_calls"] == len(alone.prompts)
            # the same episode in every other respect, sparql_queries included
            counters.pop("llm_calls")
            fresh.counters.pop("llm_calls")
            assert trajectory.to_jsonable() == fresh.to_jsonable()
            memoized += len(backend.prompts) + len(reads.reads)
            unmemoized += len(alone.prompts) + len(alone_reads.reads)
        # an episode served wholly by the memo still charges its expansions
        assert any(not backend.prompts and not reads.reads and t.counters["sparql_queries"]
                   for _, _, t, backend, reads in log.episodes)
        assert any(t.counters["web_searches"] for _, _, t, *_ in log.episodes)
        assert memoized < unmemoized
