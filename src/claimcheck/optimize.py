"""Offline policy improvement: self-critique, composite reward, and
prompt-text updates driven by critique batches.

The base model is never touched; only prompt template text and versions change,
and only here. Candidate policies are accepted per epoch only on strict
validation improvement, and the best accepted candidate wins.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from .agent import EXPAND_KG, INIT_KG, SUFFICIENT, WEB_SEARCH
from .errors import InsufficientData, ParseFailure, TransportError
from .fanout import fan_out, start, wait
from .llm import LlmGateway, LlmRequest, PromptTemplate, ResponseSchema, list_of, mapping
from .llm import reply_memo, text, whole
from .policy import REFLECT, SUFFICIENCY, VERDICT, PromptPolicy
from .web import string_field

INSUFFICIENT_COVERAGE = "InsufficientCoverage"
PREMATURE_TERMINATION = "PrematureTermination"
REDUNDANT_RETRIEVAL = "RedundantRetrieval"
CONTRADICTION_MISHANDLED = "ContradictionMishandled"
OTHER = "Other"

CRITIQUE_TAGS = {
    INSUFFICIENT_COVERAGE,
    PREMATURE_TERMINATION,
    REDUNDANT_RETRIEVAL,
    CONTRADICTION_MISHANDLED,
    OTHER,
}

# reward weights: correctness dominates, sufficiency and efficiency tie-break
W_CORRECTNESS = 1.0
W_SUFFICIENCY = 0.25
STEP_PENALTY = 0.05

RETRIEVAL_KINDS = (INIT_KG, EXPAND_KG, WEB_SEARCH)

_REFLECT_SCHEMA = ResponseSchema({"critiques": list_of()})
_META_SCHEMA = ResponseSchema({"templates": mapping})

# The meta-optimizer prompt is fixed machinery, not part of the trainable policy.
META_OPTIMIZER_PROMPT = PromptTemplate(
    id="meta_optimizer",
    text=(
        "You are improving the decision prompts of a fact-checking agent.\n"
        "Observed failure critiques:\n{critiques}\n"
        "Current prompt templates (only these may be revised):\n{templates}\n"
        "Propose revised text for the templates that would prevent these failures. "
        "Keep the required JSON reply format instructions inside each template.\n"
        'Reply as JSON: {"templates": {"<template_id>": "<new text>", ...}}'
    ),
)


@dataclass
class Critique:
    tag: str
    step_index: int
    text: str


@dataclass
class CompositeReward:
    correctness: int
    sufficiency: float
    efficiency_penalty: float
    total: float


@dataclass
class OptimizationConfig:
    epochs: int = 20
    train_size: int = 100
    val_size: int = 50
    seed: int = 0
    # episodes run at once; during epoch 1 the initial policy's validation
    # runs this many more beside the training episodes
    parallel: int = 2


@dataclass
class OptimizationRun:
    history: list = field(default_factory=list)
    selected: PromptPolicy = None
    initial_val_reward: float = 0.0
    selected_val_reward: float = 0.0

    def to_jsonable(self):
        return {
            "history": list(self.history),
            "initial_val_reward": self.initial_val_reward,
            "selected_val_reward": self.selected_val_reward,
            "selected_policy_id": self.selected.policy_id if self.selected else None,
            "selected_policy": self.selected.to_jsonable() if self.selected else None,
        }


# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------


def _superfluous_actions(trajectory):
    """Retrieval actions after the step that produced the last cited item."""
    cited = set(trajectory.verdict.citations) if trajectory.verdict else set()
    last_useful = 0
    for i, (_, obs) in enumerate(trajectory.steps):
        if cited & set(obs.added_item_ids):
            last_useful = i
    count = 0
    for i, (action, _) in enumerate(trajectory.steps):
        if action.kind in RETRIEVAL_KINDS and i > last_useful:
            count += 1
    return count


def compute_reward(trajectory, gold_label) -> CompositeReward:
    if trajectory.verdict is None:
        raise ValueError("compute_reward requires a terminal trajectory")
    correctness = 1 if trajectory.verdict.label == gold_label else 0
    citations = trajectory.verdict.citations
    if citations:
        # citations are already validated against the evidence set at verdict
        # time, so resolution is a ratio over what the verdict claimed to use
        all_items = set()
        for _, obs in trajectory.steps:
            all_items.update(obs.added_item_ids)
        resolved = sum(1 for c in citations if c in all_items)
        sufficiency = resolved / len(citations)
    else:
        sufficiency = 0.0
    penalty = -STEP_PENALTY * _superfluous_actions(trajectory)
    total = W_CORRECTNESS * correctness + W_SUFFICIENCY * sufficiency + penalty
    total = max(-1.0, min(1.25, total))
    return CompositeReward(
        correctness=correctness,
        sufficiency=sufficiency,
        efficiency_penalty=penalty,
        total=total,
    )


# ---------------------------------------------------------------------------
# Reflection
# ---------------------------------------------------------------------------


def rule_based_critiques(trajectory, gold_label) -> list:
    """Deterministic pre-tags that survive even a degraded critique model."""
    if trajectory.verdict is None:
        return []
    correct = trajectory.verdict.label == gold_label
    kinds = trajectory.action_kinds()
    expansions = kinds.count(EXPAND_KG)
    out = []
    terminal_index = len(trajectory.steps) - 1
    if not correct and expansions == 0:
        out.append(
            Critique(
                tag=PREMATURE_TERMINATION,
                step_index=terminal_index,
                text="wrong verdict with no graph expansion beyond the initial retrieval",
            )
        )
    web_index = trajectory.web_after_expand()
    if not correct and web_index is not None:
        out.append(
            Critique(
                tag=INSUFFICIENT_COVERAGE,
                step_index=web_index,
                text="web retrieval was still needed after graph expansion",
            )
        )
    if correct:
        saw_sufficient = False
        for i, (action, obs) in enumerate(trajectory.steps):
            if saw_sufficient and action.kind == EXPAND_KG:
                out.append(
                    Critique(
                        tag=REDUNDANT_RETRIEVAL,
                        step_index=i,
                        text="expansion continued after evidence was assessed sufficient",
                    )
                )
                break
            if obs.sufficiency_hint == SUFFICIENT:
                saw_sufficient = True
    return out


def reflect(trajectory, gold_label, gateway) -> list:
    """One structured critique call on a finished episode's ``trajectory``,
    plus the deterministic rule-based tags.

    A failed reply or transport yields no LLM critiques; rows that are not
    objects, or whose ``step_index`` is not ``llm.whole``, are skipped."""
    critiques = []
    steps_text = "\n".join(
        f"{i}: {action.kind} (hint={obs.sufficiency_hint}, "
        f"+{obs.added_triplets}t/+{obs.added_annotations}a)"
        for i, (action, obs) in enumerate(trajectory.steps)
    )
    try:
        rows = gateway.complete_structured(
            LlmRequest(
                template_id=REFLECT,
                bindings={
                    "claim": trajectory.claim,
                    "gold": gold_label,
                    "predicted": trajectory.verdict.label,
                    "trajectory": steps_text,
                },
            ),
            _REFLECT_SCHEMA,
        )["critiques"]
    except (ParseFailure, TransportError):
        rows = []
    for row in rows:
        if not (isinstance(row, dict) and whole(row.get("step_index", 0))):
            continue
        step_index = int(row.get("step_index", 0))
        tag = str(row.get("tag", OTHER))
        if tag not in CRITIQUE_TAGS:
            tag = OTHER
        step_index = max(0, min(step_index, len(trajectory.steps) - 1))
        critiques.append(Critique(tag=tag, step_index=step_index, text=string_field(row, "text")))
    critiques.extend(rule_based_critiques(trajectory, gold_label))
    return critiques


# ---------------------------------------------------------------------------
# Textual-gradient prompt update
# ---------------------------------------------------------------------------

def textual_gradient(critiques, current: PromptPolicy, llm_backend, candidate_id):
    """One meta-model call proposing revised text for the templates implicated
    by the batch's critique tags. Returns the policy ``candidate_id``, in
    which each revised template's version is one higher and every other
    template is the same object, or None when the reply revises none of
    them. A revision counts only if it is ``llm.text`` whose placeholders
    the old template has too, since an episode binds no others. A reply
    whose ``templates`` is not an object after its repairs raises ParseFailure."""
    if not critiques:
        raise ValueError("textual_gradient requires a batch with critiques")

    # the sufficiency prompt both assesses the evidence and picks the next
    # action, so every tag but a mishandled contradiction implicates it
    targets = {VERDICT if c.tag == CONTRADICTION_MISHANDLED else SUFFICIENCY for c in critiques}

    critique_lines = "\n".join(
        f"- [{c.tag}] step {c.step_index}: {c.text}" for c in critiques[:50]
    )
    template_lines = "\n".join(
        f"### {tid}\n{current.template(tid).text}" for tid in sorted(targets)
    )
    meta_policy = PromptPolicy([META_OPTIMIZER_PROMPT], policy_id="meta")
    gateway = LlmGateway(llm_backend, meta_policy)
    payload = gateway.complete_structured(
        LlmRequest(
            template_id="meta_optimizer",
            bindings={"critiques": critique_lines, "templates": template_lines},
        ),
        _META_SCHEMA,
    )
    candidate = current
    for tid, new_text in sorted(payload["templates"].items()):
        if tid not in targets or not text(new_text):
            continue
        old = current.template(tid)
        revised = dataclasses.replace(old, text=new_text, version=old.version + 1)
        if new_text != old.text and revised.placeholders() <= old.placeholders():
            candidate = candidate.with_template(revised, policy_id=candidate_id)
    return None if candidate is current else candidate


# ---------------------------------------------------------------------------
# Optimization loop
# ---------------------------------------------------------------------------


def _mean_val_reward(policy, claims, runner_factory, width):
    runner = runner_factory(policy)

    def reward(record):
        _, trajectory = runner.run(record["claim"])
        return compute_reward(trajectory, record["gold_label"]).total

    total = 0.0
    for value in fan_out(reward, claims, width):  # summed in claim order
        total += value
    return total / len(claims)


def _train_critiques(policy, claims, runner_factory, llm_backend, width):
    """Every training claim's episode under ``policy`` and its critiques,
    concatenated in claim order.

    ``width`` episodes run at once. Each finished episode starts its critique
    call off the lanes, so the next episode does not wait for it; at width 1
    the call ends before the next episode starts, as a ``sequence`` script
    needs. Every started call has ended (``fanout.wait``) before this returns
    or raises. An episode's error goes first, then critique errors in claim
    order."""
    runner = runner_factory(policy)
    started = []

    def critique(record):
        _, trajectory = runner.run(record["claim"])
        handle = start(reflect, trajectory, record["gold_label"],
                       LlmGateway(llm_backend, policy))
        started.append(handle)
        if width == 1:
            wait((handle,))
        return handle

    try:
        handles = fan_out(critique, claims, width)  # an episode's error goes first
    finally:
        wait(started)
    return [c for handle in handles for c in handle.result()]


def optimize(initial, claims, config, runner_factory, llm_backend):
    """Hill-climb the prompt policy over labeled claims.

    ``claims`` is a list of {"id", "claim", "gold_label"} with unique ids (a
    repeated one raises ValueError); ``runner_factory`` maps a policy to an
    episode runner whose ``run`` may be called from several threads at once:
    ``config.parallel`` training or validation episodes run at a time, and the
    run equals a serial one. The initial policy's validation is first needed at
    the first candidate's comparison, so its lanes run beside epoch 1's
    training lanes, up to ``2 * config.parallel`` episodes at once; at
    ``parallel`` 1 it ends before training starts. Each training episode's
    critique call runs off those lanes, at most one per finished episode, and
    ends before the epoch's meta call, or before the run raises. The initial
    validation has ended before the run returns or raises; its error is raised
    at the first candidate's comparison, or after the last epoch if no
    candidate came, so an error of epoch 1's training goes first. The critique
    and meta calls both go to ``llm_backend``. Within the run each distinct
    prompt text, graph lookup and web search goes to a backend once
    (``llm.reply_memo``).
    A meta call that fails to parse or to arrive leaves its epoch without a
    candidate. Returns an OptimizationRun whose selected policy never
    validates worse than the initial one.
    """
    if config.val_size < 1 or config.parallel < 1:
        raise ValueError(f"val_size and parallel must be at least 1, got "
                         f"{config.val_size} and {config.parallel}")
    if len({r["id"] for r in claims}) < len(claims):
        # a repeated id could put one claim in both training and validation
        raise ValueError("claim ids must be unique")
    needed = config.train_size + config.val_size
    if len(claims) < needed:
        raise InsufficientData(f"need >= {needed} labeled claims, got {len(claims)}")

    rng = random.Random(config.seed)
    pool = sorted(claims, key=lambda r: str(r["id"]))
    rng.shuffle(pool)
    train = pool[: config.train_size]
    val = pool[config.train_size : needed]

    # every request is at temperature 0, so each distinct prompt, graph lookup
    # and web search goes to a backend once per run: later epochs that replay
    # an earlier one, and policies that share a prompt, reuse its result (see
    # llm.reply_memo)
    with reply_memo():
        run = OptimizationRun()
        baseline = start(_mean_val_reward, initial, val, runner_factory, config.parallel)
        try:
            if config.parallel == 1:
                # nothing runs beside it, as a ``sequence`` script needs
                wait((baseline,))
            current, current_val = initial, None  # None: the baseline's, read when needed

            for epoch in range(1, config.epochs + 1):
                critiques = _train_critiques(current, train, runner_factory, llm_backend,
                                             config.parallel)

                entry = {"epoch": epoch, "policy_id": None, "val_reward": None, "accepted": False}
                candidate = None
                if critiques:
                    try:
                        candidate = textual_gradient(critiques, current, llm_backend,
                                                     f"candidate-{epoch}")
                    except (ParseFailure, TransportError):
                        candidate = None  # as in reflect: a failed meta call proposes nothing
                if candidate is not None:
                    cand_val = _mean_val_reward(candidate, val, runner_factory, config.parallel)
                    entry["policy_id"] = candidate.policy_id
                    entry["val_reward"] = cand_val
                    if current_val is None:
                        current_val = baseline.result()
                    if cand_val > current_val:
                        current, current_val = candidate, cand_val
                        entry["accepted"] = True
                run.history.append(entry)

            run.initial_val_reward = baseline.result()
        finally:
            wait((baseline,))

        # only a strict improvement moves ``current``, so it is the best policy
        run.selected = current
        run.selected_val_reward = run.initial_val_reward if current_val is None else current_val
        return run
