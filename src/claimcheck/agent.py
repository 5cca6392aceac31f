"""The verification episode: action selection, ordering rules, budgets, verdicts.

An episode always opens with the initial KG retrieval, then alternates
policy-selected actions with observations until a verdict is produced or the
step limit forces one. An observation that leaves the next step a choice
costs one assess-and-act call, whose reply names the next action; an illegal
one is coerced to the nearest legal action and logged as a warning. After an
observation that leaves only the verdict (the step limit is reached, or
``legal_actions`` is verdict alone) no assessment is sent, and the
observation's hint stays ``unknown``. While ``expandKG`` is legal, the graph
reads that expansion would make start before the assessment, and no step
waits for a read it does not use. No LLM request is sent ahead.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from . import kg as kg_mod
from . import web as web_mod
from .errors import EmptyClaim, ParseFailure, TransportError
from .graph import KnowledgeSubgraph, passage_item_id
from .llm import LlmGateway, LlmRequest, ResponseSchema, one_of, text
from .policy import EXPANSION_PRUNE, FORCED_VERDICT, RELATION_PRUNE
from .policy import SUFFICIENCY, VERDICT

INIT_KG = "initKGRetrieval"
EXPAND_KG = "expandKG"
WEB_SEARCH = "webSearch"
VERDICT_ACTION = "verdict"

_ACTION_KINDS = (INIT_KG, EXPAND_KG, WEB_SEARCH, VERDICT_ACTION)

SUFFICIENT = "sufficient"
NEED_KG = "need_kg"
NEED_WEB = "need_web"
UNKNOWN = "unknown"

# the action an assessment asks for when its reply names none
_HINT_ACTIONS = {SUFFICIENT: VERDICT_ACTION, NEED_KG: EXPAND_KG, NEED_WEB: WEB_SEARCH}

_SUFFICIENCY_SCHEMA = ResponseSchema({"assessment": one_of(SUFFICIENT, NEED_KG, NEED_WEB)})
_VERDICT_SCHEMA = ResponseSchema({"label": text})


@dataclass
class Action:
    kind: str
    payload: object = None

    def __post_init__(self):
        if self.kind not in _ACTION_KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")


@dataclass
class Observation:
    kind: str  # subgraph_delta | web_evidence | terminal
    added_triplets: int = 0
    added_annotations: int = 0
    sufficiency_hint: str = UNKNOWN
    added_item_ids: list = field(default_factory=list)
    note: str = ""


@dataclass
class VerdictResult:
    label: str  # Supported | Refuted
    justification: str
    citations: list = field(default_factory=list)
    forced: bool = False


@dataclass
class EpisodeConfig:
    k: int = 4
    n_hops: int = 4
    max_steps: int = 6
    max_web_searches: int = 2


@dataclass
class Trajectory:
    claim: str
    steps: list = field(default_factory=list)  # [(Action, Observation)]
    verdict: VerdictResult = None
    counters: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    forced_reason: str = ""

    def action_kinds(self):
        return [a.kind for a, _ in self.steps]

    def web_after_expand(self):
        """Index of the first webSearch that follows an expandKG, or None."""
        expanded = False
        for i, (action, _) in enumerate(self.steps):
            if action.kind == EXPAND_KG:
                expanded = True
            elif action.kind == WEB_SEARCH and expanded:
                return i
        return None

    def to_jsonable(self):
        return {
            "claim": self.claim,
            "steps": [
                {
                    "action": {"kind": a.kind, "payload": _payload_jsonable(a.payload)},
                    "observation": asdict(o),
                }
                for a, o in self.steps
            ],
            "verdict": None if self.verdict is None else asdict(self.verdict),
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "warnings": list(self.warnings),
            "forced_reason": self.forced_reason,
        }

    def to_json(self):
        return json.dumps(self.to_jsonable(), ensure_ascii=False)


def _payload_jsonable(payload):
    # a dict payload is one a trajectory read back from JSON holds
    if payload is None or isinstance(payload, (str, int, float, dict)):
        return payload
    if isinstance(payload, web_mod.WebQuery):
        return {"query": payload.text, "rationale": payload.rationale}
    return str(payload)


def trajectory_from_jsonable(data) -> Trajectory:
    """The trajectory ``to_jsonable`` wrote; an observation that is not an
    object or a sufficiency hint that is not a string raises ValueError."""
    traj = Trajectory(claim=data["claim"])
    for step in data.get("steps", []):
        action = Action(step["action"]["kind"], step["action"].get("payload"))
        obs_data = step.get("observation", {})
        if not isinstance(obs_data, dict):
            raise ValueError(f"observation {obs_data!r} is not a JSON object")
        hint = obs_data.get("sufficiency_hint", UNKNOWN)
        if not isinstance(hint, str):
            raise ValueError(f"sufficiency hint {hint!r} is not a string")
        traj.steps.append(
            (
                action,
                Observation(
                    kind=obs_data.get("kind", "subgraph_delta"),
                    added_triplets=obs_data.get("added_triplets", 0),
                    added_annotations=obs_data.get("added_annotations", 0),
                    sufficiency_hint=hint,
                    added_item_ids=obs_data.get("added_item_ids", []),
                    note=obs_data.get("note", ""),
                ),
            )
        )
    v = data.get("verdict")
    if v:
        traj.verdict = VerdictResult(
            label=v["label"],
            justification=v.get("justification", ""),
            citations=v.get("citations", []),
            forced=v.get("forced", False),
        )
    traj.counters = dict(data.get("counters", {}))
    traj.warnings = list(data.get("warnings", []))
    traj.forced_reason = data.get("forced_reason", "")
    return traj


def write_trajectories(path, trajectories):
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajectories:
            fh.write(traj.to_json() + "\n")


def read_trajectories(path):
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(trajectory_from_jsonable(json.loads(line)))
    return out


# ---------------------------------------------------------------------------
# Policy-facing operations
# ---------------------------------------------------------------------------


def _normalize_label(raw: str) -> str:
    label = raw.strip().casefold()
    if label in ("supported", "support", "supports", "true"):
        return "Supported"
    # binary standardization: everything partial/ambiguous collapses to Refuted
    return "Refuted"


@dataclass(frozen=True)
class Evidence:
    """One listing of an episode's evidence: the item ids a verdict may cite,
    and the prompt block that shows exactly those items."""

    ids: frozenset = frozenset()
    text: str = "(no evidence)"

    @classmethod
    def of(cls, subgraph, web_passages=()):
        ids, lines = [], []
        for item_id, text in subgraph.evidence_lines():
            ids.append(item_id)
            lines.append(f"[{item_id}] {text}")
        for ev in web_passages:
            item_id = passage_item_id(ev.passage.source_url, ev.passage.index)
            ids.append(item_id)
            lines.append(
                f"[{item_id}] ({ev.stance}, {ev.consistency_confidence:.2f}) {ev.passage.text}"
            )
        if not lines:
            return cls()
        return cls(frozenset(ids), "\n".join(lines))


def assess_sufficiency(claim, evidence, gateway):
    """One assess-and-act LLM call: (sufficient/need_kg/need_web, requested
    action kind). A reply without ``action`` requests the assessment's own
    action. No evidence at all short-circuits to need_web and webSearch with
    no call; a reply whose ``assessment`` is still not one of the three after
    its repairs gives (unknown, None)."""
    if not evidence.ids:
        return NEED_WEB, WEB_SEARCH
    try:
        payload = gateway.complete_structured(
            LlmRequest(
                template_id=SUFFICIENCY, bindings={"claim": claim, "evidence": evidence.text}
            ),
            _SUFFICIENCY_SCHEMA,
        )
    except ParseFailure:
        return UNKNOWN, None
    assessment = payload["assessment"]
    return assessment, str(payload.get("action", _HINT_ACTIONS[assessment]))


def legal_actions(config, subgraph, trajectory, has_web):
    """The action kinds an episode may take next: ``verdict`` always,
    ``expandKG`` while hops are left and a frontier entity is unexpanded,
    ``webSearch`` while a provider exists and searches are left."""
    legal = {VERDICT_ACTION}
    if subgraph.hops_done < config.n_hops and subgraph.unexpanded():
        legal.add(EXPAND_KG)
    if has_web and trajectory.action_kinds().count(WEB_SEARCH) < config.max_web_searches:
        legal.add(WEB_SEARCH)
    return legal


def coerce_action(requested, legal, hint):
    """Map a (possibly illegal) requested action kind onto one of ``legal``,
    preferring the kind the sufficiency ``hint`` asks for.

    Returns (kind, warning or None)."""
    if requested in legal:
        return requested, None
    if hint == NEED_KG and EXPAND_KG in legal:
        fallback = EXPAND_KG
    elif hint == NEED_WEB and WEB_SEARCH in legal:
        fallback = WEB_SEARCH
    elif EXPAND_KG in legal and hint != SUFFICIENT:
        fallback = EXPAND_KG
    elif WEB_SEARCH in legal and hint != SUFFICIENT:
        fallback = WEB_SEARCH
    else:
        fallback = VERDICT_ACTION
    if requested in (EXPAND_KG, WEB_SEARCH, INIT_KG):
        return fallback, f"coerced {requested!r} to {fallback} (budget/ordering rule)"
    return fallback, f"coerced unrecognized action {requested!r} to {fallback}"


def select_action(requested, legal, hint, trajectory):
    """The next action: the kind the sufficiency reply requested, coerced
    onto ``legal`` with a warning, and no LLM call. When verdict is the only
    legal action it is taken without a warning."""
    if legal == {VERDICT_ACTION}:
        return Action(VERDICT_ACTION)
    kind, warning = coerce_action(requested, legal, hint)
    if warning:
        trajectory.warnings.append(warning)
    return Action(kind)


def _verdict(template_id, claim, evidence, gateway, trajectory):
    """The ``template_id`` request's verdict, citing only evidence items. A
    label still not ``llm.text`` after the repairs raises ParseFailure."""
    payload = gateway.complete_structured(
        LlmRequest(template_id=template_id, bindings={"claim": claim, "evidence": evidence.text}),
        _VERDICT_SCHEMA,
    )
    label = _normalize_label(payload["label"])
    justification = web_mod.string_field(payload, "justification").strip() or "no justification provided"
    cites = payload.get("citations") or []
    citations = []
    for cite in cites if isinstance(cites, list) else [cites]:
        cite = str(cite)
        if cite in evidence.ids:
            citations.append(cite)
        else:
            trajectory.warnings.append(f"dropped citation {cite!r}: not in evidence")
    return VerdictResult(label=label, justification=justification, citations=citations,
                         forced=template_id == FORCED_VERDICT)


def verdict(claim, evidence, gateway, trajectory):
    return _verdict(VERDICT, claim, evidence, gateway, trajectory)


def _fallback_verdict():
    return VerdictResult(
        label="Refuted", justification="insufficient evidence", citations=[], forced=True
    )


def force_verdict(claim, evidence, gateway, trajectory):
    """Falls back to a deterministic Refuted verdict when even the forced
    prompt cannot be parsed or its transport fails."""
    try:
        return _verdict(FORCED_VERDICT, claim, evidence, gateway, trajectory)
    except (ParseFailure, TransportError):
        return _fallback_verdict()


# ---------------------------------------------------------------------------
# Episode runner
# ---------------------------------------------------------------------------


class EpisodeRunner:
    """Runs independent verification episodes against shared backends."""

    def __init__(self, policy, config, llm_backend, kg_backend, web_provider=None):
        self.policy = policy
        self.config = config
        self.llm_backend = llm_backend
        self.kg_backend = kg_backend
        self.web_provider = web_provider

    def run(self, claim):
        return run_episode(
            claim,
            self.policy,
            self.config,
            self.llm_backend,
            self.kg_backend,
            self.web_provider,
        )


def _observation_kind(action):
    return "web_evidence" if action.kind == WEB_SEARCH else "subgraph_delta"


def run_episode(claim, policy, config, llm_backend, kg_backend, web_provider=None):
    """Execute one full episode; returns (VerdictResult, Trajectory).

    Each pass of the loop records the step in progress with its observation.
    At the step limit it then forces the verdict. Otherwise it assesses the
    evidence, unless the verdict is the only legal action, and runs the
    action the reply asks for, coerced onto the legal ones. The reads of the
    hop ``expandKG`` would take start before the assessment; a
    TransportError among them is dropped, and a taken expansion reads that
    key again. The episode waits for every read it started before it returns
    or raises, and then raises an unused read's error if it is a bug.

    A TransportError, or a reply that stays unparseable or holds a field of
    the wrong type where no fallback exists (a prune, a web query, an
    evidence filter), ends the episode in a forced verdict once the claim is
    accepted. The step in progress carries the error note: a step not yet
    recorded is recorded with it, and a recorded step whose assessment failed
    keeps its observation and items. One terminal verdict step follows. A
    failed verdict request takes the deterministic fallback verdict, so no
    episode sends a second one."""
    if not claim or not claim.strip():
        raise EmptyClaim("claim is empty")
    gateway = LlmGateway(llm_backend, policy)
    reads = kg_mod.GraphReads(kg_backend)
    subgraph = KnowledgeSubgraph()
    trajectory = Trajectory(claim=claim)
    has_web = web_provider is not None
    web_passages = []
    ranked = 0  # passages ranked so far, so that every passage id is new
    evidence = Evidence()  # listed by the latest observation
    action = Action(INIT_KG, claim)  # the step in progress
    try:
        kg_mod.init_kg_retrieval(claim, subgraph, config, gateway, reads)
        while True:
            previous, evidence = evidence, Evidence.of(subgraph, web_passages)
            added = sorted(evidence.ids - previous.ids)
            observation = Observation(
                kind=_observation_kind(action),
                added_triplets=sum(1 for i in added if i.startswith("t:")),
                added_annotations=sum(1 for i in added if i.startswith("a:")),
                added_item_ids=added,
            )
            trajectory.steps.append((action, observation))
            if len(trajectory.steps) >= config.max_steps:
                result = force_verdict(claim, evidence, gateway, trajectory)
                trajectory.forced_reason = "step_limit"
                trajectory.steps.append(
                    (Action(VERDICT_ACTION), Observation(kind="terminal", note="step limit"))
                )
                break
            legal = legal_actions(config, subgraph, trajectory, has_web)
            hint, requested, next_hop = UNKNOWN, None, []
            if legal != {VERDICT_ACTION}:
                if EXPAND_KG in legal:
                    next_hop = kg_mod.next_hop(subgraph, claim, config.k)
                    reads.start(next_hop, ahead=True)
                hint, requested = assess_sufficiency(claim, evidence, gateway)
                if hint == UNKNOWN:
                    hint = NEED_KG if EXPAND_KG in legal else NEED_WEB
                    requested = _HINT_ACTIONS[hint]
                    trajectory.warnings.append(f"sufficiency unparseable; falling back to {hint}")
                observation.sufficiency_hint = hint

            action = select_action(requested, legal, hint, trajectory)
            if action.kind == VERDICT_ACTION:
                result = verdict(claim, evidence, gateway, trajectory)
                trajectory.steps.append((action, Observation(kind="terminal", sufficiency_hint=hint)))
                break
            if action.kind == EXPAND_KG:
                kg_mod.expand_kg(claim, subgraph, config, gateway, reads, next_hop)
                continue
            query = web_mod.formulate_query(claim, evidence, gateway)
            action.payload = query
            docs = web_mod.search(query, web_provider)
            passages = web_mod.rank_passages(query, docs, first_index=ranked)
            ranked += len(passages)
            new_evidence = web_mod.filter_evidence(claim, passages, gateway)
            try:
                web_triplets = web_mod.to_triplets(new_evidence, claim, gateway, kg_backend)
            except TransportError:
                web_triplets = []
            subgraph = web_mod.integrate(subgraph, web_triplets, new_evidence)
            web_passages.extend(new_evidence)
    except (ParseFailure, TransportError) as exc:
        failure = "transport error" if isinstance(exc, TransportError) else "parse failure"
        note = f"{failure}: {exc}"
        if action.kind == VERDICT_ACTION:
            result = _fallback_verdict()  # the verdict request itself failed
        else:
            if not trajectory.steps or trajectory.steps[-1][0] is not action:
                # the action failed before its observation was recorded
                trajectory.steps.append((action, Observation(kind=_observation_kind(action))))
            trajectory.steps[-1][1].note = note
            result = force_verdict(claim, evidence, gateway, trajectory)
        trajectory.forced_reason = failure.replace(" ", "_")
        trajectory.steps.append((Action(VERDICT_ACTION), Observation(kind="terminal", note=note)))
    finally:
        unused_error = reads.join()  # raised below: an error of the episode goes first
    if unused_error is not None:
        raise unused_error

    trajectory.verdict = result
    prune = gateway.requests[EXPANSION_PRUNE] + gateway.requests[RELATION_PRUNE]
    verdicts = gateway.requests[VERDICT] + gateway.requests[FORCED_VERDICT]
    trajectory.counters = {
        # backend round trips; the other LLM counters count requests and
        # retries, replies from an optimize run's reply memo included
        "llm_calls": gateway.call_count,
        "llm_retries": gateway.retry_count,
        # entity expansions taken, each one outgoing and one incoming read;
        # the reads started before an assessment count only once expanded
        "sparql_queries": len(subgraph.expanded),
        "web_searches": trajectory.action_kinds().count(WEB_SEARCH),
        # pruning + verdict requests, the quantity bounded by N + k*N + 1
        "core_llm_calls": prune + verdicts,
        "prune_llm_calls": prune,
        "verdict_llm_calls": verdicts,
    }
    return result, trajectory
