"""The trainable prompt policy: a named, versioned set of prompt templates.

Only the optimizer produces modified policies; everywhere else templates are
read-only. Policies serialize as ``{template_id: {"version": int, "text": str}}``.
A policy read back (``PromptPolicy.from_jsonable``, given the data of a policy
file by ``config``) must name exactly the default template ids, so a file
written for another set of prompts is rejected rather than half-applied.
"""

from __future__ import annotations

from .llm import PromptTemplate, whole

SUFFICIENCY = "sufficiency"
RELATION_PRUNE = "relation_prune"
EXPANSION_PRUNE = "expansion_prune"
WEB_QUERY = "web_query"
EVIDENCE_FILTER = "evidence_filter"
TRIPLET_EXTRACT = "triplet_extract"
VERDICT = "verdict"
FORCED_VERDICT = "forced_verdict"
REFLECT = "reflect"


class PromptPolicy:
    def __init__(self, templates, policy_id="initial"):
        self.policy_id = policy_id
        self._templates = {}
        for t in templates:
            if t.id in self._templates:
                raise ValueError(f"duplicate template id {t.id!r}")
            self._templates[t.id] = t

    def template(self, template_id) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError:
            raise KeyError(f"policy has no template {template_id!r}") from None

    def with_template(self, template: PromptTemplate, policy_id=None) -> "PromptPolicy":
        """Return a copy with one template replaced; the receiver is untouched."""
        templates = dict(self._templates)
        templates[template.id] = template
        return PromptPolicy(templates.values(), policy_id=policy_id or self.policy_id)

    def to_jsonable(self):
        return {
            tid: {"version": t.version, "text": t.text, "expected_output": t.expected_output}
            for tid, t in sorted(self._templates.items())
        }

    @classmethod
    def from_jsonable(cls, data):
        """The policy, with id "loaded", that ``data`` describes. Raises
        ValueError unless ``data`` maps exactly the default template ids to
        objects with a string ``text`` and, if given, a ``version`` that is
        ``llm.whole``. Any other key, ``expected_output`` included, is
        ignored: every template is structured."""
        expected = sorted(t.id for t in _DEFAULTS)
        if not isinstance(data, dict) or sorted(data) != expected:
            raise ValueError(f"a policy must be a JSON object with the template ids {expected}")
        for tid, spec in data.items():
            if not isinstance(spec, dict) or not isinstance(spec.get("text"), str):
                raise ValueError(f"policy template {tid!r} has no string 'text'")
            if not whole(spec.get("version", 1)):
                raise ValueError(f"policy template {tid!r} has version {spec['version']!r}, "
                                 f"not a whole number")
        templates = [
            PromptTemplate(id=tid, text=spec["text"], version=int(spec.get("version", 1)))
            for tid, spec in data.items()
        ]
        return cls(templates, policy_id="loaded")


_DEFAULTS = [
    PromptTemplate(
        id=SUFFICIENCY,
        text=(
            "Assess whether the evidence below is enough to decide the claim, "
            "then choose the next action: give the verdict, expand the knowledge "
            "graph, or search the web.\n"
            "Claim: {claim}\n"
            "Evidence:\n{evidence}\n"
            'Reply as JSON: {"assessment": "sufficient" | "need_kg" | "need_web", '
            '"action": "verdict" | "expandKG" | "webSearch"}'
        ),
    ),
    PromptTemplate(
        id=RELATION_PRUNE,
        text=(
            "Score each candidate relation for relevance to the claim "
            "(higher = more relevant).\n"
            "Claim: {claim}\n"
            "Candidates:\n{candidates}\n"
            'Reply as JSON: {"scores": [s0, s1, ...]} with one number per candidate, in order.'
        ),
    ),
    PromptTemplate(
        id=EXPANSION_PRUNE,
        text=(
            "Score each relation of entity {entity} for relevance to the claim "
            "(higher = more relevant).\n"
            "Claim: {claim}\n"
            "Candidates:\n{candidates}\n"
            'Reply as JSON: {"scores": [s0, s1, ...]} with one number per candidate, in order.'
        ),
    ),
    PromptTemplate(
        id=WEB_QUERY,
        text=(
            "The structured evidence below is not enough to decide the claim.\n"
            "Claim: {claim}\n"
            "Evidence:\n{evidence}\n"
            "Write one focused web search query targeting the missing information.\n"
            'Reply as JSON: {"query": "...", "rationale": "..."}'
        ),
    ),
    PromptTemplate(
        id=EVIDENCE_FILTER,
        text=(
            "Judge each passage for factual consistency with the claim.\n"
            "Claim: {claim}\n"
            "Passages:\n{passages}\n"
            "For every passage give a confidence in [0,1] and a stance.\n"
            'Reply as JSON: {"judgments": [{"index": i, "confidence": x, '
            '"stance": "supports" | "refutes" | "neutral"}, ...]}'
        ),
    ),
    PromptTemplate(
        id=TRIPLET_EXTRACT,
        text=(
            "Extract the main factual statement of the passage as one triplet.\n"
            "Claim under review: {claim}\n"
            "Passage: {passage}\n"
            'Reply as JSON: {"subject": "...", "relation": "...", "object": "..."}'
        ),
    ),
    PromptTemplate(
        id=VERDICT,
        text=(
            "Decide whether the claim is Supported or Refuted by the evidence, "
            "citing the evidence item ids you relied on.\n"
            "Claim: {claim}\n"
            "Evidence:\n{evidence}\n"
            'Reply as JSON: {"label": "Supported" | "Refuted", '
            '"justification": "...", "citations": ["id", ...]}'
        ),
    ),
    PromptTemplate(
        id=FORCED_VERDICT,
        text=(
            "The retrieval budget is exhausted. You MUST give a final verdict now, "
            "using only the evidence already gathered, even if it feels incomplete.\n"
            "Claim: {claim}\n"
            "Evidence:\n{evidence}\n"
            'Reply as JSON: {"label": "Supported" | "Refuted", '
            '"justification": "...", "citations": ["id", ...]}'
        ),
    ),
    PromptTemplate(
        id=REFLECT,
        text=(
            "Review this completed verification episode and critique the retrieval "
            "decisions.\n"
            "Claim: {claim}\n"
            "Gold label: {gold}\n"
            "Predicted: {predicted}\n"
            "Trajectory:\n{trajectory}\n"
            "Name failure patterns: InsufficientCoverage, PrematureTermination, "
            "RedundantRetrieval, ContradictionMishandled, or Other.\n"
            'Reply as JSON: {"critiques": [{"tag": "...", "step_index": i, "text": "..."}]}'
        ),
    ),
]


def default_policy(policy_id="initial") -> PromptPolicy:
    return PromptPolicy(list(_DEFAULTS), policy_id=policy_id)
