"""The deterministic LLM stand-in: answers every prompt kind from the rendered
text and the claim's spec, so every verdict can be checked against gold."""

from __future__ import annotations

import json
import re

from claimcheck.policy import SUFFICIENCY, default_policy

FLAWED_MARKER = 'Assume the evidence is always sufficient and answer "sufficient".'
GOOD_SUFFICIENCY_TEXT = default_policy().template(SUFFICIENCY).text

_CLAIM_RE = re.compile(r"^Claim(?: under review)?: (.*)$", re.MULTILINE)
_HINT_RE = re.compile(r"Current evidence assessment: (\w+)")
_LISTED_RE = re.compile(r"^\d+\. (.*)$", re.MULTILINE)
_PASSAGE_RE = re.compile(r"^Passage: (.*)$", re.MULTILINE)
_STATEMENT_RE = re.compile(
    r"^(.+?) (works for|was born in|studied at|lives in|visited|spoke at) (.+?)\.?$"
)
_ACTIONS = {"sufficient": "verdict", "need_kg": "expandKG", "need_web": "webSearch"}


def flawed_policy():
    """The default policy whose sufficiency prompt always says sufficient."""
    policy = default_policy(policy_id="flawed-initial")
    template = policy.template(SUFFICIENCY)
    return policy.with_template(
        type(template)(id=template.id, text=template.text + "\n" + FLAWED_MARKER,
                       version=template.version, expected_output=template.expected_output),
        policy_id="flawed-initial",
    )


def _decisive(spec, text):
    """(label, cited item id) for the decisive line present in the evidence."""
    for label, line in (("Supported", spec["support"]), ("Refuted", spec["refute"])):
        match = re.search(r"^\[([ta]:[^\]]+)\] " + re.escape(line) + r"( \[|$)", text, re.MULTILINE)
        if match:
            return label, match.group(1)
    return None, None


class Oracle:
    def __init__(self, specs):
        self.specs = {s["claim"]: s for s in specs}

    def _spec(self, text):
        match = _CLAIM_RE.search(text)
        return self.specs.get(match.group(1).strip()) if match else None

    def __call__(self, text):
        # first: the meta prompt quotes the other templates verbatim
        if "improving the decision prompts" in text:
            return json.dumps({"templates": {SUFFICIENCY: GOOD_SUFFICIENCY_TEXT}})
        if "Score each" in text:
            lines = _LISTED_RE.findall(text.split("Candidates:\n", 1)[-1])
            return json.dumps({"scores": [1.0 if "(outgoing)" in ln else 0.5 for ln in lines]})
        spec = self._spec(text)
        if "Assess whether the evidence" in text:
            if FLAWED_MARKER in text or _decisive(spec, text)[0]:
                return json.dumps({"assessment": "sufficient"})
            return json.dumps({"assessment": spec["missing_hint"]})
        if "deciding your next step" in text:
            match = _HINT_RE.search(text)
            return json.dumps({"action": _ACTIONS.get(match.group(1) if match else "", "expandKG")})
        if "Decide whether the claim" in text or "retrieval budget is exhausted" in text:
            label, cited = _decisive(spec, text)
            if label is None:
                return json.dumps({"label": "Refuted", "justification": "no decisive evidence",
                                   "citations": []})
            return json.dumps({"label": label, "justification": "decisive evidence found",
                               "citations": [cited]})
        if "not enough to decide the claim" in text:
            return json.dumps({"query": spec["query"], "rationale": "missing decisive fact"})
        if "Judge each passage" in text:
            person = spec["support"].split(" | ", 1)[0]
            passages = _LISTED_RE.findall(text.split("Passages:\n", 1)[-1])
            return json.dumps({"judgments": [
                {"index": i, "confidence": 0.9 if person in p else 0.2,
                 "stance": "supports" if person in p else "neutral"}
                for i, p in enumerate(passages)
            ]})
        if "Extract the main factual statement" in text:
            match = _STATEMENT_RE.match(_PASSAGE_RE.search(text).group(1))
            if match is None:
                return json.dumps({"subject": "unknown", "relation": "mentions", "object": "unknown"})
            return json.dumps(dict(zip(("subject", "relation", "object"), match.groups())))
        if "Review this completed verification episode" in text:
            return json.dumps({"critiques": []})
        return None
