"""Open-web evidence: search, BM25 coarse ranking, LLM fine filtering, and
fusion of surviving evidence into the knowledge subgraph.

The filter judges a search's passages in one request. The triplet
extractions, one per distinct passage text, run concurrently (see
``fanout``), and so do the entity searches that then link the extracted
surfaces, one per distinct surface. Outputs are gathered in input order, so
results do not depend on timing.

Every stage takes empty input: no documents, passages or evidence give no
passages, evidence or triplets, and send no request. An episode's web step
therefore runs search, rank, filter, extract and integrate straight through,
whatever the search returns.

KG-origin facts are anchors: fusion only ever adds web triplets or entity
annotations, never removes or edits existing graph content.

Inside an optimize run (``llm.reply_memo``) each search query reaches the
provider once, and each surface form linked to the graph (here or by
``kg.link_entities``) reaches the graph's entity search once.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass

from .errors import ParseFailure, TransportError
from .fanout import fan_out
from .graph import (
    EntityId,
    KnowledgeSubgraph,
    RelationId,
    Triplet,
    normalize_relation_label,
)
from .llm import LlmRequest, ResponseSchema, live_json, memoized
from .policy import EVIDENCE_FILTER, TRIPLET_EXTRACT, WEB_QUERY

log = logging.getLogger(__name__)

MAX_QUERY_CHARS = 256
MAX_PASSAGE_CHARS = 1200
WEB_RESULTS = 10  # documents asked of the provider per search
CONSISTENCY_THRESHOLD = 0.5
BM25_K1 = 1.2
BM25_B = 0.75


@dataclass
class WebQuery:
    text: str
    rationale: str = ""

    def __post_init__(self):
        self.text = self.text.strip()[:MAX_QUERY_CHARS]
        if not self.text:
            raise ValueError("web query text must be nonempty")


@dataclass(frozen=True)
class WebDocument:
    url: str
    title: str
    snippet: str
    provider_rank: int


@dataclass
class Passage:
    text: str
    source_url: str
    index: int = 0
    bm25: float = 0.0


@dataclass
class FilteredEvidence:
    passage: Passage
    consistency_confidence: float
    stance: str  # supports | refutes | neutral


@dataclass
class WebTriplet:
    triplet: Triplet
    provenance: str
    confidence: float


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------


class FixtureSearchProvider:
    """Canned results: JSON mapping query text -> [{url,title,snippet}].
    Data of another shape raises ValueError."""

    def __init__(self, data=None, path=None):
        if data is None:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        if not (
            isinstance(data, dict)
            and all(isinstance(rows, list) for rows in data.values())
            and all(
                isinstance(row, dict)
                and isinstance(row.get("url"), str)
                and all(isinstance(row.get(key, ""), str) for key in ("title", "snippet"))
                for rows in data.values()
                for row in rows
            )
        ):
            raise ValueError("a web fixture must map query text to lists of {url, title, snippet}")
        self.data = data

    def search(self, query_text, m):
        rows = self.data.get(query_text, [])
        return [
            WebDocument(
                url=row["url"],
                title=row.get("title", ""),
                snippet=row.get("snippet", ""),
                provider_rank=i + 1,
            )
            for i, row in enumerate(rows[:m])
        ]


class SerperProvider:
    """Serper-compatible JSON search API client. A search is one
    ``llm.live_json`` request; a reply whose ``organic`` rows are not a list
    raises TransportError and is not retried."""

    def __init__(self, endpoint="https://google.serper.dev/search", api_key_env="SERPER_API_KEY"):
        import os

        import requests

        self._requests = requests
        self.endpoint = endpoint
        self.api_key = os.environ.get(api_key_env, "")

    def search(self, query_text, m):
        payload = live_json(
            self._requests,
            lambda: self._requests.post(
                self.endpoint,
                json={"q": query_text, "num": m},
                headers={"X-API-KEY": self.api_key, "Content-Type": "application/json"},
                timeout=15.0,
            ),
            "search provider",
        )
        rows = payload.get("organic", [])
        if not isinstance(rows, list):
            raise TransportError("search provider reply's results are not a list")
        # a row that is not an object or has no link is skipped
        rows = [row for row in rows if string_field(row, "link")]
        return [
            WebDocument(
                url=row["link"],
                title=string_field(row, "title"),
                snippet=string_field(row, "snippet"),
                provider_rank=i + 1,
            )
            for i, row in enumerate(rows[:m])
        ]


def string_field(obj, key):
    """``obj[key]`` when ``obj`` is a JSON object holding a string there, else ""."""
    value = obj.get(key) if isinstance(obj, dict) else None
    return value if isinstance(value, str) else ""


def search(query: WebQuery, provider):
    """The provider's top ``WEB_RESULTS`` documents in rank order. The reply
    comes from outside the program, so it is sorted and cut here too, in a
    copy: the provider's list is left as it was."""

    def fetch():
        docs = sorted(provider.search(query.text, WEB_RESULTS), key=lambda d: d.provider_rank)
        return tuple(docs[:WEB_RESULTS])

    return list(memoized(("search", query.text), fetch))


def search_entities(surface, kg_backend):
    """The graph's entity hits for ``surface``, best first."""
    return memoized(("search_entities", surface), lambda: tuple(kg_backend.search_entities(surface)))


# ---------------------------------------------------------------------------
# Query formulation
# ---------------------------------------------------------------------------

_QUERY_SCHEMA = ResponseSchema(required=("query",))


def formulate_query(claim, evidence, gateway) -> WebQuery:
    """One LLM call targeting the gap in ``evidence``, the latest observation's
    listing (``agent.Evidence``); with no evidence at all the claim itself is
    the query (no LLM call). A query that is not nonempty text raises ParseFailure."""
    if not evidence.ids:
        return WebQuery(text=claim[:MAX_QUERY_CHARS], rationale="no evidence retrieved yet")
    payload = gateway.complete_structured(
        LlmRequest(template_id=WEB_QUERY, bindings={"claim": claim, "evidence": evidence.text}),
        _QUERY_SCHEMA,
    )
    query = payload["query"]
    if not isinstance(query, str) or not query.strip():
        raise ParseFailure(f"web query must be nonempty text, got {query!r}")
    return WebQuery(text=query, rationale=string_field(payload, "rationale"))


# ---------------------------------------------------------------------------
# BM25 coarse ranking
# ---------------------------------------------------------------------------


def tokenize(text):
    return re.findall(r"[a-z0-9]+", text.lower())


def bm25_scores(query_tokens, docs_tokens):
    """Okapi BM25 with k1 = ``BM25_K1``, b = ``BM25_B`` and
    idf = ln(1 + (N - df + 0.5)/(df + 0.5)), one score per document."""
    k1, b = BM25_K1, BM25_B  # locals: the loops below read them per term
    n = len(docs_tokens)
    if n == 0:
        return []
    avgdl = sum(len(d) for d in docs_tokens) / n
    freqs = [Counter(d) for d in docs_tokens]
    df = Counter()
    for tf in freqs:
        for term in tf:
            df[term] += 1
    idf = {t: math.log(1.0 + (n - c + 0.5) / (c + 0.5)) for t, c in df.items()}
    scores = []
    for tf, doc in zip(freqs, docs_tokens):
        dl = len(doc)
        norm = k1 * (1.0 - b + b * (dl / avgdl if avgdl else 0.0))
        s = 0.0
        for term in query_tokens:
            f = tf.get(term, 0)
            if f:
                s += idf[term] * f * (k1 + 1.0) / (f + norm)
        scores.append(s)
    return scores


def rank_passages(query: WebQuery, documents, first_index=0) -> list:
    """Snippet-level passages scored by BM25 against the query; descending
    score, ties by (url, passage index). Passages are numbered from
    ``first_index``, so an episode that numbers each search on from the last
    keeps its passage ids unique. No documents, or none with a snippet, give
    no passages."""
    passages = []
    for doc in documents:
        text = " ".join(doc.snippet.split())[:MAX_PASSAGE_CHARS]
        if text:
            passages.append(
                Passage(text=text, source_url=doc.url, index=first_index + len(passages))
            )
    scores = bm25_scores(tokenize(query.text), [tokenize(p.text) for p in passages])
    for passage, score in zip(passages, scores):
        passage.bm25 = score
    passages.sort(key=lambda p: (-p.bm25, p.source_url, p.index))
    return passages


# ---------------------------------------------------------------------------
# Fine-grained filtering
# ---------------------------------------------------------------------------

_FILTER_SCHEMA = ResponseSchema(required=("judgments",))
_STANCES = {"supports", "refutes", "neutral"}


def filter_evidence(claim, passages, gateway):
    """One LLM call judges every passage, listed by position from 0; keeps
    entries whose consistency confidence reaches ``CONSISTENCY_THRESHOLD``, in
    the order of the reply's judgments. Only the first judgment of a passage
    counts, so each passage is kept at most once. A row whose index is not a
    whole number or whose confidence is not a finite number is skipped; a
    finite confidence outside [0, 1] is clamped. Judgments that are not a list
    raise ParseFailure; an unknown stance is neutral. No passages give no
    evidence and send no request."""
    if not passages:
        return []
    listing = "\n".join(f"{i}. {p.text}" for i, p in enumerate(passages))
    payload = gateway.complete_structured(
        LlmRequest(template_id=EVIDENCE_FILTER, bindings={"claim": claim, "passages": listing}),
        _FILTER_SCHEMA,
    )
    judgments = payload["judgments"]
    if not isinstance(judgments, list):
        raise ParseFailure(f"judgments must be a list, got {judgments!r}")
    kept, judged = [], set()
    for row in judgments:
        try:
            idx, confidence = row["index"], row["confidence"]
            # a bool is a number to Python, and int() would truncate 1.7 to 1
            if isinstance(idx, bool) or isinstance(confidence, bool) or (
                isinstance(idx, float) and not idx.is_integer()
            ):
                continue
            idx, confidence = int(idx), float(confidence)
        except (KeyError, TypeError, ValueError, OverflowError):
            continue
        # Python's json reads NaN and Infinity, and float() reads "inf"
        if not math.isfinite(confidence) or not 0 <= idx < len(passages) or idx in judged:
            continue
        judged.add(idx)
        if confidence < 0.0 or confidence > 1.0:
            log.warning("clamping out-of-range consistency confidence %s", confidence)
            confidence = min(1.0, max(0.0, confidence))
        stance = row.get("stance", "neutral")
        if not isinstance(stance, str) or stance not in _STANCES:
            stance = "neutral"
        if confidence >= CONSISTENCY_THRESHOLD:
            kept.append(FilteredEvidence(passages[idx], confidence, stance))
    return kept


# ---------------------------------------------------------------------------
# Triplet conversion
# ---------------------------------------------------------------------------

_EXTRACT_SCHEMA = ResponseSchema(required=("subject", "relation", "object"))


def synthetic_entity(surface: str) -> EntityId:
    digest = hashlib.sha256(surface.casefold().encode("utf-8")).hexdigest()[:12]
    return EntityId(id=f"W:{digest}", label=surface)


def synthetic_relation(label: str) -> RelationId:
    digest = hashlib.sha256(label.casefold().encode("utf-8")).hexdigest()[:12]
    return RelationId(id=f"WR:{digest}", label=label)


def to_triplets(evidence, claim, gateway, kg_backend) -> list:
    """One structured extraction per distinct passage text, the texts run
    concurrently, with runs of whitespace in each extracted field collapsed to
    one space, then one concurrent linking round over the distinct subject
    and object surfaces, each to its top ``kg_backend`` hit, else to its
    ``synthetic_entity``. Triplets come out in evidence order, each with its
    own item's provenance and confidence. Items whose extraction fails, or
    whose reply has a subject, relation or object that is not nonempty text,
    are skipped, so no evidence, or none that extracts, gives no triplets."""

    def extract(text):
        try:
            payload = gateway.complete_structured(
                LlmRequest(template_id=TRIPLET_EXTRACT, bindings={"claim": claim, "passage": text}),
                _EXTRACT_SCHEMA,
            )
        except ParseFailure:
            return None
        fields = tuple(
            " ".join(string_field(payload, key).split()) for key in ("subject", "relation", "object")
        )
        return fields if all(fields) else None

    def link(surface):
        hits = search_entities(surface, kg_backend)
        return hits[0] if hits else synthetic_entity(surface)

    texts = list(dict.fromkeys(item.passage.text for item in evidence))
    extracted = dict(zip(texts, fan_out(extract, texts)))
    surfaces = list(dict.fromkeys(
        surface for fields in extracted.values() if fields for surface in (fields[0], fields[2])
    ))
    linked = dict(zip(surfaces, fan_out(link, surfaces)))
    out = []
    for item in evidence:
        fields = extracted[item.passage.text]
        if fields is None:
            continue
        subject, relation, obj = fields
        out.append(
            WebTriplet(
                triplet=Triplet(
                    linked[subject], synthetic_relation(relation), linked[obj],
                    origin="web", confidence=item.consistency_confidence,
                ),
                provenance=item.passage.source_url,
                confidence=item.consistency_confidence,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------


def integrate(subgraph: KnowledgeSubgraph, web_triplets, evidence=()) -> KnowledgeSubgraph:
    """Pure fusion: returns a new subgraph with web facts merged in.

    Rules: exact duplicates are skipped; relations matching the KG schema (by
    id or normalized label) are added as schema-aligned triplets; facts about
    known entities with unmatched relations become entity annotations; facts
    about entirely new entities are added as web-origin triplets. KG-origin
    triplets are never touched.
    """
    result = subgraph.copy()
    label_map = result.kg_relation_labels()
    kg_relation_ids = {t.relation.id for t in result.triplets.values() if t.origin == "kg"}
    # notes dedupe globally: re-merging must not re-annotate a fact onto a
    # different entity once more endpoints have become known
    known_notes = {note for notes in result.annotations.values() for note in notes}

    for wt in web_triplets:
        t = wt.triplet
        if t.relation.id in kg_relation_ids:
            aligned = t.relation
        else:
            aligned = label_map.get(normalize_relation_label(t.relation.label))

        if aligned is not None:
            candidate = Triplet(
                t.subject, aligned, t.object, origin="web", confidence=wt.confidence
            )
            if candidate.key in result.triplets:
                continue  # already known, KG version wins
            result.add_triplet(candidate)
        elif t.key in result.triplets:
            continue  # already merged on a previous pass
        elif t.subject.id in result.hop_of or t.object.id in result.hop_of:
            target = t.subject.id if t.subject.id in result.hop_of else t.object.id
            note = f"{t.as_text()} [{wt.provenance}]"
            if note not in known_notes:
                known_notes.add(note)
                result.add_annotation(target, note)
        else:
            result.add_triplet(
                Triplet(t.subject, t.relation, t.object, origin="web", confidence=wt.confidence)
            )

    # passages that mention known entities enrich them as annotations
    for item in evidence:
        text = item.passage.text
        lowered = text.lower()
        for entity_id in sorted(result.hop_of):
            label = result.label_of(entity_id)
            if len(label) > 3 and label.lower() in lowered:
                note = f"{text[:300]} [{item.passage.source_url}]"
                result.add_annotation(entity_id, note)
    return result
