"""Entity/relation/triplet types and the evidence subgraph container."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class EntityId:
    id: str
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.id:
            raise ValueError("entity id must be nonempty")


@dataclass(frozen=True)
class RelationId:
    id: str
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.id:
            raise ValueError("relation id must be nonempty")


@dataclass(frozen=True)
class Triplet:
    """One fact. Identity is (subject, relation, object); origin and confidence
    are provenance metadata and do not distinguish triplets."""

    subject: EntityId
    relation: RelationId
    object: EntityId
    origin: str = field(default="kg", compare=False)
    confidence: float = field(default=1.0, compare=False)

    def __post_init__(self):
        if self.origin not in ("kg", "web"):
            raise ValueError(f"bad triplet origin {self.origin!r}")
        if self.origin == "kg" and self.confidence != 1.0:
            raise ValueError("kg-origin triplets must have confidence 1.0")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of range: {self.confidence}")

    @property
    def key(self):
        return (self.subject.id, self.relation.id, self.object.id)

    def as_text(self) -> str:
        return (
            f"{self.subject.label or self.subject.id} | "
            f"{self.relation.label or self.relation.id} | "
            f"{self.object.label or self.object.id}"
        )


def normalize_relation_label(label: str) -> str:
    return " ".join(label.casefold().split())


class KnowledgeSubgraph:
    """Accumulated structured evidence for one episode.

    Tracks hop depth per entity, per-entity textual annotations, the set of
    already-expanded entities, and the current expansion frontier.
    """

    def __init__(self):
        self.triplets: dict = {}  # key -> Triplet, insertion-ordered
        self.hop_of: dict = {}  # entity id -> int
        self.annotations: dict = {}  # entity id -> [str]
        self.labels: dict = {}  # entity id -> label
        self.expanded: set = set()
        self.frontier: set = set()
        self.hops_done: int = 0

    # -- construction -----------------------------------------------------

    def register_entity(self, entity: EntityId, hop: int):
        if entity.id not in self.hop_of:
            self.hop_of[entity.id] = hop
        if entity.label and not self.labels.get(entity.id):
            self.labels[entity.id] = entity.label

    def add_topic_entity(self, entity: EntityId):
        self.register_entity(entity, 0)
        self.hop_of[entity.id] = 0
        self.frontier.add(entity.id)

    def add_triplet(self, triplet: Triplet) -> bool:
        """Add if new; returns True when the triplet was actually added."""
        if triplet.key in self.triplets:
            return False
        self.triplets[triplet.key] = triplet
        anchor_hop = min(
            (self.hop_of[e.id] for e in (triplet.subject, triplet.object) if e.id in self.hop_of),
            default=None,
        )
        for entity in (triplet.subject, triplet.object):
            hop = 0 if anchor_hop is None else anchor_hop + 1
            self.register_entity(entity, hop)
        return True

    def add_annotation(self, entity_id: str, text: str) -> bool:
        if entity_id not in self.hop_of:
            raise KeyError(f"annotation target {entity_id!r} not in subgraph")
        notes = self.annotations.setdefault(entity_id, [])
        if text in notes:
            return False
        notes.append(text)
        return True

    # -- queries ----------------------------------------------------------

    def kg_relation_labels(self) -> dict:
        """Normalized relation label -> RelationId, over kg-origin triplets."""
        out = {}
        for t in self.triplets.values():
            if t.origin != "kg":
                continue
            norm = normalize_relation_label(t.relation.label)
            if norm and norm not in out:
                out[norm] = t.relation
        return out

    def label_of(self, entity_id: str) -> str:
        return self.labels.get(entity_id, entity_id)

    def unexpanded(self) -> set:
        """Frontier entities not expanded yet: what another hop would expand."""
        return self.frontier - self.expanded

    def copy(self) -> "KnowledgeSubgraph":
        clone = KnowledgeSubgraph()
        clone.triplets = dict(self.triplets)
        clone.hop_of = dict(self.hop_of)
        clone.annotations = {k: list(v) for k, v in self.annotations.items()}
        clone.labels = dict(self.labels)
        clone.expanded = set(self.expanded)
        clone.frontier = set(self.frontier)
        clone.hops_done = self.hops_done
        return clone

    # -- serialization ----------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "triplets": [
                {
                    "subject": key[0],
                    "relation": key[1],
                    "object": key[2],
                    "origin": t.origin,
                    "confidence": t.confidence,
                }
                for key, t in sorted(self.triplets.items())
            ],
            "hop_of": {k: self.hop_of[k] for k in sorted(self.hop_of)},
            "annotations": {k: list(self.annotations[k]) for k in sorted(self.annotations)},
            "labels": {k: self.labels[k] for k in sorted(self.labels)},
            "hops_done": self.hops_done,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, ensure_ascii=False)

    def evidence_lines(self) -> list:
        """Stable (id, text) listing of triplets and annotations for prompts."""
        lines = []
        for key, t in sorted(self.triplets.items()):
            lines.append((triplet_item_id(t), t.as_text()))
        for entity_id in sorted(self.annotations):
            for i, note in enumerate(self.annotations[entity_id]):
                lines.append((annotation_item_id(entity_id, i), note))
        return lines


def triplet_item_id(triplet: Triplet) -> str:
    return "t:" + "|".join(triplet.key)


def annotation_item_id(entity_id: str, index: int) -> str:
    return f"a:{entity_id}:{index}"


def passage_item_id(url: str, index: int) -> str:
    return f"p:{url}#{index}"
