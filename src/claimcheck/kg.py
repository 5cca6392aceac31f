"""Knowledge-graph evidence retrieval.

Entity mentions are extracted heuristically from the claim, linked to graph
nodes, and the subgraph grows by hop-wise expand-and-prune beam search: per hop
at most ``k`` frontier entities are expanded (one graph query each). A fetched
relation whose every triplet the subgraph already holds, such as the edge an
entity was reached by seen from its other end, adds no fact and is dropped.
Each expanded entity with at least ``k`` relations that add a fact has them
pruned to ``k`` by one LLM scoring call, and, when more than ``k`` relations
survive those prunes, one more LLM call prunes the hop's union down to the top
``k`` overall. An entity with fewer than ``k`` relations that add a fact keeps
them all, in fetch order, and a hop with at most ``k`` survivors keeps them
all; neither sends a prune, since that call could drop none of them.

A hop's ``k`` expand-and-prune pairs do not depend on each other and run
concurrently (see ``fanout``), and so do each expansion's outgoing and
incoming fetches and the claim's per-mention entity searches. Results are
gathered in input order (expansion, direction, mention), so they do not
depend on timing. LLM load stays bounded by ``HttpBackend``'s semaphore and
token bucket.

Every relation read of an episode is started by its ``GraphReads`` store,
and a step waits only for the reads it uses. The agent starts the ``2k``
reads of the next hop (``next_hop``) before its assessment; a hop it does
not take leaves them unused, so the graph backend may see one hop of reads
more per episode than the expansions charged.

An entity joins the subgraph's ``expanded`` set before its reads go out, so
that set counts an episode's expansions, failed ones included. A hop expands
at most ``k`` entities and ``expand_kg`` refuses hop ``N + 1``: at most
``k*N`` expansions and ``N + k*N`` prune calls, which the gateway counts.

``WikidataBackend`` with a ``cache_dir`` keeps every lookup in one
``llm.ReplyStore`` file, so a repeated search or query sends no request.
Inside an optimize run (``llm.reply_memo``) each ``(entity, direction)``
read and each entity search reaches the backend once, whatever the cache;
an expansion served from that memo is still recorded in ``expanded``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from urllib.parse import urlencode

from .errors import AllMentionsUnlinkable, BudgetExhausted, EmptyClaim, TransportError
from .fanout import fan_out, start, wait
from .graph import EntityId, RelationId, Triplet
from .llm import LlmRequest, ReplyStore, ResponseSchema, list_of, live_json, memo_holds, memoized
from .llm import number
from .policy import EXPANSION_PRUNE, RELATION_PRUNE
from .web import search_entities, string_field, tokenize

MAX_OBJECTS_PER_RELATION = 10
RELATION_FETCH_LIMIT = 50


@dataclass
class EntityMention:
    surface: str
    span: tuple  # (start, end) character offsets, end exclusive


@dataclass
class RelationCandidate:
    relation: RelationId
    direction: str  # outgoing | incoming
    anchor: EntityId
    sample_objects: tuple = ()


# ---------------------------------------------------------------------------
# Mention extraction
# ---------------------------------------------------------------------------

_CAP_TOKEN_RE = re.compile(r"[A-Z][\w'’-]*")
_QUOTED_RE = re.compile(r"[\"“]([^\"”]+)[\"”]")
_YEAR_RE = re.compile(r"\b(1[0-9]{3}|20[0-9]{2})\b")
_SENTENCE_START_RE = re.compile(r"(?:^|[.!?]\s+)(\S)")


def _sentence_starts(text: str) -> set:
    return {m.start(1) for m in _SENTENCE_START_RE.finditer(text)}


def extract_mentions(claim_text: str) -> list:
    """Heuristic mention spans: runs of capitalized tokens (excluding bare
    sentence-initial words), quoted spans, and 4-digit years."""
    if not claim_text or not claim_text.strip():
        raise EmptyClaim("claim is empty")
    starts = _sentence_starts(claim_text)

    spans = []
    run = None
    for m in _CAP_TOKEN_RE.finditer(claim_text):
        if run is not None and claim_text[run[1] : m.start()] == " ":
            run = (run[0], m.end(), run[2] + 1)
        else:
            if run is not None:
                spans.append(run)
            run = (m.start(), m.end(), 1)
    if run is not None:
        spans.append(run)
    # a lone capitalized token at a sentence start is not evidence of a name
    spans = [(s, e) for s, e, n in spans if not (n == 1 and s in starts)]

    for m in _QUOTED_RE.finditer(claim_text):
        spans.append((m.start(1), m.end(1)))
    for m in _YEAR_RE.finditer(claim_text):
        spans.append((m.start(), m.end()))

    # keep non-overlapping spans, longest-first priority
    chosen = []
    for start, end in sorted(set(spans), key=lambda s: (s[0], -(s[1] - s[0]))):
        if all(end <= c[0] or start >= c[1] for c in chosen):
            chosen.append((start, end))
    chosen.sort()
    return [EntityMention(surface=claim_text[s:e], span=(s, e)) for s, e in chosen]


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class FixtureKgBackend:
    """In-memory graph loaded from the fixture JSON schema:
    {entities: [{id,label}], relations: [{id,label}], triples: [[s,p,o]],
    links: {surface -> entity id}}. Data of another shape raises ValueError.
    """

    def __init__(self, data=None, path=None):
        if data is None:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a KG fixture must be a JSON object")
        try:
            self.entities = {
                e["id"]: EntityId(e["id"], e.get("label", "")) for e in data["entities"]
            }
            self.relations = {
                r["id"]: RelationId(r["id"], r.get("label", "")) for r in data["relations"]
            }
            self.links = {
                surface.casefold(): eid for surface, eid in data.get("links", {}).items()
            }
            self._out = {}
            self._in = {}
            for s, p, o in data.get("triples", []):
                self._out.setdefault(s, {}).setdefault(p, []).append(o)
                self._in.setdefault(o, {}).setdefault(p, []).append(s)
        except (AttributeError, TypeError) as exc:  # a row or table of the wrong type
            raise ValueError(f"malformed KG fixture: {exc}") from exc

    def search_entities(self, text, limit=5):
        eid = self.links.get(text.casefold())
        if eid and eid in self.entities:
            return [self.entities[eid]]
        if self.links:
            # an explicit link table is authoritative about what is linkable
            return []
        hits = [
            e
            for e in self.entities.values()
            if e.label.casefold() == text.casefold()
        ]
        return sorted(hits, key=lambda e: e.id)[:limit]

    def relations_of(self, entity_id, direction):
        """Grouped adjacency: list of (RelationId, [neighbor EntityId])."""
        table = self._out if direction == "outgoing" else self._in
        adjacency = table.get(entity_id, {})
        out = []
        for rel_id in sorted(adjacency):
            rel = self.relations.get(rel_id, RelationId(rel_id, rel_id))
            neighbors = [
                self.entities.get(n, EntityId(n, n)) for n in sorted(set(adjacency[rel_id]))
            ]
            out.append((rel, neighbors))
            if len(out) >= RELATION_FETCH_LIMIT:
                break
        return out


OUTGOING_QUERY = """\
SELECT DISTINCT ?p ?pLabel ?o ?oLabel WHERE {{
  wd:{entity} ?prop ?o .
  ?p wikibase:directClaim ?prop .
  FILTER(isIRI(?o))
  SERVICE wikibase:label {{ bd:serviceParam wikibase:language "en". }}
}}
LIMIT {limit}
"""

INCOMING_QUERY = """\
SELECT DISTINCT ?p ?pLabel ?s ?sLabel WHERE {{
  ?s ?prop wd:{entity} .
  ?p wikibase:directClaim ?prop .
  SERVICE wikibase:label {{ bd:serviceParam wikibase:language "en". }}
}}
LIMIT {limit}
"""


class WikidataBackend:
    """Live Wikidata client: wbsearchentities for linking, SPARQL for edges.

    With a ``cache_dir``, every lookup (entity search and both SPARQL
    directions) whose reply parsed is kept in one ``ReplyStore`` file,
    ``wikidata.jsonl``, and a lookup found there makes no request."""

    def __init__(
        self,
        sparql_endpoint="https://query.wikidata.org/sparql",
        action_api="https://www.wikidata.org/w/api.php",
        cache_dir=None,
    ):
        import requests

        self._requests = requests
        self.sparql_endpoint = sparql_endpoint
        self.action_api = action_api
        self.cache = None
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            self.cache = ReplyStore(os.path.join(cache_dir, "wikidata.jsonl"))

    def _get(self, url, params, parse):
        """``parse`` of the JSON-object reply to a GET: the first cached reply
        that ``parse`` takes (a cache an older version wrote can hold replies
        it rejects), else an ``llm.live_json`` request, which tries a failed
        request once more. A reply is cached only once ``parse`` has taken it;
        a reply it rejects raises and is neither retried nor cached."""
        request = f"{url}?{urlencode(params)}"
        key = hashlib.sha256(request.encode("utf-8")).hexdigest()
        # the store replays a key's entries in order, then holds the last:
        # try each until one parses or the last comes round again
        seen = None
        while self.cache is not None:
            cached = self.cache.get(key)
            if cached is None or cached is seen:
                break
            seen = cached
            try:
                payload = json.loads(cached)
                if isinstance(payload, dict):
                    return parse(payload)
            except (ValueError, RecursionError, TransportError):
                pass  # a stale entry
        payload = live_json(
            self._requests,
            lambda: self._requests.get(
                url, params=params, headers={"User-Agent": "claimcheck/0.1"}, timeout=10.0
            ),
            url,
        )
        parsed = parse(payload)
        if self.cache is not None:
            self.cache.put(key, request, json.dumps(payload, ensure_ascii=False))
        return parsed

    def search_entities(self, text, limit=5):
        def parse(payload):
            hits = payload.get("search", [])
            if not isinstance(hits, list):
                raise TransportError(f"entity search reply for {text!r} has no list of hits")
            # a hit that is not an object or has no id is skipped
            return [
                EntityId(hit["id"], string_field(hit, "label"))
                for hit in hits
                if string_field(hit, "id")
            ]

        params = {
            "action": "wbsearchentities",
            "search": text,
            "language": "en",
            "format": "json",
            "limit": limit,
        }
        return self._get(self.action_api, params, parse)

    def relations_of(self, entity_id, direction):
        neighbor_var = "o" if direction == "outgoing" else "s"

        def parse(payload):
            results = payload.get("results", {})
            rows = results.get("bindings", []) if isinstance(results, dict) else None
            if not isinstance(rows, list):
                raise TransportError(f"SPARQL reply for {entity_id} has no list of bindings")
            grouped = {}
            for row in rows:
                # a row that is not an object or lacks a property or neighbor is skipped
                if not isinstance(row, dict):
                    continue
                rel_id = _binding(row, "p").rsplit("/", 1)[-1]
                node_id = _binding(row, neighbor_var).rsplit("/", 1)[-1]
                if not rel_id or not node_id:
                    continue
                rel = RelationId(rel_id, _binding(row, "pLabel") or rel_id)
                label = _binding(row, neighbor_var + "Label") or node_id
                grouped.setdefault(rel.id, (rel, []))[1].append(EntityId(node_id, label))
            return [grouped[rid] for rid in sorted(grouped)]

        template = OUTGOING_QUERY if direction == "outgoing" else INCOMING_QUERY
        query = template.format(entity=entity_id, limit=RELATION_FETCH_LIMIT)
        return self._get(self.sparql_endpoint, {"query": query, "format": "json"}, parse)


def _binding(row, var):
    """The string value a SPARQL result row binds to ``var``, or ""."""
    return string_field(row.get(var), "value")


# ---------------------------------------------------------------------------
# Linking and expansion
# ---------------------------------------------------------------------------


def link_entities(mentions, backend) -> list:
    """Top backend hit per mention, deduplicated in first-occurrence order.
    The mentions' searches run concurrently."""
    if not mentions:
        raise AllMentionsUnlinkable("no mentions to link")
    found = fan_out(lambda mention: search_entities(mention.surface, backend), mentions)
    linked = []
    seen = set()
    for mention, hits in zip(mentions, found):
        if not hits:
            continue
        top = hits[0]
        if top.id not in seen:
            seen.add(top.id)
            linked.append(top)
    if not linked:
        raise AllMentionsUnlinkable(
            f"none of {[m.surface for m in mentions]} linked to the graph"
        )
    return linked


class GraphReads:
    """One episode's relation reads of the graph ``backend``. ``held`` maps a
    read's ``llm.memoized`` key, ``("relations_of", entity id, direction)``,
    to the ``fanout`` task started for it: the entity's grouped relations in
    that direction, each with at most ``MAX_OBJECTS_PER_RELATION`` neighbors.
    ``join`` ends them all (``fanout.wait``), and the episode calls it before
    it returns or raises."""

    def __init__(self, backend):
        self.backend = backend
        self.held = {}

    def start(self, entity_ids, ahead=False):
        """Starts the reads of both directions of each of ``entity_ids`` that
        neither the store nor the optimize run's memo holds. One started
        ``ahead`` of its expansion that raises TransportError gives None."""
        for entity_id in entity_ids:
            for direction in ("outgoing", "incoming"):
                key = ("relations_of", entity_id, direction)
                if key not in self.held and not memo_holds(key):
                    self.held[key] = start(self._fetch, key, ahead)

    def _fetch(self, key, ahead=False):
        try:
            return memoized(key, lambda: tuple(
                (rel, tuple(neighbors[:MAX_OBJECTS_PER_RELATION]))
                for rel, neighbors in self.backend.relations_of(*key[1:])
            ))
        except TransportError:
            if not ahead:
                raise
            return None

    def read(self, key):
        """The relations under ``key``, waiting for that key's read only. A key
        the optimize run's memo holds is read inline, and so is one whose read
        started ahead failed: it is sent again."""
        task = self.held.get(key)
        grouped = None if task is None else task.result()
        return self._fetch(key) if grouped is None else grouped

    def join(self):
        """Waits for every started read, then returns the first error, in
        start order, that is not a TransportError, else None."""
        wait(self.held.values())
        errors = (task.error for task in self.held.values() if task.error is not None)
        return next((exc for exc in errors if not isinstance(exc, TransportError)), None)


def fetch_relations(entity, direction, reads):
    """All relation candidates of one entity in one direction from the
    episode's ``reads``, each carrying at most ``MAX_OBJECTS_PER_RELATION``
    sample neighbors."""
    return [
        RelationCandidate(
            relation=rel,
            direction=direction,
            anchor=entity,
            sample_objects=neighbors,
        )
        for rel, neighbors in reads.read(("relations_of", entity.id, direction))
    ]


def expand_entity(entity, reads):
    """Both directional reads of one entity, outgoing candidates first. The
    reads not held yet start together; each is waited for where it is used."""
    reads.start([entity.id])
    return fetch_relations(entity, "outgoing", reads) + fetch_relations(entity, "incoming", reads)


def _candidate_lines(candidates):
    return "\n".join(
        f"{i}. {c.anchor.label or c.anchor.id} --[{c.relation.label or c.relation.id}"
        f" ({c.direction})]--> "
        + ", ".join(o.label or o.id for o in c.sample_objects[:3])
        for i, c in enumerate(candidates)
    )


def prune_relations(claim, candidates, k, gateway, entity=None):
    """Keep the top min(k, n) candidates by one listwise LLM scoring call:
    the ``EXPANSION_PRUNE`` of ``entity``'s own relations, or with no entity
    the ``RELATION_PRUNE`` of a hop's survivors.

    Ties break by ascending (relation id, anchor id). The reply must hold
    one finite number per candidate (``llm.number``); one that still does not
    after its repairs raises ParseFailure."""
    if not candidates:
        raise ValueError("prune_relations requires a nonempty candidate list")
    bindings = {"claim": claim, "candidates": _candidate_lines(candidates)}
    template_id = RELATION_PRUNE
    if entity is not None:
        template_id = EXPANSION_PRUNE
        bindings["entity"] = entity.label or entity.id
    schema = ResponseSchema({"scores": list_of(number, len(candidates))})
    request = LlmRequest(template_id=template_id, bindings=bindings)
    scores = gateway.complete_structured(request, schema)["scores"]
    ranked = sorted(
        zip(scores, candidates), key=lambda sc: (-sc[0], sc[1].relation.id, sc[1].anchor.id)
    )
    return [cand for _, cand in ranked[:k]]


def _triplet_key(candidate, neighbor):
    """The key of the triplet ``expand_hop`` adds for ``candidate`` and one of
    its neighbors; a plain tuple, as building a ``Triplet`` costs 30 times more."""
    if candidate.direction == "outgoing":
        return (candidate.anchor.id, candidate.relation.id, neighbor.id)
    return (neighbor.id, candidate.relation.id, candidate.anchor.id)


def next_hop(subgraph, claim, k):
    """The at most ``k`` unexpanded frontier entities the next hop expands:
    those whose labels share the most tokens with the claim, then by id."""
    tokens = set(tokenize(claim))

    def priority(entity_id):
        shared = len(tokens & set(tokenize(subgraph.label_of(entity_id))))
        return (-shared, entity_id)

    return sorted(subgraph.unexpanded(), key=priority)[:k]


def expand_hop(subgraph, claim, k, gateway, reads, to_expand):
    """One beam-search hop that expands the frontier entities ``to_expand``
    (``next_hop``'s choice).

    Drops each relation read for them whose triplets are all in the
    subgraph already. Each one with at least k relations that add a fact has
    them pruned, concurrently; one with fewer than k relations that add a
    fact keeps them all without a call, in fetch order (outgoing, then
    incoming, each by relation id). When more than k relations survive, one
    more prune, which sees them in expansion order, keeps the top k;
    otherwise every survivor is kept without a call, in expansion order and
    then each entity's own order. Appends the triplets of each retained
    relation's sample neighbors, in fetch order. Each entity joins
    ``subgraph.expanded`` before its reads go out."""
    subgraph.expanded.update(to_expand)

    def expand_and_prune(entity_id):
        entity = EntityId(entity_id, subgraph.label_of(entity_id))
        # the subgraph is written only after the hop, so this read is stable;
        # the edge the entity was reached by, seen from this end, adds nothing
        candidates = [
            c for c in expand_entity(entity, reads)
            if any(_triplet_key(c, o) not in subgraph.triplets for o in c.sample_objects)
        ]
        # a prune of fewer than k candidates would keep every one of them
        if len(candidates) < k:
            return candidates
        return prune_relations(claim, candidates, k, gateway, entity=entity)

    survivors = [c for kept in fan_out(expand_and_prune, to_expand) for c in kept]
    # a hop prune over at most k survivors would keep every one of them
    retained = survivors
    if len(survivors) > k:
        retained = prune_relations(claim, survivors, k, gateway)

    new_frontier = set()
    for cand in retained:
        anchor_hop = subgraph.hop_of.get(cand.anchor.id, 0)
        for neighbor in cand.sample_objects:
            if cand.direction == "outgoing":
                triplet = Triplet(cand.anchor, cand.relation, neighbor)
            else:
                triplet = Triplet(neighbor, cand.relation, cand.anchor)
            is_new_entity = neighbor.id not in subgraph.hop_of
            subgraph.register_entity(neighbor, anchor_hop + 1)
            subgraph.add_triplet(triplet)
            if is_new_entity:
                new_frontier.add(neighbor.id)
    subgraph.frontier = new_frontier


def init_kg_retrieval(claim, subgraph, config, gateway, reads):
    """extract -> link -> one expansion round into the empty ``subgraph``; the
    episode's observation o0. ``config`` is an ``agent.EpisodeConfig`` and
    ``reads`` the episode's ``GraphReads``.

    An empty claim raises EmptyClaim. An unlinkable claim leaves the subgraph
    empty (the agent's web-search fallback handles it) instead of an error."""
    try:
        mentions = extract_mentions(claim)
        topics = link_entities(mentions, reads.backend)
    except AllMentionsUnlinkable:
        return
    for topic in topics:
        subgraph.add_topic_entity(topic)
    expand_kg(claim, subgraph, config, gateway, reads)


def expand_kg(claim, subgraph, config, gateway, reads, to_expand=None):
    """One more hop of at most ``config.k`` expansions, of ``to_expand`` when
    the caller has taken ``next_hop`` already, unless no frontier entity is
    left unexpanded; errors once ``config.n_hops`` hops are spent."""
    if subgraph.hops_done >= config.n_hops:
        raise BudgetExhausted(f"hop budget N={config.n_hops} exhausted")
    if to_expand is None:
        to_expand = next_hop(subgraph, claim, config.k)
    if to_expand:
        expand_hop(subgraph, claim, config.k, gateway, reads, to_expand)
        subgraph.hops_done += 1
