"""Seeded inputs for the three benchmark workloads.

Every claim gets entity labels of its own, so no two prompts of different
claims coincide. Each claim carries a spec that the oracle responder reads:
the gold label, the evidence line that decides it, the assessment to give
while that line is missing, and the refined web query to ask for.

Graph shape (relation ids sort chain < decisive < distractor, which is the
order the oracle's scores and the pruner's tie-break keep them in):

    hop-d claim   person -P1-> group -P1-> ... -P2-> org, where the decisive
                  "works for" fact sits d hops from the linked person; every
                  chain node also has two distractor facts (P7, P8)
    dense claim   four linked roots, each with four edges (P10-P13) per
                  node along a chain five levels deep; the claimed fact is
                  nowhere, so the episode spends every hop and step
    web claim     the person does not link, or links to distractor facts
                  only; the canned search results hold the decisive line
                  among snippets the consistency filter keeps or drops
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from claimcheck.evaluation import DatasetRecord

SUPPORTED, REFUTED = "Supported", "Refuted"

RELATIONS = [
    {"id": "P1", "label": "member of"},
    {"id": "P2", "label": "works for"},
    {"id": "P7", "label": "born in"},
    {"id": "P8", "label": "alumnus of"},
] + [{"id": f"P1{j}", "label": label} for j, label in
     enumerate(("partner of", "supplier of", "sponsor of", "rival of"))]

DENSE_FANOUT = 4
DENSE_DEPTH = 5
WEB_RESULTS = 10

# eval workloads run in batches of this mix; every batch holds both labels.
# Sorted by episode time the kinds form clusters; the mix puts the median
# inside the hop2 cluster and p90 inside the dense one, not in a gap.
KG_MIX = (("hop1", 3), ("hop2", 4), ("hop3", 2), ("dense", 3))
WEB_MIX = (("web_unlinked", 4), ("web_two_search", 4), ("web_linked", 4))
# one optimize() call per unit: flawed policy, depth-2 claims replayed per epoch
OPT_EPOCHS, OPT_TRAIN, OPT_VAL = 5, 8, 4

_ONSETS = "b c d f g h k l m n p r s t v z br dr kr st tr".split()
_VOWELS = "a e i o u ai ea".split()


class Namer:
    """Pronounceable labels, unique within one workload."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def word(self):
        syllables = self.rng.randint(2, 3)
        text = "".join(self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS) for _ in range(syllables))
        return text.capitalize()

    def label(self, suffix=None):
        while True:
            label = f"{self.word()} {suffix or self.word()}"
            if label not in self.used:
                self.used.add(label)
                return label


class GraphBuilder:
    def __init__(self):
        self.entities = []
        self.triples = []
        self.links = {}
        self._next = 0

    def entity(self, label, linked=False):
        self._next += 1
        eid = f"Q{self._next}"
        self.entities.append({"id": eid, "label": label})
        if linked:
            self.links[label] = eid
        return eid, label

    def fact(self, subject, relation, obj):
        self.triples.append([subject[0], relation, obj[0]])

    def data(self):
        return {"entities": self.entities, "relations": RELATIONS,
                "triples": self.triples, "links": self.links}


def _spec(cid, kind, claim, gold, support, refute, hint, query=None):
    return {"id": cid, "kind": kind, "claim": claim, "gold_label": gold,
            "support": support, "refute": refute, "missing_hint": hint, "query": query or claim}


def _distractors(graph, names, node):
    graph.fact(node, "P7", graph.entity(names.label("City")))
    graph.fact(node, "P8", graph.entity(names.label("College")))


def hop_claim(graph, names, cid, depth, gold):
    person = graph.entity(names.label(), linked=True)
    org = graph.entity(names.label("Corp"))
    other = graph.entity(names.label("Corp"))
    node = person
    _distractors(graph, names, node)
    for _ in range(depth - 1):
        group = graph.entity(names.label("Union"))
        graph.fact(node, "P1", group)
        node = group
        _distractors(graph, names, node)
    graph.fact(node, "P2", org if gold == SUPPORTED else other)
    return _spec(cid, f"hop{depth}", f"{person[1]} works for {org[1]}.", gold,
                 f"{node[1]} | works for | {org[1]}", f"{node[1]} | works for | {other[1]}",
                 "need_kg")


def dense_claim(graph, names, cid):
    roots = [graph.entity(names.label(), linked=True) for _ in range(4)]
    org = graph.entity(names.label("Corp"))

    def grow(node, level):
        children = [graph.entity(names.label("Node")) for _ in range(DENSE_FANOUT)]
        for j, child in enumerate(children):
            graph.fact(node, f"P1{j}", child)
        # under uniform scores only the first edge survives the hop prune
        if level < DENSE_DEPTH:
            grow(children[0], level + 1)

    for root in roots:
        grow(root, 1)
    mentions = ", ".join(r[1] for r in roots[:-1]) + f" and {roots[-1][1]}"
    return _spec(cid, "dense", f"{mentions} founded {org[1]}.", REFUTED,
                 f"{roots[0][1]} | founded | {org[1]}", f"{roots[0][1]} | dissolved | {org[1]}",
                 "need_kg")


def _snippets(rng, names, person, decisive, kept):
    """WEB_RESULTS canned rows: ``kept`` distractors name the person and pass
    the consistency filter, the rest do not. Profile pages sit at fixed
    positions under fixed URLs, so two searches for one claim return the
    same URL at the same position, as real results do."""
    slug = person.lower().replace(" ", "-")
    rows = [
        {"url": f"https://encyclopedia.example/wiki/{slug}",
         "snippet": f"{person} was born in {names.label('City')}."},
        {"url": f"https://news.example/profiles/{slug}",
         "snippet": f"{person} studied at {names.label('College')}."},
    ]
    year = rng.randint(1990, 2023)
    body = [f"{person} lives in {names.label('City')}.",
            f"{person} visited {names.label('City')} in {year}.",
            f"{person} spoke at {names.label('Forum')}."][:kept]
    if decisive:
        body.append(decisive)
    body += [f"{names.label('Corp')} reported revenue growth in {year}.",
             f"Weather in {names.label('City')} stays mild this season.",
             f"{names.label('Forum')} opens registration for next year.",
             f"{names.label('College')} announced new scholarships.",
             f"Local elections in {names.label('City')} drew a record turnout."]
    body = body[: WEB_RESULTS - len(rows)]
    rng.shuffle(body)
    for i, text in enumerate(body):
        rows.append({"url": f"https://site{rng.randint(1, 9999)}.example/{slug}/{i}",
                     "snippet": text})
    return rows


def web_claim(graph, names, rng, results, cid, kind, gold):
    person = names.label()
    if kind == "web_linked":
        _distractors(graph, names, graph.entity(person, linked=True))
    org, other = names.label("Corp"), names.label("Corp")
    claim = f"{person} works for {org}."
    refined = f"{person} employer"
    decisive = f"{person} works for {org if gold == SUPPORTED else other}."
    if kind == "web_two_search":
        results[claim] = _snippets(rng, names, person, None, 3)
        results[refined] = _snippets(rng, names, person, decisive, 2)
    elif kind == "web_unlinked":
        results[claim] = _snippets(rng, names, person, decisive, 3)
    else:
        results[refined] = _snippets(rng, names, person, decisive, 3)
    return _spec(cid, kind, claim, gold, f"{person} | works for | {org}",
                 f"{person} | works for | {other}", "need_web", refined)


def _batches(rng, mix, n_batches, make):
    batches = []
    for b in range(n_batches):
        batch = []
        for kind, count in mix:
            for j in range(count):
                gold = SUPPORTED if (b + j) % 2 == 0 else REFUTED
                batch.append(make(f"b{b:04d}-{kind}-{j}", kind, gold))
        rng.shuffle(batch)
        batches.append(batch)
    return batches


@dataclass
class Inputs:
    """What one workload run receives: records in units, the graph, canned
    search results (None: no web provider) and the oracle's specs."""

    units: list
    graph: dict
    results: dict
    specs: list


def kg_multihop(seed, n_units):
    rng = random.Random(f"kg_multihop:{seed}")
    names, graph = Namer(rng), GraphBuilder()

    def make(cid, kind, gold):
        if kind == "dense":
            return dense_claim(graph, names, cid)
        return hop_claim(graph, names, cid, int(kind[-1]), gold)

    batches = _batches(rng, KG_MIX, n_units, make)
    return Inputs(_records(batches), graph.data(), None, [s for b in batches for s in b])


def web_fallback(seed, n_units):
    rng = random.Random(f"web_fallback:{seed}")
    names, graph, results = Namer(rng), GraphBuilder(), {}

    def make(cid, kind, gold):
        return web_claim(graph, names, rng, results, cid, kind, gold)

    batches = _batches(rng, WEB_MIX, n_units, make)
    return Inputs(_records(batches), graph.data(), results, [s for b in batches for s in b])


def optimize_replay(seed, n_units):
    rng = random.Random(f"optimize_replay:{seed}")
    names, graph = Namer(rng), GraphBuilder()
    units = []
    for u in range(n_units):
        claims = [hop_claim(graph, names, f"u{u:03d}-c{i:02d}", 2,
                            SUPPORTED if i % 2 == 0 else REFUTED)
                  for i in range(OPT_TRAIN + OPT_VAL)]
        units.append(claims)
    return Inputs(units, graph.data(), None, [s for u in units for s in u])


def _records(batches):
    return [[DatasetRecord(id=s["id"], claim=s["claim"], gold_label=s["gold_label"])
             for s in batch] for batch in batches]


GENERATORS = {"kg_multihop": kg_multihop, "web_fallback": web_fallback,
              "optimize_replay": optimize_replay}
