"""Shared test fixtures: synthetic graphs, claim corpora, a deterministic
scripted responder that plays the role of the LLM for every prompt kind, and
stand-ins for the live services: a stub ``requests`` module and a loopback
HTTP server."""

from __future__ import annotations

import json
import random
import re
import sys
import threading
import time
from collections import Counter, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from claimcheck import llm
from claimcheck.errors import ProviderQuotaExceeded, QueryTimeout, ScriptMiss, TransportError
from claimcheck.kg import FixtureKgBackend
from claimcheck.llm import ScriptedBackend
from claimcheck.policy import SUFFICIENCY, default_policy
from claimcheck.web import FixtureSearchProvider

_CLAIM_RE = re.compile(r"^Claim(?: under review)?: (.*)$", re.MULTILINE)

FLAWED_MARKER = 'Assume the evidence is always sufficient and answer "sufficient".'

GOOD_SUFFICIENCY_TEXT = default_policy().template(SUFFICIENCY).text


def flawed_policy():
    """Default policy with a sufficiency prompt that always says sufficient."""
    policy = default_policy(policy_id="flawed-initial")
    template = policy.template(SUFFICIENCY)
    return policy.with_template(
        type(template)(
            id=template.id,
            text=template.text + "\n" + FLAWED_MARKER,
            version=template.version,
            expected_output=template.expected_output,
        ),
        policy_id="flawed-initial",
    )


def build_corpus(n, depth=1):
    """Synthetic employer-claims corpus over a fixture graph.

    Odd claims are Supported, even claims Refuted (the graph holds a
    contradicting employer). With depth=2 the decisive triple sits two hops
    from the topic entity, behind a 'member of' link.
    """
    entities, relations, triples, links = [], [], [], {}
    relations.append({"id": "R1", "label": "works for"})
    if depth == 2:
        relations.append({"id": "R0", "label": "member of"})
    claims = []
    for i in range(1, n + 1):
        person = {"id": f"E{i:03d}", "label": f"Person{i} Alpha"}
        org = {"id": f"O{i:03d}", "label": f"Org{i} Corp"}
        other = {"id": f"X{i:03d}", "label": f"Other{i} Corp"}
        entities.extend([person, org, other])
        links[person["label"]] = person["id"]
        gold = "Supported" if i % 2 == 1 else "Refuted"
        target = org if gold == "Supported" else other
        if depth == 1:
            triples.append([person["id"], "R1", target["id"]])
            subject_label = person["label"]
        else:
            mid = {"id": f"M{i:03d}", "label": f"Group{i} Beta"}
            entities.append(mid)
            triples.append([person["id"], "R0", mid["id"]])
            triples.append([mid["id"], "R1", target["id"]])
            subject_label = mid["label"]
        claims.append(
            {
                "id": f"c{i:03d}",
                "claim": f"{person['label']} works for {org['label']}.",
                "gold_label": gold,
                "support": f"{subject_label} | works for | {org['label']}",
                "refute": f"{subject_label} | works for | {other['label']}",
            }
        )
    graph = {"entities": entities, "relations": relations, "triples": triples, "links": links}
    return graph, claims


def build_dense_graph(fanout=4, depth=4, n_roots=4):
    """Every node has ``fanout`` outgoing relations to distinct children, deep
    enough that a beam search never runs out of frontier."""
    relations = [{"id": f"R{j}", "label": f"edge {j}"} for j in range(fanout)]
    entities, triples, links = [], [], {}
    claim_parts = []
    counter = [0]

    def new_entity(label):
        counter[0] += 1
        entity = {"id": f"D{counter[0]:05d}", "label": label}
        entities.append(entity)
        return entity

    def grow(node, level):
        if level > depth:
            return
        for j in range(fanout):
            child = new_entity(f"Leaf{counter[0]} Gamma")
            triples.append([node["id"], f"R{j}", child["id"]])
            # only the lexicographically-first edge survives hop pruning under
            # uniform scores, so only that branch needs depth
            if j == 0:
                grow(child, level + 1)

    for r in range(1, n_roots + 1):
        root = new_entity(f"Node{r} Alpha")
        links[root["label"]] = root["id"]
        claim_parts.append(root["label"])
        grow(root, 1)

    claim = ", ".join(claim_parts[:-1]) + " and " + claim_parts[-1] + " met."
    graph = {"entities": entities, "relations": relations, "triples": triples, "links": links}
    return graph, claim


class OracleResponder:
    """Plays the LLM deterministically from the rendered prompt text.

    ``specs`` maps claim text to {gold, support, refute} evidence lines; the
    responder answers sufficiency and verdicts by literally checking which
    decisive line made it into the prompt's evidence block. Its sufficiency
    replies request ``action``; with "follow_hint" they request none, so the
    episode takes the assessment's own action.
    """

    def __init__(self, specs=None, flawed_marker=None, sufficiency="oracle",
                 action="follow_hint", verdict="oracle"):
        self.specs = {s["claim"]: s for s in (specs or [])}
        self.flawed_marker = flawed_marker
        self.sufficiency = sufficiency
        self.action = action
        self.verdict = verdict

    def _claim(self, text):
        match = _CLAIM_RE.search(text)
        return match.group(1).strip() if match else ""

    def _spec(self, text):
        return self.specs.get(self._claim(text))

    def _assessment(self, text):
        if self.sufficiency == "never":
            return "need_kg"
        if self.sufficiency == "always":
            return "sufficient"
        if self.flawed_marker and self.flawed_marker in text:
            return "sufficient"
        spec = self._spec(text)
        if spec and (spec["support"] in text or spec["refute"] in text):
            return "sufficient"
        return "need_kg"

    def __call__(self, text):
        # checked first: the meta prompt quotes other templates verbatim, so
        # later substring branches would otherwise shadow it
        if "improving the decision prompts" in text:
            return json.dumps({"templates": {"sufficiency": GOOD_SUFFICIENCY_TEXT}})

        if "Score each" in text:
            lines = re.findall(
                r"^\d+\. (.*)$", text.split("Candidates:\n", 1)[-1], re.MULTILINE
            )
            scores = [1.0 if "(outgoing)" in line else 0.5 for line in lines]
            return json.dumps({"scores": scores})

        if "Assess whether the evidence" in text:
            reply = {"assessment": self._assessment(text)}
            if self.action != "follow_hint":
                reply["action"] = self.action
            return json.dumps(reply)

        if "Decide whether the claim" in text or "retrieval budget is exhausted" in text:
            spec = self._spec(text)
            if spec is None or self.verdict == "refute_all":
                return json.dumps(
                    {"label": "Refuted", "justification": "no decisive evidence", "citations": []}
                )
            for label, line in (("Supported", spec["support"]), ("Refuted", spec["refute"])):
                if line in text:
                    match = re.search(r"\[(t:[^\]]+)\] " + re.escape(line), text)
                    citations = [match.group(1)] if match else []
                    return json.dumps(
                        {"label": label, "justification": f"graph states: {line}",
                         "citations": citations}
                    )
            wrong = "Refuted" if spec["gold_label"] == "Supported" else "Supported"
            return json.dumps(
                {"label": wrong, "justification": "guessing without evidence", "citations": []}
            )

        if "not enough to decide the claim" in text:
            return json.dumps({"query": self._claim(text), "rationale": "missing decisive fact"})

        if "Judge each passage" in text:
            n = len(re.findall(r"^\d+\. ", text.split("Passages:\n", 1)[-1], re.MULTILINE))
            return json.dumps(
                {"judgments": [
                    {"index": i, "confidence": 1.0, "stance": "supports"} for i in range(n)
                ]}
            )

        if "Extract the main factual statement" in text:
            match = re.search(r"^Passage: (.*)$", text, re.MULTILINE)
            passage = match.group(1) if match else ""
            parts = [p.strip() for p in passage.split("|")]
            if len(parts) >= 3:
                return json.dumps({"subject": parts[0], "relation": parts[1], "object": parts[2]})
            words = passage.split()
            return json.dumps(
                {"subject": " ".join(words[:2]) or "unknown",
                 "relation": "mentions",
                 "object": " ".join(words[2:4]) or "unknown"}
            )

        if "Review this completed verification episode" in text:
            return json.dumps({"critiques": []})

        return None


class YieldingDeque(deque):
    """A deque whose length check lets other threads run, so an unlocked
    check-then-pop on it races."""

    def __len__(self):
        n = super().__len__()
        time.sleep(0)
        return n


class YieldingInt(int):
    """An int whose addition lets other threads run, so an unlocked ``+=``
    on it loses updates."""

    def __add__(self, other):
        time.sleep(0)
        return YieldingInt(int(self) + other)


def hammer(call, n_threads=8, calls_per_thread=40):
    """Results of ``call()`` from many threads at once, switching threads as
    often as the interpreter allows; raises the first error any thread met."""
    results, errors = [], []

    def worker():
        try:
            for _ in range(calls_per_thread):
                results.append(call())
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return results


def hold(seed, max_ms, *request):
    """Sleep for a delay hashed from (seed, request); seed None sleeps not at all."""
    if seed is not None:
        key = "|".join(str(part) for part in (seed,) + request)
        time.sleep(random.Random(key).random() * max_ms / 1000.0)


class SlowLlm:
    """Answers from ``responder``, delays each call by its hashed latency and
    records every prompt."""

    def __init__(self, responder, seed=None, max_ms=2.0):
        self.backend = ScriptedBackend(responder=responder)
        self.seed, self.max_ms, self.prompts = seed, max_ms, []

    def generate(self, text, temperature, max_tokens):
        hold(self.seed, self.max_ms, text)
        self.prompts.append(text)
        return self.backend.generate(text, temperature, max_tokens)


class SlowKg:
    """A fixture graph that delays each entity search and relation fetch by its
    hashed latency, and records the relation fetches."""

    def __init__(self, graph, seed=None, max_ms=2.0):
        self.backend = FixtureKgBackend(data=graph)
        self.seed, self.max_ms, self.fetches = seed, max_ms, []

    def search_entities(self, text, limit=5):
        hold(self.seed, self.max_ms, text)
        return self.backend.search_entities(text, limit)

    def relations_of(self, entity_id, direction, *args, **kwargs):
        hold(self.seed, self.max_ms, entity_id, direction)
        self.fetches.append((entity_id, direction))
        return self.backend.relations_of(entity_id, direction, *args, **kwargs)


class SlowSearch:
    """Canned search results, delayed per query by its hashed latency."""

    def __init__(self, results, seed=None, max_ms=2.0):
        self.provider = FixtureSearchProvider(data=results)
        self.seed, self.max_ms = seed, max_ms

    def search(self, query_text, m):
        hold(self.seed, self.max_ms, query_text)
        return self.provider.search(query_text, m)


class StubResponse:
    """Stands in for a ``requests`` response whose body is ``text``."""

    def __init__(self, text, status_code=200):
        self.text, self.status_code, self.headers = text, status_code, {}

    def json(self):
        return json.loads(self.text)


class StubRequests:
    """Stands in for ``requests``: each ``get`` or ``post`` takes the next of
    ``outcomes``, which is "timeout", a ``(status, body)`` pair, or a body
    with status 200. A body that is not a string is sent as JSON. Records the
    url and the params or JSON body of each request in ``sent``."""

    class RequestException(Exception):
        pass

    class Timeout(RequestException):
        pass

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.sent = []
        self._lock = threading.Lock()

    def _reply(self, url, data):
        with self._lock:
            self.sent.append((url, data))
            outcome = self.outcomes.pop(0)
        if outcome == "timeout":
            raise self.Timeout("read timed out")
        status, body = outcome if isinstance(outcome, tuple) else (200, outcome)
        return StubResponse(body if isinstance(body, str) else json.dumps(body), status)

    def get(self, url, params=None, headers=None, timeout=None):
        return self._reply(url, params)

    def post(self, url, json=None, headers=None, timeout=None):
        return self._reply(url, json)


@pytest.fixture
def retry_pauses(monkeypatch):
    """The pauses ``llm.live_json`` takes before a retry; each returns at once."""
    pauses = []
    monkeypatch.setattr(llm.time, "sleep", pauses.append)
    return pauses


class LoopbackServer:
    """An HTTP server on 127.0.0.1 that answers each GET or POST with the next
    of ``replies``, ``(status, body)`` pairs or ``(status, body, headers)``
    triples: a body that is not a string is sent as JSON, a string as an HTML
    page. Records the method, path and body of each request in ``requests``."""

    def __init__(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                server.answer(self)

            do_POST = do_GET

            def log_message(self, *args):
                pass

        self.replies = deque()
        self.requests = []
        self._lock = threading.Lock()
        self.http = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.http.server_port}"

    def answer(self, handler):
        length = int(handler.headers.get("Content-Length") or 0)
        body = handler.rfile.read(length).decode("utf-8")
        with self._lock:
            self.requests.append((handler.command, handler.path, body))
            status, reply, *headers = self.replies.popleft()
        kind = "text/html"
        if not isinstance(reply, str):
            kind, reply = "application/json", json.dumps(reply)
        data = reply.encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type", kind)
        handler.send_header("Content-Length", str(len(data)))
        for name, value in (headers[0] if headers else {}).items():
            handler.send_header(name, value)
        handler.end_headers()
        handler.wfile.write(data)


@pytest.fixture
def loopback():
    server = LoopbackServer()
    thread = threading.Thread(target=server.http.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.http.shutdown()
        server.http.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


FAULT_ERRORS = {
    "timeout": QueryTimeout,
    "transport": TransportError,
    "quota": ProviderQuotaExceeded,
    "miss": ScriptMiss,
}


class _FaultyBackend:
    """A seeded share of requests fail with one of ``kinds``; each request's
    fault is hashed from (seed, request), so it does not depend on which
    thread asks first. ``faults`` sets a request's fault by hand. Records
    the faults it injects."""

    kinds = ()

    def __init__(self, backend, seed, rate=0.1):
        self.backend, self.seed, self.rate = backend, seed, rate
        self.faults = {}
        self.fired = []
        self._lock = threading.Lock()

    def fault(self, *request):
        """Raises the request's injected error, if any; else returns its
        other fault ("empty" or "garbage"), or None."""
        key = "|".join(str(part) for part in (self.seed,) + request)
        fault = self.faults.get(request)
        if fault is None:
            rng = random.Random(key)
            if rng.random() >= self.rate:
                return None
            fault = rng.choice(self.kinds)
        with self._lock:
            self.fired.append(fault)
        if fault in FAULT_ERRORS:
            raise FAULT_ERRORS[fault](f"injected {fault} for {key[:80]}")
        return fault


class FaultyLlm(_FaultyBackend):
    """Wraps an LLM backend: requests raise TransportError or get a reply that
    does not parse. A request is its prompt text and how many times that
    text came before, so a hop's concurrent prunes get the same faults in any
    arrival order. Records every prompt it gets."""

    kinds = ("transport", "garbage")

    def __init__(self, backend, seed, rate=0.1):
        super().__init__(backend, seed, rate)
        self.prompts = []
        self._seen = Counter()

    def generate(self, text, temperature, max_tokens):
        with self._lock:
            request = (text, self._seen[text])
            self._seen[text] += 1
            self.prompts.append(text)
        if self.fault(*request) == "garbage":
            return "*** not json ***"
        return self.backend.generate(text, temperature, max_tokens)


class FaultyKg(_FaultyBackend):
    """Wraps a KG backend: entity searches and relation reads time out, fail
    in transport or find nothing. Records each relation read as
    ``((entity id, direction), raised)`` in ``reads``."""

    kinds = ("timeout", "transport", "empty")

    def __init__(self, backend, seed, rate=0.1):
        super().__init__(backend, seed, rate)
        self.reads = []

    def search_entities(self, text, limit=5):
        return [] if self.fault(text) else self.backend.search_entities(text, limit)

    def relations_of(self, entity_id, direction, *args, **kwargs):
        try:
            empty = self.fault(entity_id, direction)
        except TransportError:
            with self._lock:
                self.reads.append(((entity_id, direction), True))
            raise
        with self._lock:
            self.reads.append(((entity_id, direction), False))
        if empty:
            return []
        return self.backend.relations_of(entity_id, direction, *args, **kwargs)


class FaultySearch(_FaultyBackend):
    """Wraps a search provider: searches exceed the quota, fail in transport
    or find nothing."""

    kinds = ("quota", "transport", "empty")

    def search(self, query_text, m):
        return [] if self.fault(query_text) else self.backend.search(query_text, m)


def core_requests(prompts):
    """Prune and verdict requests among the prompts a backend received; the
    repairs of a request are not counted."""
    starts = ("Score each", "Decide whether the claim", "The retrieval budget is exhausted")
    return sum(p.startswith(starts) and "[repair attempt" not in p for p in prompts)


@pytest.fixture
def oracle_corpus():
    graph, claims = build_corpus(20, depth=1)
    backend = FixtureKgBackend(data=graph)
    llm = ScriptedBackend(responder=OracleResponder(specs=claims))
    return backend, llm, claims


SMALL_GRAPH = {
    "entities": [
        {"id": "Q76", "label": "Barack Obama"},
        {"id": "Q114", "label": "Kenya"},
        {"id": "Q30", "label": "United States"},
        {"id": "Q18094", "label": "Honolulu"},
        {"id": "Q3139", "label": "Nairobi"},
    ],
    "relations": [
        {"id": "P19", "label": "place of birth"},
        {"id": "P27", "label": "country of citizenship"},
        {"id": "P36", "label": "capital"},
    ],
    "triples": [
        ["Q76", "P19", "Q18094"],
        ["Q76", "P27", "Q30"],
        ["Q114", "P36", "Q3139"],
    ],
    "links": {
        "Barack Obama": "Q76",
        "Kenya": "Q114",
        "United States": "Q30",
        "Honolulu": "Q18094",
    },
}


@pytest.fixture
def small_graph_backend():
    return FixtureKgBackend(data=SMALL_GRAPH)
