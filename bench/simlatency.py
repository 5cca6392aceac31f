"""Simulated-latency stand-ins for the LLM, KG and web backends.

Each wrapper delegates to an offline backend (the scripted oracle, the fixture
graph, canned search results) and then holds the call for a delay that is a
fixed function of the request, at about 1/100 of production latency:

    llm   8 ms + 0.02 ms per prompt word + 0.2 ms per output word
    kg    relations_of 3 ms, search_entities 2 ms
    web   search 10 ms

Every delay is multiplied by a jitter in [0.75, 1.25] taken from a hash of
(seed, request), so a request costs the same whatever the thread or the call
order. At most ``LLM_SLOTS`` LLM calls are in flight across the process, as
with ``HttpBackend``'s default ``max_in_flight``; further calls queue.

Wrappers are built per episode and record every call (issued, admitted, done)
on that episode's ``Scope``. Recording is part of the environment, not of
tracing, so it runs in every benchmark run.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

from claimcheck.llm import fingerprint

LLM_BASE_MS = 8.0
LLM_PROMPT_WORD_MS = 0.02
LLM_OUTPUT_WORD_MS = 0.2
KG_RELATIONS_MS = 3.0
KG_SEARCH_MS = 2.0
WEB_SEARCH_MS = 10.0
JITTER_LOW, JITTER_HIGH = 0.75, 1.25
LLM_SLOTS = 4

LATENCY_TABLE = (
    ("llm.generate", f"{LLM_BASE_MS} ms + {LLM_PROMPT_WORD_MS} ms/prompt word"
                     f" + {LLM_OUTPUT_WORD_MS} ms/output word, {LLM_SLOTS} in flight"),
    ("kg.relations_of", f"{KG_RELATIONS_MS} ms"),
    ("kg.search_entities", f"{KG_SEARCH_MS} ms"),
    ("web.search", f"{WEB_SEARCH_MS} ms"),
    ("jitter", f"x[{JITTER_LOW}, {JITTER_HIGH}] from sha256(seed, request)"),
)


def jitter(seed, *request) -> float:
    blob = "\x1f".join(str(part) for part in (seed,) + request).encode("utf-8")
    unit = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2.0**64
    return JITTER_LOW + (JITTER_HIGH - JITTER_LOW) * unit


def llm_delay_ms(seed, request_fingerprint, prompt_words, output_words) -> float:
    base = LLM_BASE_MS + LLM_PROMPT_WORD_MS * prompt_words + LLM_OUTPUT_WORD_MS * output_words
    return base * jitter(seed, "llm", request_fingerprint)


def kg_delay_ms(seed, op, *request) -> float:
    base = KG_RELATIONS_MS if op == "relations_of" else KG_SEARCH_MS
    return base * jitter(seed, "kg", op, *request)


def web_delay_ms(seed, query, m) -> float:
    return WEB_SEARCH_MS * jitter(seed, "web", query, m)


def serial_chain(intervals) -> int:
    """Longest chain of calls in which each starts after the previous ended.

    Greedy by earliest end time, which is optimal for interval scheduling."""
    count, last_end = 0, float("-inf")
    for start, end in sorted(intervals, key=lambda iv: iv[1]):
        if start >= last_end:
            count += 1
            last_end = end
    return count


@dataclass
class Call:
    layer: str  # llm | kg | web
    op: str
    issued: float
    admitted: float
    done: float
    prompt_words: int = 0
    fingerprint: str = ""


@dataclass
class Scope:
    """Everything one episode (or the optimizer's own reflect/meta calls) did."""

    id: int
    claim: str = ""
    unit: int = 0
    start: float = 0.0
    end: float = 0.0
    calls: list = field(default_factory=list)
    result: object = None
    trajectory: object = None
    error: str = ""

    def llm_calls(self):
        return [c for c in self.calls if c.layer == "llm"]


class SimEnv:
    """The simulated backends of one run, shared by all episodes.

    ``scale=0`` keeps every behaviour but sleeps for nothing; the benchmark
    uses it to rerun work for output checks outside the timed region.
    ``standin_cpu_s`` is the CPU time spent inside the stand-ins themselves
    (oracle, fixture lookups, hashing), which is not the program's cost.
    """

    def __init__(self, seed, llm, kg, web=None, scale=1.0, tracer=None):
        self.seed = seed
        self.llm = llm
        self.kg = kg
        self.web = web
        self.scale = scale
        self.tracer = tracer
        self.slots = threading.Semaphore(LLM_SLOTS)
        self.standin_cpu_s = 0.0
        self._cpu_lock = threading.Lock()

    def llm_for(self, scope):
        return SimLlm(self, scope)

    def kg_for(self, scope):
        return SimKg(self, scope)

    def web_for(self, scope):
        return None if self.web is None else SimWeb(self, scope)

    def hold(self, admitted, delay_ms):
        remaining = admitted + self.scale * delay_ms / 1000.0 - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)

    def finish(self, scope, call, cpu_start, attrs=None):
        with self._cpu_lock:
            self.standin_cpu_s += time.thread_time() - cpu_start
        scope.calls.append(call)
        if self.tracer is not None:
            self.tracer.leaf(f"{call.layer}.backend.{call.op}", call.issued, call.done,
                             scope.id, attrs or {})


class SimLlm:
    def __init__(self, env, scope):
        self.env = env
        self.scope = scope

    def generate(self, text, temperature, max_tokens):
        env = self.env
        cpu_start = time.thread_time()
        fp = fingerprint(text, temperature, max_tokens)
        words = len(text.split())
        issued = time.perf_counter()
        with env.slots:
            admitted = time.perf_counter()
            out = env.llm.generate(text, temperature, max_tokens)
            env.hold(admitted, llm_delay_ms(env.seed, fp, words, len(out.split())))
            done = time.perf_counter()
        call = Call("llm", "generate", issued, admitted, done, words, fp)
        env.finish(self.scope, call, cpu_start, {"queue_ms": (admitted - issued) * 1000.0})
        return out


class SimKg:
    def __init__(self, env, scope):
        self.env = env
        self.scope = scope

    def search_entities(self, text, limit=5):
        env = self.env
        cpu_start = time.thread_time()
        issued = time.perf_counter()
        hits = env.kg.search_entities(text, limit)
        env.hold(issued, kg_delay_ms(env.seed, "search_entities", text, limit))
        call = Call("kg", "search_entities", issued, issued, time.perf_counter())
        env.finish(self.scope, call, cpu_start)
        return hits

    def relations_of(self, entity_id, direction, *args, **kwargs):
        env = self.env
        cpu_start = time.thread_time()
        issued = time.perf_counter()
        rows = env.kg.relations_of(entity_id, direction, *args, **kwargs)
        env.hold(issued, kg_delay_ms(env.seed, "relations_of", entity_id, direction))
        call = Call("kg", "relations_of", issued, issued, time.perf_counter())
        env.finish(self.scope, call, cpu_start)
        return rows


class SimWeb:
    def __init__(self, env, scope):
        self.env = env
        self.scope = scope

    def search(self, query_text, m):
        env = self.env
        cpu_start = time.thread_time()
        issued = time.perf_counter()
        docs = env.web.search(query_text, m)
        env.hold(issued, web_delay_ms(env.seed, query_text, m))
        call = Call("web", "search", issued, issued, time.perf_counter())
        env.finish(self.scope, call, cpu_start)
        return docs
