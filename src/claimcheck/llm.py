"""Chat-completion gateway: prompt templates, backends, structured output, and
the reply store.

Backends implement ``generate(text, temperature, max_tokens) -> str``.  The
gateway renders templates, counts requests and repair retries, and handles
structured-output repair. ``live_json`` makes each request of the live LLM,
Wikidata and web-search clients. ``ReplyStore`` keeps replies by fingerprint
in a JSONL file: a ``CassetteRecorder`` writes a cassette to one,
``--backend replay`` is a ``ScriptedBackend`` whose fingerprint table is one,
and the Wikidata client caches its lookups in one.

Inside a ``reply_memo()`` block, which ``optimize.optimize`` holds for its
whole run, every backend read goes out once: each distinct prompt text from
any gateway, and each graph lookup and web search (``memoized``, called from
``kg`` and ``web``). Later reads of the same key reuse the first result; two
lanes that miss the same key at once both send it, and both get the first
result stored. Every request is at temperature 0, so on a deterministic
backend the run is unchanged, and on a live one the run sees one snapshot of
the graph and the web. The memo lives in a context variable, and ``fan_out``
runs its items in copies of the caller's context, so episodes and prunes on
worker lanes share it.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import os
import random
import re
import sys
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from .errors import (
    MissingBinding,
    ParseFailure,
    ProviderQuotaExceeded,
    QueryTimeout,
    SchemaViolation,
    ScriptMiss,
    TransportError,
)

_PLACEHOLDER_RE = re.compile(r"\{([a-z_][a-z0-9_]*)\}")
_DECODER = json.JSONDecoder()
_FLOAT_MAX = sys.float_info.max

# Structured-output repair attempts on top of the first ask.
REPAIR_RETRIES = 2
# Sampling settings of every request; both enter the fingerprint.
TEMPERATURE = 0.0
MAX_OUTPUT_TOKENS = 1024
# The longest Retry-After, in seconds, that a live request waits before its retry.
MAX_RETRY_AFTER_S = 10.0

# key -> first result, for the reply_memo() block in progress; None outside one
_REPLY_MEMO = contextvars.ContextVar("claimcheck_reply_memo", default=None)


@contextlib.contextmanager
def reply_memo():
    """A fresh memo for the block: each key of ``memoized`` is fetched once,
    from any gateway, backend and ``fan_out`` item started inside; a fetch
    that raises stores nothing."""
    token = _REPLY_MEMO.set({})
    try:
        yield
    finally:
        _REPLY_MEMO.reset(token)


def memoized(key, fetch):
    """``fetch()``, or inside a ``reply_memo()`` block the first result
    fetched for ``key`` in it. A prompt's key is its text, since temperature
    and output tokens are constants; other reads use a tuple that starts with
    the operation's name. Episodes on other lanes share a stored result, so it
    must be immutable."""
    memo = _REPLY_MEMO.get()
    if memo is None:
        return fetch()
    if key in memo:
        return memo[key]
    return memo.setdefault(key, fetch())


def memo_holds(key):
    """Whether the ``reply_memo()`` block in progress holds ``key``."""
    memo = _REPLY_MEMO.get()
    return memo is not None and key in memo


@dataclass(frozen=True)
class PromptTemplate:
    """A named, versioned prompt with ``{placeholder}`` slots."""

    id: str
    text: str
    version: int = 1
    expected_output: str = "free_text"  # free_text | structured

    def render(self, bindings: dict) -> str:
        def _sub(match):
            name = match.group(1)
            if name not in bindings:
                raise MissingBinding(name)
            return str(bindings[name])

        return _PLACEHOLDER_RE.sub(_sub, self.text)

    def placeholders(self) -> set:
        return set(_PLACEHOLDER_RE.findall(self.text))


@dataclass
class LlmRequest:
    template_id: str
    bindings: dict = field(default_factory=dict)


def _check(expects, test):
    """Mark ``test``, a predicate on one JSON value, with what it ``expects``,
    which a violation names."""
    test.expects = expects
    return test


def _finite(v):
    # no bool (a number to Python), NaN or Infinity (json reads them) or int past a float
    return type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX


text = _check("nonempty text", lambda v: isinstance(v, str) and bool(v.strip()))
number = _check("a finite number", _finite)
whole = _check("a whole finite number", lambda v: _finite(v) and float(v).is_integer())
mapping = _check("an object", lambda v: isinstance(v, dict))


def one_of(*values):
    # compared by equality, so an unhashable value fails as a violation
    return _check(f"one of {sorted(values)}", lambda v: v in values)


def list_of(check=None, n=None):
    """A list, of ``n`` items if ``n`` is given, each passing ``check`` if given."""
    expects = "a list" if n is None else f"a list of {n} items"
    if check is not None:
        expects += f", each {check.expects}"
    return _check(expects, lambda v: isinstance(v, list) and (n is None or len(v) == n)
                  and (check is None or all(map(check, v))))


@dataclass
class ResponseSchema:
    """Required top-level fields, each mapped to the check its value must pass
    (``text``, ``number``, ``whole``, ``one_of``, ``list_of`` or ``mapping``);
    a violation is a ParseFailure, so it gets the gateway's repairs."""

    fields: dict

    def validate(self, payload):
        if not isinstance(payload, dict):
            raise SchemaViolation("<root>", "payload is not an object")
        for name, check in self.fields.items():
            if name not in payload:
                raise SchemaViolation(name, "missing required field")
            value = payload[name]
            if not check(value):
                raise SchemaViolation(name, f"expected {check.expects}, got {value!r:.200}")
        return payload


def fingerprint(rendered_text: str, temperature: float, max_tokens: int) -> str:
    blob = json.dumps(
        {"text": rendered_text, "temperature": temperature, "max_tokens": max_tokens},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def extract_json(text: str):
    """Parse the first JSON object embedded in ``text``, else the first JSON
    array: the value that starts at the first ``{`` (then ``[``) where one
    parses, whatever follows it. A value nested past the recursion limit
    raises ParseFailure at once."""
    try:
        with contextlib.suppress(ValueError, TypeError):
            return json.loads(text)
        for opener in (r"\{", r"\["):
            for match in re.finditer(opener, text):
                with contextlib.suppress(ValueError):
                    return _DECODER.raw_decode(text, match.start())[0]
    except RecursionError:
        raise ParseFailure(f"JSON nested too deeply in response: {text[:200]!r}") from None
    raise ParseFailure(f"no JSON payload found in response: {text[:200]!r}")


class ScriptedBackend:
    """Deterministic backend for tests and offline runs.

    Lookup order: fingerprint table (a dict, or a ``ReplyStore`` loaded from a
    cassette), ``responder`` callable (gets the rendered request text), FIFO
    ``sequence``, then ``default``. Concurrent calls, such as a KG hop's
    per-entity prunes, take ``sequence`` entries in the order they arrive; so
    do concurrent episodes, so a ``sequence`` script shared by
    ``run_benchmark`` or ``optimize`` episodes needs a width of 1.
    """

    def __init__(self, by_fingerprint=None, responder=None, sequence=None, default=None):
        self.by_fingerprint = {} if by_fingerprint is None else by_fingerprint
        self.responder = responder
        self.sequence = deque(sequence or [])
        self.default = default
        self._lock = threading.Lock()

    def generate(self, text, temperature, max_tokens):
        fp = fingerprint(text, temperature, max_tokens)
        reply = self.by_fingerprint.get(fp)
        if reply is not None:
            return reply
        if self.responder is not None:
            out = self.responder(text)
            if out is not None:
                return out
        with self._lock:
            if self.sequence:
                return self.sequence.popleft()
        if self.default is not None:
            return self.default
        raise ScriptMiss(fp, text)


class ReplyStore:
    """Replies by key, backed by a JSONL file of
    ``{"fp", "request_text", "response_text"}`` lines: LLM cassettes and the
    Wikidata cache.

    A repeated key replays its replies in order, then holds the last. The
    file, if it exists, is read when the store is made, and each ``put``
    appends its entry in one write under the store's lock. A final line with
    no newline is a write cut short: it is ignored, and cut off before the
    next append. Any other malformed line raises ValueError.
    """

    def __init__(self, path):
        self.path = path
        self._replies = {}
        self._lock = threading.Lock()
        self._torn_at = None  # where a torn final line starts
        if os.path.exists(path):
            self._load()

    def _load(self):
        with open(self.path, "rb") as fh:
            data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            self._torn_at = end
        for n, line in enumerate(data[:end].decode("utf-8").split("\n")[:-1], 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                key, reply = entry["fp"], entry["response_text"]
                if not (isinstance(key, str) and isinstance(reply, str)):
                    raise TypeError("fp and response_text must be strings")
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise ValueError(
                    f"{os.path.basename(self.path)} line {n} is not a reply entry: {exc!r}"
                ) from None
            self._replies.setdefault(key, deque()).append(reply)

    def get(self, key):
        """The key's next reply, or None if it has none."""
        with self._lock:
            replies = self._replies.get(key)
            if not replies:
                return None
            return replies.popleft() if len(replies) > 1 else replies[0]

    def put(self, key, request_text, reply):
        line = json.dumps(
            {"fp": key, "request_text": request_text, "response_text": reply},
            ensure_ascii=False,
        )
        with self._lock:
            with open(self.path, "ab", buffering=0) as fh:
                if self._torn_at is not None:
                    fh.truncate(self._torn_at)
                    self._torn_at = None
                fh.write((line + "\n").encode("utf-8"))
            self._replies.setdefault(key, deque()).append(reply)


class CassetteRecorder:
    """Wraps a backend and puts every interaction into the cassette at ``path``."""

    def __init__(self, backend, path):
        self.backend = backend
        self.store = ReplyStore(path)

    def generate(self, text, temperature, max_tokens):
        reply = self.backend.generate(text, temperature, max_tokens)
        self.store.put(fingerprint(text, temperature, max_tokens), text, reply)
        return reply


class TokenBucket:
    def __init__(self, rate_per_sec, capacity):
        self.rate = float(rate_per_sec)
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self.updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self):
        while True:
            with self._lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) / self.rate
            time.sleep(wait)


def _retry_pause(resp):
    """Seconds to wait before the retry of a failed request: the ``Retry-After``
    of a 429 or 503 ``resp`` when it is a whole number of seconds, at most
    MAX_RETRY_AFTER_S; otherwise 0.5-1 s, jittered."""
    if resp is not None and resp.status_code in (429, 503):
        value = (resp.headers.get("Retry-After") or "").strip()
        if re.fullmatch(r"[0-9]+", value):
            return min(float(value), MAX_RETRY_AFTER_S)
    return 0.5 + random.random() * 0.5


def live_json(requests, send, what):
    """The JSON object a live service replies with to ``send()``, which makes
    one request through the ``requests`` module given and returns its response.

    A failed attempt is a ``requests`` error, a status other than 200 or a
    body that is not a JSON object, such as an HTML error page; it is tried
    once more after a pause (``_retry_pause``). A second failure raises
    QueryTimeout for a timeout, ProviderQuotaExceeded for a 429 and
    TransportError otherwise, with a message that names ``what``."""
    resp = None
    for attempt in range(2):
        if attempt:
            time.sleep(_retry_pause(resp))
        try:
            resp = send()
        except requests.Timeout as exc:
            error = QueryTimeout(f"{what} timed out: {exc}")
            continue
        except requests.RequestException as exc:
            error = TransportError(f"{what} request failed: {exc}")
            continue
        if resp.status_code != 200:
            kind = ProviderQuotaExceeded if resp.status_code == 429 else TransportError
            error = kind(f"{what} returned status {resp.status_code}")
            continue
        try:
            payload = resp.json()
        except (ValueError, RecursionError):  # an HTML error page, say
            payload = None
        if isinstance(payload, dict):
            return payload
        error = TransportError(f"{what} reply is not a JSON object")
    raise error


class HttpBackend:
    """OpenAI-style chat-completion backend over HTTP. Each ``live_json``
    attempt takes a token and then a slot, held only while it is in flight; a
    reply with no string content raises TransportError and is not retried."""

    def __init__(self, base_url, model, api_key_env="CLAIMCHECK_API_KEY"):
        import requests

        self._requests = requests
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        # at most 4 requests in flight and 2 sent per second
        self._slots = threading.Semaphore(4)
        self._bucket = TokenBucket(2.0, 2)

    def generate(self, text, temperature, max_tokens):
        key = os.environ.get(self.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": text}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }

        def send():
            self._bucket.acquire()
            with self._slots:
                return self._requests.post(
                    f"{self.base_url}/chat/completions", json=body, headers=headers, timeout=60.0
                )

        payload = live_json(self._requests, send, "LLM endpoint")
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            # some level is not the object or list it should be
            raise TransportError(f"malformed LLM response body: {exc}") from exc
        if not isinstance(content, str):
            raise TransportError(f"LLM response content is {type(content).__name__}, not str")
        return content


class LlmGateway:
    """Renders templates against a policy and talks to one backend.

    ``requests`` counts structured requests per template id, once per request
    whatever its repairs or outcome, and ``retry_count`` counts repair
    retries; both include replies taken from the reply memo. ``call_count``
    is the backend round trips, calls that raise included, so the replies the
    memo gave instead are ``sum(requests.values()) + retry_count -
    call_count``. The counters are safe to update from concurrent calls.
    """

    def __init__(self, backend, policy):
        self.backend = backend
        self.policy = policy
        self.retry_count = 0
        self.call_count = 0
        self.requests = Counter()
        self._lock = threading.Lock()

    def _generate(self, text):
        def send():
            with self._lock:
                self.call_count += 1
            return self.backend.generate(text, TEMPERATURE, MAX_OUTPUT_TOKENS)

        # a reply is kept whether or not it parses, so a repair sequence
        # replays the same way
        return memoized(text, send)

    def complete_structured(self, request: LlmRequest, schema: ResponseSchema):
        base = self.policy.template(request.template_id).render(request.bindings)
        with self._lock:
            self.requests[request.template_id] += 1
        last_error = None
        for attempt in range(REPAIR_RETRIES + 1):
            text = base
            if attempt:
                with self._lock:
                    self.retry_count += 1
                text = (
                    f"{base}\n\n[repair attempt {attempt}] Your previous reply could not "
                    "be parsed. Respond with valid JSON only, matching the requested fields."
                )
            reply = self._generate(text)
            try:
                payload = extract_json(reply)
                schema.validate(payload)
                return payload
            except ParseFailure as exc:
                last_error = exc
        raise ParseFailure(f"structured output failed after {REPAIR_RETRIES} retries: {last_error}")
