"""Spans around the calls into each claimcheck layer, installed from outside.

``Tracer.install()`` replaces the public functions listed in ``TARGETS`` by
wrappers that record a span (name, start, end, parent, episode, attributes)
and restores them on exit. Modules look these names up at call time, so the
calls between layers go through the wrappers too. Backend calls become leaf
spans through ``SimEnv``. Spans stay in memory until ``write``.

A span opened on a thread with no open span of its own, such as a
run_benchmark worker, takes as parent the innermost open span of the thread
that installed the tracer. Spans on threads the program starts inside an
episode therefore attach to the caller of run_benchmark's workers, not to
their episode; totals by span name still count them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from claimcheck import agent, evaluation, kg, optimize, web
from claimcheck.graph import KnowledgeSubgraph, passage_item_id
from claimcheck.llm import LlmGateway


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _prune_attrs(args, kwargs, result):
    return {"candidates": len(_arg(args, kwargs, 1, "candidates")), "kept": len(result)}


def _search_attrs(args, kwargs, result):
    return {"docs": len(result)}


def _filter_attrs(args, kwargs, result):
    return {"judged": len(_arg(args, kwargs, 1, "passages")), "kept": len(result),
            "ids": [passage_item_id(e.passage.source_url, e.passage.index) for e in result]}


def _template_attrs(args, kwargs):
    return {"template_id": _arg(args, kwargs, 1, "request").template_id}


# (owner, attribute, span name, attrs from the arguments, attrs from the result)
TARGETS = (
    (agent, "run_episode", "agent.run_episode", None, None),
    (agent, "assess_sufficiency", "agent.assess_sufficiency", None, None),
    (agent, "select_action", "agent.select_action", None, None),
    (agent, "verdict", "agent.verdict", None, None),
    (agent, "force_verdict", "agent.force_verdict", None, None),
    (kg, "init_kg_retrieval", "kg.init_kg_retrieval", None, None),
    (kg, "extract_mentions", "kg.extract_mentions", None, None),
    (kg, "link_entities", "kg.link_entities", None, None),
    (kg, "expand_kg", "kg.expand_kg", None, None),
    (kg, "expand_hop", "kg.expand_hop", None, None),
    (kg, "expand_entity", "kg.expand_entity", None, None),
    (kg, "prune_relations", "kg.prune_relations", None, _prune_attrs),
    (web, "formulate_query", "web.formulate_query", None, None),
    (web, "search", "web.search", None, _search_attrs),
    (web, "rank_passages", "web.rank_passages", None, None),
    (web, "filter_evidence", "web.filter_evidence", None, _filter_attrs),
    (web, "to_triplets", "web.to_triplets", None, None),
    (web, "integrate", "web.integrate", None, None),
    (LlmGateway, "complete_structured", "llm.complete_structured", _template_attrs, None),
    (KnowledgeSubgraph, "evidence_lines", "graph.evidence_lines", None, None),
    (evaluation, "run_benchmark", "evaluation.run_benchmark", None, None),
    (optimize, "optimize", "optimize.optimize", None, None),
    (optimize, "_mean_val_reward", "optimize.validate", None, None),
    (optimize, "reflect", "optimize.reflect", None, None),
    (optimize, "textual_gradient", "optimize.textual_gradient", None, None),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int
    episode: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self):
        return (self.end - self.start) * 1000.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self):
        for stack in (self._stack(), self._main_stack):
            try:
                return stack[-1].id
            except IndexError:  # empty, or emptied by its thread meanwhile
                continue
        return 0

    @contextmanager
    def episode(self, episode_id):
        previous = getattr(self._local, "episode", 0)
        self._local.episode = episode_id
        try:
            yield
        finally:
            self._local.episode = previous

    def _open(self, name, start, attrs):
        return Span(next(self._ids), name, self._parent(),
                    getattr(self._local, "episode", 0), start, attrs=attrs)

    def leaf(self, name, start, end, episode_id, attrs):
        span = self._open(name, start, attrs)
        span.end, span.episode = end, episode_id
        self.spans.append(span)

    def wrap(self, fn, name, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, time.perf_counter(),
                              before(args, kwargs) if before else {})
            stack = self._stack()
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if after:
                    span.attrs.update(after(args, kwargs, result))
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return traced

    @contextmanager
    def install(self):
        saved = []
        for owner, attr, name, before, after in TARGETS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                self.missing.append(name)
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, before, after))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path, origin):
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "episode": s.episode,
                    "start_ms": round((s.start - origin) * 1000.0, 4),
                    "end_ms": round((s.end - origin) * 1000.0, 4), "attrs": s.attrs,
                }, sort_keys=True) + "\n")


def self_times(spans):
    """Span id -> self time in ms: duration minus the union of its children."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start - covered) * 1000.0
    return out
