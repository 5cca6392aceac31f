"""Run work on reused worker threads, and end it before its caller goes on.

Every piece of work is a task queued through one submit path, and
``wait(tasks)`` is the one join: it returns once every task has run, running
here, in order, each one no worker has taken yet, and raises nothing, since
each task keeps its value or error. ``start(fn, *args)`` queues one task and
returns it; its ``result()`` waits for it and returns or raises what it did.
It starts every graph relation read (``kg.GraphReads``), and in ``optimize``
each training episode's critique call and the initial policy's validation.

``fan_out(fn, items, width)`` runs the items on ``width`` lanes, every item
at once when ``width`` is None. With no width it runs a hop's per-entity
expand-and-prune work (``kg.expand_hop``), the per-mention entity searches
(``kg.link_entities``), and the web step's extractions and its linking
round's entity searches (``web.to_triplets``): items that wait on SPARQL and
LLM round trips, not on Python computation. With a width it runs the
episodes of ``evaluation.run_benchmark`` and of an ``optimize.optimize``
epoch, lists too long to start at once.

A lane is a task that runs one item after another, each time taking the next
item no lane has taken. The caller is one lane and takes the first item once
the others are queued in one submit; when it runs out of items it waits for
them, running any no worker has started yet, which saves thread hand-offs
when the items finish quickly. Workers are reused, because starting threads
for every call would cost more CPU than the call's own Python work; one idle
for ``IDLE_EXIT_S`` exits while more threads than unfinished tasks are left.

A started item is a task on the same workers, so a lane never waits behind
it. Every item, started ones too, runs in its own copy of the caller's
context (``contextvars``), on whichever thread it lands. So an item sees the
context variables its caller had set, such as ``llm.reply_memo``'s memo of an
optimize run's prompts, graph lookups and web searches, also in nested calls
on worker lanes; what an item sets itself stays its own, hidden from the
caller and from the other items.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import queue
import threading

# Seconds a worker waits for a task before it may exit.
IDLE_EXIT_S = 1.0


class _Task:
    __slots__ = ("fn", "lock", "finished", "value", "error")

    def __init__(self, fn):
        self.fn = fn
        self.lock = threading.Lock()
        self.finished = False
        self.value = self.error = None

    def result(self):
        """The task's value, or its error raised, once it has run: here, if no
        worker has taken it yet."""
        wait((self,))
        if self.error is not None:
            raise self.error
        return self.value


class _Workers:
    """Daemon threads taking tasks off one queue. There are always at least
    as many threads as unfinished tasks, so a queued task never waits behind
    another caller's task; an idle thread exits only while there are more."""

    def __init__(self):
        self._tasks = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._threads = 0
        self._pending = 0

    def submit(self, tasks):
        with self._lock:
            self._pending += len(tasks)
            missing = self._pending - self._threads
            self._threads += max(0, missing)
        for _ in range(missing):
            threading.Thread(target=self._work, name="claimcheck-fanout", daemon=True).start()
        for task in tasks:
            self._tasks.put(task)

    def run(self, task):
        """Runs ``task`` unless it has run, keeping its value or error; a call
        that finds it running waits for it."""
        with task.lock:
            if task.finished:
                return
            try:
                task.value = task.fn()
            except BaseException as exc:  # re-raised by result()
                task.error = exc
            task.finished = True
        with self._lock:
            self._pending -= 1

    def _work(self):
        while True:
            try:
                self.run(self._tasks.get(timeout=IDLE_EXIT_S))
            except queue.Empty:  # run() raises nothing
                with self._lock:
                    if self._threads > self._pending:
                        self._threads -= 1
                        return


_workers = _Workers()


def fan_out(fn, items, width=None):
    """``[fn(item) for item in items]``, with at most ``width`` items running
    at once, every item when ``width`` is None.

    Waits for every item, then raises the exception of the first item in
    input order that raised one. A width of 1 or a list of one item runs
    inline. Each item runs in its own copy of the caller's context."""
    items = list(items)
    n = len(items)
    context = contextvars.copy_context()
    results = [None] * n
    errors = {}
    # the caller's lane starts at item 0 and every other lane at the next
    # index; __next__ is one C call, so each index goes to one lane
    take = itertools.count(1).__next__

    def lane(i):
        while i < n:
            try:
                results[i] = context.copy().run(fn, items[i])
            except BaseException as exc:  # re-raised below, in input order
                errors[i] = exc
            i = take()

    width = n if width is None else min(width, n)
    lanes = [_Task(lambda: lane(take())) for _ in range(width - 1)]
    _workers.submit(lanes)
    lane(0)
    wait(lanes)
    if errors:
        raise errors[min(errors)]
    return results


def start(fn, *args):
    """``fn(*args)`` queued to the workers, in a copy of the caller's context.
    Returns its task, whose ``result()`` returns or raises what it did."""
    task = _Task(functools.partial(contextvars.copy_context().run, fn, *args))
    _workers.submit([task])
    return task


def wait(tasks):
    """Returns once every one of ``tasks`` has run, running here, in order,
    each one no worker has taken yet. Raises nothing."""
    for task in tasks:
        _workers.run(task)
