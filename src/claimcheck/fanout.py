"""Run one function over independent items concurrently.

``fan_out`` runs every item at once. It is used in the KG layer for the
per-entity expand-and-prune work of a hop (``kg.expand_hop``), the
outgoing and incoming fetches of one expansion
(``kg.expand_entity``) and the per-mention entity searches
(``kg.link_entities``); in the web step for the passage batches of
``web.filter_evidence`` and the per-passage extract-and-link items of
``web.to_triplets``. Their items spend their time waiting on SPARQL and LLM
round trips, not on Python computation.
The caller runs the first item itself; the others go to worker threads that
start on first use and stay for the life of the process, because starting
threads for every call would cost more CPU than the call's own Python work.
When the caller is done with its item it also runs any item no worker has
started yet, which saves thread hand-offs when the items finish quickly.

``run_many`` runs at most ``width`` items at once, for item lists too long
to start together: the episodes of ``evaluation.run_benchmark`` and the
training and validation episodes of an ``optimize.optimize`` epoch. It runs
``width`` lanes through ``fan_out``, each taking the next unstarted item.
"""

from __future__ import annotations

import itertools
import queue
import threading


class _Task:
    __slots__ = ("fn", "item", "lock", "finished", "result", "error")

    def __init__(self, fn, item):
        self.fn = fn
        self.item = item
        self.lock = threading.Lock()
        self.finished = False
        self.result = None
        self.error = None

    def run_once(self):
        """Run the task unless it has run; a call that finds it running waits
        for it. Returns whether this call ran it."""
        with self.lock:
            if self.finished:
                return False
            try:
                self.result = self.fn(self.item)
            except BaseException as exc:  # re-raised by fan_out in the caller
                self.error = exc
            self.finished = True
            return True


class _Workers:
    """Daemon threads taking tasks off one queue. There are always at least
    as many threads as unfinished tasks, so a queued task never waits behind
    another caller's task."""

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
        if task.run_once():
            with self._lock:
                self._pending -= 1

    def _work(self):
        while True:
            self.run(self._tasks.get())


_workers = _Workers()


def fan_out(fn, items):
    """``[fn(item) for item in items]``, with the items run concurrently.

    The caller runs the first item, then any item no worker has taken yet.
    Waits for every item, then raises the exception of the first item in
    input order that raised one. A list of one item runs inline."""
    items = list(items)
    if len(items) <= 1:
        return [fn(item) for item in items]
    tasks = [_Task(fn, item) for item in items]
    _workers.submit(tasks[1:])
    tasks[0].run_once()
    for task in tasks[1:]:
        _workers.run(task)
    for task in tasks:
        if task.error is not None:
            raise task.error
    return [task.result for task in tasks]


def run_many(fn, items, width):
    """``[fn(item) for item in items]``, with at most ``width`` items running
    at once.

    ``width`` lanes run on ``fan_out``'s workers, the caller's thread being
    one of them; each lane takes the next item not yet taken. Waits for every
    item, then raises the exception of the first item in input order that
    raised one. A width of 1 or a list of one item runs inline."""
    items = list(items)
    if width <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = {}
    take = itertools.count().__next__  # one C call, so each index goes to one lane

    def lane(_):
        while (i := take()) < len(items):
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised below, in input order
                errors[i] = exc

    fan_out(lane, range(min(width, len(items))))
    if errors:
        raise errors[min(errors)]
    return results
