"""No report depends on the order in which concurrent items finish.

``Shuffled`` stands in for ``fanout.fan_out``, ``fanout.start`` and
``fanout.wait`` in every module that uses them. It runs everything on the
calling thread: the items of each ``fan_out`` one at a time in an order drawn
from a seeded generator, and each started item at a random later point, at
the latest when it is waited for or its ``result()`` is asked for. Each item
runs in its own copy of its caller's context, results come back in input
order, and after every item has run the first error in input order is
raised, as ``fan_out`` does.

The three acceptance reports, the fault-injection trajectories and the set
of prompts sent must then equal those of the natural, threaded run. This explores schedules at the
grain of ``fan_out`` items, as CHESS (Musuvathi et al., OSDI 2008) does at
the grain of thread switches; a data race inside one item stays for the
thread tests in ``test_fanout.py``.

More seeds, in one process:
``PYTHONPATH=src:tests python -c 'import test_completion_order as t; t.check(range(2, 8))'``
"""

import contextlib
import contextvars
import hashlib
import random

import pytest

from claimcheck import evaluation, kg, optimize, web
from claimcheck.llm import ScriptedBackend

import test_acceptance
import test_agent

# every module that imports fan_out, start or wait, with the names it imports
PATCHED = ((kg, "fan_out"), (kg, "start"), (kg, "wait"), (web, "fan_out"),
           (evaluation, "fan_out"), (optimize, "fan_out"), (optimize, "start"),
           (optimize, "wait"))


class Later:
    """A started item that ``Shuffled`` runs when it chooses."""

    def __init__(self, owner, fn, args):
        self.owner, self.fn, self.args = owner, fn, args
        self.context = contextvars.copy_context()
        self.ran, self.value, self.error = False, None, None

    def run(self):
        self.ran = True
        try:
            self.value = self.context.run(self.fn, *self.args)
        except BaseException as exc:  # raised by result()
            self.error = exc

    def result(self):
        self.owner.wait((self,))
        if self.error is not None:
            raise self.error
        return self.value


class Shuffled:
    """Serial ``fan_out``, ``start`` and ``wait`` in a seeded order. Counts
    the lists run out of input order and the started items run before they
    were waited for."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.waiting = []  # started items not run yet
        self.reordered = self.ran_early = 0

    def fan_out(self, fn, items, width=None):
        items = list(items)
        context = contextvars.copy_context()
        order = list(range(len(items)))
        self.rng.shuffle(order)
        self.reordered += order != sorted(order)
        results, errors = [None] * len(items), {}
        for i in order:
            self.run_some_started()
            try:
                results[i] = context.copy().run(fn, items[i])
            except BaseException as exc:  # raised below, in input order
                errors[i] = exc
        if errors:
            raise errors[min(errors)]
        return results

    def start(self, fn, *args):
        item = Later(self, fn, args)
        self.waiting.append(item)
        return item

    def wait(self, items):
        for item in items:
            if not item.ran:
                self.waiting.remove(item)
                item.run()

    def run_some_started(self):
        while self.waiting and self.rng.random() < 0.5:
            self.waiting.pop(self.rng.randrange(len(self.waiting))).run()
            self.ran_early += 1


@contextlib.contextmanager
def shuffled(seed):
    stand_in = Shuffled(seed)
    saved = [getattr(module, name) for module, name in PATCHED]
    for module, name in PATCHED:
        setattr(module, name, getattr(stand_in, name))
    try:
        yield stand_in
    finally:
        for (module, name), value in zip(PATCHED, saved):
            setattr(module, name, value)


def digests():
    """The first 8 hex digits of each report's SHA-256, and of the distinct
    prompts the runs sent: a report can be blind to an order (the oracle's
    meta reply does not read the order of the critiques), a prompt is not."""
    sent = set()
    generate = ScriptedBackend.generate

    def recorded(backend, text, temperature, max_tokens):
        sent.add(text)
        return generate(backend, text, temperature, max_tokens)

    ScriptedBackend.generate = recorded
    try:
        reports = {
            "oracle": test_acceptance.oracle_suite_report_json(),
            "taxonomy": test_acceptance.taxonomy_report_json(),
            "optimization": test_acceptance.optimization_report_json(),
            "faults": test_agent.fault_trajectories_json(),
        }
    finally:
        ScriptedBackend.generate = generate
    reports["prompts"] = "\n".join(sorted(sent))
    return {name: hashlib.sha256(text.encode()).hexdigest()[:8] for name, text in reports.items()}


def check(seeds):
    """Raises AssertionError at the first seed whose reports differ from the
    natural run's."""
    natural = digests()
    for seed in seeds:
        with shuffled(seed) as stand_in:
            got = digests()
        assert got == natural, (seed, got, natural)
        assert stand_in.reordered and stand_in.ran_early, seed
        print(f"seed {seed}: {got}")


@pytest.fixture(scope="module")
def natural():
    return digests()


@pytest.mark.parametrize("seed", [0, 1])
def test_reports_do_not_depend_on_completion_order(natural, seed):
    with shuffled(seed) as stand_in:
        got = digests()
    assert got == natural
    # the stand-in did reorder lists, and ran critique calls before their results were read
    assert stand_in.reordered and stand_in.ran_early
    assert not stand_in.waiting
