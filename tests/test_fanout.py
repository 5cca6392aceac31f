import contextvars
import sys
import threading
import time

import pytest

from claimcheck import fanout as fanout_mod
from claimcheck.fanout import fan_out, start

VAR = contextvars.ContextVar("test_fanout_var", default="unset")


def fanout_threads():
    return sum(1 for t in threading.enumerate() if t.name == "claimcheck-fanout")


class TestFanOut:
    def test_results_in_input_order(self):
        delays = [0.03, 0.0, 0.02, 0.01]

        def work(i):
            time.sleep(delays[i])
            return i * 10

        assert fan_out(work, range(4)) == [0, 10, 20, 30]

    def test_empty_and_single_item_run_inline(self):
        caller = threading.current_thread()
        assert fan_out(lambda i: i, []) == []
        assert fan_out(lambda i: threading.current_thread() is caller, [7]) == [True]

    @pytest.mark.parametrize("width", [None, 2])
    def test_caller_runs_the_first_item(self, width):
        caller = threading.current_thread()
        ran_on = fan_out(lambda i: threading.current_thread(), range(3), width)
        assert ran_on[0] is caller

    def test_items_overlap(self):
        # serial execution would break the barrier after its timeout
        barrier = threading.Barrier(4, timeout=5)
        assert fan_out(lambda i: barrier.wait() is not None, range(4)) == [True] * 4

    def test_workers_are_reused(self, monkeypatch):
        # a pool of its own, whose threads no idle exit removes during the test
        monkeypatch.setattr(fanout_mod, "IDLE_EXIT_S", 30.0)
        pool = fanout_mod._Workers()
        monkeypatch.setattr(fanout_mod, "_workers", pool)
        fan_out(lambda i: i, range(4))
        before = pool._threads
        for _ in range(20):
            fan_out(lambda i: i, range(4))
        assert pool._threads == before

    def test_workers_that_exit_idle_are_replaced(self, monkeypatch):
        # workers that exit after 1 ms idle race the next round's submit;
        # every round's four items must still run at once, or its barrier
        # times out
        monkeypatch.setattr(fanout_mod, "IDLE_EXIT_S", 0.001)
        pool = fanout_mod._Workers()
        monkeypatch.setattr(fanout_mod, "_workers", pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(100):
                barrier = threading.Barrier(4, timeout=5)
                assert fan_out(lambda i: barrier.wait() is not None, range(4)) == [True] * 4
                time.sleep(0.0005 * (round_ % 5))
        finally:
            sys.setswitchinterval(interval)
        deadline = time.monotonic() + 5
        while pool._threads and time.monotonic() < deadline:
            time.sleep(0.001)
        assert pool._threads == pool._pending == 0

    def test_first_error_in_input_order_after_every_item(self):
        finished = []

        def work(i):
            if i == 1:
                time.sleep(0.03)
                finished.append(i)
                raise KeyError("item 1")
            if i == 3:
                finished.append(i)
                raise ValueError("item 3")  # raises first in time
            time.sleep(0.01)
            finished.append(i)
            return i

        with pytest.raises(KeyError, match="item 1"):
            fan_out(work, range(4))
        assert sorted(finished) == [0, 1, 2, 3]

    def test_concurrent_callers(self):
        results = {}

        def caller(c):
            results[c] = [fan_out(lambda i: (c, i), range(4)) for _ in range(50)]

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        for c in range(6):
            assert results[c] == [[(c, i) for i in range(4)]] * 50


class TestRunMany:
    """``fan_out`` with a width: many items, at most ``width`` at once."""

    def test_results_in_input_order(self):
        delays = [0.03, 0.0, 0.02, 0.01, 0.0, 0.02, 0.01]

        def work(i):
            time.sleep(delays[i])
            return i * 10

        assert fan_out(work, range(7), 3) == [i * 10 for i in range(7)]

    def test_at_most_width_items_in_flight(self):
        # the barrier holds each wave until `width` items run together, so
        # serial execution would time out and a wider one would be counted
        width, lock = 3, threading.Lock()
        barrier = threading.Barrier(width, timeout=5)
        running, peak = [0], [0]

        def work(i):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            barrier.wait()
            time.sleep(0.005)
            with lock:
                running[0] -= 1
            return i

        assert fan_out(work, range(4 * width), width) == list(range(4 * width))
        assert peak[0] == width

    @pytest.mark.parametrize("items, width", [([7], 4), ([1, 2, 3], 1)])
    def test_width_1_and_single_item_run_inline(self, items, width):
        caller = threading.current_thread()
        ran_on = fan_out(lambda i: threading.current_thread(), items, width)
        assert all(thread is caller for thread in ran_on)
        assert fan_out(lambda i: i, [], width) == []

    def test_width_above_item_count(self):
        barrier = threading.Barrier(3, timeout=5)
        assert fan_out(lambda i: barrier.wait() is not None, range(3), 8) == [True] * 3

    def test_first_error_in_input_order_after_every_item(self):
        finished = []

        def work(i):
            if i == 1:
                time.sleep(0.03)
                finished.append(i)
                raise KeyError("item 1")
            if i == 4:
                finished.append(i)
                raise ValueError("item 4")  # raises first in time
            time.sleep(0.01)
            finished.append(i)
            return i

        with pytest.raises(KeyError, match="item 1"):
            fan_out(work, range(6), 2)
        assert sorted(finished) == list(range(6))

    def test_width_1_runs_every_item_before_raising(self):
        finished = []

        def work(i):
            finished.append(i)
            if i in (1, 2):
                raise KeyError(f"item {i}")
            return i

        with pytest.raises(KeyError, match="item 1"):
            fan_out(work, range(4), 1)
        assert finished == [0, 1, 2, 3]

    def test_items_that_fan_out_do_not_deadlock(self):
        # each item's own items must all run at once while the lanes hold
        # their threads, or the barrier times out
        def work(i):
            barrier = threading.Barrier(3, timeout=5)
            return fan_out(lambda j: barrier.wait() is not None, range(3))

        assert fan_out(work, range(6), 3) == [[True] * 3] * 6

    def test_every_item_runs_once_under_contention(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts = [0] * 2000
            lock = threading.Lock()

            def work(i):
                with lock:
                    counts[i] += 1
                return i

            assert fan_out(work, range(2000), 8) == list(range(2000))
        finally:
            sys.setswitchinterval(interval)
        assert counts == [1] * 2000


class TestContext:
    """Every item runs in a copy of its caller's context."""

    @pytest.mark.parametrize("n, width", [(1, None), (3, 1)])
    def test_inline_items_see_the_callers_variables(self, n, width):
        token = VAR.set("caller")
        try:
            assert fan_out(lambda i: VAR.get(), range(n), width) == ["caller"] * n
        finally:
            VAR.reset(token)

    @pytest.mark.parametrize("n, width", [(4, None), (6, 2)])
    def test_items_on_worker_lanes_see_the_callers_variables(self, n, width):
        caller = threading.current_thread()
        # each wave of items waits for every lane, so all lanes take part
        barrier = threading.Barrier(min(n, width or n), timeout=5)

        def work(i):
            barrier.wait()
            return VAR.get(), threading.current_thread() is caller

        token = VAR.set("caller")
        try:
            seen = fan_out(work, range(n), width)
        finally:
            VAR.reset(token)
        assert [value for value, _ in seen] == ["caller"] * n
        assert not all(on_caller for _, on_caller in seen)

    def test_nested_items_on_worker_lanes_see_the_outer_callers_variables(self):
        barrier = threading.Barrier(3, timeout=5)

        def outer(i):
            barrier.wait()  # all three outer items run at once, two on workers
            return fan_out(lambda j: VAR.get(), range(3))

        token = VAR.set("outer")
        try:
            assert fan_out(outer, range(3)) == [["outer"] * 3] * 3
        finally:
            VAR.reset(token)

    @pytest.mark.parametrize("width", [None, 1, 2])
    def test_an_items_own_set_stays_its_own(self, width):
        def work(i):
            before = VAR.get()
            VAR.set(f"item {i}")
            time.sleep(0.002)
            return before, VAR.get()

        token = VAR.set("caller")
        try:
            seen = fan_out(work, range(6), width)
            assert VAR.get() == "caller"
        finally:
            VAR.reset(token)
        assert seen == [("caller", f"item {i}") for i in range(6)]

    def test_a_mutable_value_is_shared(self):
        # the copies share the value object itself, so an item's writes to
        # it reach the caller: the reply memo of an optimize run works so
        barrier = threading.Barrier(4, timeout=5)

        def work(i):
            barrier.wait()
            VAR.get()[i] = threading.current_thread().name

        token = VAR.set({})
        try:
            fan_out(work, range(4))
            assert sorted(VAR.get()) == [0, 1, 2, 3]
        finally:
            VAR.reset(token)


def pending_settles():
    """Whether the workers' count of unfinished tasks returns to 0; a worker
    that ran a started item lowers it just after the item ends."""
    deadline = time.monotonic() + 5
    while fanout_mod._workers._pending and time.monotonic() < deadline:
        time.sleep(0.001)
    return fanout_mod._workers._pending == 0


def busy_workers(monkeypatch):
    """Workers that count one thread and start none, in place of the pool: a
    pool whose every thread is busy, so a queued item waits for a taker."""
    busy = fanout_mod._Workers()
    busy._threads = 1
    monkeypatch.setattr(fanout_mod, "_workers", busy)
    return busy


class TestStart:
    """``start`` queues one item; its handle's ``result()`` returns or raises
    what the item did, once it has run."""

    def test_runs_inline_when_no_worker_has_taken_it(self, monkeypatch):
        busy = busy_workers(monkeypatch)
        caller = threading.current_thread()
        handle = start(lambda a, b: (a + b, threading.current_thread() is caller), 2, 3)
        assert handle.result() == (5, True)
        assert busy._pending == 0
        assert handle.result() == (5, True)  # run once, read again

    def test_waits_for_a_worker_running_it(self):
        caller = threading.current_thread()
        taken, release, order = threading.Event(), threading.Event(), []

        def work():
            taken.set()
            release.wait(5)
            order.append("item")
            return threading.current_thread() is caller

        handle = start(work)
        assert taken.wait(5)  # a worker holds the item now

        def let_go():
            time.sleep(0.02)
            order.append("release")
            release.set()

        releaser = threading.Thread(target=let_go)
        releaser.start()
        assert handle.result() is False
        releaser.join(timeout=5)
        assert not releaser.is_alive()
        assert order == ["release", "item"]
        assert pending_settles()

    @pytest.mark.parametrize("taken", [False, True])
    def test_result_raises_the_items_error(self, taken, monkeypatch):
        if not taken:
            busy_workers(monkeypatch)
        ran = threading.Event()

        def work():
            ran.set()
            raise KeyError("started item")

        handle = start(work)
        if taken:
            assert ran.wait(5)
        for _ in range(2):
            with pytest.raises(KeyError, match="started item"):
                handle.result()
        assert pending_settles()

    @pytest.mark.parametrize("taken", [False, True])
    def test_item_sees_the_callers_variables_and_keeps_its_own(self, taken, monkeypatch):
        if not taken:
            busy_workers(monkeypatch)
        ran = threading.Event()

        def work():
            before = VAR.get()
            VAR.set("item")
            ran.set()
            return before, VAR.get()

        token = VAR.set("caller")
        try:
            handle = start(work)
            VAR.set("caller, later")  # set after the start: the item's copy is older
            if taken:
                assert ran.wait(5)
            assert handle.result() == ("caller", "item")
            assert VAR.get() == "caller, later"
        finally:
            VAR.reset(token)

    def test_no_worker_is_left_over(self):
        start(lambda: None).result()
        assert pending_settles()
        before = fanout_threads()
        for _ in range(50):
            handles = [start(time.sleep, 0.001) for _ in range(3)]
            for handle in handles:
                handle.result()
            assert pending_settles()
        # three items at a time need at most three threads, and the pool reuses them
        assert fanout_threads() <= max(before, 3)

    def test_every_started_item_runs_once_under_contention(self):
        # the caller and a worker race for each item; batches keep the
        # number of worker threads small
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts = [0] * 800
            lock = threading.Lock()

            def work(i):
                with lock:
                    counts[i] += 1
                return i

            for first in range(0, 800, 8):
                handles = [start(work, i) for i in range(first, first + 8)]
                assert [handle.result() for handle in handles] == list(range(first, first + 8))
        finally:
            sys.setswitchinterval(interval)
        assert counts == [1] * 800
        assert pending_settles()

    def test_started_items_and_lanes_share_the_workers(self):
        # every item starts one more that waits for all of them: a started
        # item that queued behind a lane would time the barrier out
        barrier = threading.Barrier(8, timeout=5)

        def work(i):
            return start(barrier.wait)

        handles = fan_out(work, range(4), 2) + [start(barrier.wait) for _ in range(4)]
        assert sorted(handle.result() for handle in handles) == list(range(8))
        assert pending_settles()
