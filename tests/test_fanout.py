import sys
import threading
import time

import pytest

from claimcheck.fanout import fan_out


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

    def test_workers_are_reused(self):
        fan_out(lambda i: i, range(4))
        before = fanout_threads()
        for _ in range(20):
            fan_out(lambda i: i, range(4))
        assert fanout_threads() == before

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
