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

    def test_caller_runs_the_first_item(self):
        caller = threading.current_thread()
        ran_on = fan_out(lambda i: threading.current_thread(), range(3))
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
