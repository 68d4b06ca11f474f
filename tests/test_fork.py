"""map_forked gives the results and the error of a serial run on any number of workers."""

import os
import time

import pytest

from stablebranch._fork import map_forked


PARENT = os.getpid()


def ran_where(item):
    """The item and whether this call ran in the test's own process."""
    return item, os.getpid() == PARENT


class TestMapForked:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_item_order(self, workers):
        # 7 items deal unevenly over 2 and 3 workers; the last share runs here
        items = list(range(7))
        results, error = map_forked(ran_where, items, workers)
        assert error is None
        assert [item for item, _ in results] == items
        here = [item for item, in_parent in results if in_parent]
        assert here == items[workers - 1 :: workers]

    @pytest.mark.parametrize(
        "workers, failing, first",
        [
            (2, {1, 2}, 1),  # item 1 fails here, item 2 in the child
            (2, {2, 3}, 2),  # item 2 fails in the child, item 3 here
            (3, {2, 4}, 2),  # item 2 fails here, item 4 in the second child
            (3, {0, 5}, 0),  # item 0 fails in the first child, item 5 here
        ],
    )
    def test_earlier_error_wins(self, workers, failing, first):
        calls_here = []

        def fn(item):
            if os.getpid() == PARENT:
                calls_here.append(item)
            if item in failing:
                raise ValueError(f"item {item} failed")
            return item

        items = list(range(6))
        results, error = map_forked(fn, items, workers)
        assert results == items[:first]
        assert isinstance(error, ValueError) and str(error) == f"item {first} failed"
        # this process's share stops at its own first error
        own = items[workers - 1 :: workers]
        stop = next((i for i, item in enumerate(own) if item in failing), len(own))
        assert calls_here == own[: stop + 1]

    def test_silent_child_fails_its_first_item(self, monkeypatch):
        pids = []
        fork = os.fork

        def recorded():
            pid = fork()
            pids.append(pid)
            return pid

        def fn(item):
            if os.getpid() != PARENT:
                os._exit(0)  # no result is sent
            return item

        monkeypatch.setattr(os, "fork", recorded)
        results, error = map_forked(fn, [0, 1, 2, 3], 2)
        assert results == []
        assert isinstance(error, ChildProcessError)
        assert str(error) == f"forked worker {pids[0]} sent no result"

    def test_one_worker_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork was called")

        def fn(item):
            if item == 2:
                raise ValueError("item 2 failed")
            return item

        monkeypatch.setattr(os, "fork", no_fork)
        assert map_forked(ran_where, [0, 1], 1) == ([(0, True), (1, True)], None)
        results, error = map_forked(fn, [0, 1, 2, 3], 1)
        assert results == [0, 1] and str(error) == "item 2 failed"

    def test_interrupt_here_kills_children(self):
        def fn(item):
            if os.getpid() != PARENT:
                time.sleep(60)
            raise SystemExit("interrupted")

        started = time.monotonic()
        with pytest.raises(SystemExit):
            map_forked(fn, [0, 1], 2)
        # the sleeping child was killed and reaped, not waited for
        assert time.monotonic() - started < 30
