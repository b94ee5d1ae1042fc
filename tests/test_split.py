"""`split.forked_map` on toy work items: slicing, worker errors and deaths, and an early close.

The work functions do no BLAS work, so the forced splits need no one-thread BLAS.
"""

import os
import signal
import time

import pytest

from spjscc import split


def _pid_and_part(part):
    return os.getpid(), list(part)


class Unpicklable(Exception):
    """An exception whose lambda attribute makes it fail to pickle."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


def _raise_unpicklable_in_a_worker(caller, part):
    if os.getpid() != caller:
        raise Unpicklable(f"items {list(part)}")
    return list(part)


def _kill_a_worker(caller, part):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return list(part)


def _sleep_in_a_worker(caller, part):
    if os.getpid() != caller:
        time.sleep(30)
    return list(part)


def _force_processes(monkeypatch, processes):
    monkeypatch.setattr(split, "_worker_count", lambda items: max(1, min(processes, items)))


@pytest.mark.parametrize("make", [lambda n: list(range(n)), range], ids=["list", "range"])
@pytest.mark.parametrize("processes", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 5, 9])
def test_items_are_cut_into_ordered_slices_the_later_ones_one_item_longer(
    monkeypatch, no_child_left, make, processes, count
):
    """5 items on 3 processes run 1 | 2 | 2 and 9 on 2 run 4 | 5; never more processes than items, and at least one."""
    _force_processes(monkeypatch, processes)
    results = list(split.forked_map(_pid_and_part, make(count)))
    no_child_left()
    pids, parts = zip(*results)
    k = max(1, min(processes, count))
    assert [len(part) for part in parts] == [count // k + (i >= k - count % k) for i in range(k)]
    assert [item for part in parts for item in part] == list(range(count))
    assert pids[0] == os.getpid() and len(set(pids)) == k


def test_an_exception_that_does_not_pickle_comes_back_as_a_runtime_error_naming_it(monkeypatch, no_child_left):
    _force_processes(monkeypatch, 2)
    message = r"^test_split\._raise_unpicklable_in_a_worker worker raised Unpicklable: items \[2, 3\]$"
    with pytest.raises(RuntimeError, match=message) as raised:
        list(split.forked_map(_raise_unpicklable_in_a_worker, [0, 1, 2, 3], os.getpid()))
    no_child_left()
    assert isinstance(raised.value.__cause__, split.WorkerTraceback)
    assert "Unpicklable: items [2, 3]" in str(raised.value.__cause__)


def test_a_worker_killed_by_a_signal_is_named_with_it(monkeypatch, no_child_left):
    _force_processes(monkeypatch, 3)
    message = r"^test_split\._kill_a_worker worker [0-9]+ was killed by signal 9 without a result$"
    with pytest.raises(RuntimeError, match=message):
        list(split.forked_map(_kill_a_worker, range(6), os.getpid()))
    no_child_left()


def test_closing_after_the_first_result_kills_and_reaps_the_other_workers(monkeypatch, no_child_left):
    _force_processes(monkeypatch, 3)
    started = time.monotonic()
    parts = split.forked_map(_sleep_in_a_worker, range(6), os.getpid())
    assert next(parts) == [0, 1]
    parts.close()
    no_child_left()
    assert time.monotonic() - started < 10, "close waited for the workers' 30 s sleeps"
