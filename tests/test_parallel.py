"""The process fan-out shared by the CSV reader and writer and the sweep."""

import collections
import gc
import multiprocessing
import operator
import os
import sys
import threading
import time
import tracemalloc
import weakref

import pytest

import ctiv.parallel
from ctiv.parallel import fan_out, fork_is_safe, fork_workers, usable_cpus

needs_fork = pytest.mark.skipif(not fork_is_safe(), reason="cannot fork here")


@needs_fork
def test_fan_out_runs_a_closure_in_forked_workers_in_task_order():
    table = list(range(100_000))    # reaches the workers by the fork
    with fan_out(lambda i: (table[i], os.getpid()), [5, 1, 3, 2], 2) as results:
        results = list(results)
    assert [value for value, _ in results] == [5, 1, 3, 2]
    assert os.getpid() not in {pid for _, pid in results}


@needs_fork
def test_fan_out_raises_a_task_error_at_its_result():
    def task(i):
        if i == 2:
            raise ValueError("task 2 failed")
        return i

    with fan_out(task, [1, 2, 3], 2) as results:
        assert next(results) == 1
        with pytest.raises(ValueError, match="task 2 failed"):
            next(results)


@needs_fork
def test_fan_out_sends_a_lone_task_to_a_worker(tmp_path):
    # fit_ctiv grows its pooled tree while a worker grows the holdout tree,
    # which so starts on entering the block, before its result is read
    started = tmp_path / "started"
    with fan_out(lambda _: started.touch() or os.getpid(), [0], 2) as pids:
        deadline = time.monotonic() + 60
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert started.exists()
        assert os.getpid() not in set(pids)


@needs_fork
def test_a_fan_out_inside_a_worker_runs_its_tasks_in_that_worker():
    # a sweep cell's fit, say, forks no grandchildren
    def cell(_):
        with fan_out(lambda _: os.getpid(), [0, 1], 2) as inner:
            return os.getpid(), list(inner)

    with fan_out(cell, [0], 2) as results:
        [(worker, inner)] = list(results)
    assert worker != os.getpid() and inner == [worker, worker]


class Result:
    """A task result that pickles and can be weakly referenced."""

    def __init__(self, task):
        self.task = task


@needs_fork
def test_fan_out_drops_each_result_once_read():
    # the CSV writer holds only the pieces it has not written yet
    with fan_out(Result, [0, 1, 2], 2) as results:
        first = weakref.ref(next(results))
        gc.collect()
        assert first() is None
        assert [result.task for result in results] == [1, 2]


def traced_peak(tasks, workers):
    """The most memory Python allocated in this process while ``fan_out``
    ran ``operator.neg`` over ``tasks``."""
    tracemalloc.start()
    try:
        with fan_out(operator.neg, tasks, workers) as results:
            collections.deque(results, maxlen=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@needs_fork
def test_fan_out_holds_a_window_of_tasks_not_all_of_them():
    # a submitted task holds about 2 KiB of future and queue entry, so
    # submitting them all peaks ten times higher at 10,000 tasks than at
    # 1,000 (traced, a task takes about 0.3 ms: hence no more)
    traced_peak(range(10), 2)           # the pool's one-time allocations
    few = traced_peak(range(1_000), 2)
    assert traced_peak(range(10_000), 2) < few + 64 * 1024
    drawn = []

    def tasks():
        for i in range(100):
            drawn.append(i)
            yield i

    with fan_out(operator.neg, tasks(), 2) as results:
        assert len(drawn) == 9          # the first task and 4 per worker
        assert [next(results), next(results)] == [0, -1]
        assert len(drawn) == 10         # one more per result handed out
        assert list(results) == [-i for i in range(2, 100)]


def test_one_worker_runs_each_task_in_process_when_its_result_is_read():
    seen = []
    with fan_out(lambda i: seen.append(i) or os.getpid(), [0, 1], 1) as pids:
        assert seen == []
        assert set(pids) == {os.getpid()}
    assert seen == [0, 1]


def started_pools(monkeypatch):
    """The start method of each pool ``fan_out`` starts, and its size."""
    started = []
    real = ctiv.parallel.ProcessPoolExecutor
    monkeypatch.setattr(ctiv.parallel, "ProcessPoolExecutor", lambda n, **kw: (
        started.append((kw["mp_context"].get_start_method(), n)) or real(n, **kw)))
    return started


def test_fan_out_spawns_while_another_thread_lives(monkeypatch):
    started = started_pools(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert not fork_is_safe()
        with fan_out(operator.neg, [1, 2, 3], 2) as results:
            assert list(results) == [-1, -2, -3]
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
    assert started == [("spawn", 2)]


@pytest.mark.parametrize("platform, methods", [
    ("win32", ["spawn"]),
    ("darwin", ["fork", "spawn", "forkserver"]),
])
def test_fork_is_unsafe_where_the_platform_does_not_fork(monkeypatch, platform, methods):
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    assert not fork_is_safe()


def test_usable_cpus_reads_the_affinity_set(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


@pytest.mark.parametrize("safe, wanted, workers", [
    (True, 0, 1), (True, 2, 2), (True, 5, 3), (False, 5, 1)])
def test_fork_workers_asks_for_forks_only_where_they_are_safe(
        monkeypatch, safe, wanted, workers):
    monkeypatch.setattr(ctiv.parallel, "fork_is_safe", lambda: safe)
    monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: 3)
    assert fork_workers(wanted) == workers
