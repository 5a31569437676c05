"""Fan tasks out to forked worker processes, one per usable CPU.

A forked worker starts with a copy of the caller's memory, so the task
function reaches it without being pickled: a closure over large arrays
costs nothing to send. Only the tasks and their results cross the pipe.
A process forks only where ``fork`` is the platform's own safe choice
and no other Python thread is alive, since a thread holding a lock at
the fork would leave that lock held forever in the child. (A BLAS
library's own thread pool is not counted: OpenBLAS, for one, resets it
around a fork.) Elsewhere, and inside a worker, every task runs in this
process. ``fork_workers`` states that rule and ``fan_out`` applies it,
so a caller passes ``fan_out`` only how many workers its work could use.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from functools import partial
from itertools import islice


def usable_cpus() -> int:
    """CPUs this process may run on; all of them where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_is_safe() -> bool:
    """Whether this process may fork now: the platform offers ``fork``, it
    is not macOS (where system frameworks crash in a forked child, so
    CPython does not fork there by default), and this is the only live
    Python thread."""
    return (sys.platform != "darwin"
            and "fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1)


# the function a worker's tasks run; set only in workers, where it so
# marks a process that must not fork again
_task_fn = None


def fork_workers(wanted: int) -> int:
    """Forked workers for work that could use ``wanted``: ``wanted`` clipped
    to [1, usable CPUs] where forking is safe outside a worker, else 1."""
    if not fork_is_safe() or _task_fn is not None:
        return 1
    return max(1, min(usable_cpus(), wanted))


def _adopt(fn: Callable) -> None:
    global _task_fn
    _task_fn = fn


def _run_task(task):
    return _task_fn(task)


def _result(fn: Callable, task, future):
    """The task's result from its worker, or ``fn(task)`` run here when a
    worker died (killed from outside, say) before the task was done."""
    try:
        return future.result()
    except BrokenProcessPool:
        return fn(task)


# tasks submitted per worker ahead of the result being handed out: enough
# to keep every worker busy, and memory does not grow with the task count
_AHEAD = 4


@contextmanager
def fan_out(fn: Callable, tasks: Iterable, workers: int) -> Iterator[Iterator]:
    """Yield an iterator over ``fn(task)`` for each task, in task order.

    Where ``fork_workers(workers)`` is more than 1, that many forked
    processes (no more than there are tasks) take the next task as they
    finish one. Entering the block submits the first task and ``_AHEAD``
    more per worker, so a lone task still goes to a worker while the
    caller does other work; each result handed out draws one more task.
    Leaving the block cancels the tasks no worker has started and waits
    for the rest. A task's exception is raised when the iterator reaches
    its result, and results are not kept here once handed out. A worker
    that dies breaks the pool: every task not finished by then runs in
    this process when the iterator reaches it, as every task does where
    ``fork_workers(workers)`` is 1 (which a worker's ``fan_out`` gets).
    """
    tasks = iter(tasks)
    workers = fork_workers(workers)
    window = list(islice(tasks, _AHEAD * workers + 1)) if workers > 1 else []
    if not window:
        yield map(fn, tasks)
        return
    with ProcessPoolExecutor(min(workers, len(window)),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(fn,)) as pool:
        def submit(task):
            """A call that returns the task's result."""
            try:
                return partial(_result, fn, task, pool.submit(_run_task, task))
            except BrokenProcessPool:           # a worker died already
                return partial(fn, task)

        pending = deque(map(submit, window))

        def results():
            while pending:                  # a call leaves as its result is handed out
                yield pending.popleft()()
                pending.extend(map(submit, islice(tasks, 1)))

        try:
            yield results()
        finally:
            pool.shutdown(cancel_futures=True)
