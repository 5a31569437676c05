"""Fan tasks out to worker processes, one per usable CPU.

A forked worker starts with a copy of the caller's memory, so the task
function reaches it without being pickled: a closure over large arrays
costs nothing to send. Only the tasks and their results cross the pipe.
A process forks only where ``fork`` is the platform's own safe choice
and no other Python thread is alive, since a thread holding a lock at
the fork would leave that lock held forever in the child. (A BLAS
library's own thread pool is not counted: OpenBLAS, for one, resets it
around a fork.) Elsewhere the workers are spawned, and the task function
and tasks must pickle; callers whose function is costly to pickle ask
``fork_workers`` how many workers to use, which is one where forking is
unsafe, and so stay in one process there.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from functools import partial


def usable_cpus() -> int:
    """CPUs this process may run on; all of them where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_is_safe() -> bool:
    """Whether this process may fork now: the platform offers ``fork``, it
    is not macOS (where system frameworks crash in a forked child, so
    CPython spawns there by default), and this is the only live Python
    thread."""
    return (sys.platform != "darwin"
            and "fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1)


def fork_workers(wanted: int) -> int:
    """Workers for a task function that must not be pickled: ``wanted``
    clipped to [1, usable CPUs] where forking is safe, else 1."""
    if not fork_is_safe():
        return 1
    return max(1, min(usable_cpus(), wanted))


# the function a worker's tasks run; set only in workers, which inherit
# it at a fork or unpickle it once at a spawn
_task_fn = None


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


@contextmanager
def fan_out(fn: Callable, tasks: Sequence, workers: int) -> Iterator[Iterator]:
    """Yield an iterator over ``fn(task)`` for each task, in task order.

    With ``workers`` > 1, every task is queued at once to
    ``min(workers, len(tasks))`` processes, forked where that is safe and
    spawned elsewhere, which take the next task as they finish one, so a
    lone task still goes to a worker while the caller does other work;
    leaving the block waits for them, and a task's exception is raised
    when the iterator reaches its result. Results come back through the
    pool's pipe and are not kept here once handed out. A worker that dies
    breaks the pool: every task not finished by then runs in this process
    when the iterator reaches it. With one worker, or inside a worker of
    another ``fan_out`` (which so never starts grandchildren), each task
    runs in this process when the iterator reaches it.
    """
    if workers > 1 and tasks and _task_fn is None:
        method = "fork" if fork_is_safe() else "spawn"
        with ProcessPoolExecutor(min(workers, len(tasks)),
                                 mp_context=multiprocessing.get_context(method),
                                 initializer=_adopt, initargs=(fn,)) as pool:
            futures = deque()
            for task in tasks:
                try:
                    futures.append(pool.submit(_run_task, task))
                except BrokenProcessPool as exc:    # a worker died already
                    futures.append(Future())
                    futures[-1].set_exception(exc)
            # each future leaves the deque as its result is handed out
            yield map(partial(_result, fn), tasks, iter(futures.popleft, None))
    else:
        yield map(fn, tasks)
