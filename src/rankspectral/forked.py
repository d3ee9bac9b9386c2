"""Run tasks in forked worker processes that hold their results until the parent reads them.

The package's only way to start a worker process, imported only by a call
that asks for workers. :func:`may_fork` decides: on Linux (macOS system
libraries are not fork-safe), with no other thread of Python's, whose locks
a worker would inherit and which would race with the warning filters below.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import threading
import warnings
from typing import Callable, Iterator

_END = "end"


def may_fork() -> bool:
    """Whether this process may fork workers now: on Linux, with no other thread of Python's."""
    return sys.platform.startswith("linux") and threading.active_count() == 1


@contextlib.contextmanager
def forked(tasks: list[Callable[[], list]]) -> Iterator[list[Iterator]]:
    """Fork one worker per task; yield, per task, an iterator over the list it returns.

    A worker runs its task to the end first, then writes the list's items
    to a pipe one at a time, each as the parent reads the one before: so it
    holds its results until asked for them. An iterator raises
    ChildProcessError if its worker ends without sending its whole list (it
    was killed, say), and RuntimeError if the task raised. On leaving the
    block, normally or by any exception, every worker is killed and reaped.
    """
    workers = []
    try:
        for task in tasks:
            read_end, write_end = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns of fork in a process with threads, and
                    # counts BLAS's; a worker runs its task and writes to its pipe.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _work(task, read_end, write_end)
            os.close(write_end)
            workers.append((pid, open(read_end, "rb")))
        yield [_received(pid, pipe) for pid, pipe in workers]
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(task: Callable[[], list], read_end: int, write_end: int) -> None:
    """A worker's whole life: run ``task``, send its items, and exit without returning."""
    status = 1
    try:
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            try:
                items = task()
            except Exception as exc:
                pickle.dump(("error", f"{type(exc).__name__}: {exc}"), pipe)
            else:
                for item in items:
                    pickle.dump(("item", item), pipe, protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump((_END, None), pipe)
        status = 0
    finally:
        # Never unwind into the parent's stack, its atexit hooks or its buffers.
        os._exit(status)


def _received(pid: int, pipe) -> Iterator:
    while True:
        try:
            kind, item = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(f"worker process {pid} ended before sending its results") from None
        if kind == _END:
            return
        if kind == "error":
            raise RuntimeError(f"worker process {pid} failed: {item}")
        yield item
