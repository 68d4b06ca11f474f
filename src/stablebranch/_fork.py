"""Independent items shared between this process and forked workers.

This is the one module that forks.  No option sets the number of workers: a
caller asks worker_count for one per CPU in the process's affinity mask, so
`taskset -c 0` runs everything in the calling process.  map_forked deals the
items in turn, runs the last share here and every other share in a child,
and returns what a serial run would: the results of the items before the
first failing item, in item order, and that item's error.
"""

from __future__ import annotations

import os
import pickle
import signal


def worker_count(n_tasks):
    """One worker per CPU in this process's affinity mask, at most one per task.

    Where the mask or os.fork is not available, every task runs in-process.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _run(fn, share):
    """fn over the share up to its first error: (results, that error or None)."""
    results = []
    try:
        for item in share:
            results.append(fn(item))
    except Exception as exc:  # noqa: BLE001 - the caller raises it, in item order
        return results, exc
    return results, None


def map_forked(fn, items, workers):
    """(results, error): fn over items as a serial run gives it, on `workers` processes.

    Share i is items[i::workers], and every share stops at its first error.
    A child inherits fn and the items and sends back its results and error
    pickled over a pipe; one that sends nothing fails its first item with
    ChildProcessError.  This process's own error is held until the children
    have been read, and error is None when no item failed.  Every child is
    reaped before this returns or raises; one whose result was not read
    (this process was interrupted) is killed.
    """
    shares = [items[i::workers] for i in range(workers)]
    children = {}  # pid -> read end of its pipe, unread, in share order
    outcomes = []
    try:
        for share in shares[:-1]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                # the child never returns into the caller's code
                try:
                    os.close(read_fd)
                    outcome = _run(fn, share)
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        own = _run(fn, shares[-1])
        for pid, pipe in list(children.items()):
            with pipe:
                try:
                    outcomes.append(pickle.load(pipe))
                except (EOFError, pickle.UnpicklingError):
                    outcomes.append(([], ChildProcessError(f"forked worker {pid} sent no result")))
            os.waitpid(pid, 0)
            del children[pid]
        outcomes.append(own)
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for k in range(len(items)):
        done, error = outcomes[k % workers]
        if k // workers == len(done):
            return results, error
        results.append(done[k // workers])
    return results, None
