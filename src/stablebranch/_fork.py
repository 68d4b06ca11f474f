"""Independent items shared between this process and forked workers.

This is the one module that forks, and simulate_paths, which deals out its
chunks of replicates, is its one caller.  No option sets the number of
workers: worker_count gives one per CPU in the process's affinity mask, so
`taskset -c 0` runs everything in the calling process.
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
    except Exception as exc:  # noqa: BLE001 - map_forked raises it, in item order
        return results, exc
    return results, None


def map_forked(fn, items, workers):
    """fn over items on `workers` processes: the results in item order, as a
    serial run gives them, or the error of the earliest failing item.

    Share i is items[i::workers]; the last share runs here and every other
    in a child, and every share stops at its first error.  A child inherits
    fn and the items and sends back its results and error pickled over a
    pipe; one that sends nothing fails its first item with ChildProcessError.
    The error is raised once every child has been reaped; a child whose
    result was not read (this process was interrupted) is killed.
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
            raise error
        results.append(done[k // workers])
    return results
