"""Independent work shared between this process and forked workers.

No option sets the number of workers: it is one per CPU in the process's
affinity mask, so `taskset -c 0` runs everything in the calling process.
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


def map_forked(fn, shares):
    """[fn(share) for share in shares], the first share run in this process.

    Each other share runs in a child made by os.fork, which inherits fn and
    its arguments and sends back its result, or the exception it raised,
    pickled over a pipe; that exception is raised here.  Every child is reaped
    before this returns or raises, and a child whose result was not read (this
    process's own share or another child failed first) is killed.
    """
    children = {}  # pid -> read end of its pipe, unread
    try:
        for share in shares[1:]:
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
                    try:
                        result = (True, fn(share))
                    except BaseException as exc:
                        result = (False, exc)
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        results = [fn(shares[0])]
        for pid, pipe in list(children.items()):
            with pipe:
                try:
                    ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    ok, value = False, ChildProcessError(f"forked worker {pid} sent no result")
            os.waitpid(pid, 0)
            del children[pid]
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
