"""``fork_map``, the one place xdiff runs independent jobs in parallel.  A
job is the same call on the same inputs in any process, with OpenBLAS on
one thread (``blas``), so no result depends on how many processes ran."""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from typing import Callable, Sequence

_in_share = False  # True while this process runs one share of a split map


def share_count(jobs: int) -> int:
    """Processes for ``jobs`` jobs: one per CPU in the affinity set, at
    most one per job, on Linux while no other thread runs (a fork copies
    the calling thread only), outside a multiprocessing child and outside
    a share of a split ``fork_map`` (both already fill the CPUs); else 1."""
    if _in_share or not sys.platform.startswith("linux") or threading.active_count() != 1:
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    return max(1, min(jobs, len(os.sched_getaffinity(0))))


def fork_map(fn: Callable, jobs: Sequence, w: int | None = None) -> list:
    """``[fn(job) for job in jobs]`` on w processes (default ``share_count``):
    job i is in share i mod w; the caller runs share 0, and w - 1 workers,
    each forked with one pipe, one other share each.  A worker's exception
    (a RuntimeError naming its type and message if it does not pickle) or
    its end without its share reaches the caller.  No worker outlives the
    call; its warnings, log records and other side effects stay in it."""
    global _in_share
    w = share_count(len(jobs)) if w is None else w
    if w <= 1:
        return [fn(job) for job in jobs]
    shares = [jobs[i::w] for i in range(w)]
    workers = []
    outer, _in_share = _in_share, True
    try:
        for share in shares[1:]:
            # an interrupt raised before the worker is listed would orphan it
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
            try:
                fd_r, fd_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    os.close(fd_r)
                    _run_share(fd_w, fn, share)
                os.close(fd_w)
                workers.append((pid, os.fdopen(fd_r, "rb")))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        done = [[fn(job) for job in shares[0]]]
        while workers:
            pid, pipe = workers[0]
            msg = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            pipe.close()
            if code or not msg:  # a negative code is the signal that ended it
                raise RuntimeError(f"a worker ended with code {code} before returning its share")
            ok, payload = pickle.loads(msg)
            if not ok:
                raise payload
            done.append(payload)
    finally:
        _in_share = outer
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [None] * len(jobs)
    for i, share in enumerate(done):
        results[i::w] = share
    return results


def _run_share(fd: int, fn: Callable, share: list) -> None:
    """A forked worker's whole life: write (True, results) or (False,
    exception) to ``fd`` pickled, and exit, running no caller's cleanup."""
    status = 1
    try:
        try:
            msg = pickle.dumps((True, [fn(job) for job in share]))
        except BaseException as e:
            try:
                msg = pickle.dumps((False, e))
                pickle.loads(msg)
            except Exception:
                err = RuntimeError(f"{type(e).__name__}: {e} (the worker's exception did not pickle)")
                msg = pickle.dumps((False, err))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(msg)
        status = 0
    finally:
        os._exit(status)
