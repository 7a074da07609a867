"""The fork map that spreads Monte Carlo trial blocks and MAC sweep points over the CPUs."""

import mmap
import os

import numpy as np


def fork_map(run, count: int, shape) -> np.ndarray:
    """A float64 array of ``shape`` after run(i, out) for every i in range(count).

    Worker w of W, one per CPU in the affinity mask, takes items w, w + W, ...:
    the caller takes share 0 and W - 1 forked children the rest, writing into
    ``out``, one shared anonymous mapping.  A child ends in os._exit, so it
    never returns into the caller, runs its exit handlers or flushes its stdio.
    The shares of children that failed, or could not be forked, then run in
    process, in item order and with the caller's share if that failed too, so
    an exception surfaces as in a serial run.  An item writes only its own
    part of ``out`` and reads no other item's, so ``out`` does not depend on W.
    """
    size = int(np.prod(shape))
    out = np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), count=size).reshape(shape)

    def fill(share):
        for i in share:
            run(i, out)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(count, cpus if hasattr(os, "fork") else 1))
    shares = [range(w, count, workers) for w in range(workers)]
    children, failed, error = [], [], None
    try:
        for share in shares[1:]:
            try:
                pid = os.fork()
            except OSError:  # the share runs in process below
                failed.append(share)
                continue
            if pid == 0:
                status = 1
                try:
                    fill(share)
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, share))
        try:
            fill(shares[0])
        except Exception as exc:
            error = exc
    finally:
        failed += [share for pid, share in children if os.waitpid(pid, 0)[1]]
    if error is not None:
        if not failed:
            raise error
        failed.append(shares[0])
    if failed:
        fill(sorted(i for share in failed for i in share))
    return out
