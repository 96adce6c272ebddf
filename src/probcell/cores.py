"""Both cores: every thread and forked process of the package starts here.

Each helper runs two parts of a call at once and returns the serial run's
results bit for bit; README "Kernels on two cores" has the measurements.

* The one size rule: threads from SPLIT_MIN_BYTES = 8 MiB of volume up, for
  calls that release the GIL; smaller calls run in order on the calling
  thread. Loops of small calls that hold the GIL always fork.
* The scene fork's fixed assignment: run_pipeline's child runs the
  validation and test scenes, its caller the training scenes, the
  classifier and the spatial prelude.
* What a fork needs: no thread holding a lock the child needs. No probcell
  thread outlives its call and no forked loop calls BLAS, so a caller that
  forks through probcell should start no threads of its own. A worker starts
  no thread; it and a loop's child call no function the benchmark traces:
  it traces the calling thread of the calling process only.
* The error order: each part raises its own error, which the caller
  re-raises with its type and message once the other part is done. fork_join
  raises the caller's error after killing the child, else the child's after
  reaping it; without os.fork it runs caller() first, so the same error wins.
"""
from __future__ import annotations

import os
import pickle
import signal
from concurrent.futures import ThreadPoolExecutor

import numpy as np

SPLIT_MIN_BYTES = 8 << 20  # the least volume a thread starts for


def side_by_side(first, second, nbytes: int) -> list:
    """[first(), second()], first() on a worker thread while the caller runs
    second() if nbytes >= SPLIT_MIN_BYTES, else in order. The worker lives
    for this call, under the caller's numpy error state, and should make no
    whole volume: glibc keeps what a thread's arena frees."""
    if nbytes < SPLIT_MIN_BYTES:
        return [first(), second()]
    with ThreadPoolExecutor(max_workers=1) as pool:
        future = pool.submit(np.errstate(**np.geterr())(first))
        mine = second()  # leaving the block waits for the worker, also on error
    return [future.result(), mine]


def on_two_cores(fn, n: int, nbytes: int) -> None:
    """side_by_side of fn(0, n // 2) and fn(n // 2, n), halves that write
    disjoint parts of an array, from SPLIT_MIN_BYTES up; else fn(0, n)."""
    if nbytes < SPLIT_MIN_BYTES:
        return fn(0, n)
    side_by_side(lambda: fn(0, n // 2), lambda: fn(n // 2, n), nbytes)


def fork_join(child, caller) -> list:
    """[child(), caller()], child() in a forked process that sends its result
    back pickled through a pipe and is reaped before this returns or raises
    (a process it forked itself finishes on its own)."""
    if not hasattr(os, "fork"):
        mine = caller()
        return [child(), mine]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: one pickle down the pipe, then out without cleanup
        try:
            try:
                payload = True, child()
            except BaseException as exc:
                payload = False, exc
            with open(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            mine = caller()
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("the forked worker exited without sending a result")
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return [theirs, mine]


def on_two_processes(fn, n: int) -> list:
    """[fn(0, n // 2), fn(n // 2, n)], the first half in fork_join's child."""
    return fork_join(lambda: fn(0, n // 2), lambda: fn(n // 2, n))
