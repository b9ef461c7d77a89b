"""Fork-join on os.fork and os.pipe, shared by the sampler and the sieve.

A caller splits its work into contiguous blocks, one per process, runs the
first block itself and forks a child for each other one.  No more
processes start than there are blocks or usable CPUs, and one process runs
where the platform cannot fork, so the serial path is the same code with
one block.
"""

from __future__ import annotations

import os
import pickle


def process_count(workers: int | None, blocks: int) -> int:
    """Processes to use: min(workers, blocks, usable CPUs), and 1 where the
    platform cannot fork."""
    if (workers is None or workers <= 1 or blocks <= 1
            or not hasattr(os, "fork")):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(workers, blocks, cpus))


def fork_join(tasks):
    """[task() for task in tasks]: tasks[0] runs in this process while each
    other task runs in a child forked for it.

    A child pipes back its pickled result, or the exception it raised, and
    leaves by os._exit, so it runs no exit handler and flushes none of the
    buffers it shares with this process.  Every pipe is drained and every
    child reaped, also when tasks[0] raises.  Then a child's exception is
    raised here as it was raised there (a NumericError keeps its context),
    and a child that exits without writing raises ChildProcessError.
    """
    children = []
    try:
        for task in tasks[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _child(task, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        results = [tasks[0]()]
    finally:
        replies = [_reap(pid, read_end) for pid, read_end in children]
    for pid, status, reply in replies:
        if status or not reply:
            raise ChildProcessError(
                f"forked process {pid} exited with status {status} "
                "and no result")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        results.append(value)
    return results


def _child(task, write_end: int):
    """Run task in a forked child, write (ok, result or exception) to the
    pipe and exit: status 0 once the reply is written, 1 otherwise."""
    status = 1
    try:
        try:
            reply = (True, task())
        except Exception as exc:        # raised again in the parent
            reply = (False, exc)
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(reply, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read_end: int):
    """(pid, exit status, bytes written) of a child, once it has exited."""
    with os.fdopen(read_end, "rb") as pipe:
        reply = pipe.read()
    return pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), reply
