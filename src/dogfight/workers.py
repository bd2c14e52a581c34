"""An ordered pool of forked workers, sized to the CPUs this process may use.

`_in_order` runs a function over a stream of tasks and yields the answers
in task order, on forked processes when more than one worker is asked for
and in-process, one task at a time, when one is.  `_usable_cpus` is the
worker count callers start from: the affinity mask, cut to the cgroup CPU
quota.  selfplay plays its matches through the pool and ppo its update;
both look the CPU count up here, so patching `_usable_cpus` governs them
together.

`multiprocessing` is imported only when a pool forks, which keeps
`import dogfight` lean.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

# The cgroup file system.  Under a cgroup namespace, a container's default,
# the process's own cgroup is its root.
_CGROUP = Path("/sys/fs/cgroup")


def _cpu_quota() -> Optional[int]:
    """Whole CPUs the cgroup CPU quota grants (at least 1); None without one.

    Reads cgroup v2's cpu.max ("quota period", quota "max" when unlimited),
    else cgroup v1's cpu.cfs_quota_us and cpu.cfs_period_us (quota -1 when
    unlimited).
    """
    try:
        quota, period = (_CGROUP / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = (_CGROUP / "cpu" / "cpu.cfs_quota_us").read_text()
            period = (_CGROUP / "cpu" / "cpu.cfs_period_us").read_text()
        except OSError:
            return None
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max"
        return None
    if quota_us <= 0 or period_us <= 0:
        return None
    return max(1, quota_us // period_us)


def _usable_cpus() -> int:
    """CPUs to run work on: the affinity mask, cut to the cgroup quota.

    1 where the platform cannot report the mask, which also keeps such
    platforms off fork.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return 1
    quota = _cpu_quota()
    cpus = len(affinity(0))
    return cpus if quota is None else min(cpus, quota)


def _serve(fn: Callable[[Any], Any], conn, parent_end) -> None:
    """A worker's loop: answer each task with (True, fn(task)), or with
    (False, exception) when fn raises, until the parent is gone."""
    parent_end.close()  # the fork copied it; held, EOF would never come
    while True:
        try:
            task = conn.recv()
        except (EOFError, ConnectionResetError):
            return
        try:
            answer = (True, fn(task))
        except Exception as exc:
            answer = (False, exc)
        try:
            conn.send(answer)
        except (BrokenPipeError, ConnectionResetError):
            return


_NO_TASK = object()


def _in_order(fn: Callable[[Any], Any], tasks: Iterable,
              workers: int) -> Iterator:
    """Yield fn(task) for each task, in task order.

    With one worker the calls run here, one by one, as tasks yields them.
    With more, they run on that many forked processes, one task each at a
    time over the worker's own pipe, and at most 2 * workers tasks are
    drawn ahead of the next one to yield, so tasks may be endless.  The
    workers inherit fn by fork: only tasks and answers are pickled, and fn
    is released with the generator.  A worker's exception reaches the
    caller with its type; a worker that dies (killed by a signal, say)
    raises ChildProcessError.  The workers are killed and reaped however
    the generator ends: exhausted, closed early, or raising.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1:
        for task in tasks:
            yield fn(task)
        return
    import multiprocessing  # only when forking: keeps `import dogfight` lean
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for _ in range(workers):
            mine, theirs = context.Pipe()
            proc = context.Process(target=_serve, args=(fn, theirs, mine),
                                   daemon=True)
            proc.start()
            theirs.close()  # the worker alone holds it: EOF when it dies
            procs.append(proc)
            conns.append(mine)

        tasks = iter(tasks)
        idle = list(range(workers))
        running: dict[int, int] = {}  # worker -> number of its task
        answers: dict[int, tuple[bool, Any]] = {}  # by task number
        drawn = yielded = 0
        while True:
            while idle and drawn < yielded + 2 * workers:
                task = next(tasks, _NO_TASK)
                if task is _NO_TASK:
                    break
                worker = idle.pop()
                conns[worker].send(task)
                running[worker] = drawn
                drawn += 1
            if yielded in answers:
                ok, value = answers.pop(yielded)
                yielded += 1
                if not ok:
                    raise value
                yield value
                continue
            if not running:
                return
            ready = wait([conns[w] for w in running])
            for worker in list(running):
                if conns[worker] not in ready:
                    continue
                try:
                    answers[running.pop(worker)] = conns[worker].recv()
                except (EOFError, OSError):
                    procs[worker].join()
                    raise ChildProcessError(
                        f"worker {procs[worker].pid} died "
                        f"(exit code {procs[worker].exitcode})") from None
                idle.append(worker)
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
            proc.close()
        for conn in conns:
            conn.close()
