"""Chunk-parallel work on forked helper processes.

A call's chunks are cut into contiguous slices of about equal estimated
cost. The caller runs the first slice and one helper process each later
one. Helpers are forked on first use and serve a whole training run or
scoring call: a request carries the parameter values and the slice's
chunks; pairs and labels are inherited at the fork.

Determinism: results come back per chunk and are taken in chunk order,
so a caller that folds each as it comes (a loss into a running sum, a
gradient into Param.grad) does the serial loop's float operations in
its order. A helper computes each chunk's gradient from zeroed buffers,
and one backward pass gives every Param exactly one contribution, so
0 + g is g and the sums are bit for bit those of one process.

Death: a helper's exception is re-raised in the caller at its chunk's
place, with its class and message. A helper that dies, or whose reply
cannot be read, is a MolBridgeError. Leaving the ``with`` block kills
and reaps every helper and closes its pipes, however it is left.
"""

from __future__ import annotations

import contextlib
import os
import pickle

import numpy as np

from .errors import MolBridgeError

MAX_PROCESSES = 4


def processes() -> int:
    """Processes for chunk-parallel work, the caller included: the usable
    CPUs, at most MAX_PROCESSES. 1 without os.fork, and in a process that
    runs other threads (or whose threads cannot be counted): a forked
    child would inherit their locks as they stand, and a multi-threaded
    BLAS would fight the helpers for the CPUs (its threads spin between
    calls)."""
    task_dir = "/proc/self/task"
    if not (hasattr(os, "fork") and os.path.isdir(task_dir)
            and len(os.listdir(task_dir)) == 1):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cpus, MAX_PROCESSES)


def split(costs, parts: int) -> list[range]:
    """range(len(costs)) cut into `parts` contiguous runs of about equal
    cost: each item joins the run its cost midpoint falls in."""
    mid = np.cumsum(costs) - np.asarray(costs) / 2
    cuts = np.searchsorted(mid, np.sum(costs) * np.arange(1, parts) / parts)
    edges = [0, *cuts, len(costs)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


class Helpers:
    """processes() - 1 helpers for one run, as a context manager. tasks
    maps a name to a function of one chunk, which a helper runs after
    copying the request's parameter values into params."""

    def __init__(self, params, tasks: dict):
        self.params, self.tasks, self.procs = params, tasks, None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Kill and reap every helper and close its pipes; later calls
        run serially."""
        procs, self.procs = self.procs or (), []
        for pid, send, recv in procs:
            os.kill(pid, 9)             # SIGKILL, without loading signal
            os.waitpid(pid, 0)
            recv.close()
            with contextlib.suppress(OSError):      # bytes a dead pipe left
                send.close()

    def _start(self) -> None:
        self.procs = []
        for _ in range(processes() - 1):
            (down_r, down_w), (up_r, up_w) = os.pipe(), os.pipe()
            try:
                pid = os.fork()
            except OSError:         # go on with the helpers forked so far
                for fd in (down_r, down_w, up_r, up_w):
                    os.close(fd)
                break
            if pid == 0:
                os.close(down_w)
                os.close(up_r)
                self._serve(os.fdopen(down_r, "rb"), os.fdopen(up_w, "wb"))
            os.close(down_r)
            os.close(up_w)
            self.procs.append((pid, os.fdopen(down_w, "wb"),
                               os.fdopen(up_r, "rb")))

    def _serve(self, recv, send) -> None:
        """A helper's life: answer requests until the pipe closes."""
        try:
            while True:
                key, values, chunks = pickle.load(recv)
                for p, value in zip(self.params, values):
                    p.value[...] = value
                results, error = [], None
                try:
                    for chunk in chunks:
                        results.append(self.tasks[key](chunk))
                except Exception as exc:    # the chunks after it are moot
                    error = exc
                pickle.dump((results, error), send)
                send.flush()
        finally:
            os._exit(0)

    def run(self, key: str, chunks: list, costs: list, local):
        """Yield a result per chunk in chunk order: local(chunk) on the
        first slice, then the helpers' task `key` on the later ones. A
        caller that stops early leaves replies unread, which would answer
        later requests, so that ends the helpers."""
        if self.procs is None and len(chunks) > 1:
            self._start()
        slices = split(costs, 1 + len(self.procs or ()))
        values = [p.value for p in self.params]
        asked = [(pid, send, recv, [chunks[i] for i in part]) for
                 (pid, send, recv), part in zip(self.procs or (), slices[1:])
                 if part]
        try:
            for pid, send, _, part in asked:
                with _death_is_error(pid):
                    pickle.dump((key, values, part), send)
                    send.flush()
            for i in slices[0]:
                yield local(chunks[i])
            while asked:
                pid, _, recv, _ = asked.pop(0)
                with _death_is_error(pid):
                    results, error = pickle.load(recv)
                yield from results
                if error is not None:
                    raise error
        finally:
            if asked:
                self.close()


@contextlib.contextmanager
def _death_is_error(pid: int):
    try:
        yield
    except (OSError, EOFError, pickle.UnpicklingError) as exc:
        raise MolBridgeError(f"helper process {pid} died or sent an "
                             f"unreadable reply ({exc!r})") from exc
