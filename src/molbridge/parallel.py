"""Chunk-parallel work on forked helper processes.

A call's chunks are cut into contiguous slices of about equal estimated
cost. The caller runs the first slice and one helper process each later
one. Helpers are forked on first use and serve a whole training run,
scoring call or file scan: a request carries the caller's parameter
vectors and the slice's chunks; pairs and labels, or a file's SMILES,
are inherited at the fork.

Determinism: every chunk, the caller's own included, runs the same
task, so a training chunk's gradient is always computed from zeroed
buffers. Results come back per chunk and are taken in chunk order, so a
caller that folds each as it comes (a loss into a running sum, a
gradient into the gradient vector) does the same float operations in
the same order whatever the number of helpers.

Death: a helper's exception is re-raised in the caller at its chunk's
place, with its class and message. A helper that dies, or whose reply
cannot be read, is a MolBridgeError. Leaving the ``with`` block kills
and reaps every helper and closes its pipes, however it is left.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import pickle

import numpy as np

from .errors import MolBridgeError

MAX_PROCESSES = 4

# Bytes each helper pipe holds. A training helper's reply (its chunks'
# gradient vectors) runs to about 1 MB; through the 64 KiB default it
# crosses in a dozen hand-offs, each waking the other process.
PIPE_BYTES = 1 << 20


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
    """processes() - 1 helpers for one run, as a context manager, or none
    if not fork. tasks maps a name to a function of one chunk, which a
    helper runs after copying the caller's arrays, as they stand at the
    request, into its own."""

    def __init__(self, arrays: list, tasks: dict, fork: bool = True):
        self.arrays, self.tasks = arrays, tasks
        self.procs = None if fork else []

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
            for fd in (down_w, up_w):
                with contextlib.suppress(OSError):  # keep the default size
                    fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
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
                for array, value in zip(self.arrays, values):
                    array[...] = value
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

    def run(self, key: str, chunks: list, costs: list):
        """Yield task `key`'s result per chunk in chunk order: this
        process runs the first slice, the helpers the later ones. A
        caller that stops early leaves replies unread, which would answer
        later requests, so that ends the helpers."""
        if self.procs is None and len(chunks) > 1:
            self._start()
        slices = split(costs, 1 + len(self.procs or ()))
        asked = [(pid, send, recv, [chunks[i] for i in part]) for
                 (pid, send, recv), part in zip(self.procs or (), slices[1:])
                 if part]
        try:
            for pid, send, _, part in asked:
                with _death_is_error(pid):
                    pickle.dump((key, self.arrays, part), send)
                    send.flush()
            for i in slices[0]:
                yield self.tasks[key](chunks[i])
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
