"""The program's worker threads: the BLAS thread budget, spent on whole kernels.

numpy's bundled OpenBLAS starts with a thread budget (``OPENBLAS_NUM_THREADS``,
else one thread per core), but it can only spend it inside a GEMM, and the
backbone's copies, adds and elementwise passes run on one core beside it.
The first call of :func:`run`, or of a label kernel of more than one block,
reads that budget, sets OpenBLAS to one thread for the rest of the process
and keeps one worker per thread of the budget: the calling thread and
``budget - 1`` pool threads.  A process
without numpy's bundled OpenBLAS has one worker, the caller.  OpenBLAS is
set once, not per call, because an idle OpenBLAS thread keeps spinning on
its core for a while after each GEMM.

:func:`run` splits an index range into one contiguous share per worker and
runs the same function on each: the caller runs the first share, and the
pool threads take the others from one shared job queue.  Its users keep
three rules, so their results are bit for bit the same with any number of
workers:

- A share computes each of its outputs as the whole would.  The backbone's
  convolution (:mod:`kssnet.autodiff`) deals out fixed blocks of whole
  samples, one GEMM each, whose size follows the shapes alone; its pooling
  splits by whole samples and the Adam step (:mod:`kssnet.model`) by
  ranges of its flat buffer, both elementwise.  The label kernels of
  :mod:`kssnet.metrics` deal out their blocks, 8 classes for per-class AP
  and 4096 score rows for decisions, and each class's AP and each row's
  decision is computed as in one pass.
- No sum is split, except under the third rule.
- A sum of exact integers may be split, because its partials add to the
  same bits in any order.  :func:`kssnet.graph.cooccurrence_counts` deals
  out its blocks of annotated samples, sums each share's integer counts in
  a float64 partial and adds the partials, every one far below 2**53.

The label kernels run through ``_deal``, which gives each share buffers
made on the calling thread and runs an input of one block whole on the
caller.  A pool thread that has idled for a few milliseconds takes 0.05 to
0.2 ms to start its share, so a kernel split after other work gains less
than one timed back to back.

A run broken off by an exception, such as a ``KeyboardInterrupt`` in the
caller, leaves no pool state behind: the shares it queued finish on their
threads, and any idle pool thread takes the next run's shares.
"""

from __future__ import annotations

import contextvars
import ctypes
import queue
import threading
from pathlib import Path

import numpy as np


# The pool threads' one job queue: (context, share, lo, hi, ticket) per pool share.
_jobs = queue.SimpleQueue()
# The workers, the caller included; 0 until _workers() first reads the budget.
_size = 0
# Held by run() while its shares run, so callers in two threads take turns.
_lock = threading.Lock()


def _serve(jobs) -> None:
    """A pool thread: run each share taken from ``jobs``, then release its ticket.

    It drops the share before the release, so the arrays the share holds
    are freed by the caller when :func:`run` and its caller let them go,
    not by this thread when it takes the next job, at a moment that
    depends on thread timing.
    """
    while True:
        context, share, lo, hi, ticket = jobs.get()
        try:
            context.run(share, lo, hi)
        except BaseException as exc:  # run() re-raises it once every share has finished
            ticket[1] = exc
        del context, share
        ticket[0].release()


def _openblas():
    """The get and set thread-count functions of numpy's bundled OpenBLAS.

    Raises ``LookupError`` when numpy bundles none.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get is not None:
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    raise LookupError(f"no bundled OpenBLAS in {libs}")


def _workers() -> int:
    """The number of workers, the caller included.  Call it holding ``_lock``.

    The first call reads the BLAS thread budget, sets OpenBLAS to one
    thread and starts the pool threads.
    """
    global _size
    if _size:
        return _size
    try:
        get, set_threads = _openblas()
    except LookupError:
        _size = 1
        return _size
    budget = get()
    set_threads(1)
    for _ in range(budget - 1):
        threading.Thread(target=_serve, args=(_jobs,), name="kssnet-worker", daemon=True).start()
    _size = budget
    return _size


def run(share, n: int, min_share: int = 1) -> None:
    """Call ``share(lo, hi)`` on contiguous ranges that cover ``range(n)``, one per worker.

    There are as many ranges as workers, but no more than ``n //
    min_share`` and at least one, so a kernel too small to repay a thread
    handoff runs whole on the caller.  Their lengths differ by at most one.
    The caller queues every range but the first, each with a ticket (a
    held lock and a slot for its exception) that the pool thread running
    it releases, and runs the first itself.  A pool share runs in a copy
    of the caller's context, so the caller's ``np.errstate`` holds there
    too.  Once every ticket is back, the first exception raised is
    re-raised, the caller's before any pool thread's.  A share must not
    call ``run``.

    An exception that breaks off queueing the shares or waiting for them,
    such as a ``KeyboardInterrupt``, leaves the shares it did not wait for
    running: they finish on their threads and release tickets that nobody
    waits for, and the next run's shares queue behind them.
    """
    with _lock:
        cuts = _cuts(n, max(1, min(_workers(), n // min_share)))
        tickets = []
        try:
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                ticket = [threading.Lock(), None]
                ticket[0].acquire()
                _jobs.put((contextvars.copy_context(), share, lo, hi, ticket))
                tickets.append(ticket)
            share(cuts[0], cuts[1])
        finally:
            for done, _ in tickets:
                done.acquire()
        for _, error in tickets:
            if error is not None:
                raise error


def _cuts(n: int, count: int) -> list[int]:
    """The bounds of ``count`` contiguous ranges that cover ``range(n)``, at most one apart."""
    return [n * k // count for k in range(count + 1)]


def _deal(share, n: int, scratch=lambda: None) -> list:
    """Run ``share(lo, hi, buffers)`` on the ranges :func:`run` makes; return the buffers.

    Each range gets its own ``buffers``, one result of ``scratch()``, and
    all of them are made on the calling thread before any share starts: a
    pool thread that allocated them would take them from its own heap
    arena and raise the process's peak memory.  They come back in range
    order.  A range of one item or none runs whole on the caller without
    the pool, so a label kernel of one block neither waits for a handoff
    nor, in a process that has split nothing yet, sets OpenBLAS to one
    thread.
    """
    if n < 2:
        buffers = [scratch()]
        share(0, n, buffers[0])
        return buffers
    with _lock:
        count = min(_workers(), n)
    slots = {lo: scratch() for lo in _cuts(n, count)[:-1]}
    run(lambda lo, hi: share(lo, hi, slots[lo]), n)
    return list(slots.values())
