"""The program's worker threads: the BLAS thread budget, spent on whole kernels.

numpy's bundled OpenBLAS starts with a thread budget (``OPENBLAS_NUM_THREADS``,
else one thread per core), but it can only spend it inside a GEMM, and the
backbone's copies, adds and elementwise passes run on one core beside it.
The first call of :func:`run` that splits its range reads that budget,
sets OpenBLAS to one thread for the rest of the process and keeps one
worker per thread of the budget: the calling thread and ``budget - 1``
pool threads.  A process without numpy's bundled OpenBLAS has one worker,
the caller.  OpenBLAS is set once, not per call, because an idle OpenBLAS
thread keeps spinning on its core for a while after each GEMM.

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

A pool thread that has idled for a few milliseconds takes 0.05 to 0.2 ms
to start its share, so a kernel split after other work gains less than
one timed back to back.

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


# The pool threads' one job queue: (context, share, lo, hi, buffers, ticket) per pool share.
_jobs = queue.SimpleQueue()
# The workers, the caller included; 0 until _workers() first reads the budget.
_size = 0
# Held by run() while its shares run, so callers in two threads take turns.
_lock = threading.Lock()


def _serve(jobs) -> None:
    """A pool thread: run each share taken from ``jobs``, then release its ticket.

    It drops the share and its buffers before the release, so the arrays
    they hold are freed by the caller when :func:`run` and its caller let
    them go, not by this thread when it takes the next job, at a moment
    that depends on thread timing.
    """
    while True:
        context, share, lo, hi, buffers, ticket = jobs.get()
        try:
            context.run(share, lo, hi, buffers)
        except BaseException as exc:  # run() re-raises it once every share has finished
            ticket[1] = exc
        del context, share, buffers
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


def run(share, n: int, min_share: int = 1, scratch=lambda: None) -> list:
    """Call ``share(lo, hi, buffers)`` on ranges that cover ``range(n)``; return the buffers.

    The ranges are contiguous, as many as workers, but no more than ``n //
    min_share``, so a kernel too small to repay a thread handoff runs
    whole on the caller.  Their lengths differ by at most one.  A run
    that cannot make two ranges neither builds the pool nor, in a process
    that has split nothing yet, sets OpenBLAS to one thread.

    Each range gets its own ``buffers``, one result of ``scratch()``, and
    all of them are made on the calling thread before any share starts: a
    pool thread that allocated them would take them from its own heap
    arena and raise the process's peak memory.  With ``per_class_ap`` and
    ``cooccurrence_counts`` making theirs inside each share, ``coco-labels``
    read 168.24 -> 170.43 MB ``peak_rss_mb`` (0 of 8 pairs won; 2 cores).
    They come back in range order.

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
    if n // min_share < 2:
        buffers = [scratch()]
        share(0, n, buffers[0])
        return buffers
    with _lock:
        count = min(_workers(), n // min_share)
        cuts = [n * k // count for k in range(count + 1)]
        buffers = [scratch() for _ in range(count)]
        tickets = []
        try:
            for lo, hi, own in zip(cuts[1:-1], cuts[2:], buffers[1:]):
                ticket = [threading.Lock(), None]
                ticket[0].acquire()
                _jobs.put((contextvars.copy_context(), share, lo, hi, own, ticket))
                tickets.append(ticket)
            share(cuts[0], cuts[1], buffers[0])
        finally:
            for done, _ in tickets:
                done.acquire()
        for _, error in tickets:
            if error is not None:
                raise error
    return buffers
