"""The program's worker threads: the BLAS thread budget, spent on whole kernels.

numpy's bundled OpenBLAS starts with a thread budget (``OPENBLAS_NUM_THREADS``,
else one thread per core), but it can only spend it inside a GEMM, and the
backbone's copies, adds and elementwise passes run on one core beside it.
The first call of :func:`run` reads that budget, sets OpenBLAS to one
thread for the rest of the process and keeps one worker per thread of the
budget: the calling thread and ``budget - 1`` pool threads.  A process
without numpy's bundled OpenBLAS has one worker, the caller.  OpenBLAS is
set once, not per call, because an idle OpenBLAS thread keeps spinning on
its core for a while after each GEMM.

:func:`run` splits an index range into one contiguous share per worker and
runs the same function on each: the caller runs the first share, and the
pool threads take the others from one shared job queue.  The kernels that
use it (the backbone's convolution and pooling in :mod:`kssnet.autodiff`,
the Adam step in :mod:`kssnet.model`) split no sum, and a share computes
each of its outputs as the whole would.  The convolution deals out fixed
blocks of whole samples, one GEMM each, whose size follows the shapes
alone; the pooling splits by whole samples and Adam by ranges of its flat
buffer, both elementwise.  So their results are bit for bit the same with
any number of workers.  A pool thread that has idled for a few
milliseconds takes 0.05 to 0.2 ms to start its share, so a kernel split
after other work gains less than one timed back to back.

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
# The workers, the caller included; 0 until the first run() reads the budget.
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


def _build() -> None:
    """Read the BLAS thread budget, set OpenBLAS to one thread and start the pool threads."""
    global _size
    try:
        get, set_threads = _openblas()
    except LookupError:
        _size = 1
        return
    budget = get()
    set_threads(1)
    for _ in range(budget - 1):
        threading.Thread(target=_serve, args=(_jobs,), name="kssnet-worker", daemon=True).start()
    _size = budget


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
        if not _size:
            _build()
        count = max(1, min(_size, n // min_share))
        cuts = [n * k // count for k in range(count + 1)]
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
