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
runs the same function on each.  The kernels that use it (the backbone's
convolution and pooling in :mod:`kssnet.autodiff`, the Adam step in
:mod:`kssnet.model`) split their work so that their results are bit for bit
the same with any number of workers.  A pool thread that has idled for a
few milliseconds takes 0.05 to 0.2 ms to start its share, so a kernel split
after other work gains less than one timed back to back.
"""

from __future__ import annotations

import contextvars
import ctypes
import threading
from pathlib import Path

import numpy as np


class _Worker:
    """One pool thread.  It runs one share per :meth:`start`; :meth:`join` waits for it."""

    def __init__(self):
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job = self._error = None
        threading.Thread(target=self._serve, name="kssnet-worker", daemon=True).start()

    def _serve(self):
        while True:
            self._go.acquire()
            context, share, lo, hi = self._job
            try:
                context.run(share, lo, hi)
            except BaseException as exc:  # join() hands it to run(), which re-raises it
                self._error = exc
            self._done.release()

    def start(self, share, lo: int, hi: int) -> None:
        self._job = contextvars.copy_context(), share, lo, hi
        self._go.release()

    def join(self) -> BaseException | None:
        """Wait for the share; return what it raised, or None."""
        self._done.acquire()
        error, self._error = self._error, None
        return error


# The pool threads beside the caller, made by the first run(); [] for one worker.
_pool: list[_Worker] | None = None
# Held by run() while its shares run, so callers in two threads take turns.
_lock = threading.Lock()


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


def _build() -> list[_Worker]:
    """Read the BLAS thread budget, set OpenBLAS to one thread and start the pool."""
    global _pool
    try:
        get, set_threads = _openblas()
    except LookupError:
        _pool = []
        return _pool
    budget = get()
    set_threads(1)
    _pool = [_Worker() for _ in range(budget - 1)]
    return _pool


def run(share, n: int, min_share: int = 1) -> None:
    """Call ``share(lo, hi)`` on contiguous ranges that cover ``range(n)``, one per worker.

    There are as many ranges as workers, but no more than ``n //
    min_share`` and at least one, so a kernel too small to repay a thread
    handoff runs whole on the caller.  Their lengths differ by at most one.
    The caller runs the first range; each pool thread runs one more in a
    copy of the caller's context, so the caller's ``np.errstate`` holds
    there too.  Once every share has finished, the first exception raised
    is re-raised, the caller's before any pool thread's.  A share must not
    call ``run``.

    An exception that breaks off starting the pool threads or waiting for
    them, such as a ``KeyboardInterrupt``, leaves a pool thread's locks out
    of step with its shares.  Every pool thread not yet waited for is then
    replaced by a new one before the exception propagates.
    """
    global _pool
    with _lock:
        pool = _build() if _pool is None else _pool
        count = max(1, min(len(pool) + 1, n // min_share))
        cuts = [n * k // count for k in range(count + 1)]
        helpers = pool[:count - 1]
        errors = []
        try:
            for worker, lo, hi in zip(helpers, cuts[1:-1], cuts[2:]):
                worker.start(share, lo, hi)
            try:
                share(cuts[0], cuts[1])
            finally:
                for worker in helpers:
                    errors.append(worker.join())
        except BaseException:
            if len(errors) < len(helpers):
                fresh = [_Worker() for _ in helpers[len(errors):]]
                _pool = helpers[:len(errors)] + fresh + pool[len(helpers):]
            raise
        for error in errors:
            if error is not None:
                raise error
