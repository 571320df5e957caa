"""Run one workload of the kssnet benchmark and print its result.

Usage, from the root of a kssnet checkout:

    python3 bench/run.py --workload toy-train --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the run environment and the sample counts behind each figure.
Workloads and metrics are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("toy-train", "wide-infer", "coco-labels")
# Every load runs in this one process on at most two threads, BLAS included.
THREADS = max(1, min(2, os.cpu_count() or 1))
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads(np) -> int | None:
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "thread_limit": THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "kssnet" / "__init__.py").is_file():
        print(f"error: no kssnet package under {src}; run from a kssnet checkout",
              file=sys.stderr)
        return 2
    for var in _THREAD_VARS:  # read by BLAS when numpy first loads
        os.environ[var] = str(THREADS)
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    import numpy as np

    import layertrace
    import workloads

    tracer = layertrace.Tracer(workloads.TARGETS[args.workload]) if args.trace else None
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    kwargs = {"workdir": workdir} if args.workload == "coco-labels" else {}
    try:
        report = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, **kwargs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    if args.trace:
        units = {name: layertrace.metric_unit(name) for name in layertrace.metric_names()}
    else:
        units = workloads.E2E_UNITS
    metrics = {name: {"value": report.metrics[name], "unit": unit} for name, unit in units.items()}
    env = environment(np, args)
    env["tracing_overhead_s"] = report.metrics.get("trace.overhead_s")
    print(json.dumps({"env": env, "detail": report.detail, "problems": report.problems}))
    print(json.dumps({"correct": report.correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
