"""Run the benchmark on two checkouts in alternating pairs and write a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload toy-train \
        --seeds 901-910 --seconds 40 --out BENCH_toy-train.json

Each seed is one pair: ``bench/run.py`` runs in both checkouts, the change
first on odd seeds and the parent first on even ones.  The JSON written
holds every run's metrics, and per metric each side's median and quartiles,
the pairs the change won (ties count for neither) and whether the gap
between the medians exceeds the parent's interquartile range.  The runs are
untraced and report the end-to-end metrics; with ``--trace 1`` they are
traced and report the per-layer metrics, each with the direction that
``BENCHMARK.json`` gives it under ``per_layer``.  Both checkouts must hold
the same ``bench/`` and ``BENCHMARK.json``; when their digests differ it
exits with status 2 before the first run.

``host`` comes from the environment line of the change's first run.  Its
thread count is ``thread_limit``, the budget ``bench/run.py`` sets before
numpy loads: the line's ``blas_threads`` is read after the run, when a run
that split a kernel has set OpenBLAS to one thread.

Each side's code is named twice: by ``git rev-parse HEAD`` in its checkout,
when that is a git work tree of its own, and by ``source_digest`` of its
``src/`` files, which also names a copied checkout or uncommitted changes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_head(checkout: Path) -> str | None:
    """The commit checked out in ``checkout``, or None if it is not a git work tree's root."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != checkout.resolve():
        return None
    return lines[1]


# What the benchmark runs besides the code under test.
BENCH_FILES = ("bench", "BENCHMARK.json")


def source_digest(checkout: Path, roots=("src",)) -> str:
    """SHA-256 of the files under ``checkout/src``, or ``roots``, bytecode caches left out.

    Each root is a file or a directory relative to the checkout.  The files
    are taken in sorted order of their paths relative to the checkout; each
    adds its path, its size and its bytes to the hash.
    """
    paths = [checkout / root for root in roots]
    found = [p for root in paths for p in ([root] if root.is_file() else root.rglob("*"))]
    files = sorted(path.relative_to(checkout).as_posix() for path in found
                   if path.is_file() and "__pycache__" not in path.parts)
    digest = hashlib.sha256()
    for name in files:
        data = (checkout / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run, traced if ``trace`` is 1; its environment line and its metric values."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    return {"env": json.loads(env_line)["env"], "correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        q_parent = statistics.quantiles(parent, n=4, method="inclusive")
        q_change = statistics.quantiles(change, n=4, method="inclusive")
        med_p, med_c = statistics.median(parent), statistics.median(change)
        out[name] = {
            "better": direction,
            "parent": {"median": med_p, "quartiles": [q_parent[0], q_parent[2]]},
            "change": {"median": med_c, "quartiles": [q_change[0], q_change[2]]},
            "relative_change": (med_c - med_p) / med_p if med_p else None,
            "pairs_won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs_lost": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "gap_exceeds_parent_iqr": sign * (med_c - med_p) > q_parent[2] - q_parent[0],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, required=True, help="one seed or a range LO-HI")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced runs, compared on the per-layer metrics")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if source_digest(args.parent, BENCH_FILES) != source_digest(args.change, BENCH_FILES):
        print(f"error: {args.parent} and {args.change} hold different "
              f"{' or '.join(BENCH_FILES)}; compare the two checkouts on one benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    pairs = []
    for seed in args.seeds:
        order = ("change", "parent") if seed % 2 else ("parent", "change")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(getattr(args, side), args.workload, seed, args.seconds, args.trace)
        pairs.append(pair)
        print(json.dumps({"seed": seed, **{s: pair[s]["metrics"] for s in order}}), flush=True)

    first = pairs[0]
    report = {
        "workload": args.workload,
        "command": f"python3 bench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {args.seconds:g} --trace {args.trace}",
        "seeds": args.seeds,
        "parent_sha": git_head(args.parent),
        "change_sha": git_head(args.change),
        "parent_src_sha256": source_digest(args.parent),
        "change_src_sha256": source_digest(args.change),
        "host": {key: first["change"]["env"][key]
                 for key in ("nproc", "python", "numpy", "blas", "thread_limit")},
        "summary": summarise(pairs, better),
        "pairs": [{"seed": q["seed"], "first": q["first"],
                   "parent": q["parent"]["metrics"], "change": q["change"]["metrics"],
                   "correct": [q["parent"]["correct"], q["change"]["correct"]]}
                  for q in pairs],
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
