"""Every line of a function body in ``kssnet`` runs in the program's own traffic.

``test_no_dead_code`` matches names and parameters, so a branch or a coercion
that only tests reach passes it.  This test traces the lines of
``src/kssnet`` with ``sys.settrace`` while the program does its own work:

- the three benchmark workloads through ``bench/workloads.py``, at small
  sizes and without the benchmark's layer tracer, for about 0.3 s each;
- every CLI command through ``cli.main`` on valid input, with the paths that
  depend on the input: the statistical-only, knowledge-only and no-graph
  configs (``lambda = 1``, ``lambda = 0``, ``eta = 0``) without lateral
  connections and with ``stop_at_train_map``, a config with a comment line,
  non-ASCII labels and annotations broken by NBSP and U+2028, blank
  knowledge and embedding lines, and ``evaluate`` on tied scores with a
  class that has no positives, at ``top_k:0`` and at ``top_k`` >= the label
  count.

The traffic starts with no worker pool, a fresh job queue and OpenBLAS at
two threads, so its first kernel builds a two-worker pool
(``kssnet.workers``) whose thread alone takes the traffic's shares,
whatever test built one before; the earlier pool, queue and thread count
are put back afterwards.  Where numpy bundles no OpenBLAS, a stand-in
thread count of two takes its place, so the traffic still builds the pool.
The threads the traffic starts are traced too.

A line of a function-body statement that holds code and never ran fails
the test, so the untaken arm of a conditional expression split over lines
fails it too.  Of a compound statement only the header counts; ``try`` has
none.  Error handling is exempt: ``except`` bodies and every block that ends
in ``raise`` or in a call of a module function that always raises.  So are
module- and class-level statements, docstrings, and the bodies of the names
in ``test_no_dead_code.ALLOWED``.
"""

import ast
import os
import queue
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import kssnet
from kssnet import cli, storage, workers
from test_no_dead_code import ALLOWED
from test_toy_run_parity import workloads

PACKAGE = Path(kssnet.__file__).resolve().parent
_SECONDS = 0.3


def _header_end(stmt: ast.stmt) -> int:
    """The last line of a compound statement's header: the line before its body."""
    return max(stmt.lineno, stmt.body[0].lineno - 1)


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _raises(stmts, raisers: set[str]) -> bool:
    """Whether a block ends by raising: in ``raise``, or in a call of one of ``raisers``."""
    last = stmts[-1]
    return isinstance(last, ast.Raise) or (
        isinstance(last, ast.Expr) and isinstance(last.value, ast.Call)
        and getattr(last.value.func, "id", None) in raisers)


def _spans(stmts, raisers: set[str], out: list) -> None:
    """Append ``(first line, last line)`` of every statement in ``stmts`` that must run."""
    if not stmts or _raises(stmts, raisers):
        return
    for stmt in stmts:
        if isinstance(stmt, ast.FunctionDef):
            first = min([stmt.lineno] + [dec.lineno for dec in stmt.decorator_list])
            out.append((first, stmt.lineno))
            _function_spans(stmt, raisers, out)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                _spans(block, raisers, out)
        elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With)):
            out.append((stmt.lineno, _header_end(stmt)))
            _spans(stmt.body, raisers, out)
            _spans(getattr(stmt, "orelse", []), raisers, out)
        elif not isinstance(stmt, (ast.Global, ast.Nonlocal)):  # declarations do not run
            out.append((stmt.lineno, stmt.end_lineno))


def _function_spans(fn: ast.FunctionDef, raisers: set[str], out: list) -> None:
    body = fn.body[1:] if _is_docstring(fn.body[0]) else fn.body
    _spans(body, raisers, out)


def required_spans(tree: ast.Module, module: str) -> list[tuple[int, int]]:
    """The line spans of the function-body statements of one module that the traffic must run.

    A module-level function whose body ends in ``raise`` always raises, so
    a block that ends in a call of it is error handling too.
    """
    out = []
    functions = [(f"{module}.{node.name}", node) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    functions += [(f"{module}.{cls.name}.{item.name}", item) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for item in cls.body
                  if isinstance(item, ast.FunctionDef)]
    raisers = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and isinstance(node.body[-1], ast.Raise)}
    for qual, fn in functions:
        if qual not in ALLOWED:
            _function_spans(fn, raisers, out)
    return out


def code_lines(code) -> set[int]:
    """The lines that ``code`` and the code objects nested in it hold instructions for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def traced_lines(run) -> set[tuple[str, int]]:
    """``(module file, line)`` of every line of ``src/kssnet`` that ``run()`` executes."""
    executed = set()
    in_package: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in in_package:
            in_package[filename] = Path(os.path.realpath(filename)).parent == PACKAGE
        return local if in_package[filename] else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)  # the threads that ``run()`` starts
    try:
        run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return {(str(Path(os.path.realpath(f))), line) for f, line in executed}


def _run_workloads(workdir: Path) -> None:
    reports = [
        workloads.toy_train(1, _SECONDS, size=workloads.ToySize(
            n_train=40, n_val=20, epochs=2, runs=2, channels=(4, 4, 8, 8))),
        workloads.wide_infer(1, _SECONDS, size=workloads.InferSize(
            batch=8, pool_batches=2, channels=(4, 4, 8, 8), check_rows=4)),
        workloads.coco_labels(1, _SECONDS, size=workloads.LabelSize(
            n_samples=400, n_labels=12, n_scores=200), workdir=workdir / "coco"),
    ]
    for name, report in zip(workloads.WORKLOADS, reports):
        assert report.attempted > 0, f"{name}: no step ran"


def _cli(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0, argv


def _run_cli(d: Path) -> None:
    vocab = d / "vocab.txt"
    vocab.write_text("chien\nchat\ncafé crème\nballe\n", encoding="utf-8")
    ann = d / "ann.txt"
    ann.write_text("img0\u00a0chien chat\u2028img1 café_crème\u00a0balle\nimg2 chien\n"
                   "img3 balle café_crème\nimg4 chat chien balle\n", encoding="utf-8")
    edges = d / "edges.tsv"
    edges.write_text("chien\tis a\tchat\t0.7\n\ncafé crème\tnear\tballe\t0.4\n"
                     "chien\tis a\tlicorne\t1.0\n", encoding="utf-8")
    _cli("build-graph", "--vocab", vocab, "--annotations", ann, "--knowledge", edges,
         "--out", d / "a.txt", "--out-normalized", d / "a.norm", "--summary-json", d / "s.json")
    _cli("build-graph", "--vocab", vocab, "--annotations", ann, "--knowledge", edges,
         "--out", d / "b.txt")
    _cli("inspect", "--graph", d / "a.txt")

    table = d / "table.txt"
    table.write_text("chien 1 0\n\nchat 0 1\ncafé 1 1\ncrème 0 2\nballe 2 2\n",
                     encoding="utf-8")
    _cli("embed", "--table", table, "--vocab", vocab, "--out", d / "e0.txt")

    _cli("gradcheck", "--seed", 0)

    base = "n_train = 16\nn_val = 8\nembed_dim = 4\nepochs = 1\nstage_channels = 2,2,4,4\n"
    ks = d / "ks.cfg"
    ks.write_text("# the default graph\n" + base + "lambda = 0.5\n")
    _cli("train-toy", "--config", ks, "--checkpoint", d / "ks.ckpt", "--history", d / "ks.csv")
    for name, graph in (("statistical", "lambda = 1"), ("knowledge", "lambda = 0"),
                        ("identity", "eta = 0")):
        cfg = d / f"{name}.cfg"
        cfg.write_text(base + f"{graph}\nlc = false\nstop_at_train_map = 0\n")
        _cli("train-toy", "--config", cfg, "--checkpoint", d / f"{name}.ckpt",
             "--history", d / f"{name}.csv")
    _cli("evaluate", "--checkpoint", d / "ks.ckpt")

    # ties within and across classes; the last class has no positives
    scores = np.array([[0.0, 2.0, 2.0, 1.0], [1.0, 2.0, 0.5, -1.0],
                       [0.0, -1.0, 2.0, 1.0], [3.0, 2.0, 2.0, 0.0]])
    targets = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 1, 0]], dtype=float)
    storage.save_matrix_text(scores, d / "scores.txt")
    storage.save_matrix_text(targets, d / "targets.txt")
    for decision in ("sigmoid:0.5", "score:1", "top_k:0", "top_k:2", "top_k:4"):
        _cli("evaluate", "--scores", d / "scores.txt", "--targets", d / "targets.txt",
             "--decision", decision)


def test_the_program_runs_every_line_it_has(tmp_path, capsys, monkeypatch):
    try:
        get_threads, set_threads = workers._openblas()
    except LookupError:  # a numpy without bundled OpenBLAS: a stand-in thread count
        threads = [2]
        get_threads, set_threads = (lambda: threads[0]), (lambda n: threads.__setitem__(0, n))
        monkeypatch.setattr(workers, "_openblas", lambda: (get_threads, set_threads))
    blas_threads = get_threads()

    def traffic():
        # The first kernel builds the worker pool, two workers strong, whatever
        # test built one before.  Its thread serves a fresh job queue, so no
        # untraced pool thread of an earlier test takes the traffic's shares.
        monkeypatch.setattr(workers, "_size", 0)
        monkeypatch.setattr(workers, "_jobs", queue.SimpleQueue())
        set_threads(2)
        _run_workloads(tmp_path)
        _run_cli(tmp_path)

    try:
        executed = traced_lines(traffic)
    finally:
        set_threads(blas_threads)
    capsys.readouterr()
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code = code_lines(compile(source, str(path), "exec"))
        required = {line for first, last in required_spans(ast.parse(source), path.stem)
                    for line in range(first, last + 1)} & code
        lines = source.splitlines()
        unrun += [f"{path.name}:{line}: {lines[line - 1].strip()}" for line in sorted(required)
                  if (str(path), line) not in executed]
    assert not unrun, "function-body lines the program never runs:\n" + "\n".join(unrun)
