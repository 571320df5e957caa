"""Command-line surface: build and inspect label graphs, run gradient checks,
train the toy model, evaluate scores, and build initial embeddings.

``train-toy`` stores its run config and adjacency in its checkpoint, so the
checkpoint sets the run that ``evaluate --checkpoint`` rebuilds.

Exit codes: 0 on success, 1 on validation errors (bad flags, bad files) and
on a diverged ``train-toy`` run, 2 on unexpected runtime failures.

OPENBLAS_NUM_THREADS sets how many cores a run uses (by default, one per
core).  The model's convolution, pooling and optimizer step, and the label
kernels behind ``build-graph`` and ``evaluate`` (co-occurrence counts,
per-class AP and decisions), split their work across that many threads, and
from the first split OpenBLAS runs on one thread, so its own threads do not
compete with them.  A kernel too small to split runs on the caller and
builds no pool (see :mod:`kssnet.workers`), so a command that splits
nothing leaves OpenBLAS its threads.

A split or target matrix with a label that has no positive is noted once
on stderr, since its mAP leaves that label out.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import checks, graph, ingest, metrics, storage, synthetic
from .model import KssModel, TrainConfig, TrainingDiverged, predict, train_toy


class CliError(Exception):
    """Validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); flag problems are validation
        raise CliError(f"{self.prog}: {message}")


def _in_unit(value: float, flag: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise CliError(f"{flag} must lie in [0, 1], got {value}")
    return value


def _positive_file(path: str, flag: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{flag}: no such file: {path}")
    return p


def _print_kv(pairs: dict) -> None:
    for key, value in pairs.items():
        print(f"{key}={value}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="kssnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="construct the superimposed label graph")
    p.add_argument("--annotations", required=True, help="sample_id label... lines")
    p.add_argument("--knowledge", required=True, help="TSV head/relation/tail/weight triples")
    p.add_argument("--vocab", required=True, help="one label per line")
    defaults = graph.GraphPipelineConfig
    p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                   help="statistical-vs-knowledge mixing weight")
    p.add_argument("--tau", type=float, default=defaults.tau, help="edge-pruning threshold")
    p.add_argument("--eta", type=float, default=defaults.eta, help="identity mixing weight")
    p.add_argument("--binarize-t", type=float, default=defaults.binarize_threshold,
                   help="conditional-probability cut for the statistical graph")
    p.add_argument("--out", required=True,
                   help="output path for the mixed adjacency (text matrix, 'rows cols' header)")
    p.add_argument("--out-normalized", default=None,
                   help="output path for the normalized adjacency, same format "
                        "(default: OUT.norm)")
    p.add_argument("--summary-json", default=None, help="also write the summary as JSON")

    p = sub.add_parser("inspect", help="summarize a stored adjacency matrix")
    p.add_argument("--graph", required=True, help="text matrix, 'rows cols' header")

    p = sub.add_parser("gradcheck", help="finite-difference checks of every component")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train-toy", help="train the toy model on the synthetic dataset")
    p.add_argument("--config", required=True, help="flat key = value training config")
    p.add_argument("--checkpoint", required=True, help="output checkpoint path")
    p.add_argument("--history", required=True, help="append-only CSV (epoch, loss, mAP)")

    p = sub.add_parser("evaluate", help="print the seven-metric table")
    p.add_argument("--scores", default=None, help="score matrix (text, 'rows cols' header)")
    p.add_argument("--targets", default=None, help="binary target matrix, same format")
    p.add_argument("--checkpoint", default=None,
                   help="evaluate a train-toy checkpoint instead; it sets the run")
    p.add_argument("--decision", default="sigmoid:0.5",
                   help="decision rule: sigmoid:T, score:T, or top_k:K")

    p = sub.add_parser("embed", help="build initial label embeddings from a word table")
    p.add_argument("--table", required=True, help="GloVe-style text embedding table")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="output matrix (text)")

    return parser


# --- subcommand bodies ----------------------------------------------------


def _cmd_build_graph(args) -> int:
    lam = _in_unit(args.lam, "--lambda")
    eta = _in_unit(args.eta, "--eta")
    if args.tau < 0:
        raise CliError(f"--tau must be >= 0, got {args.tau}")
    binarize = _in_unit(args.binarize_t, "--binarize-t")

    vocab = ingest.load_vocabulary(_positive_file(args.vocab, "--vocab"))
    ann = ingest.load_annotations(_positive_file(args.annotations, "--annotations"), vocab)
    edges = ingest.load_knowledge_edges(_positive_file(args.knowledge, "--knowledge"), vocab)
    config = graph.GraphPipelineConfig(lam=lam, tau=args.tau, eta=eta,
                                       binarize_threshold=binarize)
    a_ks, a_norm = graph.build_ks_graph(ann, edges, config)

    out = Path(args.out)
    out_norm = Path(args.out_normalized) if args.out_normalized else out.with_name(out.name + ".norm")
    storage.save_matrix_text(a_ks, out)
    storage.save_matrix_text(a_norm, out_norm)

    summary = {
        "lambda": lam, "tau": args.tau, "eta": eta, "binarize_t": binarize,
        "dropped_knowledge_records": edges.dropped,
        **graph.graph_summary(a_ks),
        "out": str(out), "out_normalized": str(out_norm),
    }
    _print_kv(summary)
    if args.summary_json:
        Path(args.summary_json).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_inspect(args) -> int:
    path = _positive_file(args.graph, "--graph")
    a = storage.load_matrix_text(path)
    _print_kv(graph.graph_summary(graph.check_adjacency(a, str(path))))
    return 0


def _cmd_gradcheck(args) -> int:
    results = checks.run_standard_checks(args.seed)
    failed = False
    for name, err in results.items():
        tol = checks.GRADCHECK_TOLERANCES[name]
        ok = err <= tol
        failed |= not ok
        print(f"{name} max_rel_err={err:.3e} tol={tol:.0e} {'ok' if ok else 'FAIL'}")
    if failed:
        raise CliError("gradient check exceeded tolerance")
    return 0


def _lc_stages(text: str) -> tuple[()] | None:
    if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError("expected true/1/yes or false/0/no")
    return None if text.lower() in ("true", "1", "yes") else ()  # None: the model's default


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise ValueError(f"expected an integer >= {low}")
    return value


# Config key -> (the parts it sets, that part's parameter, parser).  The parts are
# ``synthetic.make_dataset``, ``graph.GraphPipelineConfig``, ``KssModel`` and
# ``TrainConfig``.
_TOY_KEYS = {
    "n_train": ("data", "n_train", lambda v: _int_at_least(v, 1)),
    "n_val": ("data", "n_val", lambda v: _int_at_least(v, 1)),
    "n_labels": ("data", "n_labels", int),
    "image_size": ("data", "size", lambda v: _int_at_least(v, 1)),
    "embed_dim": ("data", "embed_dim", lambda v: _int_at_least(v, 1)),
    "data_seed": ("data", "seed", lambda v: _int_at_least(v, 0)),
    "weak_amp": ("data", "weak_amp", float),
    "noise": ("data", "noise", float),
    "lambda": ("graph", "lam", float),
    "tau": ("graph", "tau", float),
    "eta": ("graph", "eta", float),
    "binarize_t": ("graph", "binarize_threshold", float),
    "stage_channels": ("model", "stage_channels", lambda v: tuple(int(c) for c in v.split(","))),
    "gcn_depth": ("model", "gcn_depth", int),
    "lc": ("model", "lc_stages", _lc_stages),
    "dropout": ("model", "dropout_rate", float),
    "dtype": ("model", "dtype", str),
    "seed": ("model train", "seed", lambda v: _int_at_least(v, 0)),
    "epochs": ("train", "epochs", int),
    "batch_size": ("train", "batch_size", int),
    "lr": ("train", "lr", float),
    "gcn_lr": ("train", "gcn_lr", float),
    "weight_decay": ("train", "weight_decay", float),
    "stop_at_train_map": ("train", "stop_at_train_map", float),
}
_CLI_DEFAULTS = {"dtype": "float32"}


def _note_unscored_labels(subject: str, targets) -> None:
    """Say once on stderr how many labels ``targets`` has no positive for, if some.

    ``metrics.map_score`` leaves those labels out of the mean.
    """
    missing = int(np.count_nonzero(~np.any(targets == 1, axis=0)))
    if 0 < missing < targets.shape[1]:
        print(f"{subject} has no positive for {missing} of {targets.shape[1]} labels; "
              "its mAP leaves them out", file=sys.stderr)


def _toy_setup(cfg: dict[str, str], path):
    """Rebuild dataset, graph, and model deterministically from a run config.

    ``cfg`` alone sets the run: ``train-toy``'s config file with ``dtype =
    float32`` merged in, or the copy its checkpoint stores.  A key it leaves
    out takes the library's default.  The graph is ``graph.build_ks_graph``'s
    (``lambda = 1``, ``lambda = 0``, ``eta = 0``: statistical only, knowledge
    only, identity).  An unknown key, a value that does not parse, a split
    size, image side or embedding width below 1 or a negative seed fails at
    once; a value a
    constructor rejects, a split with no positive label, an image side the
    backbone stages cannot halve, or images that overflow the model's dtype
    fail during set-up, before any epoch runs.  Every error names ``path``,
    the file of ``cfg``, and so does the note on stderr for a split with a
    label that has no positive.
    """
    unknown = set(cfg) - set(_TOY_KEYS)
    if unknown:
        raise CliError(f"{path}: unknown config key(s): {', '.join(sorted(unknown))}")
    parts = {"data": {}, "graph": {}, "model": {}, "train": {}}
    for key, text in cfg.items():
        names, param, parse = _TOY_KEYS[key]
        try:
            value = parse(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {key} = {text!r}: {exc}") from None
        for name in names.split():
            parts[name][param] = value
    try:
        gcfg = graph.GraphPipelineConfig(**parts["graph"])
        train_cfg = TrainConfig(**parts["train"])
        data = synthetic.make_dataset(**parts["data"])
        for name, key, split in (("training", "n_train", data.train),
                                 ("validation", "n_val", data.val)):
            if not split.y.any():
                raise ValueError(f"the {name} split ({key} = {len(split.y)}) has no positive "
                                 "label, so its mAP is undefined")
            _note_unscored_labels(f"{path}: the {name} split ({key} = {len(split.y)})", split.y)
        _, adjacency = graph.build_ks_graph(data.annotations, data.knowledge_edges, gcfg)
        model = KssModel(adjacency, data.n_labels, data.train.e0.shape[1], **parts["model"])
        side, n_stages = data.train.x.shape[-1], len(model.stage_channels)
        if side % 2 ** n_stages:
            raise ValueError(f"image_size = {side} is not divisible by 2 ** {n_stages}: "
                             "each backbone stage halves the image")
        with np.errstate(over="ignore"):  # the cast of an overflowing peak warns
            peak = max(np.abs(split.x).max() for split in (data.train, data.val))
            if not np.isfinite(peak.astype(model.adjacency.data.dtype)):
                raise ValueError(f"noise and weak_amp make images of magnitude {peak:.3g}, "
                                 f"which overflow {model.dtype}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return data, model, train_cfg


def _cmd_train_toy(args) -> int:
    config_path = _positive_file(args.config, "--config")
    # checked now, or training would run every epoch only to fail at the save
    checkpoint = Path(args.checkpoint)
    if checkpoint.is_dir():
        raise CliError(f"--checkpoint: is a directory: {checkpoint}")
    if not checkpoint.parent.is_dir():
        raise CliError(f"--checkpoint: no such directory: {checkpoint.parent}")
    run_cfg = {**_CLI_DEFAULTS, **storage.load_config(config_path)}
    data, model, cfg = _toy_setup(run_cfg, config_path)
    print(f"stage_channels={','.join(str(c) for c in model.stage_channels)}")
    print(f"seed={cfg.seed}")

    history_path = Path(args.history)
    new_file = not history_path.exists()
    with open(history_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(["epoch", "loss", "map"])

        def on_epoch(record):
            writer.writerow([record["epoch"], f"{record['loss']:.6f}", f"{record['train_map']:.6f}"])
            fh.flush()

        try:
            history = train_toy(model, data.train, cfg, val=data.val, on_epoch=on_epoch)
        except TrainingDiverged as exc:
            raise CliError(f"{args.config}: training diverged: {exc}") from None

    storage.save_checkpoint(args.checkpoint, run_cfg,
                            {**model.state_dict(), "adjacency": model.adjacency.data})
    if history:
        last = history[-1]
        print(f"epochs_run={last['epoch']}")
        print(f"final_loss={last['loss']:.6f}")
        print(f"final_train_map={last['train_map']:.6f}")
        print(f"final_val_map={last['val_map']:.6f}")
    return 0


def _parse_decision(spec: str):
    kind, _, arg = spec.partition(":")
    if kind not in ("sigmoid", "score", "top_k"):
        raise CliError(f"--decision must be sigmoid:T, score:T, or top_k:K, got {spec!r}")
    try:
        value = int(arg) if kind == "top_k" else float(arg)
    except ValueError:
        raise CliError(f"--decision: bad argument in {spec!r}") from None
    if kind == "sigmoid":
        _in_unit(value, "--decision sigmoid:T")
    elif kind == "score" and not np.isfinite(value):
        raise CliError(f"--decision score:T must be finite, got {value}")
    elif kind == "top_k" and value < 0:
        raise CliError(f"--decision top_k:K must be >= 0, got {value}")
    return (kind, value)


def _cmd_evaluate(args) -> int:
    decision = _parse_decision(args.decision)
    if args.checkpoint is not None:
        if args.scores is not None or args.targets is not None:
            raise CliError("evaluate: --scores/--targets cannot be combined with --checkpoint")
        path = _positive_file(args.checkpoint, "--checkpoint")
        run_cfg, state = storage.load_checkpoint(path)
        data, model, _ = _toy_setup(run_cfg, path)
        try:
            if not np.array_equal(state.pop("adjacency", None), model.adjacency.data):
                raise ValueError("its config no longer builds the adjacency it trained with")
            model.load_state_dict(state)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        scores = predict(model, data.val.x, data.val.e0)
        targets = data.val.y
    else:
        if args.scores is None or args.targets is None:
            raise CliError("evaluate needs either --scores/--targets or --checkpoint")
        scores = storage.load_matrix_text(_positive_file(args.scores, "--scores"))
        targets = storage.load_matrix_text(_positive_file(args.targets, "--targets"))
        if not np.all(np.isfinite(scores)):
            raise CliError(f"{args.scores}: scores must be finite")
        if scores.shape != targets.shape:
            raise CliError(f"shape mismatch: scores {scores.shape} in {args.scores} "
                           f"vs targets {targets.shape} in {args.targets}")
        if not np.all((targets == 0) | (targets == 1)):
            raise CliError(f"{args.targets}: entries must be 0 or 1")
        if not targets.any():
            raise CliError(f"{args.targets}: the target matrix has no positive label, "
                           "so its mAP is undefined")
        _note_unscored_labels(f"{args.targets}: the target matrix", targets)
    map_value = metrics.map_score(scores, targets)
    prf = metrics.prf_suite(scores, targets, decision)
    print(metrics.format_metric_table(map_value, prf))
    return 0


def _cmd_embed(args) -> int:
    vocab = ingest.load_vocabulary(_positive_file(args.vocab, "--vocab"))
    table = ingest.load_embedding_table(_positive_file(args.table, "--table"))
    try:
        e0 = ingest.build_initial_embeddings(table, vocab)
    except ingest.UnresolvedLabelError as exc:
        raise CliError(f"{args.table}: {exc}") from None
    storage.save_matrix_text(e0, args.out)
    _print_kv({"labels": e0.shape[0], "dim": e0.shape[1], "out": args.out})
    return 0


_COMMANDS = {
    "build-graph": _cmd_build_graph,
    "inspect": _cmd_inspect,
    "gradcheck": _cmd_gradcheck,
    "train-toy": _cmd_train_toy,
    "evaluate": _cmd_evaluate,
    "embed": _cmd_embed,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (CliError, ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a runtime failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
