"""The benchmark's workloads: seeded set-up, a closed measurement loop, output checks.

Each workload sets up from its seed, then runs one step at a time until its
time is up, waiting for every step before starting the next:

- ``toy-train``: one step is one epoch of ``model.train_toy``, per-epoch
  re-evaluation included, on the ``kssnet train-toy`` defaults;
- ``wide-infer``: one step is one ``model.predict`` call on a 256-sample batch
  through the paper schedule divided by 8;
- ``coco-labels``: one step is one pass of the label-graph pipeline on
  COCO-shaped files plus the metric suite on 40k x 80 scores.

A workload returns a :class:`Report`.  Without a tracer it carries the
end-to-end metrics; with one, every other step runs traced and the report
carries the per-layer metrics instead, plus the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kssnet import graph, ingest, metrics, model, synthetic

import datagen
import layertrace

_clock = time.perf_counter

SETUP_REPEATS = 10
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio",
             "fastest_step_s": "s", "map": "ratio"}


@dataclass(frozen=True)
class ToySize:
    n_train: int = 2000
    n_val: int = 500
    epochs: int = 2
    runs: int = 6  # training seeds; `map` is the mean of their final val_map
    channels: tuple[int, ...] = (16, 32, 64, 128)


@dataclass(frozen=True)
class InferSize:
    batch: int = 256
    pool_batches: int = 8
    channels: tuple[int, ...] = (32, 64, 128, 256)
    check_rows: int = 32


@dataclass(frozen=True)
class LabelSize:
    n_samples: int = 82000
    n_labels: int = 80
    n_scores: int = 40000


# The wide model, its graph and its label embeddings come from this seed for
# every workload seed; ``prf_suite`` takes the top 3 labels; positive scores
# sit this many standard deviations above the negatives.
MODEL_SEED = 0
TOP_K = 3
SCORE_SHIFT = 2.0

# float32 scores of the wide model must match its float64 copy within this
# share of the largest float64 score.  float32 keeps about 7 digits; four
# conv stages plus the GCN were seen to lose one (about 6e-7).
FLOAT32_RTOL = 1e-5


@dataclass
class Report:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    _last_ok: bool = field(default=True, repr=False)

    def step(self, problems: list[str]) -> None:
        """Count one operation; it failed if any of its checks did."""
        self.attempted += 1
        self._last_ok = not problems
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def fail_last(self, problem: str) -> None:
        """A check made after the fact fails the step it belongs to."""
        self.problems.append(problem)
        if self.attempted and self._last_ok:
            self.failed += 1
            self._last_ok = False

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.problems


def timing_summary(samples: list[float]) -> dict:
    """Fastest, median, and the highest of p99/p90/p75 with ten samples beyond it."""
    if not samples:
        return {"n": 0}
    out = {"n": len(samples), "min": min(samples), "p50": statistics.median(samples)}
    for pct in (99, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = float(np.percentile(samples, pct))
            break
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupTimer:
    """Times a workload's set-up ``SETUP_REPEATS`` times, spread over the run.

    ``make`` runs once untimed, to take the first allocations and lazy imports
    out of ``setup_s``, then once timed; that result is the workload's input.
    The host's speed drifts over tens of seconds, so set-ups timed back to back
    all land in one window.  In an untraced run the other set-ups are timed
    between steps, one every ``seconds / SETUP_REPEATS``, and their results
    dropped; a traced run reports no ``setup_s`` and times them all at once.
    """

    def __init__(self, report: Report, make, seconds: float, tracer):
        make()
        self.make = make
        self.samples: list[float] = []
        self.result = self._time()
        report.detail["setup_peak_rss_mb"] = peak_rss_mb()
        self._gap = seconds / SETUP_REPEATS
        self._next = _clock() + self._gap
        if tracer is not None:
            self.finish()

    def _time(self):
        t0 = _clock()
        out = self.make()
        self.samples.append(_clock() - t0)
        return out

    def between_steps(self) -> None:
        if len(self.samples) < SETUP_REPEATS and _clock() >= self._next:
            self._time()
            self._next += self._gap

    def finish(self) -> list[float]:
        """Time the set-ups the loop left over; return every sample."""
        while len(self.samples) < SETUP_REPEATS:
            self._time()
        return self.samples


def _tracing(tracer: layertrace.Tracer | None, on: bool) -> None:
    """Install or remove the tracer's wrappers, unless they already are."""
    if tracer is None or tracer.installed == on:
        return
    if on:
        tracer.install()
    else:
        tracer.uninstall()


def _alternate(tracer: layertrace.Tracer | None) -> None:
    """Switch the tracer between steps, so traced and plain steps interleave."""
    if tracer is not None:
        _tracing(tracer, not tracer.installed)


def _finish(report: Report, tracer, setup_s, plain_s, traced_s, quality) -> Report:
    if tracer is None:
        report.metrics = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "success_rate": (report.attempted - report.failed) / max(report.attempted, 1),
            # Other tenants of the host only ever slow a step down, and their
            # load shifts over tens of seconds; the fastest step is the figure
            # that repeats across runs.  The median is on the detail line.
            "fastest_step_s": min(plain_s) if plain_s else math.nan,
            "map": quality,
        }
        report.detail["step_s"] = timing_summary(plain_s)
    else:
        tracer.uninstall()
        steps = len(traced_s)
        values = tracer.per_step(steps)
        step_mean = sum(traced_s) / steps
        values.update({
            "trace.steps": steps,
            "trace.step_s": step_mean,
            "trace.overhead_s": min(traced_s) - min(plain_s),
            "trace.unattributed_s": step_mean - tracer.total_self_s() / steps,
        })
        report.detail["trace_bookkeeping_s"] = tracer.bookkeeping_s / steps
        report.metrics = values
        report.detail["traced_step_s"] = timing_summary(traced_s)
        report.detail["plain_step_s"] = timing_summary(plain_s)
    report.detail["setup_s"] = timing_summary(setup_s)
    return report


# --- toy-train ----------------------------------------------------------------


class _TimeUp(Exception):
    """Raised from the epoch callback to end training at the deadline."""


def toy_setup(seed: int, size: ToySize = ToySize()):
    """The ``kssnet train-toy`` inputs: the synthetic splits and their KS graph."""
    data = synthetic.make_dataset(n_train=size.n_train, n_val=size.n_val, seed=seed)
    _, adjacency = graph.build_ks_graph(data.annotations, data.knowledge_edges)
    return data, adjacency


def toy_model(data, adjacency, seed: int, channels) -> model.KssModel:
    return model.KssModel(adjacency, data.n_labels, data.train.e0.shape[1],
                          stage_channels=channels, seed=seed, dtype="float32")


def _epoch_problems(record: dict) -> list[str]:
    problems = []
    if not math.isfinite(record["loss"]):
        problems.append(f"epoch {record['epoch']}: non-finite loss {record['loss']}")
    for key in ("train_map", "val_map"):
        if not 0.0 <= record[key] <= 1.0:
            problems.append(f"epoch {record['epoch']}: {key} {record[key]} outside [0, 1]")
    return problems


def training_seed(seed: int, run: int) -> int:
    """Model and shuffling seed of the ``run``-th training run of a workload seed."""
    return int(np.random.SeedSequence([seed, run]).generate_state(1)[0])


def toy_train(seed: int, seconds: float, tracer=None, size: ToySize = ToySize()) -> Report:
    report = Report()
    def make():
        data, adjacency = toy_setup(seed, size)
        toy_model(data, adjacency, training_seed(seed, 0), size.channels)
        return data, adjacency

    setup = SetupTimer(report, make, seconds, tracer)
    data, adjacency = setup.result

    # Warm-up on a throwaway model: one batch and its evaluation.
    batch = model.TrainConfig().batch_size
    warm = synthetic.LabeledImages(data.train.x[:batch], data.train.y[:batch], data.train.e0)
    model.train_toy(toy_model(data, adjacency, seed, size.channels), warm,
                    model.TrainConfig(epochs=1, seed=seed))

    plain_s, traced_s = [], []
    val_maps: dict[int, float] = {}  # first complete run of each training seed
    deadline = _clock() + seconds
    run = 0
    try:
        # Runs cycle through the training seeds; the loop ends at the deadline
        # once each seed has had a run, and a repeated seed must repeat exactly.
        while _clock() < deadline or len(val_maps) < size.runs:
            k = run % size.runs
            run += 1
            sub = training_seed(seed, k)
            net = toy_model(data, adjacency, sub, size.channels)
            cfg = model.TrainConfig(epochs=size.epochs, seed=sub)
            records = []
            # Every other run starts traced, so traced and plain epochs both
            # cover every epoch position of a run.
            _tracing(tracer, run % 2 == 0)
            marks = [_clock()]

            def on_epoch(record):
                now = _clock()
                (traced_s if tracer is not None and tracer.installed else plain_s).append(
                    now - marks[-1])
                records.append(record)
                report.step(_epoch_problems(record))
                _alternate(tracer)
                setup.between_steps()
                marks.append(_clock())
                if now >= deadline and len(val_maps) == size.runs:
                    raise _TimeUp

            try:
                model.train_toy(net, data.train, cfg, val=data.val, on_epoch=on_epoch)
            except _TimeUp:
                continue
            except Exception as exc:  # a failed epoch counts against the success rate
                report.step([f"run {k} epoch {len(records) + 1}: {type(exc).__name__}: {exc}"])
                val_maps.setdefault(k, math.nan)
                continue
            if not records[-1]["loss"] < records[0]["loss"]:
                report.fail_last(f"run {k}: last epoch loss {records[-1]['loss']} "
                                 f"not below first {records[0]['loss']}")
            final = records[-1]["val_map"]
            if k not in val_maps:
                val_maps[k] = final
            elif final != val_maps[k]:
                report.fail_last(f"run {k}: val_map {final!r} differs from {val_maps[k]!r}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    report.detail.update(epochs_per_run=size.epochs, training_seeds=size.runs, runs=run,
                         train_samples=size.n_train, val_samples=size.n_val,
                         val_maps=[val_maps[k] for k in sorted(val_maps)])
    return _finish(report, tracer, setup.finish(), plain_s, traced_s,
                   sum(val_maps.values()) / len(val_maps))


# --- wide-infer ---------------------------------------------------------------


def infer_setup(seed: int, size: InferSize = InferSize(), dtype: str = "float32"):
    """Seeded image batches, and a model at the given widths that no seed changes.

    The model, its KS graph and its label embeddings come from
    ``MODEL_SEED``, like a deployed checkpoint; only the images come from
    the workload seed.  An untrained model's mAP swings with its weights and
    embeddings, and only the inputs should vary here.
    """
    n = size.batch * size.pool_batches
    deployed = synthetic.make_dataset(n_train=n, n_val=0, seed=MODEL_SEED)
    _, adjacency = graph.build_ks_graph(deployed.annotations, deployed.knowledge_edges)
    net = model.KssModel(adjacency, deployed.n_labels, deployed.train.e0.shape[1],
                         stage_channels=size.channels, seed=MODEL_SEED, dtype=dtype)
    images = synthetic.make_dataset(n_train=n, n_val=0, seed=seed).train
    return synthetic.LabeledImages(images.x, images.y, deployed.train.e0), net


def _float64_error(scores, x, e0, seed: int, size: InferSize) -> tuple[float, float]:
    """Largest gap between a batch's first rows and a float64 copy of the model,
    and the largest float64 score."""
    _, net64 = infer_setup(seed, size, dtype="float64")
    rows = min(size.check_rows, size.batch)
    ref = model.predict(net64, x[:rows], e0)
    return float(np.max(np.abs(scores[:rows] - ref))), float(np.max(np.abs(ref)))


def wide_infer(seed: int, seconds: float, tracer=None, size: InferSize = InferSize()) -> Report:
    report = Report()
    setup = SetupTimer(report, lambda: infer_setup(seed, size), seconds, tracer)
    pool, net = setup.result
    batches = [pool.x[k * size.batch:(k + 1) * size.batch] for k in range(size.pool_batches)]
    model.predict(net, batches[0], pool.e0, batch_size=size.batch)  # warm-up

    first: list[np.ndarray] = []
    plain_s, traced_s = [], []
    deadline = _clock() + seconds
    i = 0
    try:
        while _clock() < deadline:
            k = i % size.pool_batches
            timed = traced_s if tracer is not None and tracer.installed else plain_s
            t0 = _clock()
            try:
                scores = model.predict(net, batches[k], pool.e0, batch_size=size.batch)
            except Exception as exc:
                report.step([f"batch {i}: {type(exc).__name__}: {exc}"])
                i += 1
                continue
            timed.append(_clock() - t0)
            problems = []
            if scores.shape != (size.batch, pool.y.shape[1]):
                problems.append(f"batch {i}: scores shape {scores.shape}")
            elif not np.all(np.isfinite(scores)):
                problems.append(f"batch {i}: non-finite scores")
            elif k == len(first):
                first.append(scores)
                if k == 0:  # the first batch runs untraced
                    err, scale = _float64_error(scores, batches[0], pool.e0, seed, size)
                    report.detail.update(float64_max_abs_err=err, float64_max_abs_score=scale)
                    if not err <= FLOAT32_RTOL * scale:
                        problems.append(f"float32 scores off float64 by {err:.3g}, "
                                        f"over {FLOAT32_RTOL} x {scale:.3g}")
            elif not np.array_equal(scores, first[k]):
                problems.append(f"batch {i}: scores differ from the first pass over batch {k}")
            report.step(problems)
            _alternate(tracer)
            setup.between_steps()
            i += 1
    finally:
        if tracer is not None:
            tracer.uninstall()

    n = len(plain_s)
    report.detail.update(batch=size.batch, batches=n,
                         samples_per_s=n * size.batch / sum(plain_s) if n else None)
    if first:
        # A rounding guard: the untrained model's mAP on the first pass's batches.
        quality = metrics.map_score(np.concatenate(first), pool.y[:len(first) * size.batch])
    else:
        report.problems.append("no batch completed")
        quality = math.nan
    return _finish(report, tracer, setup.finish(), plain_s, traced_s, quality)


# --- coco-labels --------------------------------------------------------------


def labels_setup(seed: int, workdir: Path, size: LabelSize = LabelSize()):
    """Write the COCO-shaped files and draw the score matrix for the metric suite."""
    files = datagen.write_coco_files(workdir, seed, size.n_samples, size.n_labels)
    targets = files.labels[:size.n_scores].astype(np.int8)
    scores = datagen.scores_for(seed, targets, SCORE_SHIFT)
    return files, targets, scores


def _graph_pass(files: datagen.CocoFiles):
    vocab = ingest.load_vocabulary(files.vocabulary)
    ann = ingest.load_annotations(files.annotations, vocab)
    edges = ingest.load_knowledge_edges(files.knowledge, vocab)
    _, a_norm = graph.build_ks_graph(ann, edges)
    return ann, edges, a_norm


def _eval_pass(scores, targets):
    return (metrics.map_score(scores, targets),
            metrics.prf_suite(scores, targets, ("sigmoid", 0.5)),
            metrics.prf_suite(scores, targets, ("top_k", TOP_K)))


def _pooled(pred: np.ndarray, targets: np.ndarray) -> tuple[float, float, float, float]:
    """(CP, CR, OP, OR) counted directly, for classes that all have positives."""
    pos = targets == 1
    tp = (pred & pos).sum(axis=0)
    n_pred = pred.sum(axis=0)
    cp = np.mean(np.divide(tp, n_pred, out=np.zeros(tp.shape), where=n_pred > 0))
    return (float(cp), float(np.mean(tp / pos.sum(axis=0))),
            float(tp.sum() / n_pred.sum()), float(tp.sum() / pos.sum()))


def check_labels(files, targets, scores, ann, edges, a_norm, results, size: LabelSize) -> list[str]:
    """Compare one pass's outputs with references computed here, not by kssnet."""
    problems = []
    y = files.labels
    if len(ann) != y.shape[0] or ann.n_labels != y.shape[1]:
        return [f"annotations: {len(ann)} x {ann.n_labels}, expected {y.shape}"]
    loaded = np.zeros(y.shape, dtype=bool)
    for row, (_, labels) in enumerate(ann.samples):
        loaded[row, list(labels)] = True
    if not np.array_equal(loaded, y):
        problems.append("annotations: loaded label sets differ from the written ones")
    if len(edges) != files.n_edges or edges.dropped != files.n_unknown:
        problems.append(f"knowledge: {len(edges)} kept, {edges.dropped} dropped; "
                        f"expected {files.n_edges}, {files.n_unknown}")

    n = y.shape[1]
    ref = np.zeros((n, n))
    for start in range(0, len(y), datagen.CHUNK_ROWS):
        block = y[start:start + datagen.CHUNK_ROWS].astype(np.float64)
        ref += block.T @ block  # exact: the counts stay far below 2**53
    m, counts = graph.cooccurrence_counts(ann)
    off = ~np.eye(n, dtype=bool)
    if not np.array_equal(m[off], ref[off]) or not np.array_equal(counts, np.diag(ref)):
        problems.append("cooccurrence_counts differs from Y.T @ Y")
    if not (a_norm.shape == (n, n) and np.all(np.isfinite(a_norm)) and np.all(a_norm >= 0)
            and np.all(np.diag(a_norm) > 0)):
        problems.append("build_ks_graph: normalized adjacency is not a finite non-negative "
                        f"{n} x {n} matrix with self-loops")

    map_value, prf_sig, prf_top = results
    prevalence = targets.mean(axis=0)
    aps = np.array([datagen.expected_ap(p, SCORE_SHIFT) for p in prevalence])
    n_pos = targets.sum(axis=0)
    # Four standard errors of the class mean, taking sqrt(AP (1 - AP) / n_pos)
    # per class, plus 0.01 for the small-sample bias of non-interpolated AP.
    band = 0.01 + 4.0 * math.sqrt(np.mean(aps * (1 - aps) / n_pos) / len(aps))
    expected = float(np.mean(aps))
    if not abs(map_value - expected) <= band:
        problems.append(f"mAP {map_value:.4f} outside {expected:.4f} +- {band:.4f}")

    top = np.argpartition(-scores, TOP_K - 1, axis=1)[:, :TOP_K]
    pred_top = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(pred_top, top, True, axis=1)
    # sigmoid(s) >= 0.5 exactly when s >= 0; the scores have no ties.
    for name, prf, pred in (("sigmoid", prf_sig, scores >= 0.0), ("top_k", prf_top, pred_top)):
        got, want = (prf.cp, prf.cr, prf.op, prf.or_), _pooled(pred, targets)
        if not np.allclose(got, want, rtol=1e-12, atol=0.0):
            problems.append(f"prf_suite({name}): (CP, CR, OP, OR) {got} != {want}")
    return problems


def coco_labels(seed: int, seconds: float, tracer=None, size: LabelSize = LabelSize(),
                workdir: Path = Path(".bench_work")) -> Report:
    report = Report()
    # A set-up between passes rewrites the files with the same bytes.
    setup = SetupTimer(report, lambda: labels_setup(seed, workdir, size), seconds, tracer)
    files, targets, scores = setup.result

    plain_s, traced_s, graph_s, eval_s = [], [], [], []
    first = None
    deadline = _clock() + seconds
    try:
        while _clock() < deadline:
            timed = traced_s if tracer is not None and tracer.installed else plain_s
            t0 = _clock()
            try:
                ann, edges, a_norm = _graph_pass(files)
                t1 = _clock()
                results = _eval_pass(scores, targets)
            except Exception as exc:
                report.step([f"pass {report.attempted}: {type(exc).__name__}: {exc}"])
                continue
            t2 = _clock()
            timed.append(t2 - t0)
            if timed is plain_s:
                graph_s.append(t1 - t0)
                eval_s.append(t2 - t1)
            if first is None:
                # The first pass runs untraced; check it in full.
                first = (a_norm, results)
                report.step(check_labels(files, targets, scores, ann, edges, a_norm, results,
                                         size))
            else:
                same = np.array_equal(a_norm, first[0]) and results == first[1]
                report.step([] if same else [f"pass {report.attempted}: results differ"])
            del ann, edges  # one annotation set alive at a time
            _alternate(tracer)
            setup.between_steps()
    finally:
        if tracer is not None:
            tracer.uninstall()

    if first is None:
        report.problems.append("no pass completed")
    report.detail.update(
        annotation_samples=size.n_samples, labels=size.n_labels, score_rows=size.n_scores,
        mean_labels_per_sample=float(files.labels.sum(axis=1).mean()),
        graph_build_s=timing_summary(graph_s), eval_s=timing_summary(eval_s),
    )
    return _finish(report, tracer, setup.finish(), plain_s, traced_s,
                   first[1][0] if first else math.nan)


WORKLOADS = {"toy-train": toy_train, "wide-infer": wide_infer, "coco-labels": coco_labels}
TARGETS = {"toy-train": layertrace.MODEL_TARGETS, "wide-infer": layertrace.MODEL_TARGETS,
           "coco-labels": layertrace.LABEL_TARGETS}
