"""Per-layer self times of kssnet, measured from outside the program.

A :class:`Tracer` replaces public functions of ``kssnet`` modules with timing
wrappers while it is installed and puts the original objects back when it
is removed; nothing under ``src/`` knows it exists.  A span's self time is
its duration minus the time of the spans it called.

Backward time is charged to the layer whose forward call created the graph
nodes: after a traced layer call returns, the tracer walks from its output
back to its arguments and wraps each node's ``_backward`` closure.  Backward
time in nodes no layer created (head, loss, dropout, reshapes) stays with
``autodiff.backward.other_s``; forward time outside the traced layers stays
with ``model.forward.other_s``.

Metric names follow ``<phase>.<module>.<function>[.stage<s>].<fwd|bwd>_s``
with a matching ``.calls`` count.  In the model workloads the phase is
``train`` for the optimisation step and ``eval`` inside ``model.predict``
and for ``map_score``; the label-graph workload has no phase.
"""

from __future__ import annotations

import time
from collections import defaultdict

from kssnet import autodiff, graph, ingest, lateral, metrics, model

_clock = time.perf_counter

# Layout of both benchmark models: four backbone stages, a four-layer GCN,
# and lateral connections at every stage but the last.
N_STAGES = 4
LC_STAGES = (0, 1, 2)
_STAGED = ("conv2d", "leaky_relu", "avg_pool2d")

# (owner, attribute, kind) of every function a tracer wraps.
MODEL_TARGETS = (
    (model.KssModel, "forward", "forward"),
    (model.KssModel, "embeddings", "embeddings"),
    (autodiff, "conv2d", "conv2d"),
    (autodiff, "leaky_relu", "leaky_relu"),
    (autodiff, "avg_pool2d", "avg_pool2d"),
    (lateral, "lc_core", "lc_core"),
    (autodiff.Tensor, "backward", "backward"),
    (model.Adam, "step", "adam"),
    (model, "predict", "predict"),
    (metrics, "map_score", "eval_map"),
)
LABEL_TARGETS = (
    (ingest, "load_vocabulary", "load_vocabulary"),
    (ingest, "load_annotations", "load_annotations"),
    (ingest, "load_knowledge_edges", "load_knowledge_edges"),
    (graph, "cooccurrence_counts", "cooccurrence_counts"),
    (graph, "build_ks_graph", "build_ks_graph"),
    (metrics, "map_score", "map_score"),
    (metrics, "prf_suite", "prf_suite"),
    (metrics, "decide", "decide"),
)
_PLAIN = {
    "load_vocabulary": "ingest.load_vocabulary",
    "load_annotations": "ingest.load_annotations",
    "load_knowledge_edges": "ingest.load_knowledge_edges",
    "cooccurrence_counts": "graph.cooccurrence_counts",
    "build_ks_graph": "graph.build_ks_graph",
    "map_score": "metrics.map_score",
    "decide": "metrics.decide",
    "adam": "train.model.Adam.step",
    "predict": "eval.model.predict",
    "eval_map": "eval.metrics.map_score",
}
DECISIONS = ("sigmoid", "top_k")
TRACE_METRICS = ("trace.steps", "trace.step_s", "trace.overhead_s", "trace.unattributed_s")


def _layer_bases(phase: str) -> list[str]:
    bases = [f"{phase}.autodiff.{fn}.stage{s}" for fn in _STAGED for s in range(N_STAGES)]
    bases += [f"{phase}.lateral.lc_core.stage{s}" for s in LC_STAGES]
    return bases + [f"{phase}.model.embeddings"]


def metric_names() -> list[str]:
    """Every per-layer metric, in the order the benchmark reports them."""
    names = []
    for phase in ("train", "eval"):
        for base in _layer_bases(phase):
            names += [f"{base}.fwd_s", f"{base}.calls"]
            if phase == "train":
                names.append(f"{base}.bwd_s")
        names.append(f"{phase}.model.forward.other_s")
    names.append("train.autodiff.backward.other_s")
    plain = [_PLAIN[k] for k in ("adam", "predict", "eval_map", "load_vocabulary",
                                  "load_annotations", "load_knowledge_edges",
                                  "cooccurrence_counts", "build_ks_graph", "map_score")]
    plain += [f"metrics.prf_suite.{d}" for d in DECISIONS] + [_PLAIN["decide"]]
    for base in plain:
        names += [f"{base}_s", f"{base}.calls"]
    return names + list(TRACE_METRICS)


def metric_unit(name: str) -> str:
    return "count" if name.endswith((".calls", ".steps")) else "s"


class _TimedBackward:
    """Stands in for a graph node's ``_backward`` closure and times it."""

    __slots__ = ("fn", "key", "tracer")

    def __init__(self, fn, key: str, tracer: Tracer):
        self.fn = fn
        self.key = key
        self.tracer = tracer

    def __call__(self, grad):
        t0 = _clock()
        try:
            return self.fn(grad)
        finally:
            self.tracer._charge(self.key, _clock() - t0)


class Tracer:
    """Accumulates self time and call counts while its wrappers are installed."""

    def __init__(self, targets):
        self.targets = targets
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bookkeeping_s = 0.0
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [kind, time spent in child spans]
        self._eval_depth = 0
        self._stage = -1

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, kind in self.targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, kind))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def total_self_s(self) -> float:
        return sum(self.self_s.values()) + self.bookkeeping_s

    # --- span bookkeeping ---------------------------------------------------

    def _charge(self, key: str, seconds: float) -> None:
        self.self_s[key] += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def _keys(self, kind: str, args, kwargs):
        """(time key, calls key, backward key) of a call, or None to pass it through."""
        phase = "eval" if self._eval_depth else "train"
        if kind in _STAGED or kind == "lc_core":
            # Only the backbone's own calls; those inside the GCN pathway or
            # a lateral connection belong to that span.
            if not self._stack or self._stack[-1][0] != "forward":
                return None
            if kind == "conv2d":
                self._stage += 1
            module = "lateral" if kind == "lc_core" else "autodiff"
            base = f"{phase}.{module}.{kind}.stage{self._stage}"
        elif kind == "embeddings":
            base = f"{phase}.model.embeddings"
        elif kind == "forward":
            return f"{phase}.model.forward.other_s", None, None
        elif kind == "backward":
            return "train.autodiff.backward.other_s", None, None
        elif kind == "prf_suite":
            decision = args[2] if len(args) > 2 else kwargs.get("decision", ("sigmoid", 0.5))
            base = f"metrics.prf_suite.{decision[0]}"
            return f"{base}_s", f"{base}.calls", None
        else:
            base = _PLAIN[kind]
            return f"{base}_s", f"{base}.calls", None
        return f"{base}.fwd_s", f"{base}.calls", (f"{base}.bwd_s" if phase == "train" else None)

    def _wrap(self, original, kind: str):
        tracer = self

        def traced(*args, **kwargs):
            keys = tracer._keys(kind, args, kwargs)
            if keys is None:
                return original(*args, **kwargs)
            return tracer._span(original, kind, keys, args, kwargs)

        traced.__wrapped__ = original
        return traced

    def _span(self, original, kind: str, keys, args, kwargs):
        time_key, calls_key, backward_key = keys
        frame = [kind, 0.0]
        self._stack.append(frame)
        if kind == "forward":
            self._stage = -1
        elif kind == "predict":
            self._eval_depth += 1
        t0 = _clock()
        try:
            out = original(*args, **kwargs)
        finally:
            elapsed = _clock() - t0
            self._stack.pop()
            if kind == "predict":
                self._eval_depth -= 1
            self.self_s[time_key] += elapsed - frame[1]
            if calls_key is not None:
                self.calls[calls_key] += 1
            if self._stack:
                self._stack[-1][1] += elapsed
        if backward_key is not None:
            t1 = _clock()
            self._claim(out, args, kwargs, backward_key)
            spent = _clock() - t1
            self.bookkeeping_s += spent
            if self._stack:
                self._stack[-1][1] += spent
        return out

    def _claim(self, out, args, kwargs, key: str) -> None:
        """Wrap the backward closures of the nodes this call created."""
        inputs = {id(a) for a in (*args, *kwargs.values()) if isinstance(a, autodiff.Tensor)}
        todo = list(out) if isinstance(out, list) else [out]
        while todo:
            node = todo.pop()
            if id(node) in inputs:
                continue
            fn = node._backward
            if fn is None or isinstance(fn, _TimedBackward):
                continue
            node._backward = _TimedBackward(fn, key, self)
            todo.extend(node._parents)

    # --- reporting ------------------------------------------------------------

    def per_step(self, steps: int) -> dict[str, float]:
        """Every per-layer metric as a mean over ``steps`` traced steps.

        Layers this workload never reached read 0.
        """
        if steps < 1:
            raise ValueError("no traced steps to report")
        known = set(metric_names())
        stray = (set(self.self_s) | set(self.calls)) - known
        if stray:
            raise KeyError(f"traced names missing from the metric list: {sorted(stray)}")
        values = {}
        for name in metric_names():
            if name.startswith("trace."):
                continue
            total = self.calls.get(name, 0) if name.endswith(".calls") else self.self_s.get(name, 0.0)
            values[name] = total / steps
        return values
