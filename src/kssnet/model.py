"""Toy model assembly: conv backbone stages, GCN pathway, lateral injections, head.

The backbone is a stack of {3x3 conv, LeakyReLU, 2x average pool} stages whose
channel widths pair one-to-one with the tail of the GCN channel schedule.
Label embeddings from each non-final GCN layer are injected into the paired
backbone stage through a lateral connection; the final layer's embeddings act
as the classifier: logits are the dot product of the pooled backbone feature
with each label's embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import lateral, metrics, storage, workers
from .synthetic import LabeledImages

_DTYPES = {"float32": np.float32, "float64": np.float64}
# The LeakyReLU slope below zero of every GCN layer and backbone stage.
_SLOPE = 0.2

# Adam's moment decay rates and denominator guard.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# Fewest parameters in a share of the Adam update.  Float32, two workers: the
# 109,456-parameter toy model stepped in 0.63x the time of one, a
# 5,160-parameter one in 2.0x.
_ADAM_SHARE = 2 ** 14


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite loss or evaluation score."""


@dataclass
class TrainConfig:
    """Optimizer and schedule settings for the toy trainer.

    Learning rates are per parameter group: ``gcn_lr`` drives the graph
    convolution weights, ``lr`` everything else.  Weight decay is decoupled
    and skipped for biases.  Adam's constants are fixed, not configured:
    ``_BETA1`` = 0.9, ``_BETA2`` = 0.999 and ``_EPS`` = 1e-8.  All
    randomness flows from ``seed``.  Dropout rate and dtype are model
    settings; :class:`KssModel` owns them.
    """

    epochs: int = 30
    batch_size: int = 50
    lr: float = 0.01
    gcn_lr: float = 0.01
    weight_decay: float = 1e-4
    seed: int = 0
    stop_at_train_map: float | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("lr", "gcn_lr"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        stop = self.stop_at_train_map
        if stop is not None and not 0.0 <= stop <= 1.0:  # NaN fails too
            raise ValueError(f"stop_at_train_map must lie in [0, 1], got {stop}")


class KssModel:
    """Backbone stages + GCN stack + lateral connections + dot-product head.

    With ``len(stage_channels) = S`` stages and ``gcn_depth = L`` layers
    (2 <= L <= S), GCN layer j pairs with backbone stage S - L + j; every
    non-final layer's output feeds a lateral connection at its paired stage
    and the final layer's output is the classifier.  The paired stage and
    layer must agree on channel width, so ``stage_channels[S-L:]`` is also
    the GCN channel schedule.

    The activations are fixed: every GCN layer and backbone stage applies
    LeakyReLU with slope ``_SLOPE`` below zero, and every lateral connection
    applies tanh to its embeddings (:func:`lateral.lc_core`).  Every
    parameter, lateral biases included, is trainable.
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        n_labels: int,
        embed_dim: int,
        stage_channels: tuple[int, ...] = (16, 32, 64, 128),
        gcn_depth: int = 4,
        in_channels: int = 3,
        lc_stages: tuple[int, ...] | None = None,
        dropout_rate: float = 0.5,
        seed: int = 0,
        dtype: str = "float64",
    ):
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if adjacency.shape != (n_labels, n_labels):
            raise ValueError(f"adjacency shape {adjacency.shape} != ({n_labels}, {n_labels})")
        n_stages = len(stage_channels)
        if not 2 <= gcn_depth <= n_stages:
            raise ValueError(f"gcn_depth must lie in [2, {n_stages}], got {gcn_depth}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
        if min(stage_channels) < 1:
            raise ValueError(f"stage_channels must all be >= 1, got {tuple(stage_channels)}")
        if dtype not in _DTYPES:
            raise ValueError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
        offset = n_stages - gcn_depth
        if lc_stages is None:
            lc_stages = tuple(range(offset, n_stages - 1))
        lc_stages = tuple(sorted(lc_stages))
        for s in lc_stages:
            if not offset <= s <= n_stages - 2:
                raise ValueError(
                    f"lateral connection at stage {s} has no paired non-final GCN layer"
                )

        self.stage_channels = tuple(stage_channels)
        self.gcn_depth = gcn_depth
        self.in_channels = in_channels
        self.lc_stages = lc_stages
        self.dropout_rate = dropout_rate
        self.dtype = dtype
        np_dtype = _DTYPES[dtype]

        rng = np.random.default_rng(seed)
        self.adjacency = ad.Tensor(adjacency.astype(np_dtype))
        self._params: dict[str, ad.Tensor] = {}

        c_prev = in_channels
        for s, c_out in enumerate(stage_channels):
            fan_in = c_prev * 9
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(c_out, c_prev, 3, 3))
            self._add_param(f"backbone.stage{s}.conv.weight", w, np_dtype)
            self._add_param(f"backbone.stage{s}.conv.bias", np.zeros(c_out), np_dtype)
            c_prev = c_out

        c_prev = embed_dim
        for layer, c_out in enumerate(stage_channels[offset:]):
            w = rng.normal(0.0, np.sqrt(2.0 / c_prev), size=(c_prev, c_out))
            self._add_param(f"gcn.layer{layer}.W", w, np_dtype)
            c_prev = c_out

        for s in lc_stages:
            c = stage_channels[s]
            w = rng.normal(0.0, np.sqrt(2.0 / n_labels), size=(c, n_labels))
            self._add_param(f"lc.{s}.g.weight", w, np_dtype)
            self._add_param(f"lc.{s}.g.bias", np.zeros(c), np_dtype)

    def _add_param(self, name: str, value: np.ndarray, np_dtype) -> None:
        self._params[name] = ad.Tensor(np.asarray(value, dtype=np_dtype), requires_grad=True)

    @property
    def stage_offset(self) -> int:
        return len(self.stage_channels) - self.gcn_depth

    def named_parameters(self) -> list[tuple[str, ad.Tensor]]:
        return list(self._params.items())

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    # --- forward ---------------------------------------------------------

    def embeddings(self, e0: np.ndarray, on_preactivation=None) -> list[ad.Tensor]:
        """Run the GCN pathway; returns every layer's embedding tensor.

        ``on_preactivation``, if given, is called with each layer's
        activation input as a plain (N, C) array.
        """
        e = ad.Tensor(np.asarray(e0, dtype=self.adjacency.data.dtype))
        outs = []
        for layer in range(self.gcn_depth):
            h = ad.matmul(ad.matmul(self.adjacency, e), self._params[f"gcn.layer{layer}.W"])
            if on_preactivation is not None:
                on_preactivation(h.data)
            e = ad.leaky_relu(h, _SLOPE)
            outs.append(e)
        return outs

    def forward(
        self,
        x: np.ndarray,
        e0: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
        on_preactivation=None,
    ) -> ad.Tensor:
        """Batched logits (B, N) for image batch ``x`` of shape (B, C_in, H, W).

        Images keep the (B, C_in, H, W) layout of :mod:`synthetic` and the
        CLI; the forward transposes them once to the channels-last
        (B, H, W, C_in) layout the backbone computes in.  Conv weights stay
        (O, C, 3, 3), so checkpoints do not depend on the layout.

        Each backbone stage is ``conv2d`` then ``avg_pool2d(·, _SLOPE)``,
        which applies the LeakyReLU inside its pooling pass, so no
        full-size activation is made.

        ``on_preactivation``, if given, is called with the input of every
        activation as a plain array, in forward order: each GCN layer's
        (N, C), then each backbone stage's (B, H, W, C) LeakyReLU input, the
        conv output.
        """
        x = np.asarray(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(f"expected (B, {self.in_channels}, H, W) input, got {x.shape}")
        np_dtype = self.adjacency.data.dtype
        embeds = self.embeddings(e0, on_preactivation)

        h = ad.Tensor(np.ascontiguousarray(x.transpose(0, 2, 3, 1), dtype=np_dtype))
        for s in range(len(self.stage_channels)):
            h = ad.conv2d(
                h,
                self._params[f"backbone.stage{s}.conv.weight"],
                self._params[f"backbone.stage{s}.conv.bias"],
            )
            if on_preactivation is not None:
                on_preactivation(h.data)
            h = ad.avg_pool2d(h, _SLOPE)
            if s in self.lc_stages:
                h = self._inject(h, embeds[s - self.stage_offset], s)

        pooled = ad.tmean(h)  # (B, C)
        if train and self.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("training-mode forward needs a random generator for dropout")
            keep = (rng.random(pooled.shape) >= self.dropout_rate).astype(np_dtype)
            pooled = ad.mul(pooled, ad.Tensor(keep / (1.0 - self.dropout_rate)))
        return ad.matmul(pooled, ad.swap_last(embeds[-1]))

    def _inject(self, h: ad.Tensor, e: ad.Tensor, stage: int) -> ad.Tensor:
        b, hh, ww, c = h.shape
        out = lateral.lc_core(
            ad.reshape(h, (b, hh * ww, c)),
            e,
            self._params[f"lc.{stage}.g.weight"],
            self._params[f"lc.{stage}.g.bias"],
        )
        return ad.reshape(out, h.shape)

    # --- persistence -----------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: np.array(p.data, dtype=np.float64) for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = sorted(set(self._params) - set(state))
        extra = sorted(set(state) - set(self._params))
        if missing or extra:
            raise ValueError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, p in self._params.items():
            shape = np.shape(state[name])
            if shape != p.data.shape:
                raise ValueError(f"{name}: shape {shape} != {p.data.shape}")
        for name, p in self._params.items():
            p.data[...] = state[name]

    def save(self, path) -> None:
        storage.save_named_tensors(path, self.state_dict())

    def load(self, path) -> None:
        state = storage.load_named_tensors(path)
        try:
            self.load_state_dict(state)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def predict(model: KssModel, x: np.ndarray, e0: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Chunked evaluation-mode logits for a whole split, as a plain array.

    No autodiff graph is built: the parameters' ``requires_grad`` flags are
    cleared for the call and restored afterwards, even when it raises, so
    no chunk keeps its backward closures and their buffers alive.
    """
    params = [p for _, p in model.named_parameters()]
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        chunks = [
            model.forward(x[i:i + batch_size], e0, train=False).data
            for i in range(0, x.shape[0], batch_size)
        ]
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag
    return np.concatenate(chunks, axis=0)


class Adam:
    """Adaptive-moment optimizer with per-group learning rates.

    The parameters are packed into one flat buffer in their dtype, in three
    contiguous groups: GCN weights (``cfg.gcn_lr``, with weight decay),
    the other weights (``cfg.lr``, with weight decay) and the biases
    (``cfg.lr``, without).  Each parameter's ``data`` becomes a view into
    that buffer, so whoever writes a parameter must write it in place.  The
    moments and the two work arrays are flat float64 arrays; ``m[name]``
    and ``v[name]`` are views into them.
    """

    def __init__(self, named_params: list[tuple[str, ad.Tensor]], cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0

        def group(item):  # 0: GCN weights, 1: other weights, 2: biases
            name = item[0]
            return 2 if name.endswith(".bias") else 0 if name.startswith("gcn.") else 1

        items = sorted(named_params, key=group)  # stable: each group keeps its order
        sizes = [p.data.size for _, p in items]
        kinds = [group(item) for item in items]
        self._n_gcn = sum(size for size, kind in zip(sizes, kinds) if kind == 0)
        self._n_weights = sum(size for size, kind in zip(sizes, kinds) if kind < 2)
        total = sum(sizes)
        self._data = np.empty(total, dtype=np.result_type(*(p.data for _, p in items)))
        self._m, self._v = np.zeros(total), np.zeros(total)
        self._tmp, self._update = np.empty(total), np.empty(total)
        self.m, self.v, self._grads = {}, {}, []
        self._params = [p for _, p in items]
        lo = 0
        for (name, p), size in zip(items, sizes):
            flat = slice(lo, lo + size)
            lo += size
            view = self._data[flat].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self.m[name] = self._m[flat].reshape(p.data.shape)
            self.v[name] = self._v[flat].reshape(p.data.shape)
            self._grads.append(self._update[flat].reshape(p.data.shape))

    def step(self) -> None:
        """One update, computed in place in the two flat work arrays.

        The gradients are copied into one of them, cast to float64.  It
        performs the operations of ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + (1-b2)*g*g``, ``update = (m/bc1) / (sqrt(v/bc2) + eps)``
        (plus ``wd*p`` for the weights) and ``p = p - lr*update`` in the same
        order and dtypes as a per-tensor loop would, so the result is bit
        for bit that of the formula.  The operations run over one range of
        the flat arrays per worker (:func:`workers.run`).
        """
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - _BETA1 ** self.t
        bc2 = 1.0 - _BETA2 ** self.t
        for p, g in zip(self._params, self._grads):
            np.copyto(g, p.grad)

        def share(lo, hi):
            m, v, tmp, data = self._m[lo:hi], self._v[lo:hi], self._tmp[lo:hi], self._data[lo:hi]
            g = update = self._update[lo:hi]  # update overwrites g once g is no longer read
            np.multiply(g, 1.0 - _BETA1, out=tmp)
            m *= _BETA1
            m += tmp
            np.multiply(g, 1.0 - _BETA2, out=tmp)
            tmp *= g
            v *= _BETA2
            v += tmp
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += _EPS
            np.divide(m, bc1, out=update)
            update /= tmp
            if cfg.weight_decay:
                n = max(0, self._n_weights - lo)
                update[:n] += cfg.weight_decay * data[:n]  # product in the parameters' dtype
            n = max(0, self._n_gcn - lo)
            update[:n] *= cfg.gcn_lr
            update[n:] *= cfg.lr
            np.subtract(data, update, out=update)
            data[...] = update

        workers.run(share, self._data.size, _ADAM_SHARE)


def _epoch_map(model: KssModel, split: LabeledImages, epoch: int) -> float:
    scores = predict(model, split.x, split.e0)
    if not np.isfinite(scores).all():
        raise TrainingDiverged(f"non-finite scores after epoch {epoch}")
    return metrics.map_score(scores, split.y)


def train_toy(
    model: KssModel,
    data: LabeledImages,
    cfg: TrainConfig,
    val: LabeledImages | None = None,
    on_epoch=None,
) -> list[dict]:
    """Deterministic minibatch training; returns per-epoch history records.

    Each record carries epoch number, mean minibatch loss, training mAP
    (evaluation-mode, recomputed after the epoch), and validation mAP when a
    validation split is given.  Raises :class:`TrainingDiverged` on a
    non-finite loss or evaluation score.
    """
    if len(data) == 0:
        raise ValueError("training split is empty")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.named_parameters(), cfg)
    np_dtype = _DTYPES[model.dtype]
    history: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(len(data))
        losses = []
        for start in range(0, len(data), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            logits = model.forward(data.x[idx], data.e0, train=True, rng=rng)
            loss = ad.bce_with_logits(logits, data.y[idx].astype(np_dtype))
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            model.zero_grad()
            loss.backward()
            opt.step()
            losses.append(value)
        record = {
            "epoch": epoch,
            "loss": float(np.mean(losses)),
            "train_map": _epoch_map(model, data, epoch),
        }
        if val is not None:
            record["val_map"] = _epoch_map(model, val, epoch)
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if cfg.stop_at_train_map is not None and record["train_map"] >= cfg.stop_at_train_map:
            break
    return history
