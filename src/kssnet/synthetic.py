"""Planted-co-occurrence synthetic dataset of colored block primitives.

Labels come in (solid, faint) pairs sharing a color word.  Solid labels are
drawn independently, each present with probability 0.4 (``_P_STRONG``); a
faint label is present with probability 0.85 (``_COND_HI``) when its solid
partner is and 0.05 (``_COND_LO``) when it is not, so the statistical label
graph is nontrivial and known analytically (:func:`true_conditionals`).
Every present label paints a 4 x 4 block (``_BLOCK``) onto one of the 3
channels (``_CHANNELS``) of a noisy canvas, at amplitude 1.0
(``_STRONG_AMP``) for a solid label and ``weak_amp`` for a faint one, which
keeps the recognition problem linearly solvable from raw pixels.  The
knowledge graph relates each pair with weight 0.9 (``_EDGE_WEIGHT``).  These
planted constants are fixed; ``make_dataset``'s arguments set the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import (
    AnnotationSet,
    EmbeddingTable,
    KnowledgeEdgeList,
    LabelVocabulary,
    build_initial_embeddings,
)

_PALETTE = ("red", "green", "blue", "yellow", "cyan", "magenta", "olive", "teal")

# The planted process; the generator and the true_conditionals oracle read these.
_P_STRONG = 0.4
_COND_HI = 0.85
_COND_LO = 0.05
_STRONG_AMP = 1.0
_BLOCK = 4
_CHANNELS = 3
_EDGE_WEIGHT = 0.9


@dataclass(frozen=True)
class LabeledImages:
    """A batch of images, their binary label matrix, and the initial embeddings."""

    x: np.ndarray  # (n, channels, size, size)
    y: np.ndarray  # (n, n_labels) in {0, 1}
    e0: np.ndarray  # (n_labels, embed_dim)

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class ToyData:
    """Everything the toy pipeline needs, generated from one seed."""

    train: LabeledImages
    val: LabeledImages
    vocab: LabelVocabulary
    annotations: AnnotationSet  # training-split annotations
    knowledge_edges: KnowledgeEdgeList

    @property
    def n_labels(self) -> int:
        return len(self.vocab)


def toy_label_names(n_labels: int) -> list[str]:
    """Paired names: ``<color> solid`` for the first half, ``<color> faint`` after."""
    if n_labels % 2 or n_labels < 2:
        raise ValueError(f"n_labels must be even and >= 2, got {n_labels}")
    pairs = n_labels // 2
    if pairs > len(_PALETTE):
        raise ValueError(f"at most {2 * len(_PALETTE)} labels supported, got {n_labels}")
    colors = _PALETTE[:pairs]
    return [f"{c} solid" for c in colors] + [f"{c} faint" for c in colors]


def toy_embedding_table(n_labels: int, embed_dim: int, seed: int) -> EmbeddingTable:
    """One seeded Gaussian vector per word token (colors plus 'solid'/'faint')."""
    rng = np.random.default_rng(seed)
    tokens = list(_PALETTE[: n_labels // 2]) + ["solid", "faint"]
    rows = {tok: rng.normal(0.0, 1.0, size=embed_dim) for tok in tokens}
    return EmbeddingTable(embed_dim, rows)


def toy_knowledge_edges(vocab: LabelVocabulary) -> KnowledgeEdgeList:
    """One 'related to' triple per (faint, solid) color pair."""
    pairs = len(vocab) // 2
    triples = tuple(
        (pairs + i, i, "related to", _EDGE_WEIGHT) for i in range(pairs)
    )
    return KnowledgeEdgeList(len(vocab), triples)


def sample_label_matrix(n: int, n_labels: int, rng: np.random.Generator) -> np.ndarray:
    """Draw (n, n_labels) binary labels with the planted pair co-occurrence."""
    pairs = n_labels // 2
    y = np.zeros((n, n_labels), dtype=np.int64)
    strong = rng.random((n, pairs)) < _P_STRONG
    y[:, :pairs] = strong
    cond = np.where(strong, _COND_HI, _COND_LO)
    y[:, pairs:] = rng.random((n, pairs)) < cond
    return y


def true_conditionals(n_labels: int) -> np.ndarray:
    """Analytic P(label j present | label i present) of the planted process."""
    pairs = n_labels // 2
    p = np.zeros(n_labels)
    p[:pairs] = _P_STRONG
    p_weak = _P_STRONG * _COND_HI + (1.0 - _P_STRONG) * _COND_LO
    p[pairs:] = p_weak
    cond = np.empty((n_labels, n_labels))
    for i in range(n_labels):
        for j in range(n_labels):
            if i == j:
                cond[i, j] = 1.0
            elif j == i + pairs:  # faint partner given solid
                cond[i, j] = _COND_HI
            elif i == j + pairs:  # solid partner given faint
                cond[i, j] = _P_STRONG * _COND_HI / p_weak
            else:  # cross-pair labels are independent
                cond[i, j] = p[j]
    return cond


def render_images(y: np.ndarray, rng: np.random.Generator, size: int, weak_amp: float,
                  noise: float) -> np.ndarray:
    """Paint one block per present label onto Gaussian-noise canvases."""
    n, n_labels = y.shape
    per_row = size // _BLOCK
    if n_labels > per_row * per_row:
        raise ValueError(f"{n_labels} labels do not fit a {per_row}x{per_row} block grid")
    pairs = n_labels // 2
    x = noise * rng.standard_normal((n, _CHANNELS, size, size))
    for label in range(n_labels):
        r, c = divmod(label, per_row)
        amp = _STRONG_AMP if label < pairs else weak_amp
        present = y[:, label] == 1
        x[present, label % _CHANNELS,
          r * _BLOCK:(r + 1) * _BLOCK, c * _BLOCK:(c + 1) * _BLOCK] += amp
    return x


def make_annotations(y: np.ndarray, n_labels: int) -> AnnotationSet:
    sample_ids = tuple(f"img{i:05d}" for i in range(len(y)))
    return AnnotationSet(n_labels, sample_ids, np.count_nonzero(y, axis=1), np.nonzero(y)[1])


def make_dataset(
    n_train: int = 2000,
    n_val: int = 500,
    n_labels: int = 8,
    size: int = 16,
    embed_dim: int = 12,
    seed: int = 0,
    weak_amp: float = 0.35,
    noise: float = 0.35,
) -> ToyData:
    """Generate the full toy bundle (splits, vocabulary, edges, embeddings)."""
    rng = np.random.default_rng(seed)
    vocab = LabelVocabulary(tuple(toy_label_names(n_labels)))
    table = toy_embedding_table(n_labels, embed_dim, seed)
    e0 = build_initial_embeddings(table, vocab)

    y_train = sample_label_matrix(n_train, n_labels, rng)
    y_val = sample_label_matrix(n_val, n_labels, rng)
    x_train = render_images(y_train, rng, size, weak_amp, noise)
    x_val = render_images(y_val, rng, size, weak_amp, noise)

    return ToyData(
        train=LabeledImages(x_train, y_train, e0),
        val=LabeledImages(x_val, y_val, e0),
        vocab=vocab,
        annotations=make_annotations(y_train, n_labels),
        knowledge_edges=toy_knowledge_edges(vocab),
    )
