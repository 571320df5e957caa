"""Planted-co-occurrence synthetic dataset of colored block primitives.

Labels come in (solid, faint) pairs sharing a color word.  Solid labels are
drawn independently; each faint label co-occurs with its solid partner with a
controlled conditional probability, so the statistical label graph is
nontrivial and known analytically.  Every present label paints an
axis-aligned block of label-specific color and amplitude onto a noisy canvas,
which keeps the recognition problem linearly solvable from raw pixels.
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


def toy_knowledge_edges(vocab: LabelVocabulary, weight: float = 0.9) -> KnowledgeEdgeList:
    """One 'related to' triple per (faint, solid) color pair."""
    pairs = len(vocab) // 2
    triples = tuple(
        (pairs + i, i, "related to", weight) for i in range(pairs)
    )
    return KnowledgeEdgeList(len(vocab), triples)


def sample_label_matrix(
    n: int,
    n_labels: int,
    rng: np.random.Generator,
    p_strong: float = 0.4,
    cond_hi: float = 0.85,
    cond_lo: float = 0.05,
) -> np.ndarray:
    """Draw (n, n_labels) binary labels with the planted pair co-occurrence."""
    pairs = n_labels // 2
    y = np.zeros((n, n_labels), dtype=np.int64)
    strong = rng.random((n, pairs)) < p_strong
    y[:, :pairs] = strong
    cond = np.where(strong, cond_hi, cond_lo)
    y[:, pairs:] = rng.random((n, pairs)) < cond
    return y


def true_conditionals(
    n_labels: int, p_strong: float = 0.4, cond_hi: float = 0.85, cond_lo: float = 0.05
) -> np.ndarray:
    """Analytic P(label j present | label i present) of the planted process."""
    pairs = n_labels // 2
    p = np.zeros(n_labels)
    p[:pairs] = p_strong
    p_weak = p_strong * cond_hi + (1.0 - p_strong) * cond_lo
    p[pairs:] = p_weak
    cond = np.empty((n_labels, n_labels))
    for i in range(n_labels):
        for j in range(n_labels):
            if i == j:
                cond[i, j] = 1.0
            elif j == i + pairs:  # faint partner given solid
                cond[i, j] = cond_hi
            elif i == j + pairs:  # solid partner given faint
                cond[i, j] = p_strong * cond_hi / p_weak
            else:  # cross-pair labels are independent
                cond[i, j] = p[j]
    return cond


def render_images(
    y: np.ndarray,
    rng: np.random.Generator,
    size: int = 16,
    block: int = 4,
    channels: int = 3,
    strong_amp: float = 1.0,
    weak_amp: float = 0.35,
    noise: float = 0.35,
) -> np.ndarray:
    """Paint one block per present label onto Gaussian-noise canvases."""
    n, n_labels = y.shape
    per_row = size // block
    if n_labels > per_row * per_row:
        raise ValueError(f"{n_labels} labels do not fit a {per_row}x{per_row} block grid")
    pairs = n_labels // 2
    x = noise * rng.standard_normal((n, channels, size, size))
    for label in range(n_labels):
        r, c = divmod(label, per_row)
        amp = strong_amp if label < pairs else weak_amp
        present = y[:, label] == 1
        x[present, label % channels, r * block:(r + 1) * block, c * block:(c + 1) * block] += amp
    return x


def make_annotations(y: np.ndarray, n_labels: int, prefix: str = "img") -> AnnotationSet:
    sample_ids = tuple(f"{prefix}{i:05d}" for i in range(len(y)))
    return AnnotationSet.from_rows(n_labels, sample_ids, np.count_nonzero(y, axis=1),
                                   np.nonzero(y)[1])


def make_dataset(
    n_train: int = 2000,
    n_val: int = 500,
    n_labels: int = 8,
    size: int = 16,
    embed_dim: int = 12,
    seed: int = 0,
    p_strong: float = 0.4,
    cond_hi: float = 0.85,
    cond_lo: float = 0.05,
    strong_amp: float = 1.0,
    weak_amp: float = 0.35,
    noise: float = 0.35,
) -> ToyData:
    """Generate the full toy bundle (splits, vocabulary, edges, embeddings)."""
    rng = np.random.default_rng(seed)
    vocab = LabelVocabulary(tuple(toy_label_names(n_labels)))
    table = toy_embedding_table(n_labels, embed_dim, seed)
    e0 = build_initial_embeddings(table, vocab)

    y_train = sample_label_matrix(n_train, n_labels, rng, p_strong, cond_hi, cond_lo)
    y_val = sample_label_matrix(n_val, n_labels, rng, p_strong, cond_hi, cond_lo)
    x_train = render_images(y_train, rng, size=size, strong_amp=strong_amp,
                            weak_amp=weak_amp, noise=noise)
    x_val = render_images(y_val, rng, size=size, strong_amp=strong_amp,
                          weak_amp=weak_amp, noise=noise)

    return ToyData(
        train=LabeledImages(x_train, y_train, e0),
        val=LabeledImages(x_val, y_val, e0),
        vocab=vocab,
        annotations=make_annotations(y_train, n_labels),
        knowledge_edges=toy_knowledge_edges(vocab),
    )
