"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives
bit-identical arrays and byte-identical files.  The program under test only
ever sees what these functions produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Stream indices: each input gets its own generator, so resizing one input
# never changes another.
_LABELS, _KNOWLEDGE, _SCORES = range(3)

RELATIONS = ("RelatedTo", "IsA", "PartOf", "UsedFor", "AtLocation")

# Rows drawn at a time, so the benchmark's own arrays stay small next to the
# program's.
CHUNK_ROWS = 8192


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def label_names(n_labels: int) -> list[str]:
    """COCO-like vocabulary; every third name has two words, written with
    an underscore in the annotation file."""
    return [f"object {i:02d}" if i % 3 == 0 else f"object{i:02d}" for i in range(n_labels)]


def label_frequencies(n_labels: int, mean_labels: float = 2.15, skew: float = 0.8) -> np.ndarray:
    """Zipf-like per-label probabilities summing to ``mean_labels``.

    The planted pairs of :func:`label_matrix` add about 0.75 labels per
    sample on top, for COCO's 2.9.
    """
    raw = 1.0 / np.arange(1, n_labels + 1) ** skew
    return raw * (mean_labels / raw.sum())


def label_matrix(seed: int, n_samples: int, n_labels: int) -> np.ndarray:
    """(n_samples, n_labels) bool labels with skewed frequencies and planted pairs.

    Labels are drawn independently at Zipf-like rates, then label ``2k+1``
    is switched on with probability 0.6 wherever label ``2k`` is present, so
    the co-occurrence graph has real structure.  Each sample has at least
    one label; the mean is about 2.9 labels per sample.  Rows are drawn
    ``CHUNK_ROWS`` at a time.
    """
    rng = rng_for(seed, _LABELS)
    p = label_frequencies(n_labels)
    y = np.empty((n_samples, n_labels), dtype=bool)
    for start in range(0, n_samples, CHUNK_ROWS):
        block = y[start:start + CHUNK_ROWS]
        np.less(rng.random(block.shape), p, out=block)
        partner = rng.random((len(block), n_labels // 2)) < 0.6
        block[:, 1::2] |= block[:, 0::2] & partner
        empty = ~block.any(axis=1)
        block[np.flatnonzero(empty),
              rng.choice(n_labels, size=int(empty.sum()), p=p / p.sum())] = True
    return y


def knowledge_records(seed: int, names: list[str], n_edges: int, n_unknown: int):
    """Relation triples ``(head, relation, tail, weight)`` over ``names``.

    ``n_unknown`` extra records name a label outside the vocabulary, as a
    real knowledge base would; the loader must drop exactly those.
    """
    rng = rng_for(seed, _KNOWLEDGE)
    n = len(names)
    heads = rng.integers(0, n, size=n_edges)
    tails = (heads + rng.integers(1, n, size=n_edges)) % n
    rels = rng.integers(0, len(RELATIONS), size=n_edges + n_unknown)
    weights = np.round(rng.uniform(0.05, 1.0, size=n_edges + n_unknown), 4)
    records = [
        (names[h], RELATIONS[r], names[t], float(w))
        for h, t, r, w in zip(heads, tails, rels, weights)
    ]
    for k in range(n_unknown):
        records.append((f"unlisted{k:02d}", RELATIONS[rels[n_edges + k]],
                        names[k % n], float(weights[n_edges + k])))
    return records


def scores_for(seed: int, targets: np.ndarray, shift: float) -> np.ndarray:
    """Scores whose positives sit ``shift`` standard deviations above the negatives."""
    rng = rng_for(seed, _SCORES)
    scores = rng.standard_normal(targets.shape)
    scores[targets == 1] += shift
    return scores


def _normal_sf(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.vectorize(math.erfc)(x / math.sqrt(2.0))


def expected_ap(prevalence: float, shift: float) -> float:
    """Population average precision of the binormal scores of :func:`scores_for`.

    AP is the integral of precision over recall; with positives N(shift, 1)
    and negatives N(0, 1) both are known in closed form at every threshold.
    """
    t = np.linspace(-9.0, 9.0 + shift, 4001)
    recall = _normal_sf(t - shift)
    false_pos = _normal_sf(t)
    precision = prevalence * recall / (prevalence * recall + (1.0 - prevalence) * false_pos)
    density = np.exp(-0.5 * (t - shift) ** 2) / math.sqrt(2.0 * math.pi)
    return float(np.sum(precision * density) * (t[1] - t[0]))


@dataclass(frozen=True)
class CocoFiles:
    """The COCO-shaped inputs written to disk, plus the arrays they encode."""

    vocabulary: Path
    annotations: Path
    knowledge: Path
    labels: np.ndarray  # (n_samples, n_labels) bool, row order of the file
    n_edges: int
    n_unknown: int


def write_coco_files(directory: Path, seed: int, n_samples: int, n_labels: int,
                     n_edges: int = 400, n_unknown: int = 20) -> CocoFiles:
    """Write vocabulary, annotations and knowledge TSV in the loaders' formats."""
    directory.mkdir(parents=True, exist_ok=True)
    names = label_names(n_labels)
    y = label_matrix(seed, n_samples, n_labels)
    tokens = [name.replace(" ", "_") for name in names]

    vocabulary = directory / "vocabulary.txt"
    vocabulary.write_text("".join(f"{name}\n" for name in names), encoding="utf-8")
    annotations = directory / "annotations.txt"
    rows, cols = np.nonzero(y)
    bounds = np.searchsorted(rows, np.arange(n_samples + 1))
    with open(annotations, "w", encoding="utf-8") as fh:
        for i in range(n_samples):
            labels = " ".join(tokens[c] for c in cols[bounds[i]:bounds[i + 1]])
            fh.write(f"img{i:06d} {labels}\n")
    knowledge = directory / "knowledge.tsv"
    with open(knowledge, "w", encoding="utf-8") as fh:
        for head, rel, tail, weight in knowledge_records(seed, names, n_edges, n_unknown):
            fh.write(f"{head}\t{rel}\t{tail}\t{weight!r}\n")
    return CocoFiles(vocabulary, annotations, knowledge, y, n_edges, n_unknown)
