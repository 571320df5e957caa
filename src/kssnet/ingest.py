"""Loaders for label vocabularies, annotations, knowledge edges, and word embeddings.

All structures are immutable after construction and safe to share across
threads.  Loading itself is single-threaded.

An :class:`AnnotationSet` is stored as arrays, not as one Python object per
sample: a tuple of sample ids plus CSR ``indptr``/``indices`` (``intp``,
read-only), each row's labels sorted and without repeats.  The loader fills
them from one split of the whole file, so loading a COCO-scale file leaves no
per-sample containers for the cyclic garbage collector to scan.  Which of
those tokens open a line it reads off the text's code points, not off a
second, line-by-line split.

Every loader reads its file through :func:`kssnet.storage.read_text`, so a
file that is not UTF-8 fails as a :class:`FormatError` that names it.

File formats
------------
vocabulary       one label per line, UTF-8
annotations      whitespace-separated ``sample_id label...`` lines; spaces
                 inside a label name are written as underscores
knowledge edges  TSV ``head <TAB> relation <TAB> tail <TAB> weight``
embedding table  text, ``token v1 v2 ... vF`` per line (GloVe-style)
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .storage import FormatError, read_text


class UnresolvedLabelError(ValueError):
    """No word of a label name resolves in the embedding table."""


_WORD_SPLIT = re.compile(r"[\s\-]+")


def tokenize_label(name: str) -> list[str]:
    """Lowercase a label name and split it on whitespace and hyphens."""
    return [w for w in _WORD_SPLIT.split(name.lower()) if w]


@dataclass(frozen=True)
class LabelVocabulary:
    """Ordered label names with stable integer indices (the graph's node set)."""

    names: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.names) == 0:
            raise FormatError("vocabulary is empty")
        index: dict[str, int] = {}
        for i, name in enumerate(self.names):
            if name in index:
                raise FormatError(f"duplicate label {name!r}")
            index[name] = i
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.names)

    def resolve(self, token: str) -> int:
        """Map a label token to its index.

        Tries the token verbatim first, then with underscores replaced by
        spaces (the annotation-file encoding for multi-word names).
        """
        if token in self.index:
            return self.index[token]
        spaced = token.replace("_", " ")
        if spaced in self.index:
            return self.index[spaced]
        raise KeyError(token)


@dataclass(frozen=True, init=False, eq=False)
class AnnotationSet:
    """Per-sample label index sets drawn from a fixed vocabulary, stored as CSR.

    Sample ``i`` is ``sample_ids[i]`` and carries the labels
    ``indices[indptr[i]:indptr[i + 1]]``, sorted and without repeats.  Both
    arrays are read-only ``intp``, and they are the only stored form:
    :attr:`samples` rebuilds the ``((sample_id, frozenset), ...)`` view on
    each access.  ``AnnotationSet(n_labels, samples)`` builds the arrays from
    that view; :meth:`from_rows` builds them from flat label arrays.

    Empty label sets are legal, not rejected, since they legitimately
    contribute zero to co-occurrence counts.
    """

    n_labels: int
    sample_ids: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray

    def __init__(self, n_labels: int, samples=()):
        samples = tuple(samples)
        lengths = np.fromiter((len(labels) for _, labels in samples), np.intp, len(samples))
        labels = np.fromiter(itertools.chain.from_iterable(labels for _, labels in samples),
                             np.intp, int(lengths.sum()))
        self._store(n_labels, tuple(sid for sid, _ in samples), lengths, labels)

    @classmethod
    def from_rows(cls, n_labels: int, sample_ids, lengths, labels) -> AnnotationSet:
        """Build from ``labels`` listed sample by sample, ``lengths[i]`` for sample i.

        Within a sample the labels may come in any order and repeat.
        """
        ann = cls.__new__(cls)
        ann._store(n_labels, tuple(sample_ids), lengths, labels)
        return ann

    def _store(self, n_labels, sample_ids, lengths, labels) -> None:
        if n_labels < 1:
            raise FormatError("n_labels must be >= 1")
        lengths = np.asarray(lengths, dtype=np.intp)
        labels = np.asarray(labels, dtype=np.intp)
        if lengths.shape != (len(sample_ids),) or lengths.sum() != labels.size:
            raise ValueError(f"{len(sample_ids)} samples, {lengths.shape} lengths summing to "
                             f"{lengths.sum()}, {labels.size} labels")
        rows = np.repeat(np.arange(len(sample_ids)), lengths)
        if len(set(sample_ids)) != len(sample_ids) or (
                labels.size and (labels.min() < 0 or labels.max() >= n_labels)):
            _raise_first_invalid(n_labels, sample_ids, rows, labels)
        # one sort of the (row, label) keys orders each row and brings repeats together
        keys = rows * n_labels + labels
        keys.sort()
        keep = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        rows, indices = np.divmod(keys[keep], n_labels)
        indptr = np.zeros(len(sample_ids) + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=len(sample_ids)), out=indptr[1:])
        indptr.flags.writeable = False
        indices.flags.writeable = False
        object.__setattr__(self, "n_labels", n_labels)
        object.__setattr__(self, "sample_ids", sample_ids)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    def __eq__(self, other):
        if not isinstance(other, AnnotationSet):
            return NotImplemented
        return (self.n_labels == other.n_labels and self.sample_ids == other.sample_ids
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.n_labels, self.sample_ids, self.indptr.tobytes(),
                     self.indices.tobytes()))

    def __len__(self) -> int:
        return len(self.sample_ids)

    @property
    def samples(self) -> tuple[tuple[str, frozenset[int]], ...]:
        bounds = self.indptr.tolist()
        labels = self.indices.tolist()
        return tuple((sid, frozenset(labels[lo:hi]))
                     for sid, lo, hi in zip(self.sample_ids, bounds, bounds[1:]))


def _raise_first_invalid(n_labels, sample_ids, rows, labels):
    """Raise for the first sample with a repeated id or an out-of-range label."""
    seen: set[str] = set()
    dup = len(sample_ids)
    for i, sample_id in enumerate(sample_ids):
        if sample_id in seen:
            dup = i
            break
        seen.add(sample_id)
    bad = np.flatnonzero((labels < 0) | (labels >= n_labels))
    # a sample's id is checked before its labels
    if bad.size and rows[bad[0]] < dup:
        sample_id = sample_ids[rows[bad[0]]]
        raise FormatError(f"sample {sample_id!r}: label index {labels[bad[0]]} outside "
                          f"[0, {n_labels})")
    raise FormatError(f"duplicate sample_id {sample_ids[dup]!r}")


@dataclass(frozen=True)
class KnowledgeEdgeList:
    """Weighted relation triples between vocabulary labels.

    Multiple triples per (head, tail) pair are allowed; ``dropped`` counts
    input records whose endpoints fell outside the vocabulary (semantic
    networks rarely cover a dataset's full label set).
    """

    n_labels: int
    triples: tuple[tuple[int, int, str, float], ...]
    dropped: int = 0

    def __post_init__(self):
        for head, tail, relation, weight in self.triples:
            if not (0 <= head < self.n_labels and 0 <= tail < self.n_labels):
                raise FormatError(f"edge ({head}, {tail}) outside [0, {self.n_labels})")
            if not np.isfinite(weight) or weight < 0:
                raise FormatError(
                    f"edge ({head}, {tail}, {relation!r}): weight {weight} must be finite and >= 0"
                )

    def __len__(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class EmbeddingTable:
    """Token -> fixed-width real vector map."""

    dim: int
    rows: dict[str, np.ndarray]

    def __post_init__(self):
        if self.dim < 1:
            raise FormatError("embedding dim must be >= 1")
        for token, vec in self.rows.items():
            if vec.shape != (self.dim,):
                raise FormatError(
                    f"token {token!r}: expected {self.dim} values, got {vec.shape}"
                )


def load_vocabulary(path) -> LabelVocabulary:
    """Read one label per line; line order defines the indices."""
    lines = read_text(path).splitlines()
    names = []
    for lineno, raw in enumerate(lines, start=1):
        name = raw.strip()
        if not name:
            raise FormatError(f"{path}:{lineno}: empty label")
        names.append(name)
    try:
        return LabelVocabulary(tuple(names))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


class _LabelCodes(dict):
    """Label token -> vocabulary index, or -1 if unknown; resolves each token once."""

    def __init__(self, vocab: LabelVocabulary):
        super().__init__()
        self.vocab = vocab

    def __missing__(self, token: str) -> int:
        try:
            code = self.vocab.resolve(token)
        except KeyError:
            code = -1
        self[token] = code
        return code


# The code points ``str.isspace()`` accepts beyond 9-13 and 28-32, and those
# ``str.splitlines()`` breaks at beyond 10-13 and 28-30.
_NON_ASCII_SPACES = np.array([0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029,
                              0x202F, 0x205F, 0x3000], dtype=np.uint32)
_NON_ASCII_BREAKS = np.array([0x85, 0x2028, 0x2029], dtype=np.uint32)


def _spaces_and_breaks(cp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The whitespace mask of the code points ``cp`` and the positions of line breaks.

    ``cp`` is ``uint8`` for ASCII text and ``uint32`` otherwise; only the
    latter is tested for the non-ASCII code points.  The unsigned
    differences wrap below zero, so ``cp - lo < n`` tests ``lo <= cp < lo + n``.
    """
    space = (cp - 9 < 5) | (cp - 28 < 5)
    breaks = (cp - 10 < 4) | (cp - 28 < 3)
    if cp.dtype != np.uint8:
        space |= np.isin(cp, _NON_ASCII_SPACES)
        breaks |= np.isin(cp, _NON_ASCII_BREAKS)
    return space, np.flatnonzero(breaks)


def _line_openers(text: str, n_tokens: int) -> np.ndarray:
    """Which of the ``n_tokens`` tokens of ``text.split()`` open a line, as a bool mask.

    A token starts at a non-space after a space, with the spaces those of
    ``str.isspace``, and opens a line if it is the first or a break of
    ``str.splitlines`` lies between it and the token before.  The code
    points are one byte each for ASCII text and UTF-32 otherwise.  The
    full-length arrays live only in this call, so they are freed before
    the tokens are resolved.
    """
    if text.isascii():
        cp = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    space, breaks = _spaces_and_breaks(cp)
    gap = np.concatenate(([True], space))  # the text starts after a space
    starts = np.flatnonzero(gap[:-1] > gap[1:])
    # one searchsorted marks the token after each break; a last slot takes
    # the breaks after the last token
    opens = np.zeros(n_tokens + 1, dtype=bool)
    opens[np.searchsorted(starts, breaks)] = True
    opens[0] = True
    return opens[:-1]


def load_annotations(path, vocab: LabelVocabulary) -> AnnotationSet:
    """Read ``sample_id label...`` lines, resolving names to indices.

    Unknown label names abort with an error listing every offender.

    The text is split into tokens once, by ``str.split``.  Which tokens open
    a line, and are thus sample ids, comes from the text's code points, not
    from a second, line-by-line split (``_line_openers``).  No container is
    built per line or per sample.
    """
    text = read_text(path)
    tokens = text.split()
    is_id = _line_openers(text, len(tokens))
    lengths = np.diff(np.flatnonzero(is_id), append=len(tokens))
    codes = _LabelCodes(vocab)
    labels = np.fromiter(map(codes.__getitem__, itertools.compress(tokens, (~is_id).tolist())),
                         np.intp, len(tokens) - lengths.size)
    if labels.size and labels.min() < 0:
        unknown = [f"{path}:{lineno}: {tok!r}" for lineno, raw in enumerate(text.splitlines(), 1)
                   for tok in raw.split()[1:] if codes[tok] < 0]
        raise FormatError("unknown label name(s): " + ", ".join(unknown))
    sample_ids = tuple(itertools.compress(tokens, is_id.tolist()))
    return AnnotationSet.from_rows(len(vocab), sample_ids, lengths - 1, labels)


def load_knowledge_edges(path, vocab: LabelVocabulary) -> KnowledgeEdgeList:
    """Read TSV relation triples, dropping records that touch unknown labels.

    Dropped records are counted, not reported individually; negative weights
    and malformed records are hard errors.
    """
    triples = []
    dropped = 0
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 4:
            raise FormatError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}")
        head_name, relation, tail_name, weight_str = (f.strip() for f in fields)
        try:
            weight = float(weight_str)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad weight {weight_str!r}") from None
        if not np.isfinite(weight) or weight < 0:
            raise FormatError(f"{path}:{lineno}: weight {weight_str!r} must be finite and >= 0")
        try:
            head = vocab.resolve(head_name)
            tail = vocab.resolve(tail_name)
        except KeyError:
            dropped += 1
            continue
        triples.append((head, tail, relation, weight))
    return KnowledgeEdgeList(len(vocab), tuple(triples), dropped)


def load_embedding_table(path) -> EmbeddingTable:
    """Read a GloVe-style text table; the first line fixes the width."""
    rows: dict[str, np.ndarray] = {}
    dim = None
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        if not raw.strip():
            continue
        parts = raw.split()
        token, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim < 1:
                raise FormatError(f"{path}:{lineno}: no vector components")
        elif len(values) != dim:
            raise FormatError(f"{path}:{lineno}: expected {dim} values, got {len(values)}")
        if token in rows:
            raise FormatError(f"{path}:{lineno}: duplicate token {token!r}")
        try:
            rows[token] = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric vector component") from None
    if dim is None:
        raise FormatError(f"{path}: empty embedding table")
    return EmbeddingTable(dim, rows)


def build_initial_embeddings(table: EmbeddingTable, vocab: LabelVocabulary) -> np.ndarray:
    """Build the N x F initial label-embedding matrix in vocabulary order.

    Single-word labels take their table row directly; multi-word labels take
    the arithmetic mean of their resolvable words' rows.  A label with zero
    resolvable words is an error.
    """
    out = np.zeros((len(vocab), table.dim), dtype=np.float64)
    for i, name in enumerate(vocab.names):
        vectors = [table.rows[w] for w in tokenize_label(name) if w in table.rows]
        if not vectors:
            raise UnresolvedLabelError(f"label {name!r}: no word found in the embedding table")
        out[i] = np.mean(vectors, axis=0)
    return out
