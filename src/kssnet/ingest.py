"""Loaders for label vocabularies, annotations, knowledge edges, and word embeddings.

All structures are immutable after construction and safe to share across
threads.  Loading itself is single-threaded.

An :class:`AnnotationSet` is stored as arrays, not as one Python object per
sample: a tuple of sample ids plus CSR ``indptr``/``indices`` (``intp``,
read-only), each row's labels sorted and without repeats.  The loader fills
them from one numpy pass over the file's code points: it finds every token's
span and which tokens open a line there, and matches the label tokens
against the vocabulary as rows of 64-bit words.  Only the sample ids become
Python strings, so loading a COCO-scale file makes no object per label and
leaves no per-sample containers for the cyclic garbage collector to scan.

Every loader reads its file through :func:`kssnet.storage.read_text`, so a
file that is not UTF-8 fails as a :class:`FormatError` that names it, and a
byte-order mark that opens the file is not part of its first record.

File formats
------------
vocabulary       one label per line, UTF-8
annotations      whitespace-separated ``sample_id label...`` lines; spaces
                 inside a label name are written as underscores
knowledge edges  TSV ``head <TAB> relation <TAB> tail <TAB> weight``
embedding table  text, ``token v1 v2 ... vF`` per line (GloVe-style), finite
                 values
"""

from __future__ import annotations

import random
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
    each access.  The one constructor,
    ``AnnotationSet(n_labels, sample_ids, lengths, labels)``, takes the
    labels listed sample by sample, ``lengths[i]`` of them for sample i, in
    any order within a sample and possibly repeated.

    Empty label sets are legal, not rejected, since they legitimately
    contribute zero to co-occurrence counts.
    """

    n_labels: int
    sample_ids: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray

    def __init__(self, n_labels: int, sample_ids, lengths, labels):
        sample_ids = tuple(sample_ids)
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


# The code points ``str.isspace()`` accepts beyond 9-13 and 28-32, and those
# ``str.splitlines()`` breaks at beyond 10-13 and 28-30.
_NON_ASCII_SPACES = np.array([0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029,
                              0x202F, 0x205F, 0x3000], dtype=np.uint32)
_NON_ASCII_BREAKS = np.array([0x85, 0x2028, 0x2029], dtype=np.uint32)
# Bytes of code points gathered per block of label tokens, so that no work
# array grows with the file: 2**15 tokens when the longest form fits 16 bytes.
_RESOLVE_BLOCK_BYTES = 2 ** 19


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


class _FormTable:
    """The label tokens that :meth:`LabelVocabulary.resolve` maps, as rows of 64-bit words.

    The forms are every name verbatim, then, for each name without ``_``,
    that name with its spaces written as ``_``, unless a name is already
    that form.  On every token without whitespace this map equals
    ``resolve``:

    - a token that is a name maps to it in both;
    - any other token ``t`` that ``resolve`` maps is one whose
      ``t.replace("_", " ")`` is a name ``n``.  ``n`` has no ``_``, and
      ``t`` has no space, so ``n.replace(" ", "_")`` is ``t``: ``t`` is
      ``n``'s form;
    - conversely, the form of a name ``n`` without ``_`` turns back into
      ``n`` by ``replace("_", " ")``, so ``resolve`` maps it to ``n``, and
      no two names have the same form.

    A form holding whitespace is never a token and is left out, and so are
    non-ASCII forms when the text is ASCII and its code points are bytes.

    Each form is its code points, zero-padded to ``width`` (the longest
    form, rounded up to whole 64-bit words), viewed as ``uint64`` words.
    A row of words and its length hash to one of ``2**bits`` slots as
    ``(sum(word_j * m_j) + length * m_L) >> (64 - bits)`` in wrapping
    ``uint64`` arithmetic, with ``bits = 2 * bit_length(#forms) + 2``: 2**16
    one-byte slots for 80 names, 2**24 two-byte slots for 2,000.  The
    multipliers come from a fixed seed and are drawn again until every
    form has a slot of its own, which a draw achieves with probability
    above 7/8.  Row 0 of the form arrays is a sentinel of length 0: the
    empty slots hold it, and no token matches it.
    """

    def __init__(self, vocab: LabelVocabulary, dtype):
        forms = dict(vocab.index)
        for name, code in vocab.index.items():
            if "_" not in name:
                forms.setdefault(name.replace(" ", "_"), code)
        byte_forms = dtype == np.uint8
        forms = {form: code for form, code in forms.items()
                 if form.split() == [form] and (form.isascii() or not byte_forms)}
        per_word = 8 // np.dtype(dtype).itemsize
        longest = max(map(len, forms), default=1)
        self.width = -(-longest // per_word) * per_word
        self.lengths = np.array([0, *map(len, forms)], dtype=np.intp)
        self.codes = np.array([-1, *forms.values()], dtype=np.intp)
        points = np.zeros((len(forms) + 1, self.width), dtype=dtype)
        for row, form in enumerate(forms, 1):
            points[row, :len(form)] = [ord(c) for c in form]
        self.words = points.view(np.uint64)
        # masks[k] keeps the first k code points of a row
        keep = np.arange(self.width) < np.arange(self.width + 1)[:, None]
        self.masks = np.where(keep, np.iinfo(dtype).max, 0).astype(dtype).view(np.uint64)
        self.shift = np.uint64(64 - (2 * len(forms).bit_length() + 2))
        # the stdlib generator and a set: numpy.random and np.unique (which
        # imports numpy.ma) would add 12-28 ms of imports to a first load
        rng = random.Random(0x6B73736E)
        while True:
            draw = [rng.getrandbits(64) | 1 for _ in range(self.words.shape[1] + 1)]
            self.multipliers = np.array(draw, dtype=np.uint64)
            slots = self._slots(self.words[1:], self.lengths[1:])
            if len(set(slots.tolist())) == slots.size:
                break
        self.slots = np.zeros(1 << (64 - int(self.shift)), dtype=np.min_scalar_type(len(forms)))
        self.slots[slots] = np.arange(1, len(forms) + 1)

    def _slots(self, words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        h = lengths.astype(np.uint64) * self.multipliers[-1]
        for j in range(words.shape[1]):  # a column at a time: numpy is slow to sum short rows
            h += words[:, j] * self.multipliers[j]
        return h >> self.shift

    def resolve(self, window: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The vocabulary index of each token, or -1 where it matches no form.

        Token ``i`` is the ``lengths[i]`` code points at ``starts[i]``, and
        ``window`` is the text's ``width``-wide sliding windows, zero-padded
        past its end.  A token resolves only if its length and every word
        equal those of the form in its slot, so a slot that two rows share
        can never give a wrong label.
        """
        words = window[starts].view(np.uint64)
        words &= np.take(self.masks, np.minimum(lengths, self.width), axis=0)
        form = self.slots[self._slots(words, lengths)]
        match = self.lengths[form] == lengths
        for j, column in enumerate(np.take(self.words, form, axis=0).T):
            match &= column == words[:, j]
        return np.where(match, self.codes[form], -1)


def _raise_unknown(path, text: str, vocab: LabelVocabulary):
    """Raise for every label token of ``text`` that ``vocab`` cannot resolve, line by line."""
    unknown = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        for token in raw.split()[1:]:
            try:
                vocab.resolve(token)
            except KeyError:
                unknown.append(f"{path}:{lineno}: {token!r}")
    raise FormatError("unknown label name(s): " + ", ".join(unknown))


def load_annotations(path, vocab: LabelVocabulary) -> AnnotationSet:
    """Read ``sample_id label...`` lines, resolving names to indices.

    Unknown label names abort with an error listing every offender.

    One numpy pass over the text's code points, one byte each for ASCII
    text and UTF-32 otherwise, finds the span of every token: the
    whitespace mask, padded with spaces at both ends, changes value at each
    token's start and end.  A token opens a line, and is a sample id, if it
    is the first or a line break lies between it and the token before.  The
    label tokens are matched against the vocabulary's forms
    (``_FormTable``) as rows of 64-bit words, gathered from the text
    through a sliding window in blocks of ``_RESOLVE_BLOCK_BYTES``.  No
    Python string is made per label: only the sample ids are, sliced from
    the text, as code-point indices are ``str`` indices in both encodings.
    No container is built per line or per sample.  The error for unknown
    names walks the text line by line again, with ``vocab.resolve``.
    """
    text = read_text(path)
    if text.isascii():
        cp = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    space, breaks = _spaces_and_breaks(cp)
    gap = np.ones(cp.size + 2, dtype=bool)  # the text starts and ends after a space
    gap[1:-1] = space
    edges = np.flatnonzero(gap[:-1] != gap[1:])
    del space, gap  # full-length masks, freed before the tokens are matched
    starts, ends = edges[0::2], edges[1::2]
    # one searchsorted marks the token after each break; a last slot takes
    # the breaks after the last token
    is_id = np.zeros(starts.size + 1, dtype=bool)
    is_id[np.searchsorted(starts, breaks)] = True
    is_id[0] = True
    is_id = is_id[:-1]
    opener = np.flatnonzero(is_id)
    lengths = np.diff(opener, append=starts.size)

    forms = _FormTable(vocab, cp.dtype)
    window = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((cp, np.zeros(forms.width, dtype=cp.dtype))), forms.width)
    is_label = ~is_id
    label_starts = starts[is_label]
    label_lengths = ends[is_label] - label_starts
    labels = np.empty(label_starts.size, dtype=np.intp)
    block = max(1, _RESOLVE_BLOCK_BYTES // (forms.width * cp.itemsize))
    for lo in range(0, labels.size, block):
        hi = lo + block
        labels[lo:hi] = forms.resolve(window, label_starts[lo:hi], label_lengths[lo:hi])
    if labels.size and labels.min() < 0:
        _raise_unknown(path, text, vocab)
    sample_ids = tuple([text[a:b] for a, b in zip(starts[opener].tolist(), ends[opener].tolist())])
    return AnnotationSet(len(vocab), sample_ids, lengths - 1, labels)


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
        if not np.isfinite(rows[token]).all():
            raise FormatError(f"{path}:{lineno}: non-finite vector component")
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
