"""Property tests: the vectorised label pipeline equals the brute-force oracles.

Shapes stay small and scores come from a handful of values, so ties are the
common case, or are distinct, so that AP takes its untied path; the sigmoid
rule is checked on scores at the edges of its logit band.  The block and
tile sizes of the vectorised code are shrunk to a few rows or columns, so
that small inputs still cross their boundaries.  The annotation loader is
checked against a line-by-line reference on ASCII and non-ASCII text with
every kind of whitespace and line break, on files of several blocks of label
tokens and on tokens that miss a label name by one code point.  Every text
loader reads a file the same with a leading byte-order mark.  Every file
loader is fuzzed with truncated and flipped bytes, the checkpoint reader with
flipped bytes only (``test_model.py`` tries every truncation of one and every
single-byte change).
"""

import dataclasses
import math
import random
import struct
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from kssnet import autodiff, graph, ingest, metrics, storage
from kssnet.ingest import AnnotationSet, FormatError

import oracles
from test_ingest import annotation_set
from test_metrics import top_k_reference
from test_model import v2_checkpoint

SETTINGS = settings(max_examples=200, deadline=None, database=None)
TIED_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])


@st.composite
def annotation_sets(draw):
    n = draw(st.integers(1, 6))
    label_sets = draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=12))
    return annotation_set(n, ((f"s{i}", labels) for i, labels in enumerate(label_sets)))


@st.composite
def ranked_columns(draw):
    n = draw(st.integers(1, 25))
    scores = draw(st.one_of(
        st.lists(TIED_VALUES, min_size=n, max_size=n),
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n, unique=True)))
    targets = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if not any(targets):
        targets[draw(st.integers(0, n - 1))] = 1
    return scores, targets


@st.composite
def score_matrices(draw):
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(1, 7))
    values = draw(st.lists(TIED_VALUES, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


@SETTINGS
@given(annotation_sets(), st.integers(1, 4))
def test_cooccurrence_counts_match_oracle(ann, block_rows):
    with mock.patch.object(graph, "_COOC_BLOCK_ROWS", block_rows):
        m, counts = graph.cooccurrence_counts(ann)
    m_ref, counts_ref = oracles.cooccurrence_oracle(ann.samples, ann.n_labels)
    npt.assert_array_equal(m, m_ref)
    npt.assert_array_equal(counts, counts_ref)


@SETTINGS
@given(ranked_columns())
def test_average_precision_equals_oracle_bitwise(case):
    scores, targets = case
    column = metrics.per_class_ap(np.array(scores)[:, None], np.array(targets)[:, None])
    assert column[0] == oracles.ap_oracle(scores, targets)


@SETTINGS
@given(score_matrices(), st.integers(1, 3), st.integers(1, 3))
def test_per_class_ap_equals_oracle_bitwise(scores, block_cols, tile_rows):
    targets = (scores > 0.5).astype(int)
    with mock.patch.object(metrics, "_AP_BLOCK_COLS", block_cols), \
            mock.patch.object(metrics, "_AP_TILE_ROWS", tile_rows):
        aps = metrics.per_class_ap(scores, targets)
    for c in range(scores.shape[1]):
        if targets[:, c].any():
            assert aps[c] == oracles.ap_oracle(scores[:, c].tolist(), targets[:, c].tolist())
        else:
            assert np.isnan(aps[c])


@SETTINGS
@given(score_matrices(), st.integers(0, 9), st.integers(1, 4))
def test_top_k_equals_stable_sort(scores, k, block_rows):
    with mock.patch.object(metrics, "_DECIDE_BLOCK_ROWS", block_rows):
        pred = metrics.decide(scores, ("top_k", k))
    npt.assert_array_equal(pred, top_k_reference(scores, k))


def _with_neighbours(values):
    return [u for v in values for u in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]


# The edges of the thresholds whose logit band is used, 0.5, and thresholds
# whose sigmoid rule is decided by evaluating every score.
SIGMOID_THRESHOLDS = st.sampled_from(
    _with_neighbours([0.0, 0.5, 1.0, 2.0 ** -20, 1.0 - 2.0 ** -20]) + [5e-324, -0.25, 1.5, math.nan])


@st.composite
def sigmoid_cases(draw):
    """A threshold t and scores at and around its logit band, plus extremes."""
    t = draw(SIGMOID_THRESHOLDS)
    anchors = [0.0, -0.0, 1e-300, -1e-300, 1000.0, -1000.0]
    if 0.0 < t < 1.0:
        z = math.log(t) - math.log1p(-t)
        delta = 1e-6 * max(1.0, abs(z))
        anchors += _with_neighbours([z - delta, z, z + delta])
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(1, 7))
    values = draw(st.lists(st.one_of(st.sampled_from(anchors), st.floats(-40.0, 40.0)),
                           min_size=rows * cols, max_size=rows * cols))
    return t, np.array(values, dtype=np.float64).reshape(rows, cols)


@SETTINGS
@given(sigmoid_cases(), st.integers(1, 4))
def test_sigmoid_decision_equals_plain_rule(case, block_rows):
    t, scores = case
    with mock.patch.object(metrics, "_DECIDE_BLOCK_ROWS", block_rows):
        pred = metrics.decide(scores, ("sigmoid", t))
    assert pred.dtype == bool
    npt.assert_array_equal(pred, autodiff._sigmoid(scores) >= t)


# --- annotation loader ----------------------------------------------------

# "sports_ball" is a name of its own, so the token resolves verbatim; "hot_dog"
# and "a_b_c" resolve through their spaced names; "x_y_z" matches neither
# "x_y z" nor any other name.
LOADER_VOCAB = ingest.LabelVocabulary(
    ("dog", "cat", "sports ball", "sports_ball", "hot dog", "a b c", "x_y z", "café"))
KNOWN_TOKENS = ["dog", "cat", "sports_ball", "hot_dog", "a_b_c", "café"]
UNKNOWN_TOKENS = ["horse", "x_y_z", "sports-ball", "_", "Dog", "é", "\u200b"]
# Every break of str.splitlines(), and every other str.isspace() code point.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]
GAPS = [" ", "\t", "  ", " \t ", "\x1f", "\xa0", "\u1680", *map(chr, range(0x2000, 0x200B)),
        "\u202f", "\u205f", "\u3000"]


def reference_load_annotations(path, vocab):
    """The loader written line by line, one set per sample; returns the samples.

    The ``utf-8-sig`` codec drops one leading byte-order mark, as the loader does.
    """
    samples, unknown, seen = [], [], set()
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        tokens = raw.split()
        if not tokens:
            continue
        labels = set()
        for tok in tokens[1:]:
            try:
                labels.add(vocab.resolve(tok))
            except KeyError:
                unknown.append(f"{path}:{lineno}: {tok!r}")
        samples.append((tokens[0], frozenset(labels)))
    if unknown:
        raise FormatError("unknown label name(s): " + ", ".join(unknown))
    for sample_id, _ in samples:
        if sample_id in seen:
            raise FormatError(f"duplicate sample_id {sample_id!r}")
        seen.add(sample_id)
    return tuple(samples)


@st.composite
def annotation_texts(draw):
    # half the texts are ASCII, which the loader reads a byte per code point
    ascii_only = draw(st.booleans())

    def pool(items):
        return [x for x in items if x.isascii() or not ascii_only]

    tokens = pool(KNOWN_TOKENS + UNKNOWN_TOKENS * (draw(st.integers(0, 2)) == 0))
    gap_pool, break_pool = pool(GAPS), pool(LINE_BREAKS)
    parts = []
    for i in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 5)) == 0:  # a blank or whitespace-only line
            parts.append(draw(st.sampled_from(["", *gap_pool])))
        else:
            sample_id = draw(st.sampled_from(pool([f"img{i}"] * 6 + ["img0", "dog", f"é{i}"])))
            line = [sample_id, *draw(st.lists(st.sampled_from(tokens), max_size=6))]
            gaps = draw(st.lists(st.sampled_from(gap_pool), min_size=len(line) + 1,
                                 max_size=len(line) + 1))
            parts.append(gaps[0] * draw(st.booleans())
                         + "".join(t + g for t, g in zip(line, gaps[1:])))
        parts.append(draw(st.sampled_from(break_pool)))
    if parts and draw(st.booleans()):
        parts.pop()  # no break after the last line
    return "".join(parts)


def _load_both(text: bytes, vocab=LOADER_VOCAB):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "annotations.txt"
        path.write_bytes(text)
        outcomes = []
        for load in (ingest.load_annotations, reference_load_annotations):
            try:
                outcomes.append(load(path, vocab))
            except FormatError as exc:
                outcomes.append(exc)
        return outcomes


def _assert_same_outcome(loaded, reference, vocab=LOADER_VOCAB):
    if isinstance(reference, FormatError):
        assert isinstance(loaded, FormatError)
        assert str(loaded) == str(reference)
    else:
        assert isinstance(loaded, AnnotationSet)
        assert loaded.n_labels == len(vocab)
        assert loaded.samples == reference


@SETTINGS
@given(annotation_texts())
def test_load_annotations_equals_line_by_line_reference(text):
    _assert_same_outcome(*_load_both(text.encode("utf-8")))


def _block_scale_text(ascii_only: bool, unknown: bool) -> str:
    """24,000 lines holding over 70,000 label tokens, drawn with a fixed seed."""
    rng = random.Random(26)
    tokens = [t for t in KNOWN_TOKENS if t.isascii() or not ascii_only]
    gaps, breaks = ([" ", "\t"], ["\n", "\r\n"]) if ascii_only else \
        ([" ", "\xa0", "\u3000"], ["\n", "\u2028"])
    lines = []
    for i in range(24_000):
        sample_id = f"img{i}" if ascii_only or i % 3 else f"é{i}"
        line = [sample_id, *rng.choices(tokens, k=rng.randint(0, 7))]
        lines.append("".join(t + rng.choice(gaps) for t in line) + rng.choice(breaks))
    if unknown:
        lines.append("last dog horse\n")
    return "".join(lines)


@pytest.mark.parametrize("ascii_only,unknown", [(True, False), (False, False), (False, True)],
                         ids=["ascii", "non_ascii", "non_ascii_unknown_last"])
def test_load_annotations_equals_reference_across_blocks(ascii_only, unknown):
    # Over 70,000 label tokens: the loader matches them block by block, and
    # the last of three or more blocks is partial.
    text = _block_scale_text(ascii_only, unknown)
    assert text.isascii() == ascii_only
    sizes = []
    resolve = ingest._FormTable.resolve

    def spy(self, window, starts, lengths):
        sizes.append(starts.size)
        return resolve(self, window, starts, lengths)

    with mock.patch.object(ingest._FormTable, "resolve", spy):
        loaded, reference = _load_both(text.encode("utf-8"))
    assert sum(sizes) >= 70_000 and len(sizes) >= 3 and 0 < sizes[-1] < sizes[0]
    _assert_same_outcome(loaded, reference)


def _near_misses(form: str, longest: int) -> list[str]:
    """The form, then tokens that differ from it in one code point or in length."""
    out = [form, form[:-1], form + "a", form + "\x00", "z" * (longest + 9)]
    out += [form[:i] + chr(ord(c) ^ 1) + form[i + 1:] for i, c in enumerate(form)]
    return [t for t in out if t]


@pytest.mark.parametrize("ascii_only", [True, False], ids=["ascii", "non_ascii"])
def test_load_annotations_equals_reference_on_near_miss_tokens(ascii_only):
    # 1,000 generated names beside LOADER_VOCAB's, so that a lookup table of
    # the vocabulary's tokens holds over a thousand entries.  Every way a
    # name is written in a file, and each near miss of it, is one line.
    rng = random.Random(7)
    alphabet = "abcxyz019_ " + ("" if ascii_only else "éß漢")
    names = list(LOADER_VOCAB.names)
    while len(names) < len(LOADER_VOCAB) + 1000:
        name = "".join(rng.choices(alphabet, k=rng.randint(1, 24))).strip()
        if name and name not in names:
            names.append(name)
    vocab = ingest.LabelVocabulary(tuple(names))
    forms = {f for n in names for f in (n, n.replace(" ", "_")) if f.split() == [f]}
    longest = max(map(len, forms))
    candidates = sorted({t for f in forms for t in _near_misses(f, longest)
                         if t.isascii() or not ascii_only})
    text = "".join(f"line{k} {t}\n" for k, t in enumerate(candidates))
    assert text.isascii() == ascii_only
    loaded, reference = _load_both(text.encode("utf-8"), vocab)
    _assert_same_outcome(loaded, reference, vocab)
    assert isinstance(reference, FormatError)  # some near misses are unknown
    # and the same file without them, so that every known token's index is compared
    known = [t for t in candidates if t.split() != [t] or _resolves(vocab, t)]
    text = "".join(f"line{k} {t}\n" for k, t in enumerate(known))
    loaded, reference = _load_both(text.encode("utf-8"), vocab)
    _assert_same_outcome(loaded, reference, vocab)
    assert len(reference) == len(known)


@pytest.mark.parametrize("ascii_only", [True, False], ids=["ascii", "non_ascii"])
def test_a_token_in_the_slot_of_another_form_gets_no_label(ascii_only):
    # Every slot of the loader's table is made to hold one form in turn, so
    # each near miss is compared with that form: it takes the form's label
    # only if it is the form, word for word and length for length.
    vocab = ingest.LabelVocabulary(LOADER_VOCAB.names + ("a name of five words",))
    forms = {f for n in vocab.names for f in (n, n.replace(" ", "_")) if f.split() == [f]}
    longest = max(map(len, forms))
    candidates = sorted({t for f in forms for t in _near_misses(f, longest)
                         if t.split() == [t] and (t.isascii() or not ascii_only)})
    dtype = np.uint8 if ascii_only else np.uint32
    table = ingest._FormTable(vocab, dtype)
    text = " ".join(candidates)
    cp = np.frombuffer(text.encode("ascii" if ascii_only else "utf-32-le"), dtype=dtype)
    window = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((cp, np.zeros(table.width, dtype))), table.width)
    lengths = np.array([len(t) for t in candidates])
    starts = np.concatenate(([0], np.cumsum(lengths[:-1] + 1)))
    want = np.array([vocab.resolve(t) if _resolves(vocab, t) else -1 for t in candidates])
    assert table.words.shape[1] >= 3 and (want >= 0).sum() == table.codes.size - 1
    for row in range(table.codes.size):
        table.slots[:] = row
        got = table.resolve(window, starts, lengths)
        npt.assert_array_equal(got, np.where(want == table.codes[row], want, -1))


def _resolves(vocab, token: str) -> bool:
    try:
        vocab.resolve(token)
    except KeyError:
        return False
    return True


def test_code_point_classes_equal_str_methods():
    cp = np.arange(sys.maxunicode + 1, dtype=np.uint32)
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    space, breaks = ingest._spaces_and_breaks(cp)
    npt.assert_array_equal(space, [c.isspace() for c in chars])
    npt.assert_array_equal(breaks, [i for i, c in enumerate(chars)
                                    if len(f"a{c}b".splitlines()) == 2])
    ascii_space, ascii_breaks = ingest._spaces_and_breaks(cp[:128].astype(np.uint8))
    npt.assert_array_equal(ascii_space, space[:128])
    npt.assert_array_equal(ascii_breaks, breaks[breaks < 128])


VALID_FILE = ("img1 dog cat\nimg2 sports_ball\n\nimg3\nimg4 hot_dog a_b_c dog\n"
              "img5\tcat\r\nimg6 sports_ball sports_ball\n").encode("utf-8")
# Each storage text loader with a file it reads without error.
STORAGE_FILES = {
    "config": (storage.load_config,
               "epochs = 3\nlr = 0.01 # step\n\nseed=7\r\nname = café\n".encode("utf-8")),
    "matrix": (storage.load_matrix_text, b"2 3\n1 0.5 -2\n\n3e-1 0 1e300\n"),
}
# Each other dataset-input loader with a file it reads without error.
INPUT_FILES = {
    "vocabulary": (ingest.load_vocabulary,
                   "dog\ncat\nsports ball\ncafé\nhot dog\n".encode("utf-8")),
    "knowledge": (lambda path: ingest.load_knowledge_edges(path, LOADER_VOCAB),
                  "dog\tis a\tcat\t1.0\nsports_ball\tused for\thot dog\t0.5\n\n"
                  "café\trelated to\thorse\t2e-3\n".encode("utf-8")),
    "embedding": (ingest.load_embedding_table,
                  "dog 1.0 -2.5 3e-1\ncat 0 0.5 1e300\n\ncafé 1 2 3\n".encode("utf-8")),
}
# Each text loader with a file it reads without error.
TEXT_FILES = {**STORAGE_FILES, **INPUT_FILES,
              "annotations": (lambda path: ingest.load_annotations(path, LOADER_VOCAB), VALID_FILE)}


def _comparable(result):
    """A loader's result with its arrays as bytes, so that ``==`` compares all of it."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, dict):
        return {key: _comparable(value) for key, value in result.items()}
    if dataclasses.is_dataclass(result):
        return type(result), _comparable(vars(result))
    return result


@pytest.mark.parametrize("kind", sorted(TEXT_FILES))
def test_a_leading_byte_order_mark_leaves_every_loader_result_unchanged(kind):
    load, valid = TEXT_FILES[kind]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in (("plain", valid), ("marked", "\ufeff".encode("utf-8") + valid)):
            path = Path(tmp) / f"{name}.txt"
            path.write_bytes(data)
            results.append(_comparable(load(path)))
    assert results[0] == results[1]


def test_a_byte_order_mark_after_the_first_is_kept():
    loaded, reference = _load_both("\ufeff\ufeffimg1 dog\nimg\ufeff2 cat\n".encode("utf-8"))
    assert loaded.sample_ids == ("\ufeffimg1", "img\ufeff2")
    _assert_same_outcome(loaded, reference)
    loaded, reference = _load_both("img1 dog\ufeff\n".encode("utf-8"))
    assert str(loaded).endswith(":1: 'dog\\ufeff'")
    _assert_same_outcome(loaded, reference)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vocabulary.txt"
        path.write_bytes("\ufeffdog\ncat\ufeff\n".encode("utf-8"))
        assert ingest.load_vocabulary(path).names == ("dog", "cat\ufeff")


# A checkpoint of a two-key config, a scalar and a 2x3 matrix, in the documented layout.
CHECKPOINT = v2_checkpoint("epochs = 3\nname = café\n".encode("utf-8"),
                           struct.pack("<I", 2)
                           + struct.pack("<H", 5) + b"scale" + struct.pack("<Bd", 0, 2.5)
                           + struct.pack("<H", 1) + b"w" + struct.pack("<B2I", 2, 2, 3)
                           + np.arange(6.0).astype("<f8").tobytes())


def damaged(valid: bytes, truncate: bool = True):
    """Strategy: ``valid`` cut short (unless ``truncate`` is False), then with
    up to four bytes flipped."""
    flips = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)),
                     max_size=4)
    cut = st.integers(0, len(valid)) if truncate else st.just(len(valid))
    return st.builds(_damage, st.just(valid), cut, flips)


def _damage(valid: bytes, cut: int, flips) -> bytes:
    data = bytearray(valid[:cut])
    for pos, mask in flips:
        if pos < len(data):
            data[pos] ^= mask
    return bytes(data)


@SETTINGS
@given(damaged(VALID_FILE))
def test_damaged_annotation_file_fails_only_as_validation_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "annotations.txt"
        path.write_bytes(data)
        try:
            ann = ingest.load_annotations(path, LOADER_VOCAB)
        except FormatError as exc:
            # every failure names the file but a repeated id, as the reference's does
            assert str(path) in str(exc) or str(exc).startswith("duplicate sample_id")
            return
    assert isinstance(ann, AnnotationSet) and ann.n_labels == len(LOADER_VOCAB)


def _load_damaged(load, name: str, data: bytes) -> None:
    """``load`` a file ``name`` holding ``data``; only a ValueError naming the file may escape."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        try:
            load(path)
        except ValueError as exc:
            assert str(path) in str(exc)


def _damaged_kinds(files):
    return st.sampled_from(sorted(files)).flatmap(
        lambda kind: st.tuples(st.just(kind), damaged(files[kind][1])))


@SETTINGS
@given(_damaged_kinds(STORAGE_FILES))
def test_damaged_storage_file_fails_only_as_validation_error(case):
    kind, data = case
    _load_damaged(STORAGE_FILES[kind][0], f"{kind}.txt", data)


@SETTINGS
@given(_damaged_kinds(INPUT_FILES))
def test_damaged_input_file_fails_only_as_validation_error(case):
    kind, data = case
    _load_damaged(INPUT_FILES[kind][0], f"{kind}.txt", data)


@SETTINGS
@given(damaged(CHECKPOINT, truncate=False))
@example(_damage(CHECKPOINT, len(CHECKPOINT), [(8, 3)]))  # version 2 turned to 1
@example(_damage(CHECKPOINT, len(CHECKPOINT), [(40, 9), (40, 9)]))  # flips that cancel
def test_flipped_checkpoint_fails_only_as_validation_error(data):
    # every copy with a changed byte fails as a ValueError naming the file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(data)
        try:
            storage.load_checkpoint(path)
        except ValueError as exc:
            assert data != CHECKPOINT and str(exc).startswith(f"{path}: "), exc
            return
    assert data == CHECKPOINT
