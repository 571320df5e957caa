"""On-disk formats for numeric data and configs: a writer and a reader for
each numeric format, a reader for configs.

The dataset inputs (vocabulary, annotations, knowledge triples, word
embedding tables) are parsed in :mod:`kssnet.ingest`.  Every text file,
those and the two below, is read through :func:`read_text`, so a file that
is not UTF-8 fails as a :class:`FormatError` that names it.

Named-tensor file (magic ``KSNTCKPT``), used for model checkpoints.  Integers
are little-endian::

    magic      8 bytes   b"KSNTCKPT"
    version    uint32    1
    count      uint32    number of tensors, then per tensor:
      name_len uint16
      name     name_len bytes, UTF-8
      ndim     uint8
      shape    ndim x uint32
      data     prod(shape) x float64, row-major (one value when ndim = 0)

Names are unique.  Nothing follows the last tensor.  A field or payload that
runs past the end of the file, any trailing byte, a repeated name and a shape
numpy cannot hold are each a ``ValueError`` naming the file.

Text matrix, used for adjacencies, score and target matrices and initial
embeddings: a ``rows cols`` header line, then one line per row of
space-separated values, written with 17 significant digits so float64
round-trips exactly.  Blank lines are skipped, except in a matrix with no
columns, whose rows are blank.

Config: flat ``key = value`` lines; ``#`` starts a comment; keys are unique;
no nesting.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

_CKPT_MAGIC = b"KSNTCKPT"
_CKPT_VERSION = 1


class FormatError(ValueError):
    """An input file violates its documented format."""


def read_text(path) -> str:
    """The file's UTF-8 text; a file that does not decode fails as a FormatError naming it."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def save_named_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_named_tensors(path) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    offset = 0

    def take(size: int, what: str) -> bytes:
        nonlocal offset
        if offset + size > len(blob):
            raise ValueError(
                f"{path}: truncated: {what} needs {size} bytes at offset {offset}, "
                f"file has {len(blob)}"
            )
        offset += size
        return blob[offset - size:offset]

    if take(8, "magic") != _CKPT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: tensor name is not UTF-8") from None
        if name in tensors:
            raise ValueError(f"{path}: repeated tensor name {name!r}")
        (ndim,) = struct.unpack("<B", take(1, f"{name!r} ndim"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"{name!r} shape"))
        data = take(8 * math.prod(shape), f"{name!r} data")
        try:
            tensors[name] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
        except ValueError as exc:  # an empty tensor whose other dimensions overflow
            raise ValueError(f"{path}: tensor {name!r} of shape {shape}: {exc}") from None
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after the last tensor")
    return tensors


def save_matrix_text(a: np.ndarray, path) -> None:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix_text(path) -> np.ndarray:
    lines = read_text(path).splitlines()
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        r, c = (int(v) for v in lines[0].split())
    except ValueError:
        r = c = -1
    if min(r, c) < 0:
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    rows = [line.split() for line in lines[1:] if line.strip() or c == 0]
    if len(rows) != r or any(len(row) != c for row in rows):
        raise ValueError(f"{path}: expected {r}x{c} entries")
    try:
        return np.array([[float(v) for v in row] for row in rows], dtype=np.float64).reshape(r, c)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment; keys are unique."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    """Parse a config file; every error names the file."""
    text = read_text(path)
    try:
        return parse_config_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
