"""Versioned binary tensor container and model/embedding (de)serialization.

Layout (all integers little-endian u32, all floats little-endian f64):

    magic "XRLT" | version | n_meta | n_meta * (klen, key, vlen, value)
    | n_tensors | per tensor: (nlen, name, rank, dims..., row-major f64 data)

Metadata keys and values are UTF-8 strings; metadata keys and tensor names are unique;
a tensor's rank is at most MAX_RANK, and the product of its nonzero dims times 8 bytes
fits numpy's size limit (a zero-size tensor can still name huge dims). The reader rejects
a truncated or malformed header and trailing bytes with ParseError. The format carries no
checksum: a changed byte inside a tensor's float payload reads back as another number.
"""

from __future__ import annotations

import io
import math
import os
import stat
import struct

import numpy as np

from .hyperbolic import BALL_EPS, PoincareEmbeddings, flatten_tree, outside_ball
from .network import LevelModel, level_layout
from .util import ParseError, atomic_write

MAGIC = b"XRLT"
VERSION = 1
MAX_RANK = 64  # numpy's limit on the number of array dimensions


def _packed_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _container_chunks(metadata: dict, tensors: dict):
    yield MAGIC + struct.pack("<II", VERSION, len(metadata))
    for key, value in metadata.items():
        yield _packed_str(str(key)) + _packed_str(str(value))
    yield struct.pack("<I", len(tensors))
    for name, tensor in tensors.items():
        arr = np.asarray(tensor, dtype="<f8", order="C")  # no copy of a model's own tensors
        yield _packed_str(name) + struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape)
        yield arr.reshape(-1).view(np.uint8)


def write_container(path: str, metadata: dict, tensors: dict) -> None:
    """Serialize string metadata and named float64 tensors, streamed to disk without a
    copy of the payload; atomic on disk."""
    atomic_write(path, _container_chunks(metadata, tensors))


class _Reader:
    """Reads a container front to back from ``fh``, checking each length against its
    ``size`` in bytes before it reads or allocates."""

    def __init__(self, fh, size: int, path: str):
        self.fh = fh
        self.size = size
        self.off = 0
        self.path = path

    def require(self, n: int) -> None:
        if self.off + n > self.size:
            raise ParseError(f"{self.path}: truncated checkpoint")

    def _advance(self, n_read: int, n: int) -> None:
        self.off += n_read
        if n_read != n:  # the file shrank while it was read
            raise ParseError(f"{self.path}: truncated checkpoint")

    def take(self, n: int) -> bytes:
        self.require(n)
        out = self.fh.read(n)
        self._advance(len(out), n)
        return out

    def array(self, shape) -> np.ndarray:
        """The next row-major f64 payload, read straight into a new array of ``shape``."""
        arr = np.empty(shape, dtype="<f8")
        # a flat byte view: memoryview.cast rejects zero-size shapes
        self._advance(self.fh.readinto(arr.reshape(-1).view(np.uint8)), arr.nbytes)
        return arr

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        start = self.off
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{self.path}: string at byte {start} is not UTF-8") from None


def read_container(path: str):
    """Parse a container; returns (metadata dict, ordered tensors dict)."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            r = _Reader(fh, info.st_size, path)
        else:  # a pipe or FIFO has no size until it is read to the end
            data = fh.read()
            r = _Reader(io.BytesIO(data), len(data), path)
        if r.take(4) != MAGIC:
            raise ParseError(f"{path}: not a checkpoint container (bad magic)")
        version = r.u32()
        if version != VERSION:
            raise ParseError(f"{path}: unsupported container version {version}")
        metadata = {}
        for _ in range(r.u32()):
            key = r.string()
            if key in metadata:
                raise ParseError(f"{path}: duplicate metadata key {key!r}")
            metadata[key] = r.string()
        tensors = {}
        for _ in range(r.u32()):
            name = r.string()
            if name in tensors:
                raise ParseError(f"{path}: duplicate tensor name {name!r}")
            rank = r.u32()
            if rank > MAX_RANK:
                raise ParseError(f"{path}: tensor {name!r} has rank {rank}, above {MAX_RANK}")
            shape = tuple(r.u32() for _ in range(rank))
            r.require(8 * math.prod(shape))  # Python ints: a huge shape cannot wrap to 0
            if 8 * math.prod(d for d in shape if d) > np.iinfo(np.intp).max:
                raise ParseError(
                    f"{path}: tensor {name!r} has shape {shape}, too large for an array")
            tensors[name] = r.array(shape)
    if r.off != r.size:
        raise ParseError(f"{path}: {r.size - r.off} trailing bytes after tensor table")
    return metadata, tensors


# ---------------------------------------------------------------------------
# model and embedding checkpoints


def _read_checked(path: str, kind: str, keys: dict, layout_of):
    """(metadata, settings, tensors) of a ``kind`` container, settings holding the parsed
    ``keys``; the tensors must be exactly ``layout_of(settings, tensors)``'s (name, shape)
    pairs, each finite. Raises ParseError naming the first key or tensor that does not."""
    metadata, tensors = read_container(path)
    if metadata.get("kind") != kind:
        raise ParseError(f"{path}: container kind is {metadata.get('kind')!r}, expected {kind!r}")
    settings = {}
    for key, parse in keys.items():
        if key not in metadata:
            raise ParseError(f"{path}: metadata key {key!r} is missing")
        try:
            settings[key] = parse(metadata[key])
        except ValueError:
            raise ParseError(f"{path}: metadata key {key!r} has a malformed value "
                             f"{metadata[key]!r}") from None
    expected = set()  # read lazily: a huge n_layers stops at its first missing block
    for name, shape in layout_of(settings, tensors):
        if name not in tensors:
            raise ParseError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ParseError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                             f"expected {shape}")
        if not np.all(np.isfinite(tensors[name])):
            raise ParseError(f"{path}: tensor {name!r} has non-finite values")
        expected.add(name)
    unused = sorted(set(tensors) - expected)
    if unused:
        raise ParseError(f"{path}: tensors {unused} unused by a {kind} checkpoint")
    return metadata, settings, tensors


def save_model(path: str, model, cfg) -> None:
    """Write ``model`` with its sizes and ``cfg``'s chunking, seed and chain settings."""
    metadata = {
        "kind": "level-model",
        "level": model.level,
        "provenance": model.provenance,
        "c": model.enc.chunk_len,
        "s": cfg.s,
        "h": model.enc.hidden,
        "n_layers": len(model.enc.blocks),
        "vocab_size": model.enc.vocab_size,
        "seed": cfg.seed,
        "bootstrap": cfg.bootstrap,
        "negative_sampling": int(cfg.negative_sampling),
        "binary_threshold": repr(cfg.binary_threshold),
    }
    write_container(path, metadata, dict(model.tensors()))


# metadata every model or embedding checkpoint carries (save_model or save_embeddings
# writes it), with its parser
MODEL_KEYS = {"level": int, "n_layers": int, "vocab_size": int, "c": int, "s": int,
              "negative_sampling": lambda raw: bool(int(raw)), "binary_threshold": float}
EMBEDDING_KEYS = {"dim": int, "ball_eps": float}


def load_model(path: str):
    """Rebuild a LevelModel; returns (model, settings), its MODEL_KEYS values parsed.

    The tensors must be finite and match network.level_layout for the metadata and the
    widths h, L and d of the file's emb, W_la and corr.W (0 where that tensor is missing
    or has too few axes; corr.* is expected exactly when corr.W is present).
    """

    def layout(settings, tensors):
        def width(name, axis):
            t = tensors.get(name)
            return t.shape[axis] if t is not None and t.ndim > axis else 0

        d_emb = width("corr.W", 0) if "corr.W" in tensors else None
        return level_layout(settings["vocab_size"], settings["c"], width("emb", 1),
                            width("W_la", 0), settings["n_layers"], d_emb)

    metadata, settings, tensors = _read_checked(path, "level-model", MODEL_KEYS, layout)
    model = LevelModel.from_tensors(tensors, settings["n_layers"], settings["level"],
                                    metadata.get("provenance", "random"))
    return model, settings


def save_embeddings(path: str, emb, extra_metadata: dict | None = None) -> None:
    """Store per-level Poincare matrices as tensors E1..E4."""
    metadata = {"kind": "poincare", "dim": emb.dim, "ball_eps": repr(BALL_EPS)}
    if extra_metadata:
        metadata.update(extra_metadata)
    tensors = {f"E{k}": emb.level(k) for k in range(1, 5)}
    write_container(path, metadata, tensors)


def load_embeddings(path: str, tree):
    """Returns (metadata, PoincareEmbeddings) for an embedding checkpoint of ``tree``.

    Rows follow ``flatten_tree(tree)``; the virtual root is not stored and loads at the
    origin. The tensors must be exactly E1..E4, finite and shaped (level k nodes, dim),
    ``ball_eps`` must lie in (0, 1), and every row must have norm <= 1 - ball_eps.
    """
    flat = flatten_tree(tree)
    metadata, settings, tensors = _read_checked(
        path, "poincare", EMBEDDING_KEYS, lambda settings, _: [
            (f"E{k}", (rows.stop - rows.start, settings["dim"]))
            for k, rows in enumerate(flat.level_slices, start=1)])
    ball_eps = settings["ball_eps"]
    if not 0.0 < ball_eps < 1.0:
        raise ParseError(f"{path}: metadata key 'ball_eps' must lie in (0, 1), "
                         f"got {metadata['ball_eps']!r}")
    for k in range(1, 5):
        rows = outside_ball(tensors[f"E{k}"], ball_eps)
        if rows.size:
            raise ParseError(f"{path}: tensor 'E{k}' row {rows[0]} lies outside the Poincare "
                             f"ball (norm above 1 - ball_eps = {1.0 - ball_eps!r})")
    vectors = np.vstack([np.zeros((1, settings["dim"]))] + [tensors[f"E{k}"] for k in range(1, 5)])
    return metadata, PoincareEmbeddings(flat.names, flat.level_slices, vectors)
