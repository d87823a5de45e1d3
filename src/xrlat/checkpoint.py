"""Versioned binary tensor container and model/embedding (de)serialization.

Layout (all integers little-endian u32, all floats little-endian f64):

    magic "XRLT" | version | n_meta | n_meta * (klen, key, vlen, value)
    | n_tensors | per tensor: (nlen, name, rank, dims..., row-major f64 data)

Metadata keys and values are UTF-8 strings; tensor names are unique; a tensor's rank
is at most MAX_RANK, and the product of its nonzero dims times 8 bytes fits numpy's
size limit (a zero-size tensor can still name huge dims). The reader rejects a
truncated or malformed header and trailing bytes with ParseError. The format carries no checksum, so a changed byte inside a
tensor's float payload cannot be detected: it reads back as another number.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

from .hyperbolic import PoincareEmbeddings, flatten_tree
from .network import LevelModel, level_layout
from .util import ParseError, atomic_write_bytes

MAGIC = b"XRLT"
VERSION = 1
MAX_RANK = 64  # numpy's limit on the number of array dimensions


def _pack_str(buf: io.BytesIO, s: str) -> None:
    raw = s.encode("utf-8")
    buf.write(struct.pack("<I", len(raw)))
    buf.write(raw)


def write_container(path: str, metadata: dict, tensors: dict) -> None:
    """Serialize string metadata and named float64 tensors; atomic on disk."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    buf.write(struct.pack("<I", len(metadata)))
    for key, value in metadata.items():
        _pack_str(buf, str(key))
        _pack_str(buf, str(value))
    buf.write(struct.pack("<I", len(tensors)))
    for name, tensor in tensors.items():
        arr = np.asarray(tensor, dtype=np.float64)
        _pack_str(buf, name)
        buf.write(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(arr.astype("<f8").tobytes())  # tobytes writes C (row-major) order
    atomic_write_bytes(path, buf.getvalue())


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise ParseError(f"{self.path}: truncated checkpoint")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        start = self.off
        raw = bytes(self.take(self.u32()))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{self.path}: string at byte {start} is not UTF-8") from None


def read_container(path: str):
    """Parse a container; returns (metadata dict, ordered tensors dict)."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(memoryview(data), path)  # take() slices without copying
    if r.take(4) != MAGIC:
        raise ParseError(f"{path}: not a checkpoint container (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise ParseError(f"{path}: unsupported container version {version}")
    metadata = {}
    for _ in range(r.u32()):
        key = r.string()
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
        raw = r.take(8 * math.prod(shape))  # Python ints: a huge shape cannot wrap to 0
        if 8 * math.prod(d for d in shape if d) > np.iinfo(np.intp).max:
            raise ParseError(f"{path}: tensor {name!r} has shape {shape}, too large for an array")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if r.off != len(data):
        raise ParseError(f"{path}: {len(data) - r.off} trailing bytes after tensor table")
    return metadata, tensors


# ---------------------------------------------------------------------------
# model checkpoints


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


# metadata every model checkpoint carries (save_model writes it), with its parser
MODEL_KEYS = {"level": int, "n_layers": int, "vocab_size": int, "c": int, "s": int,
              "negative_sampling": lambda raw: bool(int(raw)), "binary_threshold": float}


def load_model(path: str):
    """Rebuild a LevelModel; returns (model, settings), its MODEL_KEYS values parsed.

    The tensors must be finite and match network.level_layout for the metadata and the
    widths h, L and d of the file's emb, W_la and corr.W (0 where that tensor is missing
    or has too few axes; corr.* is expected exactly when corr.W is present); raises
    ParseError naming the first MODEL_KEYS entry (missing or malformed) or tensor that
    does not.
    """
    metadata, tensors = read_container(path)
    if metadata.get("kind") != "level-model":
        raise ParseError(f"{path}: container does not hold a model")
    settings = {}
    for key, parse in MODEL_KEYS.items():
        if key not in metadata:
            raise ParseError(f"{path}: metadata key {key!r} is missing")
        try:
            settings[key] = parse(metadata[key])
        except ValueError:
            raise ParseError(
                f"{path}: metadata key {key!r} has a malformed value {metadata[key]!r}"
            ) from None
    n_layers = settings["n_layers"]

    def width(name, axis):
        t = tensors.get(name)
        return t.shape[axis] if t is not None and t.ndim > axis else 0

    d_emb = width("corr.W", 0) if "corr.W" in tensors else None
    layout = level_layout(settings["vocab_size"], settings["c"], width("emb", 1),
                          width("W_la", 0), n_layers, d_emb)
    expected = set()
    for name, shape in layout:
        if name not in tensors:
            raise ParseError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ParseError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, expected {shape}"
            )
        if not np.all(np.isfinite(tensors[name])):
            raise ParseError(f"{path}: tensor {name!r} has non-finite values")
        expected.add(name)
    unused = sorted(set(tensors) - expected)
    if unused:
        raise ParseError(f"{path}: tensors {unused} unused by a model with n_layers={n_layers}")
    model = LevelModel.from_tensors(tensors, n_layers, settings["level"],
                                    metadata.get("provenance", "random"))
    return model, settings


def save_embeddings(path: str, emb, extra_metadata: dict | None = None) -> None:
    """Store per-level Poincare matrices as tensors E1..E4."""
    metadata = {"kind": "poincare", "dim": emb.dim, "ball_eps": repr(emb.ball_eps)}
    if extra_metadata:
        metadata.update(extra_metadata)
    tensors = {f"E{k}": emb.level(k) for k in range(1, 5)}
    write_container(path, metadata, tensors)


def load_embeddings(path: str, tree):
    """Returns (metadata, PoincareEmbeddings) for an embedding checkpoint of ``tree``.

    Rows follow ``flatten_tree(tree)``; the virtual root is not stored and
    loads at the origin. Each E<k> must be finite.
    """
    metadata, tensors = read_container(path)
    if metadata.get("kind") != "poincare":
        raise ParseError(f"{path}: container does not hold embeddings")
    try:
        dim = int(metadata["dim"])
        ball_eps = float(metadata["ball_eps"])
    except (KeyError, ValueError):
        raise ParseError(
            f"{path}: embedding metadata needs an integer 'dim' and a float 'ball_eps'"
        ) from None
    flat = flatten_tree(tree)
    blocks = []
    for k, rows in enumerate(flat.level_slices, start=1):
        name = f"E{k}"
        if name not in tensors:
            raise ParseError(f"{path}: missing tensor {name}")
        want = (rows.stop - rows.start, dim)
        if tensors[name].shape != want:
            raise ParseError(
                f"{path}: tensor {name} has shape {tensors[name].shape}, expected {want} "
                f"(level {k} nodes of the tree by metadata dim)"
            )
        if not np.all(np.isfinite(tensors[name])):
            raise ParseError(f"{path}: tensor {name} has non-finite values")
        blocks.append(tensors[name])
    vectors = np.vstack([np.zeros((1, dim))] + blocks)
    return metadata, PoincareEmbeddings(flat.names, flat.level_slices, vectors, ball_eps)
