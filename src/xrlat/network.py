"""Segment-pooled encoder, label-wise attention, and per-label classifier.

All math is float64 numpy with hand-written backward passes so analytic
gradients can be validated coordinate-by-coordinate against central finite
differences. Each chunk of a document is encoded independently (positions
restart per chunk) by a miniature pre-layer-norm transformer with 0 to 2
blocks and a single attention head; the chunk encodings are concatenated
into the document representation H. The label-wise attention head attends
each active label over H's r real-token rows, in tiles of HEAD_TILE labels;
a tile's A scores per token are kept token-major, as an (r, A) array, and its
softmax normalizes the (A, h) label vectors, not the scores. Each tile runs its
forward, and in training its loss gradient and backward, in one pass, so its
(r, A) arrays are freed before the worker takes the next tile.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields
from functools import partial, reduce
from typing import Optional

import numpy as np

from .losses import LossConfig, loss_and_grad
from .textproc import ChunkedDocument, chunk
from .util import DataError, NumericsError, derive_rng

LN_EPS = 1e-5
INIT_STD = 0.03  # linear-layer init: normal(0.0, 0.03)
HEAD_TILE = 1024  # active labels per head tile; the tiles never depend on the CPU count

_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_fwd(x):
    """tanh-approximation GELU; returns the tanh term for reuse in the backward pass.

    Works in two buffers. It halves (1 + t) where 0.5 * x * (1 + t) halves x: halving is
    exact, so both round the same real product for every normal x.
    """
    t = x * x
    t *= 0.044715
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= 0.5
    y *= x
    return y, t


def _gelu_grad(x, t):
    """d GELU / dx = 0.5 (1 + t) + 0.5 x (1 - t^2) du, in two buffers; it halves
    (1 - t^2) where the formula halves x, as _gelu_fwd does."""
    du = x * x
    du *= 3.0 * 0.044715
    du += 1.0
    du *= _GELU_C
    b = t * t
    np.subtract(1.0, b, out=b)
    b *= 0.5
    b *= x
    b *= du
    np.add(t, 1.0, out=du)
    du *= 0.5
    du += b
    return du


def _sigmoid(x):
    """1 / (1 + exp(-x)); exp overflows to inf for x < -709, giving exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass
class BlockParams:
    """One pre-layer-norm transformer block (single head, no biases on projections)."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o: np.ndarray
    ff1: np.ndarray
    ff2: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


@dataclass
class EncoderParams:
    """Token embeddings, learned per-chunk positions, and 0..2 transformer blocks."""

    emb: np.ndarray  # (vocab_size, h)
    pos: np.ndarray  # (c, h)
    blocks: list = field(default_factory=list)

    @property
    def hidden(self) -> int:
        return int(self.emb.shape[1])

    @property
    def vocab_size(self) -> int:
        return int(self.emb.shape[0])

    @property
    def chunk_len(self) -> int:
        return int(self.pos.shape[0])


@dataclass
class HeadParams:
    """Label-attention queries W_la, per-label classifier rows W_cl, and bias b_cl."""

    W_la: np.ndarray  # (L, h)
    W_cl: np.ndarray  # (L, h)
    b_cl: np.ndarray  # (L,)

    @property
    def n_labels(self) -> int:
        return int(self.W_la.shape[0])


@dataclass
class CorrectionLayer:
    """Trainable affine map from label embeddings to attention-query space."""

    W: np.ndarray  # (d_emb, h)
    b: np.ndarray  # (h,)


@dataclass
class LevelModel:
    """One sub-model of the chain (or the flat model); tensors() yields its arrays under
    the names and in the order of level_layout."""

    enc: EncoderParams
    head: HeadParams
    level: int
    provenance: str = "random"  # random | bootstrap-equal | bootstrap-hyperc
    corr: Optional[CorrectionLayer] = None
    corr_inputs: Optional[np.ndarray] = None  # fixed label embeddings fed to corr

    @property
    def n_labels(self) -> int:
        return self.head.n_labels

    def trainable(self):
        """(name, array) of every trained tensor: the table without corr.E."""
        yield "emb", self.enc.emb
        yield "pos", self.enc.pos
        for i, blk in enumerate(self.enc.blocks):
            yield from ((f"blk{i}.{name}", t) for name, t in vars(blk).items())
        yield "W_la", self.head.W_la
        yield "W_cl", self.head.W_cl
        yield "b_cl", self.head.b_cl
        if self.corr is not None:
            yield "corr.W", self.corr.W
            yield "corr.b", self.corr.b

    def tensors(self):
        yield from self.trainable()
        if self.corr_inputs is not None:
            yield "corr.E", self.corr_inputs

    @classmethod
    def from_tensors(cls, tensors: dict, n_layers: int, level: int,
                     provenance: str) -> "LevelModel":
        """The model whose ``tensors()`` are ``tensors`` (names as in level_layout)."""
        names = [f.name for f in fields(BlockParams)]
        blocks = [BlockParams(**{n: tensors[f"blk{i}.{n}"] for n in names}) for i in range(n_layers)]
        enc = EncoderParams(tensors["emb"], tensors["pos"], blocks)
        head = HeadParams(tensors["W_la"], tensors["W_cl"], tensors["b_cl"])
        corr = CorrectionLayer(tensors["corr.W"], tensors["corr.b"]) if "corr.W" in tensors else None
        return cls(enc, head, level, provenance, corr, tensors.get("corr.E"))

    def effective_w_la(self) -> np.ndarray:
        """Attention queries actually used: base W_la plus the correction, if any."""
        return _effective_w_la(self, slice(None))[0]


def level_layout(vocab_size: int, c: int, h: int, n_labels: int, n_layers: int,
                 d_emb: Optional[int] = None):
    """(name, shape) of every tensor in LevelModel.tensors(), in its order, for a model of
    these sizes; corr.* (a correction layer from d_emb-wide label embeddings) only when
    d_emb is given. Init, gradients, AdamW, gradcheck and checkpoints follow this table.
    """
    block = {"q": (h, h), "k": (h, h), "v": (h, h), "o": (h, h), "ff1": (h, 4 * h),
             "ff2": (4 * h, h), "ln1_g": (h,), "ln1_b": (h,), "ln2_g": (h,), "ln2_b": (h,)}
    yield "emb", (vocab_size, h)
    yield "pos", (c, h)
    for i in range(n_layers):
        yield from ((f"blk{i}.{name}", shape) for name, shape in block.items())
    yield "W_la", (n_labels, h)
    yield "W_cl", (n_labels, h)
    yield "b_cl", (n_labels,)
    if d_emb is not None:
        yield "corr.W", (d_emb, h)
        yield "corr.b", (h,)
        yield "corr.E", (n_labels, d_emb)


def init_level_model(vocab_size: int, c: int, h: int, n_labels: int, n_layers: int,
                     level: int, rng: np.random.Generator,
                     d_emb: Optional[int] = None) -> LevelModel:
    """A fresh model whose trained tensors are drawn from ``rng`` in level_layout order:
    LayerNorm gains 1, LayerNorm and classifier biases 0, every other tensor (corr.b
    too) normal(0, INIT_STD). corr.E, the correction layer's fixed inputs, is not drawn:
    the caller sets ``corr_inputs``.
    """
    tensors = {}
    for name, shape in level_layout(vocab_size, c, h, n_labels, n_layers, d_emb):
        if name.endswith("_g"):
            tensors[name] = np.ones(shape)
        elif name.endswith(("_b", "b_cl")):
            tensors[name] = np.zeros(shape)
        elif name != "corr.E":
            tensors[name] = rng.normal(0.0, INIT_STD, size=shape)
    return LevelModel.from_tensors(tensors, n_layers, level, "random")


def zero_grads(model: LevelModel) -> dict:
    """One zeroed gradient buffer per trainable tensor, in table order."""
    return {name: np.zeros_like(t) for name, t in model.trainable()}


# ---------------------------------------------------------------------------
# layer norm


def _row_mean(x):
    """x.mean(axis=-1, keepdims=True), bit for bit, without ndarray.mean's Python layer."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def _ln_fwd(x, g, b):
    xc = x - _row_mean(x)
    y = xc * xc
    inv = 1.0 / np.sqrt(_row_mean(y) + LN_EPS)
    xc *= inv  # xhat
    np.multiply(xc, g, out=y)
    y += b
    return y, (xc, inv)


def _ln_bwd(dy, cache, g):
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    t = dy * xhat
    dg = np.add.reduce(t, axis=axes)
    db = np.add.reduce(dy, axis=axes)
    dx = dy * g  # dxhat
    m1 = _row_mean(dx)
    np.multiply(dx, xhat, out=t)
    np.multiply(xhat, _row_mean(t), out=t)
    dx -= m1
    dx -= t
    dx *= inv
    return dx, dg, db


def _softmax_last(scores):
    """Softmax over the last axis, in place on ``scores``, which it returns."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _dropout_mask(shape, p, rng):
    if p <= 0.0:
        return None
    return (rng.random(shape) >= p) / (1.0 - p)


# ---------------------------------------------------------------------------
# encoder


def _project(x, w):
    """x @ w for a (chunks, c, i) activation and an (i, j) block weight, as one 2-D GEMM
    over the document's chunks * c rows: a 3-D @ runs one small GEMM per chunk. Every
    product of an activation with a block weight goes through here."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[1],))


def _encode_fwd(doc: ChunkedDocument, enc: EncoderParams, dropout: float = 0.0,
                rng: Optional[np.random.Generator] = None):
    """Encode each chunk independently and concatenate to a (chunks * c)-by-h matrix H.

    With zero transformer blocks H degenerates to
    ``emb[token] + pos[position-within-chunk]``. The attention masks padding keys,
    so the first n_real rows of H do not depend on the padding. Returns (H, cache).
    """
    ids = doc.chunks
    c = ids.shape[1]
    if c > enc.chunk_len:
        raise DataError(f"chunk length {c} exceeds positional table size {enc.chunk_len}")
    if ids.min() < 0 or ids.max() >= enc.vocab_size:
        raise DataError("token id out of range for the embedding table")

    x = enc.emb[ids] + enc.pos[np.newaxis, :c, :]
    mask0 = _dropout_mask(x.shape, dropout, rng)
    if mask0 is not None:
        x = x * mask0

    # -inf on padding keys (every chunk holds a real token, so each softmax row is defined)
    key_mask = np.zeros((len(ids), 1, c))  # broadcast over query positions
    key_mask.reshape(-1)[doc.n_real:] = -np.inf

    cache = {"ids": ids, "mask0": mask0, "blocks": []}
    scale = 1.0 / np.sqrt(enc.hidden)
    for blk in enc.blocks:
        a, ln1c = _ln_fwd(x, blk.ln1_g, blk.ln1_b)
        q = _project(a, blk.q)
        k = _project(a, blk.k)
        v = _project(a, blk.v)
        scores = (q @ k.transpose(0, 2, 1)) * scale + key_mask
        p_attn = _softmax_last(scores)
        ctx = p_attn @ v
        out = _project(ctx, blk.o)
        mask_a = _dropout_mask(out.shape, dropout, rng)
        if mask_a is not None:
            out = out * mask_a
        x1 = x + out
        b2, ln2c = _ln_fwd(x1, blk.ln2_g, blk.ln2_b)
        f1 = _project(b2, blk.ff1)
        g1, tanh1 = _gelu_fwd(f1)
        f2 = _project(g1, blk.ff2)
        x_next = x1 + f2
        cache["blocks"].append(
            {"a": a, "q": q, "k": k, "v": v, "p": p_attn, "ctx": ctx, "ln1": ln1c,
             "ln2": ln2c, "b2": b2, "f1": f1, "g1": g1, "tanh1": tanh1, "mask_a": mask_a}
        )
        x = x_next
    return x.reshape(-1, enc.hidden), cache


def _flat_outer(a, b):
    """sum over (chunks, c) of outer products: (chunks, c, i) x (chunks, c, j) -> (i, j)."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _encode_bwd(dH: np.ndarray, cache: dict, enc: EncoderParams, grads: dict) -> None:
    c = cache["ids"].shape[1]
    dx = dH.reshape(-1, c, enc.hidden)
    scale = 1.0 / np.sqrt(enc.hidden)
    for i in range(len(enc.blocks) - 1, -1, -1):
        blk, bc = enc.blocks[i], cache["blocks"][i]
        # feed-forward sublayer
        df2 = dx
        dx1 = dx.copy()
        grads[f"blk{i}.ff2"] += _flat_outer(bc["g1"], df2)
        df1 = _project(df2, blk.ff2.T)
        df1 *= _gelu_grad(bc["f1"], bc["tanh1"])
        grads[f"blk{i}.ff1"] += _flat_outer(bc["b2"], df1)
        db2 = _project(df1, blk.ff1.T)
        dx_ln2, dg, db = _ln_bwd(db2, bc["ln2"], blk.ln2_g)
        grads[f"blk{i}.ln2_g"] += dg
        grads[f"blk{i}.ln2_b"] += db
        dx1 += dx_ln2
        # attention sublayer
        dout = dx1
        dx0 = dx1.copy()
        if bc["mask_a"] is not None:
            dout = dout * bc["mask_a"]
        grads[f"blk{i}.o"] += _flat_outer(bc["ctx"], dout)
        dctx = _project(dout, blk.o.T)
        dp = dctx @ bc["v"].transpose(0, 2, 1)
        dv = bc["p"].transpose(0, 2, 1) @ dctx
        p_attn = bc["p"]
        dscores = p_attn * (dp - (dp * p_attn).sum(axis=-1, keepdims=True))
        dscores *= scale
        dq = dscores @ bc["k"]
        dk = dscores.transpose(0, 2, 1) @ bc["q"]
        grads[f"blk{i}.q"] += _flat_outer(bc["a"], dq)
        grads[f"blk{i}.k"] += _flat_outer(bc["a"], dk)
        grads[f"blk{i}.v"] += _flat_outer(bc["a"], dv)
        da = _project(dq, blk.q.T)
        da += _project(dk, blk.k.T)
        da += _project(dv, blk.v.T)
        dx_ln1, dg, db = _ln_bwd(da, bc["ln1"], blk.ln1_g)
        grads[f"blk{i}.ln1_g"] += dg
        grads[f"blk{i}.ln1_b"] += db
        dx = dx0 + dx_ln1
    if cache["mask0"] is not None:
        dx = dx * cache["mask0"]
    # Sum the rows per distinct token id in a small buffer, then add each id's
    # sum into the V-by-h accumulator once. bincount adds its weights in input
    # order, so each (id, column) cell sums its tokens in token order
    # (np.add.reduceat would sum each run pairwise).
    h = enc.hidden
    rows, inverse = np.unique(cache["ids"].reshape(-1), return_inverse=True)
    cells = (inverse[:, np.newaxis] * h + np.arange(h)).reshape(-1)
    demb = np.bincount(cells, weights=dx.reshape(-1), minlength=rows.size * h)
    grads["emb"][rows] += demb.reshape(rows.size, h)
    grads["pos"][:c] += dx.sum(axis=0)


# ---------------------------------------------------------------------------
# label attention + classifier


def _head_fwd(Hr, W_la_eff, W_cl, b_cl):
    """Label attention over the r real-token rows Hr, then per-label sigmoid classifiers.

    d_j = sum_t alpha_tj h_t with alpha_tj = e_tj / z_j, e_tj = exp(s_tj - max_t s_tj)
    for the scores s_tj = h_t . W_la_eff[j], and z_j = sum_t e_tj. Its one caller,
    _head_tile, passes H[:n_real], at least one row since chunk rejects an empty
    document, so padding rows never enter the result. The scores are token-major, (r, A):
    every reduction and broadcast runs along contiguous rows of A labels. They are
    exponentiated in place, the forward's only (r, A) array, and alpha is never formed:
    d is (e.T @ Hr) scaled by 1 / z. Returns (p, cache); the cache holds ``e`` (r, A),
    ``inv_z`` (A,) and ``d`` (A, h), and dies with the tile's pass.
    """
    e = Hr @ W_la_eff.T  # (r, A)
    e -= e.max(axis=0)
    np.exp(e, out=e)
    inv_z = 1.0 / e.sum(axis=0)
    d = e.T @ Hr  # (A, h)
    d *= inv_z[:, np.newaxis]
    logits = np.einsum("ij,ij->i", d, W_cl) + b_cl  # row dots, no (A, h) temporary
    p = _sigmoid(logits)
    return p, {"Hr": Hr, "e": e, "inv_z": inv_z, "d": d, "logits": logits, "p": p}


def _head_bwd(dp, hc, W_la_eff, W_cl):
    """Gradients of the head for dL/dp, without forming alpha = e / z. With
    g = dL/dd / z, the scores' gradient is e * (Hr @ g.T - g_j . d_j): sum_t alpha_tj
    dalpha_tj = dL/dd_j . d_j, so the softmax backward needs no (r, A) product of
    alpha and dalpha, and no (r, A) array is divided."""
    p, d, e, inv_z, Hr = hc["p"], hc["d"], hc["e"], hc["inv_z"], hc["Hr"]
    dlogits = dp * p * (1.0 - p)
    dW_cl = dlogits[:, np.newaxis] * d
    g = W_cl * (dlogits * inv_z)[:, np.newaxis]  # (A, h)
    dHr = e @ g
    ds = Hr @ g.T  # (r, A): dalpha / z, then the scores' gradient in place
    ds -= np.einsum("ij,ij->i", g, d)
    ds *= e
    dW_la = ds.T @ Hr
    dHr += ds @ W_la_eff
    return dW_la, dW_cl, dlogits, dHr


def _effective_w_la(model: LevelModel, active):
    """Attention queries W_la + E.W + b for the ``active`` rows; returns (W_eff, E_act)."""
    base = model.head.W_la[active]
    if model.corr is None:
        return base, None
    E_act = model.corr_inputs[active]
    return base + E_act @ model.corr.W + model.corr.b, E_act


def _label_tiles(active, n_labels: int) -> list:
    """(positions, rows) of each tile of HEAD_TILE consecutive active labels, in order:
    the tile's slice of the active labels and the head rows it reads. ``active`` is an
    index array, or slice(None) for every label, whose tiles read the rows as views."""
    n = n_labels if isinstance(active, slice) else active.size
    tiles = []
    for lo in range(0, n, HEAD_TILE):
        pos = slice(lo, min(lo + HEAD_TILE, n))
        tiles.append((pos, pos if isinstance(active, slice) else active[pos]))
    return tiles


_tile_pool: Optional[ThreadPoolExecutor] = None


def _run_tiles(fn, items) -> list:
    """[fn(item) for item in items], in order. A single item runs on the calling thread;
    several run on a pool with one worker per CPU the process may use (numpy's GEMMs and
    ufuncs release the GIL). When items raise, the first one's exception in item order
    reaches the caller unchanged, and only once every item has finished, so that no
    tile still writes gradients after this returns; the items that did not raise have
    written theirs, so the gradients then hold a partial sum."""
    global _tile_pool
    if len(items) == 1:
        return [fn(items[0])]
    if _tile_pool is None:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        _tile_pool = ThreadPoolExecutor(cpus, thread_name_prefix="xrlat-head")
    futures = [_tile_pool.submit(fn, item) for item in items]
    wait(futures)
    return [f.result() for f in futures]


def _head_tile(model: LevelModel, H, n_real: int, tile, probs=None, y=None,
               loss_cfg: Optional[LossConfig] = None, grads: Optional[dict] = None):
    """One pass of the head over one tile's (positions, rows) of the active labels: the
    tile's forward over H's n_real real-token rows, then what the caller's pass needs.

    Evaluation (``y`` None) writes the tile's probabilities into probs[rows]. Otherwise
    ``y`` holds the gold values of all the document's active labels, and the tile
    returns (terms,): its loss terms, from loss_and_grad over y.size labels. With
    ``grads`` it also runs its backward, adds its own head gradient rows into ``grads``
    and returns (terms, dHr) or, with a correction layer, (terms, dHr, dcorr.W, dcorr.b):
    its partial gradients of H's real rows and of the correction layer. The tile's
    (r, A) arrays die when it returns.

    A non-finite loss term or logit raises NumericsError naming the first non-finite
    tensor of H, the tile's attention scores, label vectors, logits and probabilities.
    """
    pos, rows = tile
    head, Hr = model.head, H[:n_real]
    W_eff, E_act = _effective_w_la(model, rows)
    W_cl = head.W_cl[rows]
    p, hc = _head_fwd(Hr, W_eff, W_cl, head.b_cl[rows])
    if y is None:
        probs[rows] = p
        return None
    terms, dp = loss_and_grad(p, y[pos], loss_cfg, y.size)

    # An inf logit saturates p and keeps the loss finite, yet makes NaN gradients.
    if not (np.all(np.isfinite(terms)) and np.all(np.isfinite(hc["logits"]))):
        # the softmax overwrote the scores; only this error path recomputes them
        for name, t in (("H", H), ("attention_scores", Hr @ W_eff.T), ("label_vectors", hc["d"]),
                        ("logits", hc["logits"]), ("probabilities", p)):
            if not np.all(np.isfinite(t)):
                raise NumericsError(f"non-finite values in {name}", tensor=name)
        raise NumericsError("non-finite loss", tensor="loss")
    if grads is None:
        return (terms,)
    dW_la, dW_cl, db_cl, dHr = _head_bwd(dp, hc, W_eff, W_cl)
    grads["W_la"][rows] += dW_la
    grads["W_cl"][rows] += dW_cl
    grads["b_cl"][rows] += db_cl
    return (terms, dHr) if model.corr is None else (terms, dHr, E_act.T @ dW_la,
                                                    dW_la.sum(axis=0))


def _loss(doc: ChunkedDocument, model: LevelModel, gold, mask, loss_cfg: LossConfig,
          dropout: float, rng: Optional[np.random.Generator], grads: Optional[dict] = None):
    """The document's loss over the unmasked labels: the encoder, then one _head_tile
    pass per tile, which runs the tile's backward only when ``grads`` is given.
    check_gradients' numeric side runs it without. Returns (loss, H, the encoder cache,
    each tile's partial gradients); the loss is -mean of the tiles' terms in tile order."""
    if dropout > 0.0 and rng is None:
        raise DataError(f"dropout {dropout} needs a generator to draw its masks from")
    active = slice(None) if mask is None else np.flatnonzero(np.asarray(mask))
    if mask is not None and active.size == 0:
        raise DataError("no unmasked labels to compute a loss over")
    H, enc_cache = _encode_fwd(doc, model.enc, dropout, rng)
    tile = partial(_head_tile, model, H, doc.n_real, y=np.asarray(gold)[active],
                   loss_cfg=loss_cfg, grads=grads)
    outs = _run_tiles(tile, _label_tiles(active, model.n_labels))
    loss = -np.mean(np.concatenate([out[0] for out in outs]))
    return loss, H, enc_cache, [out[1:] for out in outs]


def forward_probs(doc: ChunkedDocument, enc: EncoderParams, head: HeadParams,
                  mask: Optional[np.ndarray] = None,
                  corr: Optional[CorrectionLayer] = None,
                  corr_inputs: Optional[np.ndarray] = None) -> np.ndarray:
    """Evaluation-mode forward pass; masked labels are skipped and score 0."""
    probs = np.zeros(head.n_labels)
    active = slice(None) if mask is None else np.flatnonzero(np.asarray(mask))
    if mask is not None and active.size == 0:
        return probs
    model = LevelModel(enc, head, 0, corr=corr, corr_inputs=corr_inputs)
    H = _encode_fwd(doc, enc)[0]
    _run_tiles(partial(_head_tile, model, H, doc.n_real, probs=probs),
               _label_tiles(active, head.n_labels))
    return probs


def forward_backward(doc: ChunkedDocument, params: EncoderParams, head: HeadParams,
                     gold: np.ndarray, mask: Optional[np.ndarray],
                     loss_cfg: LossConfig, corr: Optional[CorrectionLayer] = None,
                     corr_inputs: Optional[np.ndarray] = None,
                     dropout: float = 0.0,
                     rng: Optional[np.random.Generator] = None,
                     grads: Optional[dict] = None):
    """Loss and exact gradients for one document.

    Masked labels are skipped entirely: they contribute no loss and add
    nothing to their W_la/W_cl/b_cl gradient rows. The gradients are added
    into ``grads`` (one array per trainable tensor, as from zero_grads); when
    it is omitted a zeroed dict is allocated. Returns (loss, grads).

    The head runs one pass per tile of HEAD_TILE active labels (see _head_tile and
    _run_tiles): each tile's forward, loss gradient and backward, after which it
    writes its own head gradient rows. Its partial gradients of H and of the
    correction layer are added in tile order on the calling thread, so the result
    does not depend on the number of workers. After a NumericsError, ``grads`` holds
    a partial sum: the head rows of the tiles that finished, and no encoder gradient.
    """
    model = LevelModel(enc=params, head=head, level=0, corr=corr, corr_inputs=corr_inputs)
    if grads is None:
        grads = zero_grads(model)
    loss, H, enc_cache, parts = _loss(doc, model, gold, mask, loss_cfg, dropout, rng, grads)
    # each partial gradient summed over the tiles, in tile order
    sums = [reduce(np.add, tile_parts) for tile_parts in zip(*parts)]
    dH = np.zeros_like(H)
    dH[:doc.n_real] = sums[0]
    if corr is not None:
        grads["corr.W"] += sums[1]
        grads["corr.b"] += sums[2]
    _encode_bwd(dH, enc_cache, params, grads)
    return loss, grads


# ---------------------------------------------------------------------------
# gradient checking


# gradcheck's model and document shape, finite-difference step, pass bound and --loss asl
# setting (--loss bce is LossConfig())
GRADCHECK_HIDDEN = 8
GRADCHECK_VOCAB = 50
GRADCHECK_C = 8
GRADCHECK_S = 2
GRADCHECK_LABELS = 20
GRADCHECK_EPS = 1e-5
GRADCHECK_TOL = 1e-4
GRADCHECK_ASL = LossConfig(gamma_pos=1.0, gamma_neg=2.0, margin=0.0)


@dataclass
class GradcheckReport:
    max_rel_err: float
    worst_tensor: str
    per_tensor: dict  # name -> (coord, analytic, numeric, rel_err)

    def ok(self) -> bool:
        return self.max_rel_err < GRADCHECK_TOL

    def to_text(self) -> str:
        lines = ["tensor\tworst_coord\tanalytic\tnumeric\trel_err"]
        for name, (coord, a, n, r) in self.per_tensor.items():
            lines.append(f"{name}\t{coord}\t{a:.6e}\t{n:.6e}\t{r:.3e}")
        lines.append(
            f"max relative error: {self.max_rel_err:.6e} (tensor {self.worst_tensor})"
        )
        return "\n".join(lines) + "\n"


def check_gradients(model: LevelModel, doc: ChunkedDocument, gold: np.ndarray,
                    loss: LossConfig, mask: Optional[np.ndarray] = None,
                    dropout: float = 0.0) -> GradcheckReport:
    """Compare forward_backward's gradients with central differences of its own loss,
    evaluated by _loss without gradient buffers, so with no backward.

    Checks every coordinate of ``model.trainable()`` under the label ``mask``; every
    call draws the same dropout masks, from a generator rebuilt for each call.
    Central differences at GRADCHECK_EPS = 1e-5 carry O(1e-11) truncation error and
    about as much rounding error (float64's 1e-16 times the loss, over the step).
    Relative error uses a denominator floor of 1e-4, so coordinates whose true
    gradient sits below the floor are effectively held to an absolute tolerance of
    1e-8 instead of a meaningless ratio of two noise-dominated numbers.
    """
    def loss_at():
        return _loss(doc, model, gold, mask, loss, dropout, derive_rng("gradcheck", "dropout"))[0]

    _, grads = forward_backward(doc, model.enc, model.head, gold, mask, loss, model.corr,
                                model.corr_inputs, dropout, derive_rng("gradcheck", "dropout"))
    eps = GRADCHECK_EPS
    per_tensor = {}
    max_rel, worst = 0.0, ""
    for name, tensor in model.trainable():
        flat = tensor.reshape(-1)
        best = (0, 0.0, 0.0, 0.0)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_at()
            flat[i] = orig - eps
            lm = loss_at()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = grads[name].reshape(-1)[i]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)
            if rel > best[3]:
                best = (i, analytic, numeric, rel)
        coord = np.unravel_index(best[0], tensor.shape)
        per_tensor[name] = (tuple(int(c) for c in coord), best[1], best[2], best[3])
        if best[3] >= max_rel:
            max_rel, worst = best[3], name
    return GradcheckReport(max_rel, worst, per_tensor)


def gradcheck(n_layers: int, loss: LossConfig, seed: int = 0) -> GradcheckReport:
    """check_gradients on a seeded GRADCHECK_* sized model and one partly padded
    document, every label active and no dropout: the ``xrlat gradcheck`` case."""
    rng = derive_rng(seed, "gradcheck")
    model = init_level_model(GRADCHECK_VOCAB, GRADCHECK_C, GRADCHECK_HIDDEN,
                             GRADCHECK_LABELS, n_layers, 0, rng)
    # leave some padding so the key mask and the head's real-row slice are exercised
    ids = rng.integers(2, GRADCHECK_VOCAB, size=GRADCHECK_C * GRADCHECK_S - 3)
    doc = chunk(ids, GRADCHECK_C, GRADCHECK_S)
    gold = (rng.random(GRADCHECK_LABELS) < 0.3).astype(np.float64)
    return check_gradients(model, doc, gold, loss)
