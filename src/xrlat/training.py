"""Training and prediction: optimizer, bootstrapping, the cascade step, and the loops.

Two regimes share one level loop: a flat code-level classifier trained over the
full label set (the one-level chain), and a waterfall chain of four sub-models
(chapter, block, category, code) where each child level can be initialized from
its trained parent (bootstrapping) and restricted per instance to children of
parents that are gold or predicted positive (dynamic negative sampling). One cascade
step, ``_child_masks``, builds those masks in training and, without gold, in prediction.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import checkpoint
from .code_tree import CodeTree, LabelMatrix, TreeLevel, propagate_labels
from .hyperbolic import PoincareEmbeddings
from .losses import LossConfig
from .network import (
    CorrectionLayer,
    HeadParams,
    LevelModel,
    forward_backward,
    forward_probs,
    init_level_model,
    zero_grads,
)
from .textproc import ChunkedDocument, Vocabulary, check_chunk_geometry, chunk, tokenize
from .util import (
    ConfigError,
    DataError,
    NumericsError,
    atomic_write_text,
    derive_rng,
    keep_freed_memory,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 1.0  # global L2 bound on each step's averaged gradient
MAX_HIDDEN = 1024  # largest hidden_size, the same bound as hyperbolic.MAX_DIM
WARMUP_SHARE = 0.05  # the learning rate warms up over this share of max_steps
# AdamW updates each tensor in blocks of this many elements (whole rows, at least one),
# small enough that a block's gradient, weights, moments and scratch stay in L2 cache
BLOCK_ELEMENTS = 1 << 14

# tensors with one row per label: under masks a step writes only its documents' rows
HEAD_ROWS = ("W_la", "W_cl", "b_cl")

BOOTSTRAP_MODES = ("none", "equal", "hyperc")

# (tree level, checkpoint stem) of each model a training writes: flat is the one-level chain
FLAT_LEVELS = ((4, "flat"),)
CHAIN_LEVELS = ((1, "level1"), (2, "level2"), (3, "level3"), (4, "level4"))


@dataclass
class TrainConfig:
    batch_size: int = 8
    learning_rate: float = 5e-5
    weight_decay: float = 0.1
    dropout: float = 0.1
    max_steps: int = 1000
    seed: int = 2022
    loss: str = "bce"
    asl_gamma_pos: float = 1.0
    asl_gamma_neg: float = 4.0
    asl_margin: float = 0.05
    bootstrap: str = "equal"
    negative_sampling: bool = True
    c: int = 16
    s: int = 8
    binary_threshold: float = 0.5
    hidden_size: int = 32
    n_layers: int = 1
    min_frequency: int = 1
    log_interval: int = 50

    # not a field or config key; perfbench/harness.py reads it (F1 cutoff: eval --threshold)
    decision_threshold = 0.5

    def __post_init__(self):
        for key, ok, accepted in (
            ("loss", self.loss in ("bce", "asl"), "'bce' or 'asl'"),
            ("bootstrap", self.bootstrap in BOOTSTRAP_MODES, f"one of {BOOTSTRAP_MODES}"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("learning_rate", 0.0 <= self.learning_rate < math.inf, "finite and >= 0"),
            ("weight_decay", 0.0 <= self.weight_decay < math.inf, "finite and >= 0"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("max_steps", self.max_steps >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("asl_gamma_pos", 0.0 <= self.asl_gamma_pos < math.inf, "finite and >= 0"),
            ("asl_gamma_neg", 0.0 <= self.asl_gamma_neg < math.inf, "finite and >= 0"),
            ("asl_margin", 0.0 <= self.asl_margin < 1.0, "in [0, 1)"),
            ("binary_threshold", 0.0 < self.binary_threshold < 1.0, "in (0, 1)"),
            ("hidden_size", 1 <= self.hidden_size <= MAX_HIDDEN, f"in [1, {MAX_HIDDEN}]"),
            ("n_layers", self.n_layers in (0, 1, 2), "0, 1 or 2"),
            ("min_frequency", self.min_frequency >= 1, ">= 1"),
            ("log_interval", self.log_interval >= 1, ">= 1"),
        ):
            if not ok:
                raise ConfigError(f"{key} must be {accepted}, got {getattr(self, key)!r}")
        check_chunk_geometry(self.c, self.s)

    def loss_config(self) -> LossConfig:
        """BCE is ASL at LossConfig()'s (0, 0, 0); the asl_* keys apply under loss = asl."""
        if self.loss == "bce":
            return LossConfig()
        return LossConfig(self.asl_gamma_pos, self.asl_gamma_neg, self.asl_margin)


# ---------------------------------------------------------------------------
# bootstrapping


def bootstrap_equal(parent: LevelModel, T: TreeLevel) -> LevelModel:
    """Child init: encoder copied verbatim, head rows gathered from each parent row."""
    if T.n_cols != parent.n_labels:
        raise DataError(
            f"indexing matrix has {T.n_cols} columns but parent model has {parent.n_labels} labels"
        )
    idx = T.parent_index
    w_la_parent = parent.effective_w_la()
    head = HeadParams(
        W_la=w_la_parent[idx].copy(),
        W_cl=parent.head.W_cl[idx].copy(),
        b_cl=parent.head.b_cl[idx].copy(),
    )
    return LevelModel(copy.deepcopy(parent.enc), head, parent.level + 1, "bootstrap-equal")


def bootstrap_hyperc(parent: LevelModel, T: TreeLevel, E_child: np.ndarray,
                     f: Optional[CorrectionLayer] = None) -> LevelModel:
    """Child init like bootstrap_equal plus a per-label additive correction f(E).

    The correction layer defaults to the zero map and stays trainable during
    the child level's training; the effective attention queries are
    base + f(E_child) row-wise.
    """
    model = bootstrap_equal(parent, T)
    E_child = np.asarray(E_child, dtype=np.float64)
    if E_child.shape[0] != T.rows:
        raise DataError(
            f"embedding matrix has {E_child.shape[0]} rows but the child level has {T.rows} labels"
        )
    d_emb, hidden = E_child.shape[1], parent.enc.hidden
    if f is None:
        f = CorrectionLayer(np.zeros((d_emb, hidden)), np.zeros(hidden))
    if f.W.shape != (d_emb, hidden):
        raise DataError(f"correction layer maps {f.W.shape[0]} dims but embeddings have {d_emb}")
    model.corr = CorrectionLayer(f.W.copy(), f.b.copy())
    model.corr_inputs = E_child.copy()
    model.provenance = "bootstrap-hyperc"
    return model


# ---------------------------------------------------------------------------
# dynamic negative sampling


def training_mask(p_parent, gold_parent, T: TreeLevel, threshold: float) -> np.ndarray:
    """Child labels whose parent is gold or predicted positive, for the parent
    probabilities ``p_parent`` and the parent's sorted gold label indices ``gold_parent``.

    The paper's rule is binary(p + y) gathered by T, with y the dense gold row and
    binary(x) = 1 iff x >= threshold. For p in [0, 1] and threshold in (0, 1), p + 1
    passes and p + 0 is p, so setting each gold parent's p to 1 is the same rule.
    """
    p = np.array(p_parent, dtype=np.float64)
    gold = np.asarray(gold_parent, dtype=np.intp)
    if gold.size and (gold.min() < 0 or gold.max() >= p.size):
        raise DataError(f"gold parent indices {gold.min()}..{gold.max()} outside [0, {p.size})")
    p[gold] = 1.0
    return inference_mask(p, T, threshold)


def inference_mask(p_parent, T: TreeLevel, threshold: float) -> np.ndarray:
    """Children of predicted-positive parents: binary(p) gathered by T."""
    p_parent = np.asarray(p_parent, dtype=np.float64)
    if p_parent.shape[0] != T.n_cols:
        raise DataError(f"expected a parent vector of length {T.n_cols}, got {p_parent.shape}")
    parent_on = p_parent >= threshold
    return parent_on[T.parent_index]


# ---------------------------------------------------------------------------
# optimizer and schedule


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay, beta 0.9/0.999, eps 1e-8.

    Each step sweeps every tensor once, in blocks of whole rows, about BLOCK_ELEMENTS
    elements, whose gradient, weights, moments and one scratch buffer stay in cache.
    Within a block it gathers g, scales it by ``scale`` before squaring it (so a
    gradient whose norm overflowed, scale 0, squares to 0), updates m and v in place,
    builds sqrt(v) * (1 / sqrt(bc2)) + eps in the scratch buffer, divides m by it, scales
    that by lr / bc1, decays theta by (1 - lr * weight_decay) and subtracts. Every
    element goes through the same operations whatever the block size, so the
    blocking changes no byte. The gradient is zero when the step returns.

    The first step fixes the layout for the optimizer's life. A first step over
    every row (``rows`` = slice(None)) updates every tensor in place from then
    on. After a masked first step, the label rows of HEAD_ROWS tensors are
    updated row-sparse: ``step`` is given the rows its gradient may be nonzero
    in, and the optimizer keeps the union of rows touched so far (``rows``, in
    first-touch order), with their moments compact in the leading rows of m and
    v. Each block of those rows is gathered, updated and scattered back. A row
    never touched has m = v = 0, so its exact update is the decay alone, applied
    to every row in one pass before the blocks.
    """

    def __init__(self, model: LevelModel, weight_decay: float = 0.0):
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in model.trainable()}
        self.v = {name: np.zeros_like(p) for name, p in model.trainable()}
        self.touched = np.zeros(model.n_labels, dtype=bool)
        self.rows = None  # the gathered rows once a masked first step has run

    def step(self, model: LevelModel, grads: dict, lr: float, rows=slice(None),
             scale: float = 1.0) -> None:
        """One update from the gradient ``scale * grads``, which is zero on return;
        ``rows`` (sorted label indices, or slice(None) if the first step's was) bounds
        the HEAD_ROWS rows where ``grads`` may be nonzero."""
        self.t += 1
        step_size = lr / (1.0 - ADAM_BETA1**self.t)
        inv_sqrt_bc2 = 1.0 / math.sqrt(1.0 - ADAM_BETA2**self.t)
        decay = 1.0 - lr * self.weight_decay
        if self.t == 1 and not isinstance(rows, slice):
            self.rows = np.empty(0, dtype=np.intp)
        if self.rows is not None:
            new = rows[~self.touched[rows]]
            self.touched[new] = True
            self.rows = np.concatenate([self.rows, new])
        for name, theta in model.trainable():
            gathered = self.rows is not None and name in HEAD_ROWS
            n = len(self.rows) if gathered else len(theta)
            per = max(1, BLOCK_ELEMENTS // math.prod(theta.shape[1:]))
            scratch = np.empty((min(per, n),) + theta.shape[1:])
            if gathered and decay != 1.0:
                theta *= decay  # the blocks below then only subtract their update
            G, M, V = grads[name], self.m[name], self.v[name]
            for a in range(0, n, per):
                b = min(a + per, n)
                idx = self.rows[a:b] if gathered else slice(a, b)
                g = G[idx]  # a copy when gathered, a view otherwise
                m, v, buf = M[a:b], V[a:b], scratch[: b - a]  # gathered: first-touch order
                g *= scale
                m *= ADAM_BETA1
                np.multiply(g, 1.0 - ADAM_BETA1, out=buf)
                m += buf
                v *= ADAM_BETA2
                g *= g
                g *= 1.0 - ADAM_BETA2
                v += g
                np.sqrt(v, out=buf)
                buf *= inv_sqrt_bc2
                buf += ADAM_EPS
                np.divide(m, buf, out=buf)
                buf *= step_size
                if gathered:
                    theta[idx] -= buf  # gathers the rows, subtracts and scatters them back
                else:
                    th = theta[idx]
                    th *= decay
                    th -= buf
                    g.fill(0.0)
            if gathered:
                G[rows] = 0.0  # of the rows read, only the step's own can be nonzero


def lr_at(step: int, peak: float, max_steps: int) -> float:
    """Linear warmup over round(WARMUP_SHARE * max_steps) steps, then linear decay to
    zero; step 0 uses (step+1)/warmup."""
    if max_steps <= 0:
        return 0.0
    warmup = round(WARMUP_SHARE * max_steps)
    if step < warmup:
        return peak * (step + 1) / warmup
    return peak * max(0, max_steps - step) / (max_steps - warmup)


def clip_gradients(grads: dict, n_docs: int, max_norm: float, rows=slice(None)):
    """(norm, factor) for ``grads``, the sum of ``n_docs`` documents' gradients: the L2
    norm of their mean, and the factor taking the sum to that mean clipped to norm
    ``max_norm``, (1 / n_docs) * min(1, max_norm / norm). Reads each tensor once and
    writes nothing.

    Only the label rows ``rows`` of HEAD_ROWS tensors are read; their other rows must
    be zero. A norm that overflows to inf gives factor 0.
    """
    total = 0.0
    with np.errstate(over="ignore"):
        for name, g in grads.items():
            flat = g[rows if name in HEAD_ROWS else slice(None)].reshape(-1)
            total += float(np.dot(flat, flat))
    inv = 1.0 / n_docs
    norm = math.sqrt(total) * inv
    return norm, (inv if norm <= max_norm else inv * (max_norm / norm))


# ---------------------------------------------------------------------------
# datasets


@dataclass
class PreparedDataset:
    """Tokenized, chunked documents plus their code-level gold labels."""

    docs: list  # ChunkedDocument per instance
    labels: LabelMatrix  # code level
    vocab: Vocabulary


def prepare_dataset(raw_docs, vocab: Vocabulary, tree: CodeTree, c: int, s: int) -> PreparedDataset:
    """Tokenize and chunk each document's text as it stands: read_dataset has cleaned it."""
    docs, rows = [], []
    for raw in raw_docs:
        ids = tokenize(raw.text, vocab)
        if ids.size == 0:
            raise DataError(f"document {raw.doc_id!r} has no tokens after cleaning")
        docs.append(chunk(ids, c, s))
        rows.append(raw.codes)
    n_leaves = tree.nodes_per_level[-1]
    return PreparedDataset(docs, LabelMatrix(n_leaves, rows), vocab)


# ---------------------------------------------------------------------------
# training loops


def _train_level(docs, label_rows, masks, model: LevelModel, cfg: TrainConfig,
                 log_path: Optional[str] = None):
    """Run the optimizer for cfg.max_steps over the documents; returns step history.

    With B = ceil(documents / batch_size) batches per epoch, step s takes batch
    s mod B of epoch s div B; each epoch is a fresh permutation of the documents,
    drawn at its first batch from derive_rng(seed, "data", level).

    ``masks`` is either None (all labels active) or one bool row per
    document. Each step adds its documents' gradients, in batch order, into
    one buffer; clip_gradients reads it once for the factor that takes the sum
    to the clipped batch mean, and AdamW applies that factor in its one sweep,
    zeroing the rows it read. Under masks a step writes only the HEAD_ROWS rows
    in the union of its documents' masks, so only those rows are read for the
    norm, and AdamW is told which they are.
    """
    n_docs = len(docs)
    if n_docs == 0:
        raise DataError("cannot train on an empty dataset")
    keep_freed_memory()
    data_rng = derive_rng(cfg.seed, "data", model.level)
    n_batches = math.ceil(n_docs / cfg.batch_size)
    opt = AdamW(model, weight_decay=cfg.weight_decay)
    loss_cfg = cfg.loss_config()
    history = []
    grads = zero_grads(model)

    for step in range(cfg.max_steps):
        start = step % n_batches * cfg.batch_size
        if start == 0:
            order = data_rng.permutation(n_docs)
        batch = order[start : start + cfg.batch_size]
        step_ss = np.random.SeedSequence([cfg.seed, model.level, step])
        rows = slice(None) if masks is None else np.flatnonzero(masks[batch].any(axis=0))
        losses = []
        try:
            for i, seed in zip((int(i) for i in batch), step_ss.spawn(len(batch))):
                gold = np.zeros(model.n_labels, dtype=np.uint8)
                gold[label_rows[i]] = 1
                loss, _ = forward_backward(
                    docs[i], model.enc, model.head, gold,
                    None if masks is None else masks[i], loss_cfg,
                    corr=model.corr, corr_inputs=model.corr_inputs,
                    dropout=cfg.dropout, rng=np.random.default_rng(seed), grads=grads,
                )
                losses.append(loss)
        except NumericsError as exc:
            raise NumericsError(f"{exc} at step {step}", tensor=exc.tensor, step=step) from None
        batch_loss = float(np.mean(losses))
        _, scale = clip_gradients(grads, len(batch), CLIP_NORM, rows)
        lr = lr_at(step, cfg.learning_rate, cfg.max_steps)
        opt.step(model, grads, lr, rows, scale)
        history.append((step, lr, batch_loss))
    if log_path is not None:
        atomic_write_text(log_path, "".join(
            f"{step}\t{lr:.6f}\t{loss:.6f}\n" for step, lr, loss in history
            if (step + 1) % cfg.log_interval == 0 or step + 1 == cfg.max_steps))
    return history


def train_flat(data: PreparedDataset, tree: CodeTree, cfg: TrainConfig,
               out_dir: Optional[str] = None):
    """Train the one-level chain: a single code-level model with every label active.

    Returns (model, history); with out_dir set, also writes flat.ckpt and
    train_flat.log there.
    """
    (model,), (history,) = _train_levels(data, tree, cfg, FLAT_LEVELS, out_dir)
    return model, history


def _level_probs(model: LevelModel, doc: ChunkedDocument, mask) -> np.ndarray:
    return forward_probs(doc, model.enc, model.head, mask,
                         corr=model.corr, corr_inputs=model.corr_inputs)


def _child_masks(model: LevelModel, docs, masks, T: TreeLevel, threshold: float,
                 gold_rows=None) -> np.ndarray:
    """The cascade step: each document's mask for the level below ``model``, keeping the
    children of the labels that score at or above ``threshold`` under the document's mask
    (``masks`` None: all labels) or, with ``gold_rows`` (``model``'s label rows), are gold.

    The masks are the rows of one array: a small array per document, alive across the
    forwards between them, fragments the heap and raises the peak resident size."""
    out = np.empty((len(docs), T.rows), dtype=bool)
    for i, doc in enumerate(docs):
        p = _level_probs(model, doc, None if masks is None else masks[i])
        if gold_rows is None:
            out[i] = inference_mask(p, T, threshold)
        else:
            out[i] = training_mask(p, gold_rows[i], T, threshold)
    return out


def _train_levels(data: PreparedDataset, tree: CodeTree, cfg: TrainConfig, levels,
                  out_dir: Optional[str] = None,
                  embeddings: Optional[PoincareEmbeddings] = None):
    """Train one model per (level, checkpoint stem) of ``levels``, coarse to fine.

    The first level trains with every label active from a random init. Each
    later level is initialized per cfg.bootstrap from the one before it and,
    when cfg.negative_sampling is on, trained per instance only on children of
    parents that are gold or were predicted positive by the (frozen) model
    above. With out_dir set, each level writes train_<stem>.log and then
    <stem>.ckpt there. Returns (models, histories).
    """
    first = levels[0][0]
    label_mat, level_rows = data.labels, {4: data.labels.rows}
    for k in range(4, first, -1):
        label_mat = propagate_labels(label_mat, tree.indexing_matrix(k))
        level_rows[k - 1] = label_mat.rows

    models, histories = [], []
    masks = None
    for k, stem in levels:
        if k == first or cfg.bootstrap == "none":
            model = init_level_model(data.vocab.size, cfg.c, cfg.hidden_size,
                                     tree.nodes_per_level[k - 1], cfg.n_layers, k,
                                     derive_rng(cfg.seed, "init", k))
        elif cfg.bootstrap == "equal":
            model = bootstrap_equal(models[-1], tree.indexing_matrix(k))
        else:
            model = bootstrap_hyperc(models[-1], tree.indexing_matrix(k), embeddings.level(k))
        if k > first and cfg.negative_sampling:
            masks = _child_masks(models[-1], data.docs, masks, tree.indexing_matrix(k),
                                 cfg.binary_threshold, level_rows[k - 1])
        log_path = os.path.join(out_dir, f"train_{stem}.log") if out_dir else None
        history = _train_level(data.docs, level_rows[k], masks, model, cfg, log_path)
        if out_dir:
            checkpoint.save_model(os.path.join(out_dir, f"{stem}.ckpt"), model, cfg)
        models.append(model)
        histories.append(history)
    return models, histories


def train_xr_lat(data: PreparedDataset, tree: CodeTree, cfg: TrainConfig,
                 out_dir: Optional[str] = None,
                 embeddings: Optional[PoincareEmbeddings] = None):
    """Waterfall-train the four-level chain of CHAIN_LEVELS; returns (models, histories)."""
    if cfg.bootstrap == "hyperc" and embeddings is None:
        raise ConfigError("bootstrap=hyperc requires Poincare embeddings")
    return _train_levels(data, tree, cfg, CHAIN_LEVELS, out_dir, embeddings)


# ---------------------------------------------------------------------------
# prediction


def predict_dataset(models, data: PreparedDataset, tree: CodeTree, cfg: TrainConfig) -> np.ndarray:
    """Code-level probabilities, one row per document.

    ``models`` is one flat model (bare or in a list) or a four-model chain. A
    chain with negative sampling cascades level 1 to 4, each level scored under
    the masks the level above built (masked codes score exactly 0); without
    negative sampling, as for a flat model, the last model scores every code.
    """
    models = [models] if isinstance(models, LevelModel) else list(models)
    if len(models) not in (1, 4):
        raise ConfigError(f"expected 1 or 4 models, got {len(models)}")
    keep_freed_memory()
    masks = None
    if cfg.negative_sampling:
        for k, model in enumerate(models[:-1], start=2):
            masks = _child_masks(model, data.docs, masks, tree.indexing_matrix(k),
                                 cfg.binary_threshold)
    scores = np.empty((len(data.docs), tree.nodes_per_level[-1]))
    for i, doc in enumerate(data.docs):
        scores[i] = _level_probs(models[-1], doc, None if masks is None else masks[i])
    return scores
