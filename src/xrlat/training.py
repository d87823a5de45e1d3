"""Losses, optimizer, bootstrapping, dynamic negative sampling, and training loops.

Two regimes are provided: a flat code-level classifier trained over the full
label set, and a waterfall chain of four sub-models (chapter, block,
category, code) where each child level can be initialized from its trained
parent (bootstrapping) and restricted per instance to children of parents
that are gold or predicted positive (dynamic negative sampling).
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import checkpoint
from .code_tree import CodeTree, IndexingMatrix, LabelMatrix, propagate_labels
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
from .textproc import (
    ChunkedDocument,
    Vocabulary,
    check_chunk_geometry,
    chunk,
    clean_text,
    tokenize,
)
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

# tensors with one row per label: under masks a step writes only its documents' rows
HEAD_ROWS = ("W_la", "W_cl", "b_cl")

BOOTSTRAP_MODES = ("none", "equal", "hyperc")


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
        if self.loss not in ("bce", "asl"):
            raise ConfigError(f"loss must be 'bce' or 'asl', got {self.loss!r}")
        if self.bootstrap not in BOOTSTRAP_MODES:
            raise ConfigError(f"bootstrap must be one of {BOOTSTRAP_MODES}, got {self.bootstrap!r}")
        for key, ok, accepted in (
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("learning_rate", 0.0 <= self.learning_rate < math.inf, "finite and >= 0"),
            ("weight_decay", 0.0 <= self.weight_decay < math.inf, "finite and >= 0"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("max_steps", self.max_steps >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("binary_threshold", 0.0 < self.binary_threshold < 1.0, "in (0, 1)"),
            ("hidden_size", 1 <= self.hidden_size <= MAX_HIDDEN, f"in [1, {MAX_HIDDEN}]"),
            ("n_layers", self.n_layers in (0, 1, 2), "0, 1 or 2"),
            ("min_frequency", self.min_frequency >= 1, ">= 1"),
            ("log_interval", self.log_interval >= 1, ">= 1"),
        ):
            if not ok:
                raise ConfigError(f"{key} must be {accepted}, got {getattr(self, key)!r}")
        check_chunk_geometry(self.c, self.s)
        try:
            self.loss_config()
        except DataError as exc:  # names a LossConfig field; its config key is asl_<field>
            raise ConfigError(f"asl_{exc}") from None

    def loss_config(self) -> LossConfig:
        return LossConfig(
            kind=self.loss,
            gamma_pos=self.asl_gamma_pos,
            gamma_neg=self.asl_gamma_neg,
            margin=self.asl_margin,
        )


# ---------------------------------------------------------------------------
# bootstrapping


def bootstrap_equal(parent: LevelModel, T: IndexingMatrix) -> LevelModel:
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


def bootstrap_hyperc(parent: LevelModel, T: IndexingMatrix, E_child: np.ndarray,
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


def training_mask(p_parent, y_parent, T: IndexingMatrix, threshold: float) -> np.ndarray:
    """Child labels whose parent is gold or predicted positive: binary(p + y) gathered by T.

    binary(x) = 1 iff x >= threshold, so a gold parent (y = 1) always passes.
    """
    p_parent = np.asarray(p_parent, dtype=np.float64)
    y_parent = np.asarray(y_parent, dtype=np.float64)
    if p_parent.shape != y_parent.shape:
        raise DataError(f"parent vectors differ in shape: {p_parent.shape} and {y_parent.shape}")
    return inference_mask(p_parent + y_parent, T, threshold)


def inference_mask(p_parent, T: IndexingMatrix, threshold: float) -> np.ndarray:
    """Children of predicted-positive parents: binary(p) gathered by T."""
    p_parent = np.asarray(p_parent, dtype=np.float64)
    if p_parent.shape[0] != T.n_cols:
        raise DataError(f"expected a parent vector of length {T.n_cols}, got {p_parent.shape}")
    parent_on = p_parent >= threshold
    return parent_on[T.parent_index].astype(np.uint8)


# ---------------------------------------------------------------------------
# optimizer and schedule


def _rows_of(name: str, rows):
    """Index selecting the label rows ``rows`` of a HEAD_ROWS tensor, or all of any other."""
    return rows if name in HEAD_ROWS else slice(None)


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay, beta 0.9/0.999, eps 1e-8.

    The first step fixes the layout for the optimizer's life. A first step over
    every row (``rows`` = slice(None)) updates every tensor in place from then
    on. After a masked first step, the label rows of HEAD_ROWS tensors are
    updated row-sparse: ``step`` is given the rows its gradient may be nonzero
    in, and the optimizer keeps the union of rows touched so far (``rows``, in
    first-touch order), with their moments compact in the leading rows of m and
    v. Each step gathers theta and g at those rows, updates the moments in place
    and scatters theta back. A row never touched has m = v = 0, so its exact
    update is the decay term alone, applied in one pass over the tensor.
    """

    def __init__(self, model: LevelModel, weight_decay: float = 0.0):
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in model.trainable()}
        self.v = {name: np.zeros_like(p) for name, p in model.trainable()}
        self.touched = np.zeros(model.n_labels, dtype=bool)
        self.rows = None  # the gathered rows once a masked first step has run

    def step(self, model: LevelModel, grads: dict, lr: float, rows=slice(None)) -> None:
        """One update; ``rows`` (sorted label indices, or slice(None) if the first step's
        was) bounds the HEAD_ROWS rows where ``grads`` may be nonzero."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        if self.t == 1 and not isinstance(rows, slice):
            self.rows = np.empty(0, dtype=np.intp)
        if self.rows is not None:
            new = rows[~self.touched[rows]]
            self.touched[new] = True
            self.rows = np.concatenate([self.rows, new])
        for name, theta in model.trainable():
            idx = _rows_of(name, slice(None) if self.rows is None else self.rows)
            gathered = not isinstance(idx, slice)
            g = grads[name][idx]
            th = theta[idx]
            m = self.m[name][: len(th)]  # gathered rows' moments lead, in first-touch order
            v = self.v[name][: len(th)]
            if gathered and self.weight_decay != 0.0:
                # untouched rows: update = 0 exactly, so theta -= lr * (0 + decay)
                theta -= lr * (0.0 + self.weight_decay * theta)
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            th -= lr * (update + self.weight_decay * th)
            if gathered:
                theta[idx] = th


def lr_at(step: int, peak: float, max_steps: int) -> float:
    """Linear warmup over round(WARMUP_SHARE * max_steps) steps, then linear decay to
    zero; step 0 uses (step+1)/warmup."""
    if max_steps <= 0:
        return 0.0
    warmup = round(WARMUP_SHARE * max_steps)
    if step < warmup:
        return peak * (step + 1) / warmup
    return peak * max(0, max_steps - step) / (max_steps - warmup)


def clip_gradients(grads: dict, max_norm: float, rows=slice(None)) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm; returns the norm.

    Only the label rows ``rows`` of HEAD_ROWS tensors are read and scaled; their
    other rows must be zero.
    """
    total = np.sqrt(sum(float(np.square(g[_rows_of(name, rows)]).sum())
                        for name, g in grads.items()))
    if total > max_norm:
        factor = max_norm / total
        for name, g in grads.items():
            g[_rows_of(name, rows)] *= factor
    return total


# ---------------------------------------------------------------------------
# datasets


@dataclass
class PreparedDataset:
    """Tokenized, chunked documents plus their code-level gold labels."""

    docs: list  # ChunkedDocument per instance
    labels: LabelMatrix  # code level
    vocab: Vocabulary


def prepare_dataset(raw_docs, vocab: Vocabulary, tree: CodeTree, c: int, s: int) -> PreparedDataset:
    docs, rows = [], []
    for raw in raw_docs:
        ids = tokenize(clean_text(raw.text), vocab)
        if ids.size == 0:
            raise DataError(f"document {raw.doc_id!r} has no tokens after cleaning")
        docs.append(chunk(ids, c, s))
        rows.append(raw.codes)
    n_leaves = tree.nodes_per_level[-1]
    return PreparedDataset(docs, LabelMatrix(n_leaves, rows), vocab)


def _dense_row(rows, i, n_labels) -> np.ndarray:
    y = np.zeros(n_labels, dtype=np.uint8)
    y[rows[i]] = 1
    return y


# ---------------------------------------------------------------------------
# training loops


def _train_level(docs, label_rows, masks, model: LevelModel, cfg: TrainConfig,
                 log_path: Optional[str] = None):
    """Run the optimizer for cfg.max_steps over the documents; returns step history.

    ``masks`` is either None (all labels active) or one uint8 vector per
    document. Each step adds its documents' gradients, in batch order, into
    one buffer that is zeroed before the step. Under masks a step writes only
    the HEAD_ROWS rows in the union of its documents' masks, so only those rows
    are zeroed, scaled and clipped, and AdamW is told which they are.
    """
    n_docs = len(docs)
    if n_docs == 0:
        raise DataError("cannot train on an empty dataset")
    keep_freed_memory()
    data_rng = derive_rng(cfg.seed, "data", model.level)
    opt = AdamW(model, weight_decay=cfg.weight_decay)
    loss_cfg = cfg.loss_config()
    history = []
    log_lines = []
    grads = zero_grads(model)
    rows = slice(None)  # HEAD_ROWS rows the last step wrote

    step = 0
    while step < cfg.max_steps:
        order = data_rng.permutation(n_docs)
        for start in range(0, n_docs, cfg.batch_size):
            if step >= cfg.max_steps:
                break
            batch = order[start : start + cfg.batch_size]
            step_ss = np.random.SeedSequence([cfg.seed, model.level, step])
            rngs = (
                [np.random.default_rng(s) for s in step_ss.spawn(len(batch))]
                if cfg.dropout > 0.0
                else [None] * len(batch)
            )
            for name, g in grads.items():
                g[_rows_of(name, rows)] = 0.0
            if masks is not None:
                rows = np.flatnonzero(np.any([masks[i] for i in batch], axis=0))
            losses = []
            try:
                for i, rng in zip((int(i) for i in batch), rngs):
                    loss, _ = forward_backward(
                        docs[i], model.enc, model.head,
                        _dense_row(label_rows, i, model.n_labels),
                        None if masks is None else masks[i], loss_cfg,
                        corr=model.corr, corr_inputs=model.corr_inputs,
                        dropout=cfg.dropout, rng=rng, grads=grads,
                    )
                    losses.append(loss)
            except NumericsError as exc:
                raise NumericsError(
                    f"{exc} at step {step}", tensor=exc.tensor, step=step
                ) from None
            batch_loss = float(np.mean(losses))
            inv = 1.0 / len(batch)
            for name, g in grads.items():
                g[_rows_of(name, rows)] *= inv
            clip_gradients(grads, CLIP_NORM, rows)
            lr = lr_at(step, cfg.learning_rate, cfg.max_steps)
            opt.step(model, grads, lr, rows)
            history.append((step, lr, batch_loss))
            if (step + 1) % cfg.log_interval == 0 or step + 1 == cfg.max_steps:
                log_lines.append(f"{step}\t{lr:.6f}\t{batch_loss:.6f}")
            step += 1
    if log_path is not None:
        atomic_write_text(log_path, "\n".join(log_lines) + ("\n" if log_lines else ""))
    return history


def train_flat(data: PreparedDataset, tree: CodeTree, cfg: TrainConfig,
               out_dir: Optional[str] = None):
    """Train a single code-level model with every label active.

    Returns (model, history); with out_dir set, also writes flat.ckpt and
    train_flat.log there.
    """
    model = init_level_model(data.vocab.size, cfg.c, cfg.hidden_size, tree.nodes_per_level[-1],
                             cfg.n_layers, 4, derive_rng(cfg.seed, "init", 4))
    log_path = os.path.join(out_dir, "train_flat.log") if out_dir else None
    history = _train_level(data.docs, data.labels.rows, None, model, cfg, log_path)
    if out_dir:
        checkpoint.save_model(os.path.join(out_dir, "flat.ckpt"), model, cfg)
    return model, history


def _level_probs(model: LevelModel, doc: ChunkedDocument, mask) -> np.ndarray:
    return forward_probs(doc, model.enc, model.head, mask,
                         corr=model.corr, corr_inputs=model.corr_inputs)


def train_xr_lat(data: PreparedDataset, tree: CodeTree, cfg: TrainConfig,
                 out_dir: Optional[str] = None,
                 embeddings: Optional[PoincareEmbeddings] = None):
    """Waterfall-train the four-level model chain.

    Level 1 trains with full masks from a random init. Each subsequent level
    is initialized per cfg.bootstrap and, when cfg.negative_sampling is on,
    trained per instance only on children of parents that are gold or were
    predicted positive by the (frozen) parent model. Returns
    (models, histories).
    """
    if cfg.bootstrap == "hyperc" and embeddings is None:
        raise ConfigError("bootstrap=hyperc requires Poincare embeddings")

    level_rows = [None] * 5  # 1-based
    level_rows[4] = data.labels.rows
    label_mat = data.labels
    for k in (4, 3, 2):
        label_mat = propagate_labels(label_mat, tree.indexing_matrix(k))
        level_rows[k - 1] = label_mat.rows
    sizes = tree.nodes_per_level

    models, histories = [], []
    prev_model: Optional[LevelModel] = None
    prev_masks = None
    for k in range(1, 5):
        n_labels = sizes[k - 1]
        if k == 1 or cfg.bootstrap == "none":
            model = init_level_model(data.vocab.size, cfg.c, cfg.hidden_size, n_labels,
                                     cfg.n_layers, k, derive_rng(cfg.seed, "init", k))
        elif cfg.bootstrap == "equal":
            model = bootstrap_equal(prev_model, tree.indexing_matrix(k))
        else:
            model = bootstrap_hyperc(prev_model, tree.indexing_matrix(k), embeddings.level(k))

        masks = None
        if k > 1 and cfg.negative_sampling:
            T_k = tree.indexing_matrix(k)
            masks = []
            for i, doc in enumerate(data.docs):
                parent_mask = None if prev_masks is None else prev_masks[i]
                p_parent = _level_probs(prev_model, doc, parent_mask)
                y_parent = _dense_row(level_rows[k - 1], i, sizes[k - 2])
                masks.append(training_mask(p_parent, y_parent, T_k, cfg.binary_threshold))

        log_path = os.path.join(out_dir, f"train_level{k}.log") if out_dir else None
        history = _train_level(data.docs, level_rows[k], masks, model, cfg, log_path)
        if out_dir:
            checkpoint.save_model(os.path.join(out_dir, f"level{k}.ckpt"), model, cfg)
        models.append(model)
        histories.append(history)
        prev_model, prev_masks = model, masks
    return models, histories


# ---------------------------------------------------------------------------
# prediction


def predict(models, doc: ChunkedDocument, tree: CodeTree, cfg: TrainConfig) -> np.ndarray:
    """Code-level probabilities for one document.

    A single model runs one full forward pass. A four-model chain with
    negative sampling cascades level 1 to 4, masking each level's labels to
    children of parents predicted positive (masked codes score exactly 0);
    without negative sampling only the final model is scored, over all codes.
    """
    if isinstance(models, LevelModel):
        return _level_probs(models, doc, None)
    models = list(models)
    if len(models) != 4:
        raise ConfigError(f"expected 1 or 4 models, got {len(models)}")
    if not cfg.negative_sampling:
        return _level_probs(models[3], doc, None)
    mask = None
    p = None
    for k in range(1, 5):
        p = _level_probs(models[k - 1], doc, mask)
        if k < 4:
            mask = inference_mask(p, tree.indexing_matrix(k + 1), cfg.binary_threshold)
    return p


def predict_dataset(models, data: PreparedDataset, tree: CodeTree, cfg: TrainConfig) -> np.ndarray:
    """Stacked predict() scores, one row per document."""
    keep_freed_memory()
    rows = [predict(models, d, tree, cfg) for d in data.docs]
    n_labels = tree.nodes_per_level[-1]
    return np.stack(rows) if rows else np.zeros((0, n_labels))
