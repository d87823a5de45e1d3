"""Hierarchical multi-label text classification with label-wise attention.

Desk-scale, dependency-light engine covering: a 4-level code hierarchy with
one-hot indexing matrices and label propagation; Poincare-ball embeddings of
the tree; text cleaning/chunking and synthetic corpora; a from-scratch
segment-pooled transformer encoder with label-wise attention and per-label
classifiers (exact hand-written gradients); flat and waterfall training with
bootstrapped initialization and dynamic negative sampling; and a full
macro/micro AUC, F1, P@k evaluation suite.
"""

from .code_tree import (
    CodeTree,
    IndexingMatrix,
    LabelMatrix,
    build_tree,
    propagate_labels,
    tree_stats,
)
from .hyperbolic import PoincareEmbeddings, poincare_distance, train_poincare
from .losses import LossConfig
from .metrics import (
    MetricsReport,
    PredictionSet,
    auc,
    compute_metrics,
    macro_f1,
    macro_micro_auc,
    micro_f1,
    precision_at_k,
)
from .network import (
    CorrectionLayer,
    EncoderParams,
    HeadParams,
    LevelModel,
    forward_backward,
    gradcheck,
)
from .textproc import (
    ChunkedDocument,
    Vocabulary,
    build_vocab,
    chunk,
    clean_text,
    read_dataset,
    synth_corpus,
    tokenize,
    write_dataset,
)
from .training import (
    AdamW,
    TrainConfig,
    bootstrap_equal,
    bootstrap_hyperc,
    inference_mask,
    predict,
    prepare_dataset,
    train_flat,
    train_xr_lat,
    training_mask,
)

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "ChunkedDocument",
    "CodeTree",
    "CorrectionLayer",
    "EncoderParams",
    "HeadParams",
    "IndexingMatrix",
    "LabelMatrix",
    "LevelModel",
    "LossConfig",
    "MetricsReport",
    "PoincareEmbeddings",
    "PredictionSet",
    "TrainConfig",
    "Vocabulary",
    "auc",
    "bootstrap_equal",
    "bootstrap_hyperc",
    "build_tree",
    "build_vocab",
    "chunk",
    "clean_text",
    "compute_metrics",
    "forward_backward",
    "gradcheck",
    "inference_mask",
    "macro_f1",
    "macro_micro_auc",
    "micro_f1",
    "poincare_distance",
    "precision_at_k",
    "predict",
    "prepare_dataset",
    "propagate_labels",
    "read_dataset",
    "synth_corpus",
    "tokenize",
    "train_flat",
    "train_poincare",
    "train_xr_lat",
    "training_mask",
    "tree_stats",
    "write_dataset",
]
