"""Hierarchical multi-label text classification with label-wise attention.

Desk-scale, dependency-light engine covering: a 4-level code hierarchy with
one-hot indexing matrices and label propagation; Poincare-ball embeddings of
the tree; text cleaning/chunking and synthetic corpora; a from-scratch
segment-pooled transformer encoder with label-wise attention and per-label
classifiers (exact hand-written gradients); flat and waterfall training with
bootstrapped initialization and dynamic negative sampling; and a full
macro/micro AUC, F1, P@k evaluation suite.
"""
