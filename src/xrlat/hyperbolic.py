"""Poincare-ball embeddings of hierarchy nodes, trained by Riemannian SGD.

All tree nodes (virtual root plus the four levels) are embedded in the open
unit ball. Training minimizes, for each parent-child edge, the softmax
ranking loss of the edge distance against the distances to uniformly sampled
non-neighbor nodes. The Riemannian gradient is the Euclidean gradient scaled
by ((1 - |theta|^2)^2) / 4, and rows are projected back inside radius
1 - BALL_EPS after every update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .code_tree import CodeTree, N_LEVELS
from .util import DataError, derive_rng

BALL_EPS = 1e-5
INIT_RADIUS = 1e-3
BURN_IN_EPOCHS = 10


def poincare_distance(u, v) -> float:
    """The ball distance between u and v (as _distance_batch); both must be inside the ball."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u @ u >= 1.0 or v @ v >= 1.0:
        raise ValueError("poincare_distance requires points strictly inside the unit ball")
    return float(_distance_batch(u, v[np.newaxis, :])[0][0])


@dataclass
class FlatTree:
    """The tree flattened to one node table: index 0 is the virtual root."""

    names: list
    parent: np.ndarray  # flat parent index, -1 for the root
    level_slices: list  # slice into the flat table for levels 1..4
    adjacency: list  # set of neighbor indices per node (parent + children)


def flatten_tree(tree: CodeTree) -> FlatTree:
    names = ["<root>"]
    level_slices = []
    offset = 1
    parents = [-1]
    prev_offset = 0
    for k in range(1, N_LEVELS + 1):
        lvl = tree.level(k)
        level_slices.append(slice(offset, offset + lvl.size))
        if k == 1:
            parents.extend([0] * lvl.size)
        else:
            parents.extend((lvl.parents + prev_offset).tolist())
        names.extend(lvl.names)
        prev_offset = offset
        offset += lvl.size
    parent = np.array(parents, dtype=np.int64)
    adjacency = [set() for _ in range(len(names))]
    for child in range(1, len(names)):
        p = parent[child]
        adjacency[child].add(int(p))
        adjacency[p].add(child)
    return FlatTree(names, parent, level_slices, adjacency)


def edge_set(tree: CodeTree) -> np.ndarray:
    """(n_edges, 2) array of (parent, child) flat indices over all levels and the root."""
    flat = flatten_tree(tree)
    children = np.arange(1, len(flat.names), dtype=np.int64)
    return np.stack([flat.parent[children], children], axis=1)


@dataclass
class PoincareEmbeddings:
    """Trained ball vectors for every hierarchy node, row-aligned with tree order."""

    names: list
    level_slices: list
    vectors: np.ndarray  # (n_nodes, dim) float64
    ball_eps: float = BALL_EPS
    epoch_max_norms: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def level(self, k: int) -> np.ndarray:
        if not 1 <= k <= N_LEVELS:
            raise DataError(f"level must be in 1..{N_LEVELS}, got {k}")
        return self.vectors[self.level_slices[k - 1]].copy()


def _init_vectors(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    direction = rng.standard_normal((n, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = INIT_RADIUS * rng.random(n) ** (1.0 / dim)
    return direction * radius[:, np.newaxis]


def _project_row(vectors: np.ndarray, idx: int) -> None:
    norm = np.linalg.norm(vectors[idx])
    limit = 1.0 - BALL_EPS
    if norm >= limit:
        # shave a hair below the limit so rounding cannot push the norm back over it
        vectors[idx] *= limit * (1.0 - 1e-12) / norm


def _distance_batch(u: np.ndarray, X: np.ndarray):
    """Distances arcosh(1 + 2|u-x|^2 / ((1-|u|^2)(1-|x|^2))) from u to each row x of X,
    plus the pieces needed for gradients."""
    alpha = 1.0 - float(u @ u)
    beta = 1.0 - np.einsum("ij,ij->i", X, X)
    diff = u[np.newaxis, :] - X
    sq = np.einsum("ij,ij->i", diff, diff)
    gamma = np.maximum(1.0 + 2.0 * sq / (alpha * beta), 1.0)
    dist = np.arccosh(gamma)
    return dist, alpha, beta, sq, gamma


def _distance_grads(u, X, alpha, beta, sq, gamma):
    """(dd/du rows, dd/dx rows); rows with coincident points get zero gradient."""
    root = np.sqrt(np.maximum(gamma**2 - 1.0, 0.0))
    safe = sq > 1e-30
    inv = np.where(safe, 1.0 / np.where(safe, root, 1.0), 0.0)
    xx = 1.0 - beta  # |x|^2 per row
    uu = 1.0 - alpha
    ux = X @ u
    cu = 4.0 * inv / beta
    du = cu[:, np.newaxis] * (
        ((xx - 2.0 * ux + 1.0) / alpha**2)[:, np.newaxis] * u[np.newaxis, :]
        - X / alpha
    )
    cx = 4.0 * inv / alpha
    dx = cx[:, np.newaxis] * (
        ((uu - 2.0 * ux + 1.0) / beta**2)[:, np.newaxis] * X
        - u[np.newaxis, :] / beta[:, np.newaxis]
    )
    return du, dx


def _edge_loss_and_grads(vectors: np.ndarray, child: int, parent: int, negs: np.ndarray):
    """Softmax ranking loss of one edge against its sampled negatives.

    Candidates are the true parent followed by the negatives; the loss is
    -log softmax(-distance) of the true parent. Returns (loss, {index: grad}).
    """
    cand = np.concatenate([[parent], negs]).astype(np.int64)
    u = vectors[child]
    X = vectors[cand]
    dist, alpha, beta, sq, gamma = _distance_batch(u, X)
    shifted = -dist + dist.min()
    e = np.exp(shifted)
    w = e / e.sum()
    loss = dist[0] + np.log(e.sum()) - dist.min()
    # dL/ddist_j = [j == 0] - w_j
    coeff = -w
    coeff[0] += 1.0
    du_rows, dx_rows = _distance_grads(u, X, alpha, beta, sq, gamma)
    grads = {int(child): coeff @ du_rows}
    for j, idx in enumerate(cand):
        g = coeff[j] * dx_rows[j]
        idx = int(idx)
        if idx in grads:
            grads[idx] = grads[idx] + g
        else:
            grads[idx] = g
    return float(loss), grads


def _sample_negatives(rng, n_nodes: int, forbidden: set, k: int) -> np.ndarray:
    if n_nodes - len(forbidden) < 1:
        raise DataError("tree too small to sample non-neighbor negatives")
    out = np.empty(k, dtype=np.int64)
    filled = 0
    attempts = 0
    while filled < k:
        cand = int(rng.integers(n_nodes))
        attempts += 1
        if attempts > 10000 * k:
            raise DataError("negative sampling failed to find non-neighbors")
        if cand in forbidden:
            continue
        out[filled] = cand
        filled += 1
    return out


def train_poincare(tree: CodeTree, dim: int = 50, epochs: int = 50, lr: float = 0.1,
                   n_negatives: int = 10, seed: int = 0) -> PoincareEmbeddings:
    """Embed every tree node in the Poincare ball; deterministic per seed.

    The first 10 epochs run at lr/10 (burn-in). epochs=0 returns the seeded
    initialization untouched (all norms <= the 0.001 init radius).
    """
    if dim < 2:
        raise DataError(f"embedding dim must be >= 2, got {dim}")
    if not 0.0 < lr < math.inf:
        raise DataError(f"lr must be finite and > 0, got {lr}")
    if epochs < 0:
        raise DataError(f"epochs must be >= 0, got {epochs}")
    if n_negatives < 1:
        raise DataError(f"n_negatives must be >= 1, got {n_negatives}")
    flat = flatten_tree(tree)
    n = len(flat.names)
    rng = derive_rng(seed, "poincare")
    vectors = _init_vectors(n, dim, rng)
    edges = edge_set(tree)
    forbidden = [flat.adjacency[i] | {i} for i in range(n)]

    result = PoincareEmbeddings(flat.names, flat.level_slices, vectors)
    for epoch in range(epochs):
        cur_lr = lr / 10.0 if epoch < BURN_IN_EPOCHS else lr
        for e in rng.permutation(len(edges)):
            parent, child = int(edges[e, 0]), int(edges[e, 1])
            negs = _sample_negatives(rng, n, forbidden[child], n_negatives)
            _, grads = _edge_loss_and_grads(vectors, child, parent, negs)
            for idx, g in grads.items():
                scale = (1.0 - vectors[idx] @ vectors[idx]) ** 2 / 4.0
                vectors[idx] -= cur_lr * scale * g
                _project_row(vectors, idx)
        result.epoch_max_norms.append(float(np.linalg.norm(vectors, axis=1).max()))
        assert result.epoch_max_norms[-1] <= 1.0 - BALL_EPS, "ball invariant violated"
    return result
