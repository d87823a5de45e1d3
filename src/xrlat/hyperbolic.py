"""Poincare-ball embeddings of hierarchy nodes, trained by Riemannian SGD.

All tree nodes (virtual root plus the four levels) lie in the ball of radius
1 - BALL_EPS, the rule ``outside_ball`` checks. Training minimizes, for each
parent-child edge, the softmax ranking loss of the edge distance against the
distances to uniformly sampled non-neighbor nodes, in one array step over the
child and its distinct candidates: each row's Euclidean gradient is scaled by
((1 - |theta|^2)^2) / 4, applied, and a row that left the ball is projected back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .code_tree import CodeTree, N_LEVELS
from .util import DataError, NumericsError, derive_rng

BALL_EPS = 1e-5
INIT_RADIUS = 1e-3
BURN_IN_EPOCHS = 10
MAX_DIM = 1024  # bounds the (nodes, dim) vectors: 85 MB for the ICD-sized tree's 10,412 nodes
MAX_NEGATIVES = 1024  # bounds the negatives sampled per edge, and so the rows a step updates


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


def flatten_tree(tree: CodeTree) -> FlatTree:
    names, parents, level_slices = ["<root>"], [np.array([-1])], []
    above = 0  # flat index of the level above's first node: the root for level 1
    for lvl in tree.levels:
        level_slices.append(slice(len(names), len(names) + lvl.rows))
        parents.append(lvl.parent_index + above)  # level 1's parents are all 0
        above = len(names)
        names.extend(lvl.names)
    return FlatTree(names, np.concatenate(parents).astype(np.int64), level_slices)


def edge_set(tree: CodeTree) -> np.ndarray:
    """(n_edges, 2) array of (parent, child) flat indices over all levels and the root."""
    flat = flatten_tree(tree)
    return np.stack([flat.parent[1:], np.arange(1, len(flat.names), dtype=np.int64)], axis=1)


@dataclass
class PoincareEmbeddings:
    """Trained ball vectors for every hierarchy node, row-aligned with tree order."""

    names: list
    level_slices: list
    vectors: np.ndarray  # (n_nodes, dim) float64
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


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """x @ x for each row x of X, one BLAS dot per row (so equal to the 1-D product)."""
    return np.matmul(X[:, np.newaxis, :], X[:, :, np.newaxis])[:, 0, 0]


def outside_ball(X: np.ndarray, ball_eps: float = BALL_EPS) -> np.ndarray:
    """Indices of the rows of X whose norm is not at most 1 - ball_eps."""
    with np.errstate(over="ignore"):  # a norm too large to square is outside
        return np.flatnonzero(~(np.sqrt(_sq_norms(X)) <= 1.0 - ball_eps))


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

    Candidates are the true parent followed by the negatives (none of them the
    child); the loss is -log softmax(-distance) of the true parent. Returns
    (loss, rows, grads): rows are the child, then its distinct candidates in
    ascending order, and grads[i] is the loss gradient at vectors[rows[i]]; a
    negative drawn twice sums both draws.
    """
    cand = np.concatenate([[parent], negs]).astype(np.int64)
    u = vectors[child]
    X = vectors[cand]
    dist, alpha, beta, sq, gamma = _distance_batch(u, X)
    e = np.exp(-dist + dist.min())
    loss = dist[0] + np.log(e.sum()) - dist.min()
    coeff = -(e / e.sum())  # dL/ddist_j = [j == 0] - softmax(-dist)_j
    coeff[0] += 1.0
    du_rows, dx_rows = _distance_grads(u, X, alpha, beta, sq, gamma)
    distinct, slot = np.unique(cand, return_inverse=True)
    grads = np.zeros((1 + distinct.size, vectors.shape[1]))
    grads[0] = coeff @ du_rows
    np.add.at(grads, slot + 1, coeff[:, np.newaxis] * dx_rows)
    return float(loss), np.concatenate([[child], distinct]), grads


def _sample_negatives(rng, parent: list, n_children: list, child: int, k: int) -> np.ndarray:
    """k uniform draws from the nodes other than ``child``, its parent and its children."""
    n_nodes = len(parent)
    if n_nodes - 2 - n_children[child] < 1:
        raise DataError("tree too small to sample non-neighbor negatives")
    out = np.empty(k, dtype=np.int64)
    filled = 0
    attempts = 0
    while filled < k:
        cand = int(rng.integers(n_nodes))
        attempts += 1
        if attempts > 10000 * k:
            raise DataError("negative sampling failed to find non-neighbors")
        if cand == child or cand == parent[child] or parent[cand] == child:
            continue
        out[filled] = cand
        filled += 1
    return out


def train_poincare(tree: CodeTree, dim: int = 50, epochs: int = 50, lr: float = 0.1,
                   n_negatives: int = 10, seed: int = 0) -> PoincareEmbeddings:
    """Embed every tree node in the Poincare ball; deterministic per seed.

    dim must be in [2, MAX_DIM] and n_negatives in [1, MAX_NEGATIVES], checked before
    anything is allocated. The first 10 epochs run at lr/10 (burn-in). epochs=0 returns
    the seeded initialization untouched (all norms <= the 0.001 init radius). A step that
    leaves a row non-finite or too large to square raises NumericsError naming epoch and
    edge.
    """
    if not 2 <= dim <= MAX_DIM:
        raise DataError(f"embedding dim must be in [2, {MAX_DIM}], got {dim}")
    if not 0.0 < lr < math.inf:
        raise DataError(f"lr must be finite and > 0, got {lr}")
    if epochs < 0:
        raise DataError(f"epochs must be >= 0, got {epochs}")
    if not 1 <= n_negatives <= MAX_NEGATIVES:
        raise DataError(f"n_negatives must be in [1, {MAX_NEGATIVES}], got {n_negatives}")
    flat = flatten_tree(tree)
    n = len(flat.names)
    rng = derive_rng(seed, "poincare")
    vectors = _init_vectors(n, dim, rng)
    parents = flat.parent.tolist()
    n_children = np.bincount(flat.parent[1:], minlength=n).tolist()

    result = PoincareEmbeddings(flat.names, flat.level_slices, vectors)
    for epoch in range(epochs):
        cur_lr = lr / 10.0 if epoch < BURN_IN_EPOCHS else lr
        for child in (rng.permutation(n - 1) + 1).tolist():  # edge e ends at node e + 1
            negs = _sample_negatives(rng, parents, n_children, child, n_negatives)
            _, rows, grads = _edge_loss_and_grads(vectors, child, parents[child], negs)
            V = vectors[rows]
            # float_power: C pow(), as a scalar ** 2; an array ** 2 is x * x, which rounds apart
            scale = np.float_power(1.0 - _sq_norms(V), 2) / 4.0
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                V -= (cur_lr * scale)[:, np.newaxis] * grads
                norm = np.sqrt(_sq_norms(V))
            if not np.all(np.isfinite(norm)):
                raise NumericsError(f"epoch {epoch + 1}, edge {flat.names[parents[child]]} -> "
                                    f"{flat.names[child]}: a Poincare step left a row non-finite"
                                    " or too large to square", tensor="embeddings", step=epoch + 1)
            over = norm >= 1.0 - BALL_EPS
            # shave a hair below the limit so rounding cannot push the norm back over it
            V[over] *= ((1.0 - BALL_EPS) * (1.0 - 1e-12) / norm[over])[:, np.newaxis]
            vectors[rows] = V
        result.epoch_max_norms.append(float(np.linalg.norm(vectors, axis=1).max()))
        assert outside_ball(vectors).size == 0, "ball invariant violated"
    return result
