import mpmath
import numpy as np
import pytest

from xrlat.hyperbolic import (
    _edge_loss_and_grads,
    edge_set,
    flatten_tree,
    poincare_distance,
    train_poincare,
)
from xrlat.code_tree import parse_hierarchy, sized_hierarchy_lines
from xrlat.util import DataError, derive_rng


def reference_distance(u, v):
    """High-precision evaluation of the ball distance, independent of the implementation."""
    with mpmath.workdps(50):
        u = [mpmath.mpf(x) for x in u]
        v = [mpmath.mpf(x) for x in v]
        du = sum((a - b) ** 2 for a, b in zip(u, v))
        nu = sum(a * a for a in u)
        nv = sum(b * b for b in v)
        return float(mpmath.acosh(1 + 2 * du / ((1 - nu) * (1 - nv))))


class TestDistance:
    def test_identity_is_zero(self):
        assert poincare_distance((0.3, 0.4), (0.3, 0.4)) == 0.0

    def test_closed_form_ln3(self):
        assert abs(poincare_distance((0.5, 0.0), (0.0, 0.0)) - np.log(3.0)) < 1e-12

    def test_against_high_precision_oracle(self):
        got = poincare_distance((0.3, 0.0), (-0.3, 0.0))
        assert abs(got - reference_distance((0.3, 0.0), (-0.3, 0.0))) < 1e-12
        # frozen value from the oracle (60-digit acosh evaluation)
        assert got == pytest.approx(1.2380784168124469, abs=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 10, 50])
    def test_oracle_near_the_boundary(self, dim):
        """poincare_distance computes through _distance_batch, the formula train_poincare
        uses; it matches the 50-digit oracle at norms up to 0.999 as well as near 0."""
        rng = derive_rng(6, dim)
        for norm_u, norm_v in [(0.999, 0.999), (0.999, 0.5), (0.9985, 0.0), (0.999, 1e-3),
                               (0.3, 0.7)]:
            u, v = (n * x / np.linalg.norm(x)
                    for n, x in ((norm_u, rng.standard_normal(dim)),
                                 (norm_v, rng.standard_normal(dim))))
            want = reference_distance(u, v)
            assert poincare_distance(u, v) == pytest.approx(want, rel=1e-12)

    def test_symmetry_random(self):
        rng = derive_rng(5)
        for _ in range(50):
            u = rng.uniform(-0.6, 0.6, size=3)
            v = rng.uniform(-0.6, 0.6, size=3)
            assert poincare_distance(u, v) == pytest.approx(poincare_distance(v, u), abs=1e-14)

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            poincare_distance((1.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            poincare_distance((0.0, 0.0), (0.8, 0.7))


class TestTreeFlattening:
    def test_root_plus_all_levels(self, demo_tree):
        flat = flatten_tree(demo_tree)
        assert len(flat.names) == 1 + 3 + 9 + 27 + 81
        assert flat.parent[0] == -1
        assert all(flat.parent[i] == 0 for i in range(1, 4))

    def test_edge_set_matches_parent_relation(self, demo_tree):
        flat = flatten_tree(demo_tree)
        edges = edge_set(demo_tree)
        assert edges.shape == (120, 2)
        for p, c in edges:
            assert flat.parent[c] == p
            assert p != c


class TestTraining:
    def test_epochs_zero_returns_seeded_init(self, demo_tree):
        emb = train_poincare(demo_tree, dim=8, epochs=0, lr=0.1, seed=3)
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert norms.max() <= 1e-3
        again = train_poincare(demo_tree, dim=8, epochs=0, lr=0.1, seed=3)
        assert np.array_equal(emb.vectors, again.vectors)

    def test_negative_epochs_rejected(self, demo_tree):
        with pytest.raises(DataError):
            train_poincare(demo_tree, dim=8, epochs=-1, lr=0.1)

    @pytest.mark.parametrize("n_negatives", [0, -1])
    def test_bad_negatives(self, demo_tree, n_negatives):
        with pytest.raises(DataError, match="n_negatives"):
            train_poincare(demo_tree, dim=4, epochs=1, lr=0.1, n_negatives=n_negatives)

    def test_bad_dim_and_lr(self, demo_tree):
        with pytest.raises(DataError):
            train_poincare(demo_tree, dim=1, epochs=1, lr=0.1)
        for lr in (0.0, -0.1, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(DataError, match="lr must be finite and > 0"):
                train_poincare(demo_tree, dim=4, epochs=1, lr=lr)

    def test_edges_closer_than_non_edges(self, demo_tree):
        emb = train_poincare(demo_tree, dim=10, epochs=60, lr=0.1, n_negatives=10, seed=7)
        assert all(m <= 1.0 - emb.ball_eps for m in emb.epoch_max_norms)
        edges = edge_set(demo_tree)
        edge_mean = np.mean(
            [poincare_distance(emb.vectors[p], emb.vectors[c]) for p, c in edges]
        )
        adj = {(min(p, c), max(p, c)) for p, c in edges}
        rng = derive_rng(11)
        n = len(emb.names)
        non = []
        while len(non) < 500:
            i, j = int(rng.integers(n)), int(rng.integers(n))
            if i != j and (min(i, j), max(i, j)) not in adj:
                non.append(poincare_distance(emb.vectors[i], emb.vectors[j]))
        assert edge_mean < np.mean(non)

    def test_realistic_scale_shapes(self):
        tree = parse_hierarchy(sized_hierarchy_lines((36, 279, 1167, 8929)))
        emb = train_poincare(tree, dim=50, epochs=0, lr=0.1, seed=1)
        assert emb.level(4).shape == (8929, 50)
        assert emb.level(1).shape == (36, 50)


class TestExtractLevel:
    def test_row_bookkeeping(self, demo_tree):
        emb = train_poincare(demo_tree, dim=6, epochs=0, lr=0.1, seed=2)
        flat = flatten_tree(demo_tree)
        for k in range(1, 5):
            level = emb.level(k)
            sl = flat.level_slices[k - 1]
            assert np.array_equal(level, emb.vectors[sl])
            assert level.shape[0] == demo_tree.nodes_per_level[k - 1]

    def test_extraction_is_pure(self, demo_tree):
        emb = train_poincare(demo_tree, dim=6, epochs=0, lr=0.1, seed=2)
        first = emb.level(3)
        second = emb.level(3)
        assert np.array_equal(first, second)
        first[0, 0] += 1.0  # mutating the copy must not touch the table
        assert not np.array_equal(first, emb.level(3))

    def test_bad_level(self, demo_tree):
        emb = train_poincare(demo_tree, dim=4, epochs=0, lr=0.1, seed=2)
        with pytest.raises(DataError):
            emb.level(5)


class TestRiemannianGradient:
    def test_euclidean_gradient_matches_finite_differences(self, demo_tree):
        """The analytic loss gradient (whose Riemannian form is the scaled version)
        must match central finite differences of the sampled ranking loss."""
        flat = flatten_tree(demo_tree)
        rng = derive_rng(21)
        n = len(flat.names)
        vectors = rng.uniform(-0.3, 0.3, size=(n, 5))
        child, parent = 40, int(flat.parent[40])
        negs = np.array([3, 17, 90, 101])
        _, grads = _edge_loss_and_grads(vectors, child, parent, negs)
        eps = 1e-6
        for idx, grad in grads.items():
            for d in range(vectors.shape[1]):
                orig = vectors[idx, d]
                vectors[idx, d] = orig + eps
                lp, _ = _edge_loss_and_grads(vectors, child, parent, negs)
                vectors[idx, d] = orig - eps
                lm, _ = _edge_loss_and_grads(vectors, child, parent, negs)
                vectors[idx, d] = orig
                numeric = (lp - lm) / (2 * eps)
                assert abs(grad[d] - numeric) / max(abs(grad[d]), abs(numeric), 1e-8) < 1e-4

    def test_riemannian_scaling_factor(self):
        # the update direction is ((1 - |theta|^2)^2 / 4) * euclidean gradient
        theta = np.array([0.3, -0.2, 0.1])
        scale = (1.0 - theta @ theta) ** 2 / 4.0
        assert scale == pytest.approx(((1 - 0.14) ** 2) / 4.0, abs=1e-15)
