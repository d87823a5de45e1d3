import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlat.code_tree import LabelMatrix, parse_hierarchy, propagate_labels
from xrlat import training
from xrlat.hyperbolic import PoincareEmbeddings, flatten_tree
from xrlat.losses import LossConfig, loss_and_grad
from xrlat.network import CorrectionLayer, forward_backward, init_level_model, zero_grads
from xrlat.textproc import build_vocab, clean_text, synth_corpus
from xrlat.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CLIP_NORM,
    HEAD_ROWS,
    AdamW,
    TrainConfig,
    _train_level,
    bootstrap_equal,
    bootstrap_hyperc,
    clip_gradients,
    inference_mask,
    lr_at,
    predict,
    prepare_dataset,
    train_flat,
    train_xr_lat,
    training_mask,
)
from xrlat.util import ConfigError, DataError, derive_rng

from conftest import random_tree


BCE = LossConfig()


def loss_of(p, y, cfg=BCE):
    return loss_and_grad(np.asarray(p, dtype=np.float64), y, cfg)[0]


def dense_adamw_step(model, m, v, t, grads, lr, weight_decay):
    """AdamW over every row of every tensor: what the row-sparse optimizer must equal."""
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, theta in model.trainable():
        g = grads[name]
        m[name] *= ADAM_BETA1
        m[name] += (1.0 - ADAM_BETA1) * g
        v[name] *= ADAM_BETA2
        v[name] += (1.0 - ADAM_BETA2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)
        theta -= lr * (update + weight_decay * theta)


def dense_train_level(docs, label_rows, n_labels, masks, model, cfg, level_tag):
    """The training loop with zero, scale, clip and AdamW over every head row; returns
    the number of steps that clipped."""
    data_rng = derive_rng(cfg.seed, "data", level_tag)
    m = {name: np.zeros_like(p) for name, p in model.trainable()}
    v = {name: np.zeros_like(p) for name, p in model.trainable()}
    grads = zero_grads(model)
    clipped = 0
    step = 0
    while step < cfg.max_steps:
        order = data_rng.permutation(len(docs))
        for start in range(0, len(docs), cfg.batch_size):
            if step >= cfg.max_steps:
                break
            batch = order[start : start + cfg.batch_size]
            step_ss = np.random.SeedSequence([cfg.seed, level_tag, step])
            for g in grads.values():
                g.fill(0.0)
            for i, seed in zip((int(i) for i in batch), step_ss.spawn(len(batch))):
                gold = np.zeros(n_labels, dtype=np.uint8)
                gold[label_rows[i]] = 1
                forward_backward(docs[i], model.enc, model.head, gold, masks[i],
                                 cfg.loss_config(), corr=model.corr,
                                 corr_inputs=model.corr_inputs, dropout=cfg.dropout,
                                 rng=np.random.default_rng(seed), grads=grads)
            inv = 1.0 / len(batch)
            for g in grads.values():
                g *= inv
            total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if total > CLIP_NORM:
                clipped += 1
                for g in grads.values():
                    g *= CLIP_NORM / total
            lr = lr_at(step, cfg.learning_rate, cfg.max_steps)
            dense_adamw_step(model, m, v, step + 1, grads, lr, cfg.weight_decay)
            step += 1
    return clipped


class TestBceLoss:
    def test_half_prob(self):
        assert loss_of([0.5], [1.0]) == pytest.approx(0.693147, abs=1e-6)

    def test_perfect_prediction_tends_to_zero(self):
        assert loss_of([1e-9, 1 - 1e-9], [0.0, 1.0]) < 1e-8

    def test_masked_matches_hand_loop(self):
        rng = derive_rng(1)
        for _ in range(20):
            p = rng.uniform(0.01, 0.99, size=12)
            y = (rng.random(12) < 0.4).astype(float)
            mask = (rng.random(12) < 0.6).astype(np.uint8)
            if not mask.any():
                mask[0] = 1
            total = [
                -(y[j] * np.log(p[j]) + (1 - y[j]) * np.log(1 - p[j]))
                for j in range(12)
                if mask[j]
            ]
            m = mask.astype(bool)
            assert loss_of(p[m], y[m]) == pytest.approx(np.mean(total), abs=1e-12)

    def test_no_unmasked_labels(self):
        m = np.zeros(1, dtype=bool)
        with pytest.raises(DataError):
            loss_of(np.array([0.5])[m], np.array([1.0])[m])


class TestAslLoss:
    def test_degenerates_to_bce(self):
        rng = derive_rng(2)
        asl0 = LossConfig("asl", gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
        for _ in range(50):
            p = rng.uniform(0.01, 0.99, size=8)
            y = (rng.random(8) < 0.5).astype(float)
            a, da = loss_and_grad(p, y, asl0)
            b, db = loss_and_grad(p, y, BCE)
            assert abs(a - b) < 1e-12
            assert np.max(np.abs(da - db)) < 1e-12

    def test_margin_clips_negative_term(self):
        assert loss_of([0.2], [0.0], LossConfig("asl", 1.0, 2.0, 0.3)) == 0.0

    def test_scalar_value(self):
        assert loss_of([0.5], [1.0], LossConfig("asl", 1.0, 0.0, 0.0)) == pytest.approx(
            0.346574, abs=1e-6
        )

    def test_gradient_matches_finite_differences(self):
        rng = derive_rng(3)
        cfg = LossConfig("asl", gamma_pos=2.0, gamma_neg=3.0, margin=0.1)
        p = rng.uniform(0.15, 0.95, size=10)  # away from the margin kink
        y = (rng.random(10) < 0.5).astype(float)
        _, dp = loss_and_grad(p, y, cfg)
        eps = 1e-7
        for j in range(10):
            pp, pm = p.copy(), p.copy()
            pp[j] += eps
            pm[j] -= eps
            num = (loss_and_grad(pp, y, cfg)[0] - loss_and_grad(pm, y, cfg)[0]) / (2 * eps)
            assert dp[j] == pytest.approx(num, rel=1e-5, abs=1e-9)


class TestMasks:
    def test_predicted_parent_passes(self):
        tree = parse_hierarchy(["A/A1/A11/x1", "A/A1/A12/x2", "A/A2/A21/x3"])
        T = tree.indexing_matrix(3)  # categories -> blocks
        mask = training_mask([0.6, 0.1], [0.0, 0.0], T, 0.5)
        assert mask.tolist() == [1, 1, 0]

    def test_gold_parent_always_passes(self):
        tree = parse_hierarchy(["A/A1/A11/x1", "A/A2/A21/x2"])
        T = tree.indexing_matrix(3)
        mask = training_mask([0.0, 0.0], [0.0, 1.0], T, 0.5)
        assert mask.tolist() == [0, 1]

    def test_inference_mask_is_training_mask_with_zero_gold(self):
        rng = derive_rng(4)
        tree = random_tree(rng)
        T = tree.indexing_matrix(4)
        p = rng.random(T.n_cols)
        assert np.array_equal(
            inference_mask(p, T, 0.5), training_mask(p, np.zeros(T.n_cols), T, 0.5)
        )

    def test_empty_inference_mask(self):
        tree = parse_hierarchy(["A/A1/A11/x1", "A/A2/A21/x2"])
        T = tree.indexing_matrix(2)
        assert inference_mask([0.2], T, 0.5).sum() == 0

    def test_matches_bruteforce_enumeration(self):
        rng = derive_rng(5)
        for _ in range(40):
            tree = random_tree(rng)
            T = tree.indexing_matrix(4)
            p = rng.random(T.n_cols)
            y = (rng.random(T.n_cols) < 0.3).astype(float)
            got = training_mask(p, y, T, 0.5)
            positive_parents = {j for j in range(T.n_cols) if p[j] + y[j] >= 0.5}
            want = [1 if int(T.parent_index[c]) in positive_parents else 0
                    for c in range(T.rows)]
            assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_gold_inclusion_property(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng)
        T = tree.indexing_matrix(4)
        p = rng.random(T.n_cols)
        y_child = (rng.random(T.rows) < 0.3).astype(np.uint8)
        y_parent = np.zeros(T.n_cols)
        y_parent[np.unique(T.parent_index[y_child.astype(bool)])] = 1
        mask = training_mask(p, y_parent, T, 0.5)
        assert np.all(mask[y_child.astype(bool)] == 1)

    def test_dimension_mismatch(self):
        tree = parse_hierarchy(["A/A1/A11/x1"])
        with pytest.raises(DataError):
            training_mask([0.5, 0.5], [0, 0], tree.indexing_matrix(4), 0.5)


class TestBootstrap:
    def _parent(self, seed=0, n_labels=2, hidden=4, with_corr=False):
        rng = derive_rng(seed)
        model = init_level_model(10, 4, hidden, n_labels, 1, 1, rng)
        if with_corr:
            model.corr = CorrectionLayer(rng.normal(size=(3, hidden)), rng.normal(size=hidden))
            model.corr_inputs = rng.normal(size=(n_labels, 3))
        return model

    def test_equal_copies_parent_rows(self):
        parent = self._parent()
        parent.head.W_la = np.array([[0.2], [0.7]])
        parent.head.W_cl = np.array([[0.3], [0.9]])
        parent.head.b_cl = np.array([0.1, 0.4])
        # three blocks with parent chapters (0, 0, 1): the one-hot product spelled out
        tree = parse_hierarchy(["A/A1/A11/x1", "A/A2/A21/x2", "B/B1/B11/x3"])
        T = tree.indexing_matrix(2)
        assert T.parent_index.tolist() == [0, 0, 1]
        child = bootstrap_equal(parent, T)
        assert child.head.W_la.tolist() == [[0.2], [0.2], [0.7]]
        assert child.head.W_cl.tolist() == [[0.3], [0.3], [0.9]]
        assert child.head.b_cl.tolist() == [0.1, 0.1, 0.4]
        assert child.level == 2 and child.provenance == "bootstrap-equal"

    def test_siblings_bit_identical(self):
        rng = derive_rng(9)
        tree = random_tree(rng, max_per_level=(3, 9, 9, 9))
        T = tree.indexing_matrix(2)
        parent = self._parent(seed=1, n_labels=T.n_cols, hidden=8)
        child = bootstrap_equal(parent, T)
        for a in range(T.rows):
            for b in range(T.rows):
                if T.parent_index[a] == T.parent_index[b]:
                    assert child.head.W_la[a].tobytes() == child.head.W_la[b].tobytes()
                    assert child.head.W_cl[a].tobytes() == child.head.W_cl[b].tobytes()

    def test_identity_tree_copies_head_exactly(self):
        parent = self._parent(seed=2, n_labels=2)
        tree = parse_hierarchy(["A/A1/A11/x1", "B/B1/B11/x2"])
        child = bootstrap_equal(parent, tree.indexing_matrix(2))
        assert np.array_equal(child.head.W_la, parent.head.W_la)
        assert np.array_equal(child.head.b_cl, parent.head.b_cl)

    def test_encoder_copied_not_shared(self):
        parent = self._parent(seed=3)
        tree = parse_hierarchy(["A/A1/A11/x1", "B/B1/B11/x2"])
        child = bootstrap_equal(parent, tree.indexing_matrix(2))
        assert np.array_equal(child.enc.emb, parent.enc.emb)
        child.enc.emb[0, 0] += 1.0
        assert not np.array_equal(child.enc.emb, parent.enc.emb)

    def test_hyperc_zero_correction_equals_equal(self):
        rng = derive_rng(10)
        tree = random_tree(rng, max_per_level=(3, 8, 8, 8))
        T = tree.indexing_matrix(2)
        parent = self._parent(seed=4, n_labels=T.n_cols, hidden=8)
        E = rng.normal(size=(T.rows, 5))
        eq = bootstrap_equal(parent, T)
        hy = bootstrap_hyperc(parent, T, E)
        assert hy.effective_w_la().tobytes() == eq.head.W_la.tobytes()
        assert np.array_equal(hy.head.W_cl, eq.head.W_cl)
        assert hy.provenance == "bootstrap-hyperc"

    def test_hyperc_nonzero_correction_adds_f_of_e(self):
        rng = derive_rng(11)
        tree = random_tree(rng, max_per_level=(3, 8, 8, 8))
        T = tree.indexing_matrix(2)
        parent = self._parent(seed=5, n_labels=T.n_cols, hidden=8)
        E = rng.normal(size=(T.rows, 5))
        f = CorrectionLayer(rng.normal(size=(5, 8)), rng.normal(size=8))
        child = bootstrap_hyperc(parent, T, E, f)
        expected = parent.head.W_la[T.parent_index] + E @ f.W + f.b
        assert np.allclose(child.effective_w_la(), expected, atol=1e-12)

    def test_hyperc_gathers_parent_effective_matrix(self):
        parent = self._parent(seed=6, n_labels=2, with_corr=True)
        tree = parse_hierarchy(["A/A1/A11/x1", "B/B1/B11/x2"])
        T = tree.indexing_matrix(2)
        child = bootstrap_equal(parent, T)
        assert np.array_equal(child.head.W_la, parent.effective_w_la()[T.parent_index])

    def test_dimension_mismatches(self):
        parent = self._parent(seed=7, n_labels=3)
        tree = parse_hierarchy(["A/A1/A11/x1", "B/B1/B11/x2"])
        with pytest.raises(DataError):
            bootstrap_equal(parent, tree.indexing_matrix(2))  # parent has 3 labels, T has 2 cols


class TestOptimizerAndSchedule:
    def test_single_scalar_adamw_formula(self):
        rng = derive_rng(12)
        model = init_level_model(3, 2, 2, 1, 0, 4, rng)
        theta0 = float(model.head.b_cl[0])
        g = 0.37
        grads = {name: np.zeros_like(t) for name, t in model.trainable()}
        grads["b_cl"][0] = g
        opt = AdamW(model, weight_decay=0.0)
        opt.step(model, grads, lr=0.1)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = theta0 - 0.1 * g / (abs(g) + 1e-8)
        assert model.head.b_cl[0] == pytest.approx(expected, abs=1e-12)

    def test_decoupled_weight_decay(self):
        rng = derive_rng(13)
        model = init_level_model(3, 2, 2, 1, 0, 4, rng)
        model.head.b_cl[0] = 2.0
        grads = {name: np.zeros_like(t) for name, t in model.trainable()}
        opt = AdamW(model, weight_decay=0.5)
        opt.step(model, grads, lr=0.1)
        assert model.head.b_cl[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-12)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.5])
    def test_row_sparse_adamw_equals_dense(self, weight_decay):
        """Head rows enter late, go quiet with nonzero moments and come back, and at
        step 7 every row has been touched; every tensor equals a dense AdamW's, bit for
        bit, after every step. Row 1 holds a -0.0 weight until its first touch."""
        rng = derive_rng(14)
        model = init_level_model(5, 2, 3, 6, 0, 2, rng)
        model.corr = CorrectionLayer(rng.normal(size=(2, 3)), rng.normal(size=3))
        model.corr_inputs = rng.normal(size=(6, 2))
        model.head.W_la[1, 0] = -0.0
        ref = copy.deepcopy(model)
        m = {name: np.zeros_like(p) for name, p in ref.trainable()}
        v = {name: np.zeros_like(p) for name, p in ref.trainable()}
        opt = AdamW(model, weight_decay=weight_decay)
        schedule = [[3], [3, 5], [0], [5], [0, 3, 4], [2], [0, 1, 2, 3, 4, 5], [1], [4]]
        for t, rows in enumerate(schedule, start=1):
            rows = np.array(rows)
            grads = {name: rng.normal(size=p.shape) for name, p in model.trainable()}
            for name in HEAD_ROWS:
                grads[name][np.setdiff1d(np.arange(6), rows)] = 0.0
            dense_adamw_step(ref, m, v, t, copy.deepcopy(grads), 0.1 / t, weight_decay)
            opt.step(model, grads, 0.1 / t, rows)
            for (name, a), (_, b) in zip(model.trainable(), ref.trainable()):
                assert a.tobytes() == b.tobytes(), (t, name)
            if t < 7:
                assert model.head.W_la[1, 0] == 0.0 and np.signbit(model.head.W_la[1, 0])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.5])
    def test_first_step_fixes_the_layout(self, weight_decay):
        """After a masked first step the optimizer gathers for good: once every row is
        touched it still gathers, with the moments packed in first-touch order and every
        tensor bitwise equal to a dense AdamW's. After a slice(None) first step the
        moments stay in row order."""
        rng = derive_rng(15)
        init = init_level_model(5, 2, 3, 10, 0, 2, rng)
        for schedule, want_rows in (
            ([[2, 7], [0, 1, 2], [3, 4, 5, 6, 8, 9], [9], [0, 4]],
             [2, 7, 0, 1, 3, 4, 5, 6, 8, 9]),
            ([slice(None), [3], [0, 9]], None),
        ):
            model, ref = copy.deepcopy(init), copy.deepcopy(init)
            m = {name: np.zeros_like(p) for name, p in ref.trainable()}
            v = {name: np.zeros_like(p) for name, p in ref.trainable()}
            opt = AdamW(model, weight_decay=weight_decay)
            for t, rows in enumerate(schedule, start=1):
                if not isinstance(rows, slice):
                    rows = np.array(rows)
                grads = {name: rng.normal(size=p.shape) for name, p in model.trainable()}
                for name in HEAD_ROWS:
                    quiet = np.ones(10, dtype=bool)
                    quiet[rows] = False
                    grads[name][quiet] = 0.0
                dense_adamw_step(ref, m, v, t, copy.deepcopy(grads), 0.1, weight_decay)
                opt.step(model, grads, 0.1, rows)
                for (name, a), (_, b) in zip(model.trainable(), ref.trainable()):
                    assert a.tobytes() == b.tobytes(), (t, name)
            if want_rows is None:
                assert opt.rows is None
                for name, _ in model.trainable():
                    assert opt.m[name].tobytes() == m[name].tobytes(), name
                    assert opt.v[name].tobytes() == v[name].tobytes(), name
            else:
                assert opt.rows.tolist() == want_rows
                for name in HEAD_ROWS:
                    assert opt.m[name].tobytes() == m[name][opt.rows].tobytes(), name
                    assert opt.v[name].tobytes() == v[name][opt.rows].tobytes(), name

    def test_warmup_then_linear_decay(self):
        peak, total = 1e-3, 200  # warmup: 10 steps
        assert lr_at(0, peak, total) == pytest.approx(peak / 10)
        assert lr_at(9, peak, total) == pytest.approx(peak)
        assert lr_at(105, peak, total) == pytest.approx(peak * 95 / 190)
        assert lr_at(200, peak, total) == 0.0

    def test_warmup_defaults_to_five_percent(self):
        assert lr_at(0, 1.0, 1000) == 1.0 / 50
        assert lr_at(49, 1.0, 1000) == 1.0
        assert lr_at(50, 1.0, 1000) == 1.0
        assert lr_at(51, 1.0, 1000) == 949 / 950

    @pytest.mark.parametrize("max_steps, warmup", [(0, 0), (1, 0), (10, 0), (30, 2), (50, 2),
                                                   (70, 4), (90, 4), (1000, 50)])
    def test_derived_warmup_rounds_half_to_even(self, max_steps, warmup):
        """lr_at derives its warmup as round(0.05 * max_steps), Python's round half to
        even (0.5 -> 0, 1.5 -> 2, 2.5 -> 2, 3.5 -> 4), and equals the schedule that took
        that warmup as an argument at every step."""

        def lr_with_warmup(step, peak, warmup, max_steps):
            if max_steps <= 0:
                return 0.0
            if step < warmup:
                return peak * (step + 1) / warmup
            if max_steps == warmup:
                return peak
            return peak * max(0, max_steps - step) / (max_steps - warmup)

        assert round(training.WARMUP_SHARE * max_steps) == warmup
        for step in range(max_steps + 2):
            assert lr_at(step, 3e-3, max_steps) == lr_with_warmup(step, 3e-3, warmup, max_steps)

    def test_clip_gradients(self):
        big = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}  # global norm 5
        assert clip_gradients(big, 1.0) == 5.0
        assert np.allclose(big["a"], [0.6, 0.0]) and np.allclose(big["b"], [[0.8]])
        assert np.sqrt((big["a"] ** 2).sum() + (big["b"] ** 2).sum()) == pytest.approx(1.0)
        small = {"a": np.array([0.3]), "b": np.array([0.4])}  # global norm 0.5
        assert clip_gradients(small, 1.0) == pytest.approx(0.5)
        assert small["a"].tolist() == [0.3] and small["b"].tolist() == [0.4]


@pytest.fixture(scope="module")
def tiny_setup(demo_tree):
    docs, _ = synth_corpus(demo_tree, 48, codes_per_doc_mean=2.0, doc_len=24, seed=13)
    vocab = build_vocab((clean_text(d.text) for d in docs), 1)
    cfg = TrainConfig(max_steps=30, learning_rate=1e-3, c=6, s=4, hidden_size=8,
                      n_layers=1, batch_size=8, log_interval=10, seed=77)
    data = prepare_dataset(docs, vocab, demo_tree, cfg.c, cfg.s)
    return data, cfg


class TestTrainingLoops:
    def test_zero_steps_returns_seeded_init(self, demo_tree, tiny_setup):
        data, cfg0 = tiny_setup
        cfg = TrainConfig(**{**cfg0.__dict__, "max_steps": 0})
        model, history = train_flat(data, demo_tree, cfg)
        fresh = init_level_model(data.vocab.size, cfg.c, cfg.hidden_size, 81, cfg.n_layers, 4,
                                 derive_rng(cfg.seed, "init", 4))
        assert history == []
        for (na, a), (nb, b) in zip(model.tensors(), fresh.tensors()):
            assert na == nb and np.array_equal(a, b)

    def test_training_reduces_loss(self, demo_tree, tiny_setup):
        data, cfg = tiny_setup
        _, history = train_flat(data, demo_tree, cfg)
        assert len(history) == 30
        assert history[-1][2] < history[0][2]

    def test_same_seed_same_trajectory(self, demo_tree, tiny_setup):
        data, cfg = tiny_setup
        _, h1 = train_flat(data, demo_tree, cfg)
        _, h2 = train_flat(data, demo_tree, cfg)
        assert h1 == h2

    def test_ablation_matches_flat(self, demo_tree, tiny_setup):
        """bootstrap=none + sampling=off reproduces the flat trajectory at level 4."""
        data, cfg0 = tiny_setup
        cfg = TrainConfig(**{**cfg0.__dict__, "bootstrap": "none", "negative_sampling": False})
        _, flat_hist = train_flat(data, demo_tree, cfg)
        models, hists = train_xr_lat(data, demo_tree, cfg)
        assert hists[3] == flat_hist
        assert [m.n_labels for m in models] == [3, 9, 27, 81]

    def test_xr_lat_shapes_and_provenance(self, demo_tree, tiny_setup):
        data, cfg0 = tiny_setup
        cfg = TrainConfig(**{**cfg0.__dict__, "bootstrap": "equal", "negative_sampling": True})
        models, hists = train_xr_lat(data, demo_tree, cfg)
        assert [m.n_labels for m in models] == [3, 9, 27, 81]
        assert models[0].provenance == "random"
        assert all(m.provenance == "bootstrap-equal" for m in models[1:])
        assert all(len(h) == 30 for h in hists)

    def test_xr_lat_hyperc_uses_embeddings(self, demo_tree, tiny_setup):
        data, cfg0 = tiny_setup
        cfg = TrainConfig(**{**cfg0.__dict__, "bootstrap": "hyperc", "max_steps": 5})
        flat = flatten_tree(demo_tree)
        vectors = derive_rng(31).normal(0, 0.1, size=(len(flat.names), 6))
        embeddings = PoincareEmbeddings(flat.names, flat.level_slices, vectors)
        models, _ = train_xr_lat(data, demo_tree, cfg, embeddings=embeddings)
        assert all(m.corr is not None for m in models[1:])
        assert models[0].corr is None

    def test_hyperc_requires_embeddings(self, demo_tree, tiny_setup):
        data, cfg0 = tiny_setup
        cfg = TrainConfig(**{**cfg0.__dict__, "bootstrap": "hyperc"})
        with pytest.raises(ConfigError):
            train_xr_lat(data, demo_tree, cfg)

    def test_empty_dataset_rejected(self, demo_tree, tiny_setup):
        data, cfg = tiny_setup
        empty = type(data)([], LabelMatrix(81, []), data.vocab)
        with pytest.raises(DataError):
            train_flat(empty, demo_tree, cfg)


class TestRowSparseLevel:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_masked_level_equals_dense_loop(self, demo_tree, tiny_setup, weight_decay):
        """A masked bootstrap-hyperc level (with corr.*) trains to the dense loop's bytes.

        Each document's mask holds one of labels 0-7, so a step's rows change from step
        to step and label 8 is never touched; at weight_decay 0 its head row keeps its
        initial bytes.
        """
        data, cfg0 = tiny_setup
        cfg = TrainConfig(**{**cfg0.__dict__, "batch_size": 4, "max_steps": 12,
                             "weight_decay": weight_decay})
        labels = data.labels
        for k in (4, 3):
            labels = propagate_labels(labels, demo_tree.indexing_matrix(k))
        parent = init_level_model(data.vocab.size, cfg.c, cfg.hidden_size, 3, cfg.n_layers, 1,
                                  derive_rng(cfg.seed, "init", 1))
        E = derive_rng(42).normal(0.0, 0.1, size=(9, 5))
        init = bootstrap_hyperc(parent, demo_tree.indexing_matrix(2), E)
        mask_rng = derive_rng(43)
        masks = [np.eye(9, dtype=np.uint8)[mask_rng.integers(8)] for _ in data.docs]

        model, ref = copy.deepcopy(init), copy.deepcopy(init)
        _train_level(data.docs, labels.rows, masks, model, cfg)
        assert dense_train_level(data.docs, labels.rows, 9, masks, ref, cfg, 2) == 0
        for (name, a), (_, b) in zip(model.tensors(), ref.tensors()):
            assert a.tobytes() == b.tobytes(), name
        if weight_decay == 0.0:
            for name in HEAD_ROWS:
                a, b = getattr(model.head, name), getattr(init.head, name)
                assert a[8].tobytes() == b[8].tobytes(), name
                assert a[:8].tobytes() != b[:8].tobytes(), name


class TestPredict:
    def _chain(self, demo_tree, tiny_setup, sampling=True):
        data, cfg0 = tiny_setup
        cfg = TrainConfig(**{**cfg0.__dict__, "negative_sampling": sampling, "max_steps": 10})
        models, _ = train_xr_lat(data, demo_tree, cfg)
        return data, cfg, models

    def test_flat_output_length(self, demo_tree, tiny_setup):
        data, cfg = tiny_setup
        model, _ = train_flat(data, demo_tree, cfg)
        p = predict(model, data.docs[0], demo_tree, cfg)
        assert p.shape == (81,)
        assert np.all((p >= 0) & (p <= 1))

    def test_cascade_collapse_when_level1_silent(self, demo_tree, tiny_setup):
        data, cfg, models = self._chain(demo_tree, tiny_setup)
        silenced = models[0]
        silenced.head.b_cl[:] = -20.0  # force all chapter probabilities below threshold
        p = predict(models, data.docs[0], demo_tree, cfg)
        assert np.all(p == 0.0)

    def test_masked_cascade_equals_unmasked_on_surviving_codes(self, demo_tree, tiny_setup):
        data, cfg, models = self._chain(demo_tree, tiny_setup)
        for doc in data.docs[:5]:
            masked = predict(models, doc, demo_tree, cfg)
            full = np.array(
                [predict(models[3], doc, demo_tree, cfg)]
            ).ravel()
            zero = masked == 0.0
            assert np.array_equal(masked[~zero], full[~zero])

    def test_without_sampling_scores_level4_everywhere(self, demo_tree, tiny_setup):
        data, cfg, models = self._chain(demo_tree, tiny_setup, sampling=False)
        p = predict(models, data.docs[0], demo_tree, cfg)
        full = predict(models[3], data.docs[0], demo_tree, cfg)
        assert np.array_equal(p, full)
