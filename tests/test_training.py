import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlat.checkpoint import load_model
from xrlat.code_tree import LabelMatrix, parse_hierarchy, propagate_labels
from xrlat import training
from xrlat.hyperbolic import PoincareEmbeddings, flatten_tree
from xrlat.losses import LossConfig, loss_and_grad
from xrlat.network import (
    CorrectionLayer,
    forward_backward,
    forward_probs,
    init_level_model,
    zero_grads,
)
from xrlat.textproc import build_vocab, synth_corpus
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
    predict_dataset,
    prepare_dataset,
    train_flat,
    train_xr_lat,
    training_mask,
)
from xrlat.util import ConfigError, DataError, derive_rng

from conftest import bce_reference, random_tree


BCE = LossConfig()


def loss_of(p, y, cfg=BCE):
    return loss_and_grad(np.asarray(p, dtype=np.float64), y, cfg)[0]


def dense_adamw_step(model, m, v, t, grads, lr, weight_decay, scale=1.0):
    """AdamW over every row of every tensor, unblocked, from the gradient scale * grads:
    what the blocked, row-sparse optimizer must equal bit for bit."""
    step_size = lr / (1.0 - ADAM_BETA1**t)
    inv_sqrt_bc2 = 1.0 / math.sqrt(1.0 - ADAM_BETA2**t)
    for name, theta in model.trainable():
        g = grads[name] * scale
        m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (g * g) * (1.0 - ADAM_BETA2)
        update = m[name] / (np.sqrt(v[name]) * inv_sqrt_bc2 + ADAM_EPS) * step_size
        theta *= 1.0 - lr * weight_decay
        theta -= update


def dense_train_level(docs, label_rows, n_labels, masks, model, cfg, level_tag):
    """The training loop with the batch mean, the clip and AdamW over every head row;
    returns the number of steps that clipped."""
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
            norm = np.sqrt(sum(float(((g * inv) ** 2).sum()) for g in grads.values()))
            scale = inv
            if norm > CLIP_NORM:
                clipped += 1
                scale = inv * (CLIP_NORM / norm)
            lr = lr_at(step, cfg.learning_rate, cfg.max_steps)
            dense_adamw_step(model, m, v, step + 1, grads, lr, cfg.weight_decay, scale)
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
        for _ in range(50):
            p = rng.uniform(0.01, 0.99, size=8)
            y = (rng.random(8) < 0.5).astype(float)
            a, da = loss_and_grad(p, y, BCE)
            b, db = bce_reference(p, y)
            assert abs(a - b) < 1e-12
            assert np.max(np.abs(da - db)) < 1e-12

    def test_margin_clips_negative_term(self):
        assert loss_of([0.2], [0.0], LossConfig(1.0, 2.0, 0.3)) == 0.0

    def test_scalar_value(self):
        assert loss_of([0.5], [1.0], LossConfig(1.0, 0.0, 0.0)) == pytest.approx(
            0.346574, abs=1e-6
        )

    def test_gradient_matches_finite_differences(self):
        rng = derive_rng(3)
        cfg = LossConfig(gamma_pos=2.0, gamma_neg=3.0, margin=0.1)
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
        mask = training_mask([0.6, 0.1], np.flatnonzero([0, 0]), T, 0.5)
        assert mask.tolist() == [1, 1, 0]

    def test_gold_parent_always_passes(self):
        tree = parse_hierarchy(["A/A1/A11/x1", "A/A2/A21/x2"])
        T = tree.indexing_matrix(3)
        mask = training_mask([0.0, 0.0], np.flatnonzero([0, 1]), T, 0.5)
        assert mask.tolist() == [0, 1]

    def test_inference_mask_is_training_mask_with_zero_gold(self):
        rng = derive_rng(4)
        tree = random_tree(rng)
        T = tree.indexing_matrix(4)
        p = rng.random(T.n_cols)
        assert np.array_equal(
            inference_mask(p, T, 0.5), training_mask(p, np.flatnonzero(np.zeros(T.n_cols)), T, 0.5)
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
            got = training_mask(p, np.flatnonzero(y), T, 0.5)
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
        mask = training_mask(p, np.flatnonzero(y_parent), T, 0.5)
        assert np.all(mask[y_child.astype(bool)] == 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["empty", "all", "random"]),
           st.one_of(st.floats(1e-12, 1e-3), st.floats(1e-3, 1 - 1e-3),
                     st.floats(1 - 1e-3, 1 - 1e-12)))
    def test_equals_paper_rule_over_random_trees(self, seed, gold, threshold):
        """Gold as label indices gives binary(p + y) gathered by T, for empty, all-gold and
        random gold rows and thresholds in (0, 1) near both ends."""
        rng = np.random.default_rng(seed)
        T = random_tree(rng).indexing_matrix(int(rng.integers(2, 5)))
        p = rng.random(T.n_cols)
        p[rng.random(T.n_cols) < 0.2] = threshold  # scores exactly at the threshold pass
        y = {"empty": np.zeros(T.n_cols), "all": np.ones(T.n_cols),
             "random": (rng.random(T.n_cols) < 0.3).astype(float)}[gold]
        want = ((p + y) >= threshold)[T.parent_index].astype(np.uint8)
        got = training_mask(p, np.flatnonzero(y), T, threshold)
        assert got.dtype == np.uint8 and got.tobytes() == want.tobytes()

    def test_dimension_mismatch(self):
        tree = parse_hierarchy(["A/A1/A11/x1"])
        with pytest.raises(DataError):
            training_mask([0.5, 0.5], np.flatnonzero([0, 0]), tree.indexing_matrix(4), 0.5)

    @pytest.mark.parametrize("gold", [[0, 2], [-1], [1, 3]])
    def test_gold_index_out_of_range(self, gold):
        T = parse_hierarchy(["A/A1/A11/x1", "A/A1/A12/x2"]).indexing_matrix(4)
        with pytest.raises(DataError, match="gold parent indices"):
            training_mask([0.2, 0.7], np.array(gold), T, 0.5)


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
        """clip_gradients returns the norm of the batch mean and the factor that takes the
        sum to the mean clipped to max_norm, and leaves the gradients unwritten."""
        big = {"a": np.array([6.0, 0.0]), "b": np.array([[8.0]])}  # 2 documents: mean norm 5
        assert clip_gradients(big, 2, 1.0) == (5.0, 0.5 * (1.0 / 5.0))
        assert big["a"].tolist() == [6.0, 0.0] and big["b"].tolist() == [[8.0]]
        small = {"a": np.array([0.3]), "b": np.array([0.4])}  # 1 document: norm 0.5
        norm, factor = clip_gradients(small, 1, 1.0)
        assert norm == pytest.approx(0.5) and factor == 1.0
        assert small["a"].tolist() == [0.3] and small["b"].tolist() == [0.4]
        zero = {"a": np.zeros(3)}
        assert clip_gradients(zero, 4, 1.0) == (0.0, 0.25)

    def test_clip_gradients_reads_only_the_given_head_rows(self):
        grads = {"W_la": np.array([[9.0, 9.0], [3.0, 0.0], [9.0, 9.0]]),
                 "b_cl": np.array([9.0, 4.0, 9.0]), "emb": np.array([[0.0, 12.0]])}
        norm, factor = clip_gradients(grads, 1, 100.0, np.array([1]))
        assert (norm, factor) == (13.0, 1.0)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.5])
    def test_overflowing_gradient_takes_a_zero_step(self, weight_decay):
        """A gradient entry of 1e200 overflows the norm's sum of squares to inf, so the
        step's factor is 0. AdamW scales before it squares, so the step is the decay
        alone, without an overflow warning (pyproject makes warnings errors)."""
        model = init_level_model(5, 2, 3, 4, 1, 2, derive_rng(16))
        before = copy.deepcopy(model)
        grads = {name: derive_rng(17).normal(size=p.shape) for name, p in model.trainable()}
        grads["W_la"][2, 1] = 1e200
        norm, scale = clip_gradients(grads, 3, CLIP_NORM)
        assert norm == math.inf and scale == 0.0
        AdamW(model, weight_decay=weight_decay).step(model, grads, 0.1, scale=scale)
        for (name, a), (_, b) in zip(model.trainable(), before.trainable()):
            assert np.isfinite(a).all(), name
            assert a.tobytes() == (b * (1.0 - 0.1 * weight_decay)).tobytes(), name
            assert not grads[name].any(), name


@pytest.fixture(scope="module")
def tiny_setup(demo_tree):
    docs, _ = synth_corpus(demo_tree, 48, codes_per_doc_mean=2.0, doc_len=24, seed=13)
    vocab = build_vocab((d.text for d in docs), 1)
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
        models, _ = train_xr_lat(data, demo_tree, cfg, embeddings=random_embeddings(demo_tree))
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

    def test_flat_ignores_chain_settings(self, demo_tree, tiny_setup, tmp_path):
        """Flat training is the one-level chain: its one level is the first, so it is never
        bootstrapped (hyperc needs no embeddings) and never masked, and every bootstrap
        and negative_sampling setting writes the same tensors and log."""
        data, cfg0 = tiny_setup
        written = set()
        for bootstrap in ("none", "equal", "hyperc"):
            for sampling in (True, False):
                cfg = TrainConfig(**{**cfg0.__dict__, "max_steps": 6, "bootstrap": bootstrap,
                                     "negative_sampling": sampling})
                out = tmp_path / f"{bootstrap}-{sampling}"
                out.mkdir()
                train_flat(data, demo_tree, cfg, out_dir=str(out))
                model, _ = load_model(str(out / "flat.ckpt"))
                assert model.level == 4 and model.provenance == "random"
                written.add((b"".join(name.encode() + t.tobytes() for name, t in model.tensors()),
                             (out / "train_flat.log").read_bytes()))
        assert len(written) == 1


class TestRowSparseLevel:
    @pytest.mark.parametrize("weight_decay, batch_size, max_steps, dropout", [
        pytest.param(0.0, 4, 12, 0.1, id="0.0"),
        pytest.param(0.1, 4, 12, 0.1, id="0.1"),
        pytest.param(0.0, 5, 23, 0.1, id="epochs-dropout0.1"),
        pytest.param(0.0, 5, 23, 0.0, id="epochs-dropout0"),
    ])
    def test_masked_level_equals_dense_loop(self, demo_tree, tiny_setup, weight_decay,
                                            batch_size, max_steps, dropout):
        """A masked bootstrap-hyperc level (with corr.*) trains to the dense loop's bytes.

        Each document's mask holds one of labels 0-7, so a step's rows change from step
        to step and label 8 is never touched; at weight_decay 0 its head row keeps its
        initial bytes. Batch 4 × 12 steps over the 48 documents is one epoch of full
        batches; batch 5 × 23 steps makes ten batches per epoch, the last of 3 documents,
        and reaches a third epoch.
        """
        data, cfg0 = tiny_setup
        cfg = TrainConfig(**{**cfg0.__dict__, "batch_size": batch_size, "max_steps": max_steps,
                             "weight_decay": weight_decay, "dropout": dropout})
        labels = data.labels
        for k in (4, 3):
            labels = propagate_labels(labels, demo_tree.indexing_matrix(k))
        parent = init_level_model(data.vocab.size, cfg.c, cfg.hidden_size, 3, cfg.n_layers, 1,
                                  derive_rng(cfg.seed, "init", 1))
        E = derive_rng(42).normal(0.0, 0.1, size=(9, 5))
        init = bootstrap_hyperc(parent, demo_tree.indexing_matrix(2), E)
        mask_rng = derive_rng(43)
        masks = np.stack([np.eye(9, dtype=np.uint8)[mask_rng.integers(8)] for _ in data.docs])

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


class TestOptimizerSweep:
    @pytest.mark.parametrize("block", [1, 3 * 8, 10**9], ids=["1-row", "3-rows", "whole"])
    def test_block_size_changes_no_byte(self, demo_tree, tiny_setup, tmp_path, monkeypatch,
                                        block):
        """AdamW's block size (BLOCK_ELEMENTS, whole rows and at least one per block)
        changes no byte: a flat model and a masked bootstrap-hyperc chain write the same
        checkpoints with blocks of 1 row, 3 rows of the h = 8 tensors, or every row."""
        data, cfg0 = tiny_setup
        cfg = TrainConfig(**{**cfg0.__dict__, "bootstrap": "hyperc", "weight_decay": 0.1})
        emb = random_embeddings(demo_tree)
        written = {}
        for tag, value in (("default", training.BLOCK_ELEMENTS), ("patched", block)):
            monkeypatch.setattr(training, "BLOCK_ELEMENTS", value)
            train_flat(data, demo_tree, cfg, out_dir=str(tmp_path / tag))
            train_xr_lat(data, demo_tree, cfg, out_dir=str(tmp_path / tag), embeddings=emb)
            written[tag] = {p.name: p.read_bytes() for p in (tmp_path / tag).glob("*.ckpt")}
        assert sorted(written["patched"]) == ["flat.ckpt"] + [f"level{k}.ckpt" for k in range(1, 5)]
        assert written["patched"] == written["default"]

    def test_gathered_step_allocates_blocks_not_tensors(self):
        """One gathered step (clip and AdamW) on an (8929, 64) head with 3697 touched rows
        allocates under 1 MB at its peak; each W_la or W_cl is 4.6 MB."""
        rng = derive_rng(18)
        model = init_level_model(20, 4, 64, 8929, 0, 4, rng)
        opt = AdamW(model, weight_decay=0.1)
        grads = zero_grads(model)
        touched = np.sort(rng.choice(8929, 3697, replace=False))
        opt.step(model, grads, 1e-3, touched)
        rows = np.sort(rng.choice(touched, 300, replace=False))
        for name in HEAD_ROWS:
            grads[name][rows] = 1.0
        tracemalloc.start()
        try:
            _, scale = clip_gradients(grads, 8, CLIP_NORM, rows)
            opt.step(model, grads, 1e-3, rows, scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(opt.rows) == 3697 and peak < 1 << 20

    def test_each_step_calls_clip_and_adamw_through_the_module(self, demo_tree, tiny_setup,
                                                               monkeypatch):
        """Every step calls training.clip_gradients and training.AdamW.step once each, by
        their module names, which a wrapper set on those names (as the benchmark's traced
        run sets) therefore sees."""
        data, cfg = tiny_setup
        calls = []
        clip, step = training.clip_gradients, training.AdamW.step

        def clip_spy(*args, **kwargs):
            calls.append("clip")
            return clip(*args, **kwargs)

        def step_spy(*args, **kwargs):
            calls.append("step")
            return step(*args, **kwargs)

        monkeypatch.setattr(training, "clip_gradients", clip_spy)
        monkeypatch.setattr(training.AdamW, "step", step_spy)
        train_flat(data, demo_tree, cfg)
        assert calls == ["clip", "step"] * cfg.max_steps
        calls.clear()
        train_xr_lat(data, demo_tree, cfg)
        assert calls == ["clip", "step"] * (4 * cfg.max_steps)


def level_probs(model, doc, mask):
    return forward_probs(doc, model.enc, model.head, mask, corr=model.corr,
                         corr_inputs=model.corr_inputs)


def random_embeddings(tree):
    flat = flatten_tree(tree)
    vectors = derive_rng(31).normal(0, 0.1, size=(len(flat.names), 6))
    return PoincareEmbeddings(flat.names, flat.level_slices, vectors)


class TestChainMasks:
    @pytest.mark.parametrize("bootstrap, sampling", [("equal", True), ("hyperc", True),
                                                     ("none", False)])
    def test_levels_train_on_teacher_forced_masks(self, demo_tree, tiny_setup, monkeypatch,
                                                  bootstrap, sampling):
        """Level k trains on the children of level k-1's labels that are gold or score at
        or above binary_threshold under level k-1's own training mask; level 1, and every
        level without negative sampling, trains unmasked. The chain is trained so that
        some parents pass on their score alone, and some that a mask hides would have
        passed unmasked."""
        data, cfg0 = tiny_setup
        cfg = TrainConfig(**{**cfg0.__dict__, "learning_rate": 1e-2, "bootstrap": bootstrap,
                             "negative_sampling": sampling})
        recorded = []
        train_level = training._train_level

        def record(docs, label_rows, masks, model, cfg, log_path=None):
            recorded.append(masks)
            return train_level(docs, label_rows, masks, model, cfg, log_path)

        monkeypatch.setattr(training, "_train_level", record)
        models, _ = train_xr_lat(data, demo_tree, cfg, embeddings=random_embeddings(demo_tree))
        if not sampling:
            assert recorded == [None] * 4
            return
        gold = {4: [np.asarray(r) for r in data.labels.rows]}
        for k in (4, 3, 2):
            gold[k - 1] = [demo_tree.indexing_matrix(k).parent_index[g] for g in gold[k]]
        thr = cfg.binary_threshold
        assert recorded[0] is None
        masks = [None] * len(data.docs)
        scored_in = hidden_would_pass = 0
        for k in (2, 3, 4):
            parent_index = demo_tree.indexing_matrix(k).parent_index
            want = []
            for i, doc in enumerate(data.docs):
                p = level_probs(models[k - 2], doc, masks[i])
                on = p >= thr
                scored_in += int(on.sum()) - int(on[gold[k - 1][i]].sum())
                on[gold[k - 1][i]] = True
                want.append(on[parent_index].astype(np.uint8))
                if masks[i] is not None:
                    unmasked = level_probs(models[k - 2], doc, None)
                    hidden_would_pass += int(np.sum((unmasked >= thr) & (masks[i] == 0)))
            assert len(recorded[k - 1]) == len(data.docs)
            for i, (got, w) in enumerate(zip(recorded[k - 1], want)):
                assert got.dtype == np.uint8 and got.tobytes() == w.tobytes(), (k, i)
            masks = want
        assert scored_in > 0 and hidden_would_pass > 0


def cascade_oracle(models, docs, tree, threshold):
    """Per document, level by level: each model's probabilities under the mask that
    inference_mask built from the level above; the last level's, one row per document."""
    rows = []
    for doc in docs:
        mask = None
        for model in models:
            p = level_probs(model, doc, mask)
            if model.level < 4:
                mask = inference_mask(p, tree.indexing_matrix(model.level + 1), threshold)
        rows.append(p)
    return np.stack(rows)


@pytest.fixture(scope="module")
def live_chain(demo_tree, tiny_setup):
    """A chain whose cascade at binary_threshold 0.4 keeps codes for 17 of the 48
    documents, and the prediction config that sets that threshold."""
    data, cfg0 = tiny_setup
    cfg = TrainConfig(**{**cfg0.__dict__, "learning_rate": 1e-2})
    models, _ = train_xr_lat(data, demo_tree, cfg)
    return models, TrainConfig(**{**cfg.__dict__, "binary_threshold": 0.4})


class TestPredict:
    def test_flat_output_length(self, demo_tree, tiny_setup):
        data, cfg = tiny_setup
        model, _ = train_flat(data, demo_tree, cfg)
        p = predict_dataset(model, data, demo_tree, cfg)
        assert p.shape == (len(data.docs), 81)
        assert np.all((p >= 0) & (p <= 1))
        want = cascade_oracle([model], data.docs, demo_tree, cfg.binary_threshold)
        assert p.tobytes() == want.tobytes()
        assert predict_dataset([model], data, demo_tree, cfg).tobytes() == p.tobytes()

    def test_masked_cascade_equals_unmasked_on_surviving_codes(self, demo_tree, tiny_setup,
                                                               live_chain):
        data, _ = tiny_setup
        models, cfg = live_chain
        p = predict_dataset(models, data, demo_tree, cfg)
        want = cascade_oracle(models, data.docs, demo_tree, cfg.binary_threshold)
        assert p.tobytes() == want.tobytes()
        kept = p != 0.0
        assert 0 < kept.any(axis=1).sum() < len(data.docs)
        full = predict_dataset(models[3], data, demo_tree, cfg)
        assert np.array_equal(p[kept], full[kept])
        with pytest.raises(ConfigError, match="expected 1 or 4 models, got 2"):
            predict_dataset(models[:2], data, demo_tree, cfg)

    def test_cascade_collapse_when_level1_silent(self, demo_tree, tiny_setup, live_chain):
        data, _ = tiny_setup
        models, cfg = copy.deepcopy(live_chain)
        models[0].head.b_cl[:] = -20.0  # force all chapter probabilities below threshold
        p = predict_dataset(models, data, demo_tree, cfg)
        assert np.all(p == 0.0)
        want = cascade_oracle(models, data.docs, demo_tree, cfg.binary_threshold)
        assert p.tobytes() == want.tobytes()

    def test_empty_dataset(self, demo_tree, tiny_setup, live_chain):
        """No documents give a (0, codes) matrix, for a flat model and a cascading chain."""
        data, _ = tiny_setup
        models, cfg = live_chain
        empty = prepare_dataset([], data.vocab, demo_tree, cfg.c, cfg.s)
        flat = init_level_model(data.vocab.size, cfg.c, cfg.hidden_size, 81, cfg.n_layers, 4,
                                derive_rng(cfg.seed, "init", 4))
        for m in (flat, models):
            p = predict_dataset(m, empty, demo_tree, cfg)
            assert p.shape == (0, 81) and p.dtype == np.float64

    def test_without_sampling_scores_level4_everywhere(self, demo_tree, tiny_setup):
        data, cfg0 = tiny_setup
        cfg = TrainConfig(**{**cfg0.__dict__, "negative_sampling": False, "max_steps": 10})
        models, _ = train_xr_lat(data, demo_tree, cfg)
        p = predict_dataset(models, data, demo_tree, cfg)
        want = cascade_oracle(models[3:], data.docs, demo_tree, cfg.binary_threshold)
        assert p.tobytes() == want.tobytes()
        assert p.tobytes() == predict_dataset(models[3], data, demo_tree, cfg).tobytes()
