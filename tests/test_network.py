import numpy as np
import pytest

from xrlat.losses import LossConfig
from xrlat.network import (
    CorrectionLayer,
    LevelModel,
    _encode_bwd,
    _encode_fwd,
    _head_fwd,
    forward_backward,
    forward_probs,
    gradcheck,
    init_encoder,
    init_head,
    level_layout,
    zero_grads,
)
from xrlat.textproc import chunk
from xrlat.util import DataError, derive_rng

from conftest import corrupt_head_dW_cl


def make_doc(rng, vocab_size, c, s, t=None):
    t = t if t is not None else c * s - 2
    return chunk(rng.integers(2, vocab_size, size=t), c, s)


def encode(doc, enc):
    return _encode_fwd(doc, enc)[0]


def attend(H, flags, W_la):
    """The trained head's label vectors d and real-token weights alpha for queries W_la."""
    A, h = W_la.shape
    _, cache = _head_fwd(H, np.asarray(flags, dtype=np.uint8), W_la, np.zeros((A, h)),
                         np.zeros(A))
    return cache["d"], cache["alpha"]


def classify(d, W_cl, b_cl):
    """The trained head's probabilities when every label vector is d: H holds d as one token."""
    p, cache = _head_fwd(d[:1], np.ones(1, dtype=np.uint8), np.zeros_like(W_cl), W_cl, b_cl)
    assert np.array_equal(cache["d"], np.broadcast_to(d[:1], W_cl.shape))
    return p


class TestEncoder:
    def test_degenerate_formula_no_layers(self):
        rng = derive_rng(1)
        enc = init_encoder(30, 4, 3, 0, rng)
        doc = chunk([5, 6, 7, 8, 9], c=3, s=2)
        H = encode(doc, enc)
        for i, tok in enumerate([5, 6, 7, 8, 9]):
            expected = enc.emb[tok] + enc.pos[i % 3]
            assert np.allclose(H[i], expected, atol=0)

    def test_output_shape(self):
        rng = derive_rng(2)
        enc = init_encoder(30, 4, 3, 1, rng)
        doc = make_doc(rng, 30, c=3, s=2, t=6)
        assert encode(doc, enc).shape == (6, 4)

    def test_chunk_locality(self):
        """Swapping tokens across a chunk boundary only changes those chunks' rows."""
        rng = derive_rng(3)
        enc = init_encoder(40, 8, 4, 2, rng)
        ids = rng.integers(2, 40, size=12)
        doc_a = chunk(ids, c=4, s=3)
        swapped = ids.copy()
        swapped[0], swapped[4] = swapped[4], swapped[0]  # chunk 0 <-> chunk 1
        doc_b = chunk(swapped, c=4, s=3)
        ha = encode(doc_a, enc)
        hb = encode(doc_b, enc)
        assert not np.array_equal(ha[:8], hb[:8])
        assert np.array_equal(ha[8:], hb[8:])  # chunk 2 rows bit-identical

    def test_id_out_of_range(self):
        rng = derive_rng(4)
        enc = init_encoder(10, 4, 4, 0, rng)
        with pytest.raises(DataError):
            encode(chunk([11], 4, 1), enc)

    def test_padding_cannot_influence_real_tokens(self):
        rng = derive_rng(5)
        enc = init_encoder(30, 8, 4, 1, rng)
        short = chunk([3, 4, 5], c=4, s=1)  # one pad slot
        other = chunk([3, 4, 5, 9], c=4, s=1)
        h_short = encode(short, enc)
        # recompute with a different id in the padded slot: real rows unchanged
        tampered = chunk([3, 4, 5], c=4, s=1)
        tampered.chunks[0, 3] = 7
        h_tampered = encode(tampered, enc)
        assert np.array_equal(h_short[:3], h_tampered[:3])
        assert not np.array_equal(h_short[:3], encode(other, enc)[:3])


class TestLabelAttention:
    def test_two_token_hand_example(self):
        H = np.array([[1.0], [3.0]])
        d, alpha = attend(H, [1, 1], np.array([[1.0]]))
        assert alpha[0] == pytest.approx([0.119203, 0.880797], abs=1e-6)
        assert d[0, 0] == pytest.approx(2.761594, abs=1e-6)

    def test_zero_query_gives_mean(self):
        rng = derive_rng(6)
        H = rng.normal(size=(5, 3))
        d, _ = attend(H, [1, 1, 1, 1, 0], np.zeros((2, 3)))
        assert np.allclose(d[0], H[:4].mean(axis=0), atol=1e-12)
        assert np.allclose(d[0], d[1], atol=0)

    def test_duplicating_tokens_keeps_d(self):
        rng = derive_rng(7)
        H = rng.normal(size=(4, 3))
        W_la = rng.normal(size=(3, 3))
        d1, _ = attend(H, np.ones(4), W_la)
        d2, _ = attend(np.vstack([H, H]), np.ones(8), W_la)
        assert np.allclose(d1, d2, atol=1e-12)

    def test_weights_sum_to_one_and_zero_on_padding(self):
        rng = derive_rng(8)
        H = rng.normal(size=(6, 4))
        flags = np.array([1, 1, 0, 1, 0, 1], dtype=np.uint8)
        W_la = rng.normal(size=(5, 4))
        d, alpha = attend(H, flags, W_la)
        assert alpha.shape == (5, 4)  # one weight per real token only
        assert np.all(np.abs(alpha.sum(axis=1) - 1.0) < 1e-12)
        tampered = H.copy()
        tampered[flags == 0] = rng.normal(size=(2, 4)) * 100.0
        d_tampered, alpha_tampered = attend(tampered, flags, W_la)
        assert np.array_equal(alpha, alpha_tampered)
        assert np.array_equal(d, d_tampered)

    def test_all_padding_rejected(self):
        with pytest.raises(DataError):
            attend(np.zeros((3, 2)), np.zeros(3), np.zeros((1, 2)))


class TestClassify:
    def test_sigmoid_zero(self):
        p = classify(np.zeros((1, 4)), np.ones((1, 4)), np.zeros(1))
        assert p[0] == pytest.approx(0.5, abs=1e-15)

    def test_bias_only(self):
        p = classify(np.zeros((1, 4)), np.zeros((1, 4)), np.array([0.2]))
        assert p[0] == pytest.approx(0.549834, abs=1e-6)

    def test_full_mask_zeroes_everything(self):
        rng = derive_rng(9)
        enc = init_encoder(20, 3, 4, 0, rng)
        head = init_head(4, 3, rng)
        head.b_cl[:] = rng.normal(size=4)
        doc = make_doc(rng, 20, c=4, s=2)
        p = forward_probs(doc, enc, head, mask=np.zeros(4, dtype=np.uint8))
        assert np.all(p == 0.0)
        mask = np.array([1, 0, 1, 0], dtype=np.uint8)
        p = forward_probs(doc, enc, head, mask=mask)
        assert np.all(p[mask == 0] == 0.0)
        assert np.array_equal(p[mask == 1], forward_probs(doc, enc, head)[mask == 1])

    def test_probabilities_in_unit_interval(self):
        rng = derive_rng(10)
        p, cache = _head_fwd(rng.normal(size=(6, 5)) * 10, np.ones(6, dtype=np.uint8),
                             rng.normal(size=(30, 5)), rng.normal(size=(30, 5)) * 10,
                             rng.normal(size=30) * 10)
        assert cache["logits"].min() < -30 and cache["logits"].max() > 30
        assert np.all((p >= 0) & (p <= 1))


class TestForwardBackward:
    def _setup(self, seed=0, n_labels=6, n_layers=1):
        rng = derive_rng(seed)
        enc = init_encoder(25, 8, 4, n_layers, rng)
        head = init_head(n_labels, 8, rng)
        doc = make_doc(rng, 25, c=4, s=2)
        return rng, enc, head, doc

    def test_gradient_zero_at_bce_optimum(self):
        """With gold equal to the prediction, the bias gradient is exactly zero."""
        rng, enc, head, doc = self._setup()
        p = forward_probs(doc, enc, head)
        loss, grads = forward_backward(doc, enc, head, p.copy(), None, LossConfig())
        assert np.allclose(grads["b_cl"], 0.0, atol=1e-15)

    def test_no_mask_equals_all_ones_mask(self):
        """Unmasked calls (views of every head row) match an all-ones mask bit for bit."""
        rng, enc, head, doc = self._setup(seed=8, n_layers=2)
        gold = (rng.random(6) < 0.5).astype(float)
        ones = np.ones(6, dtype=np.uint8)
        kw = dict(corr=CorrectionLayer(rng.normal(size=(3, 8)), rng.normal(size=8)),
                  corr_inputs=rng.normal(size=(6, 3)))
        l1, g1 = forward_backward(doc, enc, head, gold, None, LossConfig(), **kw)
        l2, g2 = forward_backward(doc, enc, head, gold, ones, LossConfig(), **kw)
        assert l1 == l2
        for name in g1:
            assert g1[name].tobytes() == g2[name].tobytes(), name
        assert (forward_probs(doc, enc, head, None, **kw).tobytes()
                == forward_probs(doc, enc, head, ones, **kw).tobytes())

    def test_masked_rows_have_exact_zero_gradients(self):
        rng, enc, head, doc = self._setup(seed=4)
        gold = np.zeros(6)
        gold[1] = 1
        mask = np.array([0, 1, 1, 0, 1, 0], dtype=np.uint8)
        _, grads = forward_backward(doc, enc, head, gold, mask, LossConfig())
        off = np.flatnonzero(mask == 0)
        assert np.all(grads["W_la"][off] == 0.0)
        assert np.all(grads["W_cl"][off] == 0.0)
        assert np.all(grads["b_cl"][off] == 0.0)
        on = np.flatnonzero(mask == 1)
        assert np.any(grads["W_cl"][on] != 0.0)

    def test_empty_mask_rejected(self):
        rng, enc, head, doc = self._setup(seed=5)
        with pytest.raises(DataError):
            forward_backward(doc, enc, head, np.zeros(6), np.zeros(6, dtype=np.uint8),
                             LossConfig())

    def test_accumulator_equals_ordered_sum_of_fresh_calls(self):
        """grads= adds into the buffer in call order, bit for bit."""
        rng, enc, head, _ = self._setup(seed=7, n_layers=2)
        docs = [chunk([3, 4, 5, 3, 9, 4, 3], 4, 2), chunk([4, 4, 9, 11, 3], 4, 2),
                chunk([9, 3, 12, 4, 4, 4, 7, 3], 4, 2)]
        masks = [np.array([1, 1, 0, 1, 0, 0], dtype=np.uint8),
                 np.array([0, 1, 1, 1, 0, 1], dtype=np.uint8), None]
        golds = [np.array([1, 0, 0, 1, 0, 0.0]), np.array([0, 0, 1, 0, 0, 1.0]),
                 np.array([0, 1, 0, 0, 1, 0.0])]
        buf = zero_grads(LevelModel(enc, head, 0))
        expected = None
        for i, (doc, mask, gold) in enumerate(zip(docs, masks, golds)):
            _, g = forward_backward(doc, enc, head, gold, mask, LossConfig(),
                                    dropout=0.1, rng=derive_rng(70, i))
            expected = g if expected is None else {n: expected[n] + g[n] for n in g}
            _, out = forward_backward(doc, enc, head, gold, mask, LossConfig(),
                                      dropout=0.1, rng=derive_rng(70, i), grads=buf)
            assert out is buf
        assert list(buf) == list(expected)
        for name in expected:
            assert buf[name].tobytes() == expected[name].tobytes(), name

    def test_embedding_gradient_adds_rows_in_token_order(self):
        """grads["emb"] equals a loop adding each token's input gradient in token order, bit
        for bit: an id repeated more than 8 times (np.add.reduceat sums such runs
        pairwise), dropout zeros (-0.0 entries) and mixed magnitudes, so order shows."""
        rng = derive_rng(9)
        enc = init_encoder(12, 16, 5, 0, rng)
        ids = np.array([3, 7, 3, 3, 9, 7, 3, 11, 3, 7, 2, 3, 3, 9] + [3] * 20)
        doc = chunk(ids, 5, 7)
        H, cache = _encode_fwd(doc, enc, dropout=0.2, rng=derive_rng(10))
        dH = rng.normal(size=H.shape) * 10.0 ** rng.integers(-4, 5, size=H.shape)
        dH[doc.flags.reshape(-1) == 0] = 0.0
        grads = zero_grads(LevelModel(enc, init_head(2, 16, rng), 0))
        _encode_bwd(dH, cache, enc, grads)

        dx = dH * cache["mask0"].reshape(dH.shape)  # no blocks: H = dropout(emb[ids] + pos)
        assert np.signbit(dx[dx == 0.0]).any()
        expected = np.zeros_like(enc.emb)
        for t, token in enumerate(doc.chunks.reshape(-1)):
            expected[token] += dx[t]
        assert grads["emb"].tobytes() == expected.tobytes()

    def test_dropout_deterministic_per_rng(self):
        rng, enc, head, doc = self._setup(seed=6)
        gold = np.zeros(6)
        gold[2] = 1
        l1, g1 = forward_backward(doc, enc, head, gold, None, LossConfig(),
                                  dropout=0.2, rng=derive_rng(55))
        l2, g2 = forward_backward(doc, enc, head, gold, None, LossConfig(),
                                  dropout=0.2, rng=derive_rng(55))
        assert l1 == l2
        assert all(np.array_equal(g1[n], g2[n]) for n in g1)
        l3, _ = forward_backward(doc, enc, head, gold, None, LossConfig(),
                                 dropout=0.2, rng=derive_rng(56))
        assert l1 != l3


class TestGradcheck:
    @pytest.mark.parametrize("n_layers,expect", [(0, 1e-6), (2, 1e-4)])
    def test_within_tolerance(self, n_layers, expect):
        rep = gradcheck(n_layers, LossConfig(), seed=1)
        assert rep.max_rel_err < expect

    def test_deterministic_report(self):
        a = gradcheck(1, LossConfig(), seed=9)
        b = gradcheck(1, LossConfig(), seed=9)
        assert a.max_rel_err == b.max_rel_err
        assert a.per_tensor == b.per_tensor

    def test_report_has_per_tensor_worst_coordinate(self):
        rep = gradcheck(0, LossConfig(), seed=2)
        text = rep.to_text()
        for name in ("emb", "pos", "W_la", "W_cl", "b_cl"):
            assert name in rep.per_tensor
            assert name in text
        assert "max relative error" in text

    def test_corruption_hook_is_caught(self, monkeypatch):
        corrupt_head_dW_cl(monkeypatch)
        rep = gradcheck(0, LossConfig(), seed=2)
        assert not rep.ok()
        assert rep.worst_tensor == "W_cl"
        assert rep.per_tensor["W_cl"][0] == (0, 0)

    def test_correction_layer_gradients(self):
        rep = gradcheck(1, LossConfig(), with_correction=True, seed=4)
        assert rep.max_rel_err < 1e-4
        assert "corr.W" in rep.per_tensor and "corr.b" in rep.per_tensor


class TestLevelModel:
    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    @pytest.mark.parametrize("with_corr", [False, True])
    def test_layout_and_inverse_follow_the_table(self, n_layers, with_corr):
        rng = derive_rng(8, n_layers)
        model = LevelModel(init_encoder(11, 4, 3, n_layers, rng), init_head(7, 4, rng), 2)
        if with_corr:
            model.corr = CorrectionLayer(rng.normal(size=(5, 4)), rng.normal(size=4))
            model.corr_inputs = rng.normal(size=(7, 5))
        table = list(model.tensors())
        assert [(name, t.shape) for name, t in table] == list(
            level_layout(dict(table), 11, 3, n_layers))
        assert list(zero_grads(model)) == [name for name, _ in model.trainable()]
        assert [name for name, _ in table][-1] == ("corr.E" if with_corr else "b_cl")
        rebuilt = LevelModel.from_tensors(dict(table), n_layers, 2, "random")
        assert [(name, id(t)) for name, t in rebuilt.tensors()] == [
            (name, id(t)) for name, t in table]
