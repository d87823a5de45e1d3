import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from xrlat import network
from xrlat.losses import LossConfig, loss_and_grad
from xrlat.network import (
    INIT_STD,
    CorrectionLayer,
    LevelModel,
    _encode_bwd,
    _encode_fwd,
    _gelu_fwd,
    _gelu_grad,
    _head_bwd,
    _head_fwd,
    _ln_bwd,
    _ln_fwd,
    check_gradients,
    forward_backward,
    forward_probs,
    gradcheck,
    init_level_model,
    level_layout,
    zero_grads,
)
from xrlat.textproc import PAD_ID, chunk
from xrlat.util import DataError, derive_rng

from conftest import corrupt_head_dW_cl

ASL = network.GRADCHECK_ASL


def make_doc(rng, vocab_size, c, s, t=None):
    t = t if t is not None else c * s - 2
    return chunk(rng.integers(2, vocab_size, size=t), c, s)


def encode(doc, enc):
    return _encode_fwd(doc, enc)[0]


def attend(Hr, W_la):
    """The trained head's label vectors d and weights alpha (A, r) over the real-token
    rows Hr for queries W_la; alpha is the cached e (r, A) scaled by 1 / z."""
    A, h = W_la.shape
    _, cache = _head_fwd(Hr, W_la, np.zeros((A, h)), np.zeros(A))
    return cache["d"], (cache["e"] * cache["inv_z"]).T


def classify(d, W_cl, b_cl):
    """The trained head's probabilities when every label vector is d: H holds d as one token."""
    p, cache = _head_fwd(d[:1], np.zeros_like(W_cl), W_cl, b_cl)
    assert np.array_equal(cache["d"], np.broadcast_to(d[:1], W_cl.shape))
    return p


class TestEncoder:
    def test_degenerate_formula_no_layers(self):
        rng = derive_rng(1)
        enc = init_level_model(30, 3, 4, 1, 0, 0, rng).enc
        doc = chunk([5, 6, 7, 8, 9], c=3, s=2)
        H = encode(doc, enc)
        for i, tok in enumerate([5, 6, 7, 8, 9]):
            expected = enc.emb[tok] + enc.pos[i % 3]
            assert np.allclose(H[i], expected, atol=0)

    def test_output_shape(self):
        rng = derive_rng(2)
        enc = init_level_model(30, 3, 4, 1, 1, 0, rng).enc
        doc = make_doc(rng, 30, c=3, s=2, t=6)
        assert encode(doc, enc).shape == (6, 4)

    def test_chunk_locality(self):
        """Swapping tokens across a chunk boundary only changes those chunks' rows."""
        rng = derive_rng(3)
        enc = init_level_model(40, 4, 8, 1, 2, 0, rng).enc
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
        enc = init_level_model(10, 4, 4, 1, 0, 0, rng).enc
        with pytest.raises(DataError):
            encode(chunk([11], 4, 1), enc)

    def test_padding_cannot_influence_real_tokens(self):
        rng = derive_rng(5)
        enc = init_level_model(30, 4, 8, 1, 1, 0, rng).enc
        short = chunk([3, 4, 5], c=4, s=1)  # one pad slot
        other = chunk([3, 4, 5, 9], c=4, s=1)
        h_short = encode(short, enc)
        # recompute with a different id in the padded slot: real rows unchanged
        tampered = chunk([3, 4, 5], c=4, s=1)
        tampered.chunks[0, 3] = 7
        h_tampered = encode(tampered, enc)
        assert np.array_equal(h_short[:3], h_tampered[:3])
        assert not np.array_equal(h_short[:3], encode(other, enc)[:3])


def reference_gelu_fwd(x):
    x2 = x * x
    t = np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x2 * x))
    return 0.5 * x * (1.0 + t), t


def reference_gelu_grad(x, t):
    du = np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * 0.044715 * (x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


def reference_ln_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + network.LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def reference_ln_bwd(dy, cache, g):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dg, db


def per_chunk_encode(doc, enc, dropout, rng):
    """_encode_fwd's H with the reference kernels and each block weight product a 3-D
    ``a @ blk.q``, which numpy runs as one GEMM per chunk; dropout drawn in the same order."""
    ids, h = doc.chunks, enc.hidden
    c = ids.shape[1]
    x = (enc.emb[ids] + enc.pos[np.newaxis, :c, :]) * ((rng.random((len(ids), c, h)) >= dropout)
                                                       / (1.0 - dropout))
    key_mask = np.zeros((len(ids), 1, c))
    key_mask.reshape(-1)[doc.n_real:] = -np.inf
    for blk in enc.blocks:
        a, _ = reference_ln_fwd(x, blk.ln1_g, blk.ln1_b)
        q, k, v = a @ blk.q, a @ blk.k, a @ blk.v
        scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(h)) + key_mask
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out = ((e / e.sum(axis=-1, keepdims=True)) @ v) @ blk.o
        x1 = x + out * ((rng.random(out.shape) >= dropout) / (1.0 - dropout))
        b2, _ = reference_ln_fwd(x1, blk.ln2_g, blk.ln2_b)
        x = x1 + reference_gelu_fwd(b2 @ blk.ff1)[0] @ blk.ff2
    return x.reshape(-1, h)


class TestEncoderKernels:
    """The in-place GELU and LayerNorm kernels and the 2-D weight products give the bytes of
    the formulas they replaced."""

    def inputs(self, seed):
        """A (5, 6, 24) array and its (30, 24) view: magnitudes from 1e-8 to 1e3 of both
        signs, a row of +0.0 and -0.0 mixed, and a row of -0.0 alone."""
        rng = derive_rng(41, seed)
        x = 10.0 ** rng.uniform(-8.0, 3.0, size=(5, 6, 24)) * rng.choice([-1.0, 1.0], (5, 6, 24))
        x[0, 0] = np.where(rng.random(24) < 0.5, 0.0, -0.0)
        x[1, 2] = -0.0
        return x, x.reshape(30, 24)

    def test_gelu_matches_the_reference_formulas(self):
        for x in self.inputs(0):
            before = x.tobytes()
            y, t = _gelu_fwd(x)
            want_y, want_t = reference_gelu_fwd(x)
            assert y.tobytes() == want_y.tobytes() and t.tobytes() == want_t.tobytes()
            assert _gelu_grad(x, t).tobytes() == reference_gelu_grad(x, t).tobytes()
            assert x.tobytes() == before

    def test_layer_norm_matches_the_reference_formulas(self):
        rng = derive_rng(42)
        g, b = rng.normal(size=24), rng.normal(size=24)
        for x, dy in zip(self.inputs(1), self.inputs(2)):
            before = [t.tobytes() for t in (x, dy, g)]
            y, cache = _ln_fwd(x, g, b)
            want_y, want_cache = reference_ln_fwd(x, g, b)
            assert [t.tobytes() for t in (y,) + cache] == [t.tobytes() for t in (want_y,) + want_cache]
            got = _ln_bwd(dy, cache, g)
            assert [t.tobytes() for t in got] == [t.tobytes() for t in reference_ln_bwd(dy, cache, g)]
            assert [t.tobytes() for t in (x, dy, g)] == before

    def test_encoder_matches_the_per_chunk_products(self):
        """A 2-layer model with dropout, at the benchmark's c = 16 and h = 64, on a document
        whose last chunk is partly filled: H is the per-chunk reference's bytes, so a
        checkpoint written by the per-chunk encoder evaluates to the same scores."""
        rng = derive_rng(43)
        enc = init_level_model(60, 16, 64, 1, 2, 0, rng).enc
        doc = make_doc(rng, 60, c=16, s=8, t=16 * 5 + 7)
        assert doc.chunks.shape == (6, 16)
        H, _ = _encode_fwd(doc, enc, 0.1, derive_rng(44))
        assert H.tobytes() == per_chunk_encode(doc, enc, 0.1, derive_rng(44)).tobytes()

    def test_traced_peak_memory_per_document(self):
        """One 2-layer document's forward_backward stays below 19 (chunks, c, 4h) float64
        arrays and its forward_probs below 12 (18.3 and 11.4 here; 22.3 and 13.2 with
        per-chunk products and out-of-place kernels)."""
        n_labels, h, c, s = 81, 64, 16, 8
        rng = derive_rng(45)
        model = init_level_model(40, c, h, n_labels, 2, 0, rng)
        doc = make_doc(rng, 40, c, s, t=c * s - 5)
        gold = (rng.random(n_labels) < 0.2).astype(np.float64)
        grads = zero_grads(model)
        unit = doc.chunks.shape[0] * c * 4 * h * 8
        peaks = []
        for call in (lambda: forward_backward(doc, model.enc, model.head, gold, None,
                                              LossConfig(), dropout=0.1, rng=derive_rng(46),
                                              grads=grads),
                     lambda: forward_probs(doc, model.enc, model.head)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / unit)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 19.0 and peaks[1] < 12.0, peaks


class TestLabelAttention:
    def test_two_token_hand_example(self):
        H = np.array([[1.0], [3.0]])
        d, alpha = attend(H, np.array([[1.0]]))
        assert alpha[0] == pytest.approx([0.119203, 0.880797], abs=1e-6)
        assert d[0, 0] == pytest.approx(2.761594, abs=1e-6)

    def test_zero_query_gives_mean(self):
        rng = derive_rng(6)
        H = rng.normal(size=(4, 3))
        d, _ = attend(H, np.zeros((2, 3)))
        assert np.allclose(d[0], H.mean(axis=0), atol=1e-12)
        assert np.allclose(d[0], d[1], atol=0)

    def test_duplicating_tokens_keeps_d(self):
        rng = derive_rng(7)
        H = rng.normal(size=(4, 3))
        W_la = rng.normal(size=(3, 3))
        d1, _ = attend(H, W_la)
        d2, _ = attend(np.vstack([H, H]), W_la)
        assert np.allclose(d1, d2, atol=1e-12)

    def test_weights_sum_to_one_and_zero_on_padding(self):
        """The head attends over the n_real real rows only: changing the padding ids of a
        document (its last chunk's padded tail) changes H's padding rows but neither the
        probabilities nor any gradient."""
        rng = derive_rng(8)
        model = init_level_model(30, 4, 8, 5, 1, 0, rng)
        enc, head = model.enc, model.head
        doc = chunk([3, 4, 5, 6, 7, 8], c=4, s=3)
        H = encode(doc, enc)
        d, alpha = attend(H[:doc.n_real], rng.normal(size=(5, 8)))
        assert alpha.shape == (5, 6)  # one weight per real token only
        assert np.all(np.abs(alpha.sum(axis=1) - 1.0) < 1e-12)
        tampered = chunk([3, 4, 5, 6, 7, 8], c=4, s=3)
        assert tampered.chunks.shape == (2, 4)  # two padding slots, in the last chunk
        tampered.chunks.reshape(-1)[doc.n_real:] = rng.integers(2, 30, size=2)
        assert not np.array_equal(H[doc.n_real:], encode(tampered, enc)[doc.n_real:])
        assert (forward_probs(doc, enc, head).tobytes()
                == forward_probs(tampered, enc, head).tobytes())
        gold = np.array([1.0, 0, 0, 1, 0])
        g1 = forward_backward(doc, enc, head, gold, None, LossConfig())[1]
        g2 = forward_backward(tampered, enc, head, gold, None, LossConfig())[1]
        for name in g1:
            assert g1[name].tobytes() == g2[name].tobytes(), name

    def test_all_padding_rejected(self):
        with pytest.raises(DataError, match="no tokens"):
            chunk([], c=4, s=2)  # so no document reaches the head without a real row


class TestClassify:
    def test_sigmoid_zero(self):
        p = classify(np.zeros((1, 4)), np.ones((1, 4)), np.zeros(1))
        assert p[0] == pytest.approx(0.5, abs=1e-15)

    def test_bias_only(self):
        p = classify(np.zeros((1, 4)), np.zeros((1, 4)), np.array([0.2]))
        assert p[0] == pytest.approx(0.549834, abs=1e-6)

    def test_full_mask_zeroes_everything(self):
        rng = derive_rng(9)
        model = init_level_model(20, 4, 3, 4, 0, 0, rng)
        enc, head = model.enc, model.head
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
        p, cache = _head_fwd(rng.normal(size=(6, 5)) * 10, rng.normal(size=(30, 5)),
                             rng.normal(size=(30, 5)) * 10, rng.normal(size=30) * 10)
        assert cache["logits"].min() < -30 and cache["logits"].max() > 30
        assert np.all((p >= 0) & (p <= 1))


def two_pass_head(Hr, W_la_eff, W_cl, b_cl, dp):
    """The head as first written, for comparison: a softmax through fresh arrays,
    (dalpha * alpha).sum in its backward and a sigmoid split by sign.
    Returns p, dW_la, dW_cl, db_cl, dHr."""
    scores = W_la_eff @ Hr.T
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    d = alpha @ Hr
    logits = (d * W_cl).sum(axis=1) + b_cl
    p = np.empty_like(logits)
    pos = logits >= 0
    p[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    ex = np.exp(logits[~pos])
    p[~pos] = ex / (1.0 + ex)
    dlogits = dp * p * (1.0 - p)
    dd = dlogits[:, np.newaxis] * W_cl
    dalpha = dd @ Hr.T
    dscores = alpha * (dalpha - (dalpha * alpha).sum(axis=1, keepdims=True))
    dHr = alpha.T @ dd + dscores.T @ W_la_eff
    return p, dscores @ Hr, dlogits[:, np.newaxis] * d, dlogits, dHr


class TestHeadKernel:
    def test_matches_two_pass_head_and_leaves_inputs_alone(self):
        """Padding rows past n_real, a label mask and a correction layer; every output
        within 1e-12 of the two-pass formulas, relative to the output's largest entry.
        Also at the edges: one real token (each score is its column's max, e = 1) and
        one active label."""
        rng = derive_rng(21)
        n_labels, h, d_emb, z = 300, 16, 5, 70
        H = rng.normal(size=(z, h))
        head = init_level_model(1, 1, h, n_labels, 0, 0, rng).head
        head.W_la *= 40.0  # scores spread over tens, so the max shift matters
        head.W_cl *= 100.0  # logits of both signs, some far from 0
        head.b_cl[:] = rng.normal(size=n_labels)
        corr = CorrectionLayer(rng.normal(size=(d_emb, h)), rng.normal(size=h))
        E = rng.normal(size=(n_labels, d_emb))
        active = np.flatnonzero(rng.random(n_labels) < 0.6)
        dp_active = rng.normal(size=active.size)
        for n_real, labels in ((55, slice(None)), (1, slice(None)), (55, slice(0, 1))):
            rows, dp = active[labels], dp_active[labels]
            W_eff = head.W_la[rows] + E[rows] @ corr.W + corr.b
            W_cl, b_cl = head.W_cl[rows], head.b_cl[rows]
            before = [t.tobytes() for t in (H, W_eff, W_cl, b_cl)]

            p, hc = _head_fwd(H[:n_real], W_eff, W_cl, b_cl)
            got = (p,) + _head_bwd(dp, hc, W_eff, W_cl)
            assert [t.tobytes() for t in (H, W_eff, W_cl, b_cl)] == before
            if rows.size > 1:
                assert hc["logits"].min() < -5.0 and hc["logits"].max() > 5.0
            want = two_pass_head(H[:n_real], W_eff, W_cl, b_cl, dp)
            for name, a, b in zip(("p", "dW_la", "dW_cl", "db_cl", "dHr"), got, want):
                assert a.shape == b.shape, (n_real, rows.size, name)
                scale = np.max(np.abs(b))
                if scale == 0.0:
                    # A one-token softmax has no gradient. two_pass_head subtracts dalpha
                    # from itself and gets exact zeros; the kernel subtracts a row dot from
                    # a GEMM of the same numbers. Scale by the terms that cancel.
                    assert (name, n_real) == ("dW_la", 1)
                    dalpha = (got[3][:, np.newaxis] * W_cl) @ H[:n_real].T
                    scale = np.max(np.abs(dalpha) @ np.abs(H[:n_real]))
                assert np.max(np.abs(a - b)) <= 1e-12 * scale, (n_real, rows.size, name)

    def test_sigmoid_saturates_without_warnings(self):
        logits_d = np.ones((3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = classify(logits_d, np.array([[800.0], [-800.0], [0.0]]), np.zeros(3))
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert p[0] == 1.0 and p[1] == 0.0 and p[2] == 0.5

    def test_traced_peak_memory_per_document(self):
        """numpy reports its buffers to tracemalloc, so the peak is a deterministic
        count: one unmasked training document stays below three (A, r) float64
        arrays, and one evaluation document below one and a half."""
        n_labels, h, c, s = 2000, 16, 16, 8
        rng = derive_rng(22)
        model = init_level_model(40, c, h, n_labels, 1, 0, rng)
        enc, head = model.enc, model.head
        doc = make_doc(rng, 40, c, s, t=c * s - 5)
        gold = (rng.random(n_labels) < 0.01).astype(np.float64)
        grads = zero_grads(model)
        scores_bytes = n_labels * doc.n_real * 8
        peaks = []
        for call in (lambda: forward_backward(doc, enc, head, gold, None, LossConfig(),
                                              grads=grads),
                     lambda: forward_probs(doc, enc, head)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / scores_bytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 3.0 and peaks[1] < 1.5, peaks


class TestForwardBackward:
    def _setup(self, seed=0, n_labels=6, n_layers=1):
        rng = derive_rng(seed)
        model = init_level_model(25, 4, 8, n_labels, n_layers, 0, rng)
        enc, head = model.enc, model.head
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
        model = init_level_model(12, 5, 16, 2, 0, 0, rng)
        enc = model.enc
        ids = np.array([3, 7, 3, 3, 9, 7, 3, 11, 3, 7, 2, 3, 3, 9] + [3] * 20)
        doc = chunk(ids, 5, 7)
        H, cache = _encode_fwd(doc, enc, dropout=0.2, rng=derive_rng(10))
        dH = rng.normal(size=H.shape) * 10.0 ** rng.integers(-4, 5, size=H.shape)
        dH[doc.n_real:] = 0.0
        grads = zero_grads(model)
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

    def test_dropout_without_a_generator_is_rejected(self):
        """Dropout with no generator raises instead of training with every unit kept."""
        _, enc, head, doc = self._setup(seed=6)
        with pytest.raises(DataError, match="dropout 0.2 needs a generator"):
            forward_backward(doc, enc, head, np.zeros(6), None, LossConfig(), dropout=0.2)


class TestPaddedDocument:
    """forward_backward on padding as training meets it: c=4, s=3 and five tokens make a
    full chunk and a chunk with three padding slots; s only caps the chunk count."""

    TOKENS = [3, 9, 4, 17, 5]

    MASK = np.array([1, 1, 0, 1, 0, 1], dtype=np.uint8)

    def model_doc_gold(self, n_layers, with_corr):
        n_labels, d_emb = 6, 3
        rng = derive_rng(31, n_layers)
        model = init_level_model(18, 4, 4, n_labels, n_layers, 0, rng,
                                 d_emb if with_corr else None)
        if with_corr:
            model.corr_inputs = rng.normal(0.0, 0.1, size=(n_labels, d_emb))
        return model, chunk(self.TOKENS, c=4, s=3), np.array([1.0, 0, 0, 1, 0, 1])

    def check_finite_differences(self, n_layers, loss, with_corr, mask):
        """Masked rows and the PAD row get no gradient, and every trained coordinate
        passes check_gradients under the label mask and one dropout draw."""
        model, doc, gold = self.model_doc_gold(n_layers, with_corr)
        _, grads = forward_backward(doc, model.enc, model.head, gold, mask, loss,
                                    corr=model.corr, corr_inputs=model.corr_inputs,
                                    dropout=0.1, rng=derive_rng(32))
        if mask is not None:
            for name in ("W_la", "W_cl", "b_cl"):
                assert np.all(grads[name][mask == 0] == 0.0), name
        assert np.all(grads["emb"][PAD_ID] == 0.0)  # no padding row gets a gradient
        rep = check_gradients(model, doc, gold, loss, mask, dropout=0.1)
        assert rep.ok(), rep.to_text()

    @pytest.mark.parametrize("with_corr", [False, True], ids=["plain", "corr"])
    @pytest.mark.parametrize("loss", [LossConfig(), ASL], ids=["bce", "asl"])
    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    def test_finite_differences_with_a_padded_chunk(self, n_layers, loss, with_corr):
        self.check_finite_differences(n_layers, loss, with_corr, self.MASK)

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
    @pytest.mark.parametrize("with_corr", [False, True], ids=["plain", "corr"])
    @pytest.mark.parametrize("loss", [LossConfig(), ASL], ids=["bce", "asl"])
    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    def test_finite_differences_on_label_tiles(self, monkeypatch, n_layers, loss, with_corr,
                                               masked):
        """Tiles of 3 labels: the 4-label mask spans a full tile and a partial one, and
        all 6 labels make two tiles that run on the worker threads."""
        monkeypatch.setattr(network, "HEAD_TILE", 3)
        self.check_finite_differences(n_layers, loss, with_corr, self.MASK if masked else None)

    def test_gradcheck_numeric_side_runs_no_backward(self, monkeypatch):
        """check_gradients runs the head and encoder backward once, for its analytic side.
        Each finite-difference loss comes from forward_backward's forward half (_loss)
        alone, which at the unperturbed point gives forward_backward's loss bit for bit."""
        model, doc, gold = self.model_doc_gold(1, with_corr=True)
        calls = dict.fromkeys(("_head_bwd", "_encode_bwd", "_loss"), 0)
        for name in calls:
            def counted(*args, _fn=getattr(network, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(network, name, counted)
        assert check_gradients(model, doc, gold, ASL, self.MASK, dropout=0.1).ok()
        n_coords = sum(t.size for _, t in model.trainable())
        assert calls == {"_head_bwd": 1, "_encode_bwd": 1, "_loss": 1 + 2 * n_coords}
        train_loss, _ = forward_backward(doc, model.enc, model.head, gold, self.MASK, ASL,
                                         model.corr, model.corr_inputs, 0.1,
                                         derive_rng("gradcheck", "dropout"))
        numeric_loss = network._loss(doc, model, gold, self.MASK, ASL, 0.1,
                                     derive_rng("gradcheck", "dropout"))[0]
        assert np.float64(numeric_loss).tobytes() == np.float64(train_loss).tobytes()

    @pytest.mark.parametrize("tile", [3, network.HEAD_TILE], ids=["tile3", "tile-default"])
    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
    @pytest.mark.parametrize("with_corr", [False, True], ids=["plain", "corr"])
    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    def test_eval_and_training_passes_give_the_same_loss(self, monkeypatch, n_layers,
                                                         with_corr, masked, tile):
        """The loss of forward_probs' active probabilities equals forward_backward's, bit
        for bit: the evaluation and the training forward pass compute the same thing."""
        monkeypatch.setattr(network, "HEAD_TILE", tile)
        model, doc, gold = self.model_doc_gold(n_layers, with_corr)
        mask = self.MASK if masked else None
        active = slice(None) if mask is None else mask == 1
        probs = forward_probs(doc, model.enc, model.head, mask, corr=model.corr,
                              corr_inputs=model.corr_inputs)
        for loss in (LossConfig(), ASL):
            train_loss, _ = forward_backward(doc, model.enc, model.head, gold, mask, loss,
                                             corr=model.corr, corr_inputs=model.corr_inputs)
            assert loss_and_grad(probs[active], gold[active], loss)[0] == train_loss

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    def test_s_past_the_real_chunks_builds_the_same_document(self, n_layers):
        """s bounds the chunk count but adds no chunk: the five tokens make the same two
        chunks at s=2 and s=3, and the same probabilities, bit for bit."""
        model = init_level_model(20, 4, 8, 6, n_layers, 0, derive_rng(33, n_layers))
        enc, head = model.enc, model.head
        roomy, snug = chunk(self.TOKENS, c=4, s=3), chunk(self.TOKENS, c=4, s=2)
        assert roomy.n_real == snug.n_real == 5
        assert np.array_equal(roomy.chunks, snug.chunks) and snug.chunks.shape == (2, 4)
        assert (forward_probs(roomy, enc, head).tobytes()
                == forward_probs(snug, enc, head).tobytes())


class TestLabelTiles:
    """A level's active labels run in HEAD_TILE tiles on a pool of worker threads; the
    tiling, and so every output byte, does not depend on the number of workers."""

    def run(self, model, doc, gold, mask):
        kw = dict(corr=model.corr, corr_inputs=model.corr_inputs)
        grads = zero_grads(model)
        loss, _ = forward_backward(doc, model.enc, model.head, gold, mask, ASL, dropout=0.1,
                                   rng=derive_rng(42), grads=grads, **kw)
        return loss, forward_probs(doc, model.enc, model.head, mask, **kw), grads

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_bytes_do_not_depend_on_the_worker_count(self, monkeypatch, masked):
        n_labels = 2 * network.HEAD_TILE + network.HEAD_TILE // 2  # 3 tiles, the last partial
        rng = derive_rng(41)
        model = init_level_model(30, 4, 8, n_labels, 1, 0, rng, 5)
        model.corr_inputs = rng.normal(0.0, 0.1, size=(n_labels, 5))
        doc = chunk(rng.integers(2, 30, size=10), c=4, s=3)
        gold = (rng.random(n_labels) < 0.05).astype(np.float64)
        mask = (rng.random(n_labels) < 0.95).astype(np.uint8) if masked else None
        threads = []
        head_fwd = network._head_fwd

        def recorded(*args):
            threads.append(threading.get_ident())
            return head_fwd(*args)

        monkeypatch.setattr(network, "_head_fwd", recorded)
        runs = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers' Python code finely
        try:
            for workers in (1, 2, 3):
                with ThreadPoolExecutor(workers) as pool:
                    monkeypatch.setattr(network, "_tile_pool", pool)
                    threads.clear()
                    runs.append(self.run(model, doc, gold, mask))
                assert len(threads) == 6  # three tiles, twice
                assert threading.get_ident() not in threads
                assert len(set(threads)) <= workers
        finally:
            sys.setswitchinterval(switch)
        first = runs[0]
        for loss, p, grads in runs[1:]:
            assert loss == first[0]
            assert p.tobytes() == first[1].tobytes()
            for name, g in grads.items():
                assert g.tobytes() == first[2][name].tobytes(), name

        monkeypatch.setattr(network, "HEAD_TILE", n_labels)  # one tile, on this thread
        threads.clear()
        loss, p, grads = self.run(model, doc, gold, mask)
        assert set(threads) == {threading.get_ident()}
        assert loss == first[0]
        assert p.tobytes() == first[1].tobytes()
        for name, g in grads.items():
            if name in ("W_la", "W_cl", "b_cl"):  # each row is one tile's own
                assert g.tobytes() == first[2][name].tobytes(), name
            else:  # the tiles' partial sums of dH and corr.* add in another order
                assert np.max(np.abs(g - first[2][name])) <= 1e-12 * np.max(np.abs(g)), name

    def test_worker_errors_reach_the_caller_unchanged(self, monkeypatch):
        """A tile's exception reaches the caller as raised, once every other tile of the
        document has finished writing its gradient rows."""
        monkeypatch.setattr(network, "HEAD_TILE", 2)
        model = init_level_model(20, 4, 8, 6, 0, 0, derive_rng(43))
        failure = RuntimeError("first tile")
        head_bwd = network._head_bwd

        def failing(dp, hc, W_la_eff, W_cl):
            if W_cl[0, 0] == model.head.W_cl[0, 0]:
                raise failure
            time.sleep(0.2)  # the other two tiles end well after the first one failed
            return head_bwd(dp, hc, W_la_eff, W_cl)

        monkeypatch.setattr(network, "_head_bwd", failing)
        grads = zero_grads(model)
        with pytest.raises(RuntimeError) as exc:
            forward_backward(chunk([3, 4, 5], 4, 2), model.enc, model.head, np.ones(6), None,
                             LossConfig(), grads=grads)
        assert exc.value is failure
        assert np.all(grads["W_cl"][2:] != 0.0) and np.all(grads["W_cl"][:2] == 0.0)


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
        n_labels, d_emb = network.GRADCHECK_LABELS, 5
        rng = derive_rng(4, "gradcheck")
        model = init_level_model(network.GRADCHECK_VOCAB, network.GRADCHECK_C,
                                 network.GRADCHECK_HIDDEN, n_labels, 1, 0, rng, d_emb)
        model.corr_inputs = rng.normal(0.0, 0.1, size=(n_labels, d_emb))
        c, s = network.GRADCHECK_C, network.GRADCHECK_S
        doc = make_doc(rng, network.GRADCHECK_VOCAB, c, s, t=c * s - 3)  # gradcheck's document
        gold = (rng.random(n_labels) < 0.3).astype(np.float64)
        rep = check_gradients(model, doc, gold, LossConfig())
        assert rep.max_rel_err < 1e-4
        assert "corr.W" in rep.per_tensor and "corr.b" in rep.per_tensor


def parent_draws(vocab_size, c, h, n_labels, n_layers, rng, d_emb=None):
    """The tensors as separate encoder, head and gradcheck-correction initializers drew
    them, in their order: what init_level_model must reproduce bit for bit."""
    out = {"emb": rng.normal(0.0, INIT_STD, size=(vocab_size, h)),
           "pos": rng.normal(0.0, INIT_STD, size=(c, h))}
    for i in range(n_layers):
        for name, shape in (("q", (h, h)), ("k", (h, h)), ("v", (h, h)), ("o", (h, h)),
                            ("ff1", (h, 4 * h)), ("ff2", (4 * h, h))):
            out[f"blk{i}.{name}"] = rng.normal(0.0, INIT_STD, size=shape)
        out.update({f"blk{i}.ln1_g": np.ones(h), f"blk{i}.ln1_b": np.zeros(h),
                    f"blk{i}.ln2_g": np.ones(h), f"blk{i}.ln2_b": np.zeros(h)})
    out["W_la"] = rng.normal(0.0, INIT_STD, size=(n_labels, h))
    out["W_cl"] = rng.normal(0.0, INIT_STD, size=(n_labels, h))
    out["b_cl"] = np.zeros(n_labels)
    if d_emb is not None:
        out["corr.W"] = rng.normal(0.0, INIT_STD, size=(d_emb, h))
        out["corr.b"] = rng.normal(0.0, INIT_STD, size=h)
    return out


class TestLevelModel:
    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    @pytest.mark.parametrize("with_corr", [False, True])
    def test_init_draws_as_the_separate_initializers_did(self, n_layers, with_corr):
        """Every trained tensor and the generator's state after the draws match, so a
        caller's later draws (gradcheck's document and gold) are unchanged too."""
        d_emb = 5 if with_corr else None
        rng, ref_rng = derive_rng(3, n_layers), derive_rng(3, n_layers)
        model = init_level_model(50, 8, 8, 20, n_layers, 2, rng, d_emb)
        want = parent_draws(50, 8, 8, 20, n_layers, ref_rng, d_emb)
        assert [name for name, _ in model.trainable()] == list(want)
        for name, t in model.trainable():
            assert t.shape == want[name].shape and t.tobytes() == want[name].tobytes(), name
        assert rng.random() == ref_rng.random()
        assert model.level == 2 and model.provenance == "random"
        assert model.corr_inputs is None

    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    @pytest.mark.parametrize("with_corr", [False, True])
    def test_layout_and_inverse_follow_the_table(self, n_layers, with_corr):
        d_emb = 5 if with_corr else None
        model = init_level_model(11, 3, 4, 7, n_layers, 2, derive_rng(8, n_layers), d_emb)
        if d_emb is not None:
            model.corr_inputs = derive_rng(9).normal(size=(7, d_emb))
        table = list(model.tensors())
        assert [(name, t.shape) for name, t in table] == list(
            level_layout(11, 3, 4, 7, n_layers, d_emb))
        assert list(zero_grads(model)) == [name for name, _ in model.trainable()]
        assert [name for name, _ in table][-1] == ("b_cl" if d_emb is None else "corr.E")
        rebuilt = LevelModel.from_tensors(dict(table), n_layers, 2, "random")
        assert [(name, id(t)) for name, t in rebuilt.tensors()] == [
            (name, id(t)) for name, t in table]
