"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

The end-to-end criteria run README's workflow through `xrlat`: `data synth` on the
demo 3/9/27/81 tree (2000 train / 400 test documents, trigger probability 0.9,
document length 128), then `train` with the shipped configs/accept_*.cfg recipes
and `eval`.
"""

import hashlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from xrlat.cli import main as cli_main
from xrlat.code_tree import LabelMatrix, propagate_labels
from xrlat.hyperbolic import edge_set, poincare_distance, train_poincare
from xrlat.losses import LossConfig, loss_and_grad
from xrlat.metrics import (
    PredictionSet,
    macro_f1,
    macro_micro_auc,
    micro_f1,
    precision_at_k,
)
from xrlat.network import GRADCHECK_ASL, CorrectionLayer, gradcheck, init_level_model
from xrlat.textproc import build_vocab, synth_corpus
from xrlat.training import (
    TrainConfig,
    bootstrap_equal,
    bootstrap_hyperc,
    inference_mask,
    prepare_dataset,
    train_flat,
    train_xr_lat,
    training_mask,
)
from xrlat.util import derive_rng

from conftest import REPO_ROOT, bce_reference, random_tree


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} [{desc}]: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


# ---------------------------------------------------------------------------
# 1. gradient correctness


@pytest.mark.parametrize("n_layers", [0, 1, 2])
@pytest.mark.parametrize("loss_kind", ["bce", "asl"])
def test_criterion_1_gradient_correctness(n_layers, loss_kind):
    loss = LossConfig() if loss_kind == "bce" else GRADCHECK_ASL
    started = time.time()
    rep = gradcheck(n_layers=n_layers, loss=loss, seed=2022)
    elapsed = time.time() - started
    report(
        1,
        f"gradients n_layers={n_layers} loss={loss_kind}",
        rep.max_rel_err < 1e-4 and elapsed < 60.0,
        f"max_rel={rep.max_rel_err:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. oracle equivalence


def test_criterion_2_oracle_equivalence():
    started = time.time()
    rng = derive_rng(2022, "oracles")

    for trial in range(100):
        tree = random_tree(rng)
        T = tree.indexing_matrix(int(rng.integers(2, 5)))
        p = rng.random(T.n_cols)
        y = (rng.random(T.n_cols) < 0.3).astype(float)
        pos = {j for j in range(T.n_cols) if p[j] + y[j] >= 0.5}
        want_train = [1 if int(T.parent_index[c]) in pos else 0 for c in range(T.rows)]
        assert training_mask(p, np.flatnonzero(y), T, 0.5).tolist() == want_train
        pos_inf = {j for j in range(T.n_cols) if p[j] >= 0.5}
        want_inf = [1 if int(T.parent_index[c]) in pos_inf else 0 for c in range(T.rows)]
        assert inference_mask(p, T, 0.5).tolist() == want_inf

    for trial in range(100):
        tree = random_tree(rng, max_per_level=(4, 10, 50, 500))
        T = tree.indexing_matrix(4)
        n = int(rng.integers(1, 100))
        dense = (rng.random((n, T.rows)) < 0.08).astype(np.uint8)
        labels = LabelMatrix(T.rows, [np.flatnonzero(r) for r in dense])
        got = propagate_labels(labels, T).to_dense()
        want = np.zeros((n, T.n_cols), dtype=np.uint8)
        for parent in range(T.n_cols):
            kids = np.flatnonzero(T.parent_index == parent)
            if kids.size:
                want[:, parent] = dense[:, kids].max(axis=1)
        assert np.array_equal(got, want)

    for trial in range(100):
        n = int(rng.integers(2, 50))
        l = int(rng.integers(2, 30))
        scores = np.round(rng.random((n, l)), 2)
        gold = (rng.random((n, l)) < 0.3).astype(np.uint8)
        pred = PredictionSet(scores, gold, 0.5)
        yhat = scores >= 0.5
        tp = int((yhat & (gold == 1)).sum())
        fp = int((yhat & (gold == 0)).sum())
        fn = int((~yhat & (gold == 1)).sum())
        want_micro = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        assert micro_f1(pred)[0] == want_micro
        per_code = []
        for j in range(l):
            tpj = int((yhat[:, j] & (gold[:, j] == 1)).sum())
            fpj = int((yhat[:, j] & (gold[:, j] == 0)).sum())
            fnj = int((~yhat[:, j] & (gold[:, j] == 1)).sum())
            per_code.append(2 * tpj / (2 * tpj + fpj + fnj) if 2 * tpj + fpj + fnj else 0.0)
        assert macro_f1(pred) == np.mean(per_code)
        k = int(rng.integers(1, l + 1))
        hit_counts = [
            int(sum(int(gold[i, j]) for j in sorted(range(l), key=lambda j: (-scores[i, j], j))[:k]))
            for i in range(n)
        ]
        assert precision_at_k(pred, k) == sum(hit_counts) / (n * k)

    def pairwise_auc(s, y):
        pos = s[y == 1]
        neg = s[y == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        return wins / (len(pos) * len(neg))

    for trial in range(100):
        n = int(rng.integers(4, 40))
        l = int(rng.integers(2, 10))
        scores = np.round(rng.random((n, l)), 1)
        gold = (rng.random((n, l)) < 0.4).astype(np.uint8)
        gold[0, :], gold[1, :] = 1, 0  # every code evaluable
        macro, micro, skipped = macro_micro_auc(PredictionSet(scores, gold))
        assert skipped == 0
        want_macro = np.mean([pairwise_auc(scores[:, j], gold[:, j]) for j in range(l)])
        want_micro = pairwise_auc(scores.ravel(), gold.ravel())
        assert abs(macro - want_macro) <= 1e-9
        assert abs(micro - want_micro) <= 1e-9

    elapsed = time.time() - started
    report(2, "mask/propagation/metric oracle equivalence x100", elapsed < 120.0,
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. bootstrap algebra


def test_criterion_3_bootstrap_algebra():
    rng = derive_rng(2022, "bootstrap")
    ok = True
    for trial in range(20):
        tree = random_tree(rng)
        level = int(rng.integers(2, 5))
        T = tree.indexing_matrix(level)
        init_rng = np.random.default_rng(int(rng.integers(1 << 31)))
        parent = init_level_model(30, 4, 8, T.n_cols, 1, level - 1, init_rng)
        child = bootstrap_equal(parent, T)
        for a in range(T.rows):
            for b in range(a + 1, T.rows):
                if T.parent_index[a] == T.parent_index[b]:
                    ok &= child.head.W_la[a].tobytes() == child.head.W_la[b].tobytes()
                    ok &= child.head.W_cl[a].tobytes() == child.head.W_cl[b].tobytes()
                    ok &= child.head.b_cl[a].tobytes() == child.head.b_cl[b].tobytes()
        E = init_rng.normal(size=(T.rows, 6))
        zero_f = bootstrap_hyperc(parent, T, E)
        ok &= zero_f.effective_w_la().tobytes() == child.head.W_la.tobytes()
        ok &= zero_f.head.W_cl.tobytes() == child.head.W_cl.tobytes()
        ok &= zero_f.head.b_cl.tobytes() == child.head.b_cl.tobytes()
        f = CorrectionLayer(init_rng.normal(size=(6, 8)), init_rng.normal(size=8))
        nz = bootstrap_hyperc(parent, T, E, f)
        want = parent.head.W_la[T.parent_index] + E @ f.W + f.b
        ok &= bool(np.max(np.abs(nz.effective_w_la() - want)) <= 1e-12)
    report(3, "bootstrap algebra (sibling rows, zero-f bitwise, f additivity)", ok)


# ---------------------------------------------------------------------------
# 4. ablation degeneracy


def test_criterion_4_ablation_degeneracy(demo_tree):
    docs, _ = synth_corpus(demo_tree, 64, codes_per_doc_mean=2.0, doc_len=32, seed=41)
    vocab = build_vocab((d.text for d in docs), 1)
    cfg = TrainConfig(
        max_steps=220, learning_rate=1e-3, batch_size=8, c=8, s=4, hidden_size=8,
        n_layers=1, bootstrap="none", negative_sampling=False, seed=2022,
        log_interval=1000,
    )
    data = prepare_dataset(docs, vocab, demo_tree, cfg.c, cfg.s)
    flat, flat_hist = train_flat(data, demo_tree, cfg)
    chain, chain_hists = train_xr_lat(data, demo_tree, cfg)
    same = flat_hist == chain_hists[3] and len(flat_hist) >= 200
    tensors = [(name, t.tobytes()) for name, t in flat.tensors()]
    same_tensors = tensors == [(name, t.tobytes()) for name, t in chain[3].tensors()]
    report(4, "bootstrap=none + sampling=off level-4 trajectory and tensors equal flat",
           same and same_tensors,
           f"{len(flat_hist)} steps, exact float equality; {len(tensors)} tensors bitwise")


# ---------------------------------------------------------------------------
# 5. Poincare suite


def test_criterion_5_poincare(demo_tree):
    d = poincare_distance((0.5, 0.0), (0.0, 0.0))
    ln3_ok = abs(d - np.log(3.0)) <= 1e-9

    emb = train_poincare(demo_tree, dim=10, epochs=200, lr=0.1, n_negatives=10, seed=2022)
    norms_ok = len(emb.epoch_max_norms) == 200 and all(
        m <= 1.0 - 1e-5 for m in emb.epoch_max_norms
    )

    edges = edge_set(demo_tree)
    edge_mean = np.mean([poincare_distance(emb.vectors[p], emb.vectors[c]) for p, c in edges])
    adj = {(min(p, c), max(p, c)) for p, c in edges}
    rng = derive_rng(2022, "nonedges")
    n = len(emb.names)
    non = []
    while len(non) < 1000:
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i != j and (min(i, j), max(i, j)) not in adj:
            non.append(poincare_distance(emb.vectors[i], emb.vectors[j]))
    sep_ok = edge_mean < np.mean(non)
    report(
        5,
        "poincare ball invariant, edge separation, ln3 distance",
        ln3_ok and norms_ok and sep_ok,
        f"edge {edge_mean:.3f} < non-edge {np.mean(non):.3f}, max norm {max(emb.epoch_max_norms):.6f}",
    )


# ---------------------------------------------------------------------------
# 6. synthetic end-to-end learnability


@pytest.fixture(scope="module")
def e2e_data(tmp_path_factory, demo_tree_path):
    """README's `xrlat data synth` commands: 2000 train and 400 test documents."""
    root = tmp_path_factory.mktemp("e2e")
    splits = []
    for split, n_docs, seed in (("train", 2000, 7), ("test", 400, 8)):
        splits.append(str(root / f"{split}.tsv"))
        assert cli_main(["data", "synth", "--tree", demo_tree_path, "--out", splits[-1],
                         "--n-docs", str(n_docs), "--seed", str(seed)]) == 0
    return root, *splits


def _train_and_eval(e2e_data, demo_tree_path, command, recipe):
    """`xrlat train <command> --config configs/<recipe>.cfg` on the train split, then
    `xrlat eval` on the test split; returns (metrics.txt as {name: value}, train seconds)."""
    root, train, test = e2e_data
    out = str(root / recipe)
    started = time.time()
    assert cli_main(["train", command, "--config", os.path.join(REPO_ROOT, "configs", recipe),
                     "--set", f"tree={demo_tree_path}", "--set", f"dataset={train}",
                     "--set", f"out_dir={out}"]) == 0
    elapsed = time.time() - started
    flat = os.path.join(out, "flat.ckpt")
    model = ["--ckpt", flat] if command == "plm-icd" else ["--chain", out]
    assert cli_main(["eval", *model, "--tree", demo_tree_path, "--dataset", test,
                     "--vocab", os.path.join(out, "vocab.txt"), "--out", out]) == 0
    lines = Path(out, "metrics.txt").read_text().splitlines()
    return {name: float(value) for name, value in (line.split("\t") for line in lines)}, elapsed


@pytest.fixture(scope="module")
def e2e_flat(e2e_data, demo_tree_path):
    return _train_and_eval(e2e_data, demo_tree_path, "plm-icd", "accept_flat.cfg")


@pytest.mark.slow
def test_criterion_6a_flat_learnability(e2e_flat):
    rep, elapsed = e2e_flat
    report(
        "6a",
        "flat micro-F1 >= 0.90 within 20 epochs, < 15 min",
        rep["micro_f1"] >= 0.90 and elapsed < 900.0,
        f"micro_f1={rep['micro_f1']:.4f}, {elapsed:.0f}s train",
    )


@pytest.mark.slow
def test_criterion_6b_xr_lat_within_5_points(e2e_data, demo_tree_path, e2e_flat):
    flat_rep, _ = e2e_flat
    rep, _ = _train_and_eval(e2e_data, demo_tree_path, "xr-lat", "accept_xrlat.cfg")
    report(
        "6b",
        "full XR-LAT micro-F1 within 5 points of flat",
        rep["micro_f1"] >= flat_rep["micro_f1"] - 0.05,
        f"xr-lat {rep['micro_f1']:.4f} vs flat {flat_rep['micro_f1']:.4f}",
    )


@pytest.mark.slow
def test_criterion_6c_bootstrap_lifts_macro_auc(e2e_data, demo_tree_path, e2e_flat):
    flat_rep, _ = e2e_flat
    rep, _ = _train_and_eval(e2e_data, demo_tree_path, "xr-lat", "accept_bootstrap_equal.cfg")
    report(
        "6c",
        "bootstrap-equal (sampling off) macro-AUC >= flat - 0.02",
        rep["macro_auc"] >= flat_rep["macro_auc"] - 0.02,
        f"bootstrap {rep['macro_auc']:.4f} vs flat {flat_rep['macro_auc']:.4f}",
    )


# ---------------------------------------------------------------------------
# 7. determinism through the CLI


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_criterion_7_determinism(tmp_path, demo_tree_path):
    ds = str(tmp_path / "ds.tsv")
    assert cli_main(["data", "synth", "--tree", demo_tree_path, "--out", ds,
                     "--n-docs", "48", "--doc-len", "24", "--seed", "3"]) == 0
    hashes = {"flat.ckpt": [], "level4.ckpt": [], "metrics.txt": []}
    for run in ("r1", "r2"):
        out = str(tmp_path / run)
        cfg = str(tmp_path / f"{run}.cfg")
        with open(cfg, "w") as fh:
            fh.write(
                f"tree = {demo_tree_path}\ndataset = {ds}\nout_dir = {out}\n"
                "max_steps = 10\nc = 6\ns = 4\nhidden_size = 8\nn_layers = 1\n"
                "learning_rate = 1e-3\nseed = 2022\nlog_interval = 5\n"
            )
        assert cli_main(["train", "plm-icd", "--config", cfg]) == 0
        assert cli_main(["train", "xr-lat", "--config", cfg, "--set", "max_steps=6"]) == 0
        ev = os.path.join(out, "eval")
        assert cli_main(["eval", "--ckpt", os.path.join(out, "flat.ckpt"),
                         "--tree", demo_tree_path, "--dataset", ds,
                         "--vocab", os.path.join(out, "vocab.txt"), "--out", ev]) == 0
        hashes["flat.ckpt"].append(_sha(os.path.join(out, "flat.ckpt")))
        hashes["level4.ckpt"].append(_sha(os.path.join(out, "level4.ckpt")))
        hashes["metrics.txt"].append(_sha(os.path.join(ev, "metrics.txt")))
    ok = all(h[0] == h[1] for h in hashes.values())
    report(7, "train/eval reruns are byte-identical", ok)


# ---------------------------------------------------------------------------
# 8. ASL/BCE degeneracy


def test_criterion_8_asl_bce_degeneracy():
    rng = derive_rng(2022, "asl-degeneracy")
    asl0 = LossConfig(gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        p = rng.uniform(1e-6, 1 - 1e-6, size=n)
        y = (rng.random(n) < 0.4).astype(float)
        mask = (rng.random(n) < 0.7).astype(np.uint8)
        if not mask.any():
            mask[int(rng.integers(n))] = 1
        m = mask.astype(bool)
        terms, da = loss_and_grad(p[m], y[m], asl0, int(m.sum()))
        a = -np.mean(terms)
        b, db = bce_reference(p[m], y[m])
        worst = max(worst, abs(a - b), float(np.max(np.abs(da - db))))
    report(8, "ASL(0,0,0) equals the BCE formula over 1000 random triples", worst < 1e-12,
           f"max |ASL-BCE| over loss and dp = {worst:.2e}")
