"""One benchmark run: generate inputs, then set-up/train/eval cycles.

Imported by run.py only after the BLAS and XRLAT thread counts are pinned.
The timed calls are the library calls ``xrlat train`` and ``xrlat eval``
make; input generation stays outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import xrlat
from xrlat import checkpoint, code_tree, hyperbolic, metrics, network, textproc, training

from tracing import SpanIndex, Tracer, patched
from workloads import DEMO_FANOUTS, ICD_SIZES, THREAD_VARS, WORKLOADS, Workload

EMBED_EPOCHS = 1
EMBED_DIM = 50
MICRO_REPEATS = 9
LEVELS = (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# inputs and set-up


@dataclass
class Inputs:
    tree: str
    train: str
    test: str


def make_inputs(w: Workload, seed: int, tmp: str) -> Inputs:
    """Tree file and train/test corpora for the workload, all from ``seed``."""
    if w.tree == "demo":
        lines = code_tree.uniform_hierarchy_lines(DEMO_FANOUTS)
    else:
        lines = code_tree.sized_hierarchy_lines(ICD_SIZES)
    paths = Inputs(*(os.path.join(tmp, f) for f in ("tree.txt", "train.tsv", "test.tsv")))
    with open(paths.tree, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    tree = code_tree.parse_hierarchy(lines)
    for path, n_docs, corpus_seed in ((paths.train, w.n_train, 2 * seed),
                                      (paths.test, w.n_test, 2 * seed + 1)):
        docs, _ = textproc.synth_corpus(tree, n_docs, seed=corpus_seed)
        textproc.write_dataset(path, docs, tree)
    return paths


def set_up(paths: Inputs, cfg: training.TrainConfig):
    """What ``xrlat train`` does before training: tree, datasets, vocabulary, chunks."""
    tree = code_tree.build_tree(paths.tree)
    raw_train = textproc.read_dataset(paths.train, tree)
    raw_test = textproc.read_dataset(paths.test, tree)
    vocab = textproc.build_vocab((textproc.clean_text(d.text) for d in raw_train),
                                 cfg.min_frequency)
    train = training.prepare_dataset(raw_train, vocab, tree, cfg.c, cfg.s)
    test = training.prepare_dataset(raw_test, vocab, tree, cfg.c, cfg.s)
    return tree, train, test


# ---------------------------------------------------------------------------
# tracing targets: public functions at the names their callers look them up by


def _count_tokens(tracer, args, ids):
    tracer.add("tokens", int(np.asarray(ids).size))


def _count_mask(prefix):
    def observe(tracer, args, mask):
        size = int(mask.size)
        tracer.add(f"{prefix}.active.{size}", int(mask.sum()))
        tracer.add(f"{prefix}.total.{size}", size)
    return observe


TRACE_TARGETS = (
    (code_tree, "build_tree", "code_tree.parse", None),
    (training, "propagate_labels", "code_tree.propagate", None),
    (textproc, "read_dataset", "textproc.read", None),
    (textproc, "build_vocab", "textproc.vocab", None),
    (training, "tokenize", "textproc.tokenize", _count_tokens),
    (training, "chunk", "textproc.chunk", None),
    (hyperbolic, "train_poincare", "hyperbolic.train", None),
    (training, "forward_backward", "network.forward_backward", None),
    (training, "forward_probs", "network.forward_probs", None),
    (network, "loss_and_grad", "losses.loss_and_grad", None),
    (training, "clip_gradients", "training.clip", None),
    (training.AdamW, "step", "training.adamw", None),
    (training, "bootstrap_equal", "training.bootstrap", None),
    (training, "bootstrap_hyperc", "training.bootstrap", None),
    (training, "training_mask", "training.training_mask", _count_mask("train")),
    (training, "inference_mask", "training.inference_mask", _count_mask("cascade")),
    (checkpoint, "save_model", "checkpoint.save", None),
    (checkpoint, "load_model", "checkpoint.load", None),
    (metrics, "macro_micro_auc", "metrics.auc", None),
    (metrics, "micro_f1", "metrics.f1", None),
    (metrics, "macro_f1", "metrics.f1", None),
    (metrics, "precision_at_k", "metrics.pk", None),
)


def _unwrapped() -> bool:
    return not any(hasattr(getattr(owner, attr), "__wrapped__")
                   for owner, attr, _, _ in TRACE_TARGETS)


def _phase(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def _wrapped(tracer):
    return nullcontext() if tracer is None else patched(tracer, TRACE_TARGETS)


# ---------------------------------------------------------------------------
# reference speed
#
# The reference box is a 2-vCPU VM shared with other tenants. Its CPU speed
# switches between levels up to 1.7x apart, and a level often outlasts a run,
# so raw wall times spread 10-27% from run to run. Each timed phase is
# therefore bracketed by a fixed kernel that shares no code with xrlat (a
# Python loop, a float64 GEMM the size of the 8929-label head and small
# elementwise numpy ops), and its wall time is rescaled by REFERENCE_S over the
# kernel's mean time around it. A change to xrlat moves the phase, never the
# kernel. Raw wall times are kept in the run record.

REFERENCE_S = 0.018  # the kernel's typical time on the reference box
_REF_A = np.random.default_rng(0).standard_normal((8929, 64))
_REF_B = np.random.default_rng(1).standard_normal((64, 128))
_REF_OUT = np.empty((8929, 128))
_REF_S = np.random.default_rng(2).standard_normal((128, 64))


def reference_s() -> float:
    """Geometric mean of the three parts of the reference kernel, in seconds."""
    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i
    t1 = time.perf_counter()
    for _ in range(3):
        np.matmul(_REF_A, _REF_B, out=_REF_OUT)
    t2 = time.perf_counter()
    for _ in range(200):
        np.tanh(_REF_S) * 0.5 + _REF_S.sum(axis=1, keepdims=True)
    t3 = time.perf_counter()
    return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1.0 / 3.0)


def scaled(wall_s: float, ref_before: float, ref_after: float) -> float:
    """A phase's wall time at the reference box's typical speed."""
    return wall_s * REFERENCE_S / (0.5 * (ref_before + ref_after))


# ---------------------------------------------------------------------------
# one train/eval cycle


@dataclass
class Cycle:
    traced: bool
    train_s: float  # scaled to the reference speed
    eval_s: float
    train_wall_s: float
    eval_wall_s: float
    docs_trained: int
    docs_evaluated: int
    shas: dict
    macro_auc: float
    scores: np.ndarray
    models: list  # trained in memory, level order
    loaded: list  # read back from the checkpoints by the eval
    histories: list
    level1_max_p: float = 0.0  # chain only, set by check_cycle

    def release(self) -> None:
        """Drop the models and scores once checked, so they do not add to peak RSS."""
        self.models = self.loaded = self.histories = self.scores = None


def run_cycle(w, cfg, tree, train, test, gold, emb, out_dir, ref0, tracer=None) -> Cycle:
    t0 = time.perf_counter()
    with _phase(tracer, "train"):
        if w.chain:
            models, histories = training.train_xr_lat(train, tree, cfg, out_dir=out_dir,
                                                      embeddings=emb)
        else:
            model, history = training.train_flat(train, tree, cfg, out_dir=out_dir)
            models, histories = [model], [history]
    t1 = time.perf_counter()
    ref1 = reference_s()
    t1r = time.perf_counter()
    with _phase(tracer, "eval"):
        names = [f"level{k}.ckpt" for k in LEVELS] if w.chain else ["flat.ckpt"]
        loaded = [checkpoint.load_model(os.path.join(out_dir, n))[0] for n in names]
        scores = training.predict_dataset(loaded if w.chain else loaded[0], test, tree, cfg)
        report = metrics.compute_metrics(scores, gold, cfg.decision_threshold)
    t2 = time.perf_counter()
    ref2 = reference_s()
    shas = {}
    for n in names:
        with open(os.path.join(out_dir, n), "rb") as fh:
            shas[n] = hashlib.sha256(fh.read()).hexdigest()
    levels = len(LEVELS) if w.chain else 1
    return Cycle(tracer is not None, scaled(t1 - t0, ref0, ref1), scaled(t2 - t1r, ref1, ref2),
                 t1 - t0, t2 - t1r, cfg.batch_size * cfg.max_steps * levels,
                 len(test.docs), shas, report.macro_auc, scores, models, loaded, histories)


# ---------------------------------------------------------------------------
# correctness checks


def _cascade_check(models, test, tree, cfg, scores):
    """Recompute levels 1-3 of the cascade; every scored code's ancestors must pass.

    Returns (violations, highest level-1 probability over the test docs).
    """
    thr = cfg.binary_threshold
    parent_of = {k: tree.indexing_matrix(k).parent_index for k in (2, 3, 4)}
    violations = 0
    max_p1 = 0.0
    for i, doc in enumerate(test.docs):
        probs = {}
        mask = None
        for k in (1, 2, 3):
            m = models[k - 1]
            probs[k] = network.forward_probs(doc, m.enc, m.head, mask,
                                             corr=m.corr, corr_inputs=m.corr_inputs)
            mask = training.inference_mask(probs[k], tree.indexing_matrix(k + 1), thr)
        max_p1 = max(max_p1, float(probs[1].max()))
        for j in np.flatnonzero(scores[i]):
            node = int(j)
            for k in (4, 3, 2):
                node = int(parent_of[k][node])
                if probs[k - 1][node] < thr:
                    violations += 1
                    break
    return violations, max_p1


def _logged_losses(out_dir):
    losses = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("train_") and name.endswith(".log"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                losses += [float(line.split("\t")[2]) for line in fh if line.strip()]
    return losses


def check_cycle(w, cfg, tree, test, c: Cycle, first: Cycle, out_dir):
    """Named pass/fail checks on one cycle's outputs; returns [(name, ok)]."""
    n_codes = tree.nodes_per_level[-1]
    logged = _logged_losses(out_dir)
    checks = [
        ("probabilities finite and in [0, 1]",
         c.scores.shape == (len(test.docs), n_codes) and bool(np.all(np.isfinite(c.scores)))
         and float(c.scores.min()) >= 0.0 and float(c.scores.max()) <= 1.0),
        ("training losses finite",
         all(np.isfinite(loss) for h in c.histories for _, _, loss in h)
         and len(logged) > 0 and all(np.isfinite(loss) for loss in logged)),
        ("checkpoints load back equal to the trained tensors",
         len(c.loaded) == len(c.models) and all(
             [n for n, _ in a.tensors()] == [n for n, _ in b.tensors()]
             and all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.tensors(), b.tensors()))
             for a, b in zip(c.models, c.loaded))),
        ("checkpoint SHA-256 equals the first cycle's", c.shas == first.shas),
        ("macro AUC equals the first cycle's", c.macro_auc == first.macro_auc),
    ]
    if w.chain:
        violations, c.level1_max_p = _cascade_check(c.loaded, test, tree, cfg, c.scores)
        checks.append(("cascade: scored codes have passing ancestors", violations == 0))
    return checks


# ---------------------------------------------------------------------------
# per-layer metrics from the trace


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _frac(counts, root, prefix, size):
    total = counts.get((root, f"{prefix}.total.{size}"), 0.0)
    return counts.get((root, f"{prefix}.active.{size}"), 0.0) / total if total else 0.0


def _level_step_ms(idx: SpanIndex, root: int, steps: int):
    """Per-level step time: gaps between checkpoint saves, minus masks and bootstrap."""
    not_steps = ("network.forward_probs", "training.training_mask",
                 "code_tree.propagate", "training.bootstrap")
    other = [s for n in not_steps for s in idx.descendants(root, n)]
    out = []
    begin = idx.spans[root][2]
    for save in idx.descendants(root, "checkpoint.save"):
        start, end = idx.spans[save][2], idx.spans[save][3]
        busy = sum(idx.duration(s) for s in other if begin <= idx.spans[s][2] < start)
        out.append(1000.0 * (start - begin - busy) / steps)
        begin = end
    return out


def layer_metrics(w, cfg, tree, tracer: Tracer) -> dict:
    idx = SpanIndex(tracer.spans)
    counts = tracer.counts
    sizes = tree.nodes_per_level
    out = {}

    setups = idx.roots("setup")
    for key, name in (("code_tree.parse_s", "code_tree.parse"), ("textproc.read_s", "textproc.read"),
                      ("textproc.vocab_s", "textproc.vocab"),
                      ("textproc.tokenize_s", "textproc.tokenize"),
                      ("textproc.chunk_s", "textproc.chunk")):
        out[key] = _median([idx.total(s, name) for s in setups])
    out["textproc.tokens"] = _median([counts.get((s, "tokens"), 0.0) for s in setups])

    trains = idx.roots("train")
    per_train = []
    for t in trains:
        wall = idx.duration(t)
        fb = idx.total(t, "network.forward_backward")
        level_ms = _level_step_ms(idx, t, cfg.max_steps)
        row = {
            "code_tree.propagate_s": idx.total(t, "code_tree.propagate"),
            "network.forward_backward.calls": idx.count(t, "network.forward_backward"),
            "network.forward_backward.s": fb,
            "network.forward_backward.self_s": idx.self_total(t, "network.forward_backward"),
            "network.forward_backward.train_share": fb / wall,
            "network.forward_probs.mask_s": idx.total(t, "network.forward_probs"),
            "losses.loss_and_grad.calls": idx.count(t, "losses.loss_and_grad"),
            "losses.loss_and_grad.s": idx.total(t, "losses.loss_and_grad"),
            "training.adamw_s": idx.total(t, "training.adamw"),
            "training.clip_s": idx.total(t, "training.clip"),
            "training.loop_self_s": idx.self_time(t),
            "training.mask_s": (idx.total(t, "network.forward_probs")
                                + idx.total(t, "training.training_mask")),
            "training.step_ms": sum(level_ms) / len(level_ms),
            "checkpoint.save_s": idx.total(t, "checkpoint.save"),
        }
        for k in LEVELS:
            row[f"training.step_ms.l{k}"] = level_ms[k - 1] if w.chain else 0.0
        for k in (2, 3, 4):
            row[f"training.active_label_frac.l{k}"] = _frac(counts, t, "train", sizes[k - 1])
        per_train.append(row)

    evals = idx.roots("eval")
    per_eval = []
    for e in evals:
        row = {
            "network.forward_probs.eval_s": idx.total(e, "network.forward_probs"),
            "checkpoint.load_s": idx.total(e, "checkpoint.load"),
            "metrics.auc_s": idx.total(e, "metrics.auc"),
            "metrics.f1_s": idx.total(e, "metrics.f1"),
            "metrics.pk_s": idx.total(e, "metrics.pk"),
        }
        for k in (2, 3, 4):
            row[f"training.cascade_active_frac.l{k}"] = _frac(counts, e, "cascade", sizes[k - 1])
        per_eval.append(row)

    for rows in (per_train, per_eval):
        for key in rows[0]:
            out[key] = _median([r[key] for r in rows])
    return out


def micro_metrics(cfg, model, doc, gold_row) -> dict:
    """One-document public calls: full label set vs a one-label mask.

    The one-label mask reduces the head to almost nothing, so the difference
    between the two is the head's time; its FLOP count is the six (A x h x r)
    products of the label-attention head, 12*A*r*h.
    """
    n_labels = model.n_labels
    one = np.zeros(n_labels, dtype=np.uint8)
    one[int(np.flatnonzero(gold_row)[0])] = 1
    loss_cfg = cfg.loss_config()
    rng = np.random.default_rng(0)

    def median_ms(call):
        times = []
        for _ in range(MICRO_REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(1000.0 * (time.perf_counter() - t0))
        return float(statistics.median(times))

    kw = dict(corr=model.corr, corr_inputs=model.corr_inputs)
    fb = median_ms(lambda: network.forward_backward(doc, model.enc, model.head, gold_row, None,
                                                  loss_cfg, dropout=cfg.dropout, rng=rng, **kw))
    fb1 = median_ms(lambda: network.forward_backward(doc, model.enc, model.head, gold_row, one,
                                                   loss_cfg, dropout=cfg.dropout, rng=rng, **kw))
    fw = median_ms(lambda: network.forward_probs(doc, model.enc, model.head, None, **kw))
    fw1 = median_ms(lambda: network.forward_probs(doc, model.enc, model.head, one, **kw))
    flop = 12.0 * n_labels * doc.n_real * cfg.hidden_size
    head_ms = fb - fb1
    return {
        "network.fwd_bwd_ms": fb,
        "network.fwd_bwd_1label_ms": fb1,
        "network.fwd_ms": fw,
        "network.fwd_1label_ms": fw1,
        "network.head_share": head_ms / fb,
        "network.head_flop": flop,
        "network.head_gflops": flop / (head_ms / 1000.0) / 1e9 if head_ms > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# environment record


def environment(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.dirname(xrlat.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------
# the run


def _timed(setup_times, cycles) -> dict:
    """Median set-up time and median cycle throughputs of one run."""
    return {
        "setup_s": _median(setup_times),
        "train_docs_per_s": _median([c.docs_trained / c.train_s for c in cycles]),
        "eval_docs_per_s": _median([c.docs_evaluated / c.eval_s for c in cycles]),
    }


def run(workload: str, seed: int, seconds: int, trace: bool, root: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    w = WORKLOADS[workload]
    cfg = training.TrainConfig(**w.train_config(seed))
    env = environment(root)
    work = os.path.join(root, ".perfbench")
    tmp = os.path.join(work, f"tmp-{workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        paths = make_inputs(w, seed, tmp)

        # One set-up before every cycle, so that set-up samples the whole run like
        # the cycles do. In a traced run, untraced and traced cycles alternate.
        setup_times = {False: [], True: []}  # scaled to the reference speed
        setup_wall = []
        embed_s = 0.0
        cycles, checks = [], []
        out_dir = os.path.join(tmp, "out")
        os.makedirs(out_dir, exist_ok=True)
        deadline = time.perf_counter() + seconds
        emb = None
        while True:
            if cycles:
                cycles[-1].release()
            traced = trace and len(cycles) % 2 == 1
            cycle_tracer = tracer if traced else None
            ref0 = reference_s()
            t0 = time.perf_counter()
            with _wrapped(cycle_tracer), _phase(cycle_tracer, "setup"):
                tree, train, test = set_up(paths, cfg)
            setup_wall.append(time.perf_counter() - t0)
            ref1 = reference_s()
            setup_times[traced].append(scaled(setup_wall[-1], ref0, ref1))
            if w.chain and not cycles:  # the chain's bootstrap=hyperc needs the embeddings
                t0 = time.perf_counter()
                with _wrapped(tracer), _phase(tracer, "embed"):
                    emb = hyperbolic.train_poincare(tree, dim=EMBED_DIM, epochs=EMBED_EPOCHS,
                                                    seed=seed)
                embed_s = time.perf_counter() - t0
            gold = test.labels.to_dense()
            t0 = time.perf_counter()
            with _wrapped(cycle_tracer):
                c = run_cycle(w, cfg, tree, train, test, gold, emb, out_dir, ref1, cycle_tracer)
            took = time.perf_counter() - t0
            cycles.append(c)
            checks += check_cycle(w, cfg, tree, test, c, cycles[0], out_dir)
            if len(cycles) >= (2 if trace else 1) and time.perf_counter() + took > deadline:
                break
        checks.append(("trace wrappers removed", _unwrapped()))

        untraced = [c for c in cycles if not c.traced]
        last = cycles[-1]
        values = {
            **_timed(setup_times[False], untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "eval_macro_auc": cycles[0].macro_auc,
        }
        failed = sum(1 for _, ok in checks if not ok)
        layer = {"ops_failed_frac": failed / len(checks)}
        layer["training.cascade_alive_frac"] = (
            float(np.mean(np.any(last.scores > 0, axis=1))) if w.chain else 0.0)
        layer["training.cascade_level1_max_p"] = last.level1_max_p
        layer["hyperbolic.train_s"] = embed_s
        layer["hyperbolic.edges_per_s"] = (
            hyperbolic.edge_set(tree).shape[0] * EMBED_EPOCHS / embed_s if embed_s else 0.0)
        layer["checkpoint.bytes"] = float(sum(
            os.path.getsize(os.path.join(out_dir, n)) for n in last.shas))
        if trace:
            traced_cycles = [c for c in cycles if c.traced]
            layer.update(layer_metrics(w, cfg, tree, tracer))
            layer.update(micro_metrics(cfg, last.models[-1], test.docs[0], gold[0]))
            # every flat training document runs the full head; chain levels run it masked
            layer["network.head_train_share"] = 0.0 if w.chain else (
                layer["network.head_share"] * layer["network.forward_backward.train_share"])
            # the first cycle also pays for warming up, so it is left out when it can be
            baseline = _timed(setup_times[False][1:] or setup_times[False],
                              untraced[1:] or untraced)
            for key, val in _timed(setup_times[True], traced_cycles).items():
                layer[f"trace.overhead.{key}"] = val - baseline[key]

        section = "per_layer" if trace else "end_to_end"
        source = layer if trace else values
        missing = [m["name"] for m in spec[section] if m["name"] not in source]
        if missing:
            raise KeyError(f"no value for {section} metrics {missing}")
        result = {
            "correct": failed == 0,
            "attempted": len(checks),
            "failed": failed,
            "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                        for m in spec[section]},
        }

        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": env,
            "cycles": [{"traced": c.traced, "train_s": c.train_s, "eval_s": c.eval_s,
                        "train_wall_s": c.train_wall_s, "eval_wall_s": c.eval_wall_s,
                        "docs_trained": c.docs_trained, "docs_evaluated": c.docs_evaluated,
                        "macro_auc": c.macro_auc, "checkpoint_sha256": c.shas}
                       for c in cycles],
            "setup_s": setup_times, "setup_wall_s": setup_wall,
            "checks": [{"name": n, "ok": ok} for n, ok in checks],
            "end_to_end": values, "per_layer": layer,
        }
        runs = os.path.join(work, "runs")
        os.makedirs(runs, exist_ok=True)
        stem = os.path.join(runs, f"{workload}-seed{seed}-trace{int(trace)}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
        if trace:
            tracer.write(stem + "-spans.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    _print_report(workload, env, cycles, checks, values, layer, last.shas, spec)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


def _print_report(workload, env, cycles, checks, values, layer, shas, spec):
    units = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer")
             for m in spec[section]}
    print(f"# workload {workload}: {len(cycles)} cycles "
          f"({sum(c.traced for c in cycles)} traced)")
    factor = _median([c.train_s / c.train_wall_s for c in cycles])
    print(f"# times scaled to the reference speed: median factor {factor:.4f} "
          f"(wall time x factor; raw wall times are in the run record)")
    for key, val in env.items():
        print(f"# env {key}: {val}")
    for name, sha in shas.items():
        print(f"# sha256 {name}: {sha}")
    for name, ok in checks:
        if not ok:
            print(f"# CHECK FAILED: {name}")
    print(f"# checks: {len(checks)} attempted, "
          f"{sum(1 for _, ok in checks if not ok)} failed")
    for name, val in list(values.items()) + sorted(layer.items()):
        print(f"{name}\t{val:.6g}\t{units.get(name, '')}")
