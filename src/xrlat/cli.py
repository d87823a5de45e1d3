"""Command-line surface: tree, embed, data, train, eval, gradcheck.

Exit codes: 0 success, 1 user/config error, 2 internal or numeric error.
All commands are re-runnable: identical inputs and seeds produce byte-identical
artifacts, and outputs land only under the declared output path.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import checkpoint, code_tree, hyperbolic, metrics, textproc, training
from .config import resolve_config
from .losses import LossConfig
from .network import gradcheck
from .util import ConfigError, DataError, NumericsError, ParseError, atomic_write_text, text_lines


class _Parser(argparse.ArgumentParser):
    # user errors (bad flags) must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="xrlat", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="parse a hierarchy file; write artifact or stats")
    tree_sub = tree.add_subparsers(dest="tree_command", required=True)
    for name in ("build", "stats"):
        tp = tree_sub.add_parser(name)
        tp.add_argument("--tree", required=True, help="hierarchy file")
        tp.add_argument("--out", default=None, help="output directory")

    emb = sub.add_parser("embed", help="train Poincare embeddings of the tree nodes")
    emb.add_argument("--tree", required=True)
    emb.add_argument("--out", required=True, help="output directory")
    emb.add_argument("--dim", type=int, default=50)
    emb.add_argument("--epochs", type=int, default=50)
    emb.add_argument("--lr", type=float, default=0.1)
    emb.add_argument("--negatives", type=int, default=10)
    emb.add_argument("--seed", type=int, default=2022)

    data = sub.add_parser("data", help="generate synthetic corpora or clean raw text")
    data_sub = data.add_subparsers(dest="data_command", required=True)
    synth = data_sub.add_parser("synth")
    synth.add_argument("--tree", required=True)
    synth.add_argument("--out", required=True, help="output dataset file")
    synth.add_argument("--n-docs", type=int, required=True)
    synth.add_argument("--codes-per-doc-mean", type=float, default=3.0)
    synth.add_argument("--trigger-prob", type=float, default=0.9)
    synth.add_argument("--filler-vocab", type=int, default=200)
    synth.add_argument("--doc-len", type=int, default=128)
    synth.add_argument("--seed", type=int, default=2022)
    clean = data_sub.add_parser("clean")
    clean.add_argument("--input", required=True, help="UTF-8 text, one document per line")
    clean.add_argument("--output", required=True)

    train = sub.add_parser("train", help="train the flat model or the four-level chain")
    train_sub = train.add_subparsers(dest="train_command", required=True)
    for name in ("plm-icd", "xr-lat"):
        tp = train_sub.add_parser(name)
        tp.add_argument("--config", required=True, help="key=value config file")
        tp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key")
        tp.add_argument("--seed", type=int, default=None, help="override the config seed")

    ev = sub.add_parser("eval", help="score a dataset and write the metrics report")
    src = ev.add_mutually_exclusive_group(required=True)
    src.add_argument("--ckpt", help="flat model checkpoint")
    src.add_argument("--chain", help="directory holding level1..level4.ckpt")
    src.add_argument("--scores", help="precomputed scores file")
    ev.add_argument("--tree", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--vocab", default=None, help="vocabulary file (required with a model)")
    ev.add_argument("--out", default=None, help="output directory")
    ev.add_argument("--topk", type=int, default=0, help="also write a per-document top-k listing")
    ev.add_argument("--threshold", type=float, default=0.5, help="decision threshold for F1")

    gc = sub.add_parser("gradcheck", help="compare analytic gradients to finite differences")
    gc.add_argument("--layers", type=int, default=1, choices=(0, 1, 2))
    gc.add_argument("--loss", choices=("bce", "asl"), default="bce")
    gc.add_argument("--seed", type=int, default=2022)
    return p


# ---------------------------------------------------------------------------
# command handlers


def _cmd_tree(args) -> int:
    tree = code_tree.build_tree(args.tree)
    stats = code_tree.tree_stats(tree)
    if args.tree_command == "build" and not args.out:
        raise ConfigError("tree build requires --out")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        if args.tree_command == "build":
            atomic_write_text(os.path.join(args.out, "tree.txt"),
                              "\n".join(code_tree.hierarchy_lines(tree)) + "\n")
        atomic_write_text(os.path.join(args.out, "stats.txt"), stats)
    sys.stdout.write(stats)
    return 0


def _cmd_embed(args) -> int:
    tree = code_tree.build_tree(args.tree)
    emb = hyperbolic.train_poincare(
        tree, dim=args.dim, epochs=args.epochs, lr=args.lr,
        n_negatives=args.negatives, seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "embeddings.ckpt")
    checkpoint.save_embeddings(path, emb, {
        "seed": args.seed, "epochs": args.epochs, "lr": repr(args.lr),
        "negatives": args.negatives,
    })
    sizes = "/".join(str(n) for n in tree.nodes_per_level)
    print(f"wrote {path}: levels {sizes}, dim {emb.dim}")
    return 0


def _cmd_data(args) -> int:
    if args.data_command == "synth":
        tree = code_tree.build_tree(args.tree)
        docs, _ = textproc.synth_corpus(
            tree, args.n_docs, codes_per_doc_mean=args.codes_per_doc_mean,
            trigger_prob=args.trigger_prob, filler_vocab=args.filler_vocab,
            doc_len=args.doc_len, seed=args.seed,
        )
        textproc.write_dataset(args.out, docs, tree)
        print(f"wrote {args.out}: {len(docs)} documents")
        return 0
    cleaned = [textproc.clean_text(line) for _, line in text_lines(args.input)]
    atomic_write_text(args.output, "\n".join(cleaned) + ("\n" if cleaned else ""))
    print(f"wrote {args.output}: {len(cleaned)} lines")
    return 0


def _load_or_build_vocab(run, tree, raw_docs):
    if run.vocab and os.path.exists(run.vocab):
        return textproc.Vocabulary.load(run.vocab)
    vocab = textproc.build_vocab(
        (textproc.clean_text(d.text) for d in raw_docs), run.train.min_frequency
    )
    path = run.vocab or os.path.join(run.out_dir, "vocab.txt")
    vocab.save(path)
    return vocab


def _cmd_train(args) -> int:
    overrides = [("--set", pair) for pair in args.set]
    if args.seed is not None:
        overrides.append(("--seed", f"seed={args.seed}"))
    run = resolve_config(args.config, overrides)
    for key in ("tree", "dataset", "out_dir"):
        if not getattr(run, key):
            raise ConfigError(f"config key {key!r} is required for training")
    run.echo()

    tree = code_tree.build_tree(run.tree)
    raw_docs = textproc.read_dataset(run.dataset, tree)
    vocab = _load_or_build_vocab(run, tree, raw_docs)
    data = training.prepare_dataset(raw_docs, vocab, tree, run.train.c, run.train.s)

    started = time.time()
    if args.train_command == "plm-icd":
        _, history = training.train_flat(data, tree, run.train, out_dir=run.out_dir)
        ckpts = ["flat.ckpt"]
    else:
        embeddings = None
        if run.train.bootstrap == "hyperc":
            if not run.embeddings:
                raise ConfigError("bootstrap=hyperc requires the 'embeddings' config key")
            _, embeddings = checkpoint.load_embeddings(run.embeddings, tree)
        _, histories = training.train_xr_lat(data, tree, run.train, out_dir=run.out_dir,
                                             embeddings=embeddings)
        history = histories[-1]
        ckpts = [f"level{k}.ckpt" for k in range(1, 5)]
    elapsed = time.time() - started
    final_loss = history[-1][2] if history else float("nan")
    print(f"trained {len(data.docs)} docs, {run.train.max_steps} steps/level "
          f"in {elapsed:.1f}s (wall); final loss {final_loss:.6f}")
    print(f"checkpoints: {', '.join(os.path.join(run.out_dir, c) for c in ckpts)}")
    return 0


def _read_scores(path: str, doc_ids, n_labels: int) -> np.ndarray:
    by_id = {}
    for lineno, line in text_lines(path, skip_comments=True):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'doc_id<TAB>scores'")
        if parts[0] in by_id:
            raise ParseError(f"{path}:{lineno}: duplicate doc_id {parts[0]!r}")
        try:
            values = np.array([float(x) for x in parts[1].split()], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if values.size != n_labels:
            raise DataError(f"{path}:{lineno}: expected {n_labels} scores, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise ParseError(f"{path}:{lineno}: scores must be finite numbers")
        by_id[parts[0]] = values
    missing = [d for d in doc_ids if d not in by_id]
    if missing:
        raise DataError(f"{path}: no scores for documents {missing[:3]}...")
    return np.stack([by_id[d] for d in doc_ids])


def _load_models_for_eval(args, tree):
    """Returns (models, cfg, vocab_size): a LevelModel or a 4-chain, the TrainConfig of
    its chunking and chain settings, and the vocabulary size it was trained with."""
    paths = ([args.ckpt] if args.ckpt else
             [os.path.join(args.chain, f"level{k}.ckpt") for k in range(1, 5)])
    models, settings = [], None
    for k, path in zip(range(5 - len(paths), 5), paths):
        model, level_settings = checkpoint.load_model(path)
        if model.level != k:
            raise ConfigError(f"{path}: expected level {k}, found {model.level}")
        if model.n_labels != tree.nodes_per_level[k - 1]:
            raise ConfigError(
                f"{path}: {model.n_labels} labels but tree level {k} has "
                f"{tree.nodes_per_level[k - 1]}"
            )
        try:
            cfg = training.TrainConfig(**{key: level_settings[key] for key in (
                "c", "s", "n_layers", "negative_sampling", "binary_threshold")})
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        settings = settings or level_settings
        for key in ("vocab_size", "c", "s", "negative_sampling", "binary_threshold"):
            if level_settings[key] != settings[key]:
                raise ConfigError(
                    f"{path}: {key} is {level_settings[key]} but {paths[0]} has {settings[key]}"
                )
        models.append(model)
    return (models[0] if args.ckpt else models), cfg, settings["vocab_size"]


def _cmd_eval(args) -> int:
    if not 0.0 < args.threshold < 1.0:
        raise ConfigError(f"--threshold must be in (0, 1), got {args.threshold}")
    if args.topk < 0:
        raise ConfigError(f"--topk must be >= 0, got {args.topk}")
    tree = code_tree.build_tree(args.tree)
    raw_docs = textproc.read_dataset(args.dataset, tree)
    n_labels = tree.nodes_per_level[-1]
    doc_ids = [d.doc_id for d in raw_docs]
    gold = code_tree.LabelMatrix(n_labels, [d.codes for d in raw_docs]).to_dense()
    metrics.check_defined(gold, args.tree, args.dataset)  # before any score is read

    if args.scores:
        scores = _read_scores(args.scores, doc_ids, n_labels)
    else:
        models, cfg, vocab_size = _load_models_for_eval(args, tree)
        if not args.vocab:
            raise ConfigError("--vocab is required when evaluating a model")
        vocab = textproc.Vocabulary.load(args.vocab)
        if vocab.size != vocab_size:
            raise ConfigError(f"{args.vocab}: {vocab.size} ids, but {args.ckpt or args.chain} "
                              f"was trained with a vocabulary of {vocab_size}")
        data = training.prepare_dataset(raw_docs, vocab, tree, cfg.c, cfg.s)
        scores = training.predict_dataset(models, data, tree, cfg)

    report = metrics.compute_metrics(scores, gold, decision_threshold=args.threshold)
    text = report.to_text()
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        atomic_write_text(os.path.join(args.out, "metrics.txt"), text)
        if args.topk > 0:
            leaf_names = tree.level(4).names
            top = metrics.top_codes(scores, args.topk)
            lines = [
                doc_id + "\t" + ";".join(f"{leaf_names[j]}:{scores[i, j]:.4f}" for j in top[i])
                for i, doc_id in enumerate(doc_ids)
            ]
            atomic_write_text(os.path.join(args.out, "topk.txt"), "\n".join(lines) + "\n")
    return 0


def _cmd_gradcheck(args) -> int:
    loss = LossConfig() if args.loss == "bce" else LossConfig(
        kind="asl", gamma_pos=1.0, gamma_neg=2.0, margin=0.0
    )
    report = gradcheck(n_layers=args.layers, loss=loss, seed=args.seed)
    sys.stdout.write(report.to_text())
    return 0 if report.ok() else 1


_COMMANDS = {"tree": _cmd_tree, "embed": _cmd_embed, "data": _cmd_data, "train": _cmd_train,
             "eval": _cmd_eval, "gradcheck": _cmd_gradcheck}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ParseError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
