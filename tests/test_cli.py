import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlat import training
from xrlat.checkpoint import MODEL_KEYS, read_container, write_container
from xrlat.cli import main
from xrlat.code_tree import sized_hierarchy_lines
from xrlat.config import resolve_config
from xrlat.hyperbolic import MAX_DIM, MAX_NEGATIVES
from xrlat.network import HEAD_TILE
from xrlat.training import TrainConfig
from xrlat.util import ConfigError

from conftest import MALFORMED_CONTAINERS, container_bytes, corrupt_head_dW_cl


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_config(path, **kv):
    with open(path, "w") as fh:
        for k, v in kv.items():
            fh.write(f"{k} = {v}\n")
    return str(path)


@pytest.fixture()
def small_dataset(tmp_path, demo_tree_path):
    out = str(tmp_path / "train.tsv")
    rc = main(["data", "synth", "--tree", demo_tree_path, "--out", out,
               "--n-docs", "40", "--doc-len", "24", "--seed", "3"])
    assert rc == 0
    return out


def base_config(tmp_path, demo_tree_path, dataset, **extra):
    kv = dict(
        tree=demo_tree_path, dataset=dataset, out_dir=str(tmp_path / "run"),
        max_steps=12, batch_size=8, learning_rate="1e-3", c=6, s=4,
        hidden_size=8, n_layers=1, log_interval=6, seed=11,
    )
    kv.update(extra)
    return write_config(tmp_path / "run.cfg", **kv)


class TestTreeCommand:
    def test_stats_demo(self, capsys, demo_tree_path):
        assert main(["tree", "stats", "--tree", demo_tree_path]) == 0
        out = capsys.readouterr().out
        assert "level 1 (chapter): 3 nodes" in out
        assert "level 4 (code): 81 nodes" in out

    def test_build_writes_artifacts(self, tmp_path, demo_tree_path):
        out = str(tmp_path / "tree")
        assert main(["tree", "build", "--tree", demo_tree_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "tree.txt"))
        assert "fanout" in Path(os.path.join(out, "stats.txt")).read_text()

    def test_empty_hierarchy_exit_1_naming_file(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("# only a comment\n")
        assert main(["tree", "stats", "--tree", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: hierarchy is empty (no data lines)\n"

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["tree", "stats", "--tree", str(tmp_path / "nope.txt")]) == 1

    @pytest.mark.parametrize("command", [["tree", "build"], ["data", "synth", "--n-docs", "5"]])
    def test_leaf_with_a_dataset_separator_exit_1(self, tmp_path, capsys, command):
        """A leaf named 'd;1' would be written to a dataset as two codes, so the tree is
        refused before anything is written."""
        path = tmp_path / "t.txt"
        path.write_text("a/b/c/d0\na/b/c/d;1\n")
        out = tmp_path / "out"
        assert main(command + ["--tree", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: leaf code 'd;1' contains")
        assert not out.exists()

    def test_help_exit_0(self):
        with pytest.raises(SystemExit) as exc:
            main(["tree", "--help"])
        assert exc.value.code == 0


class TestDataCommand:
    def test_synth_deterministic(self, tmp_path, demo_tree_path):
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        for out in (a, b):
            assert main(["data", "synth", "--tree", demo_tree_path, "--out", out,
                         "--n-docs", "50", "--seed", "7"]) == 0
        assert sha(a) == sha(b)

    def test_synth_zero_docs(self, tmp_path, demo_tree_path):
        out = str(tmp_path / "none.tsv")
        assert main(["data", "synth", "--tree", demo_tree_path, "--out", out,
                     "--n-docs", "0"]) == 0
        assert Path(out).read_text().startswith("#")

    @pytest.mark.parametrize("flag,value", [("--n-docs", "-3"),
                                            ("--codes-per-doc-mean", "-1"),
                                            ("--codes-per-doc-mean", "1e19"),
                                            ("--doc-len", "0"),
                                            ("--doc-len", "262145"),
                                            ("--doc-len", "1000000000000"),
                                            ("--filler-vocab", "0"),
                                            ("--filler-vocab", "9223372036854775808"),
                                            ("--filler-vocab", "1000000000000000000000")])
    def test_synth_bad_count_exit_1(self, tmp_path, demo_tree_path, capsys, flag, value):
        out = str(tmp_path / "bad.tsv")
        args = ["data", "synth", "--tree", demo_tree_path, "--out", out, "--n-docs", "5"]
        assert main(args + [flag, value]) == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_clean_removes_surrogates(self, tmp_path):
        src = tmp_path / "raw.txt"
        src.write_text("seen on [**2151-7-16**] at [**Hospital 1807**]\nab==cd\n")
        dst = str(tmp_path / "clean.txt")
        assert main(["data", "clean", "--input", str(src), "--output", dst]) == 0
        assert Path(dst).read_text() == "seen on at\nab cd\n"


def _insert_line(data: bytes, lineno: int, line: bytes) -> bytes:
    """``data`` with ``line`` inserted so that it becomes line ``lineno``."""
    lines = data.split(b"\n")
    return b"\n".join(lines[: lineno - 1] + [line] + lines[lineno - 1 :])


class TestTextInputs:
    @pytest.mark.parametrize("target,line", [
        ("tree", b"c0/c0b0/c0b0g0/caf\xe9"),
        ("dataset", b"doc\xff\tc0b0g0x0\tfiller text"),
        ("config", b"seed = 1  # caf\xe9"),
        ("vocab", b"caf\xe9\t4"),
        ("vocab", b"tok\tabc"),
        ("scores", b"syn00000\t0.5 \x80"),
        ("clean", b"caf\xe9 au lait"),
        ("tree", b"A/B/C"),
        ("config", b"bogus"),
    ], ids=["tree", "dataset", "config", "vocab", "vocab-id", "scores", "clean",
            "tree-components", "config-syntax"])
    def test_bad_line_exit_1_naming_file_and_line(self, tmp_path, demo_tree_path, small_dataset,
                                                  capsys, target, line):
        """A line that is not UTF-8 in any text input, or a malformed tree, config or
        vocabulary line, exits 1 naming <path>:<line>, not 2 from a traceback."""
        vocab, scores, raw = (tmp_path / name for name in ("vocab.txt", "scores.tsv", "raw.txt"))
        vocab.write_text("# xrlat-vocab v1 min_frequency=1\nw1\t2\nw2\t3\n")
        scores.write_text("# xrlat-scores v1\n")
        raw.write_text("first document\nsecond document\n")
        files = {"tree": demo_tree_path, "dataset": small_dataset, "vocab": str(vocab),
                 "scores": str(scores), "clean": str(raw)}
        files["config"] = base_config(tmp_path, demo_tree_path, small_dataset, vocab=vocab)
        bad = str(tmp_path / f"bad-{target}")
        with open(files[target], "rb") as fh:
            data = fh.read()
        with open(bad, "wb") as fh:
            fh.write(_insert_line(data, 2, line))
        files[target] = bad
        if target == "scores":
            argv = ["eval", "--scores", bad, "--tree", demo_tree_path, "--dataset", small_dataset]
        elif target == "clean":
            argv = ["data", "clean", "--input", bad, "--output", str(tmp_path / "clean.txt")]
        else:
            cfg = bad if target == "config" else base_config(
                tmp_path, files["tree"], files["dataset"], vocab=files["vocab"])
            argv = ["train", "plm-icd", "--config", cfg]
        assert main(argv) == 1
        assert f"error: {bad}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ["bogus_key=1", "foo", ""],
                             ids=["unknown-key", "bare", "empty"])
    def test_bad_set_exit_1_naming_set(self, tmp_path, demo_tree_path, small_dataset, capsys,
                                       pair):
        cfg = base_config(tmp_path, demo_tree_path, small_dataset)
        assert main(["train", "plm-icd", "--config", cfg, "--set", "max_steps=1",
                     "--set", pair]) == 1
        assert "error: --set: " in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "run" / "config.txt"))


class TestEmbedCommand:
    def test_dim_flag_defaults_to_50(self):
        from xrlat.cli import _build_parser

        args = _build_parser().parse_args(["embed", "--tree", "t", "--out", "o"])
        assert args.dim == 50

    def test_rerun_identical_hash(self, tmp_path, demo_tree_path):
        outs = []
        for name in ("e1", "e2"):
            out = str(tmp_path / name)
            assert main(["embed", "--tree", demo_tree_path, "--out", out,
                         "--dim", "6", "--epochs", "2", "--seed", "5"]) == 0
            outs.append(os.path.join(out, "embeddings.ckpt"))
        assert sha(outs[0]) == sha(outs[1])

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.1"])
    def test_bad_lr_exit_1_before_training(self, tmp_path, demo_tree_path, capsys, lr):
        out = str(tmp_path / "e")
        assert main(["embed", "--tree", demo_tree_path, "--out", out, "--dim", "5",
                     "--epochs", "1", "--lr", lr]) == 1
        assert "error: lr must be finite and > 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_overflowing_lr_exit_2_writes_nothing(self, tmp_path, demo_tree_path, capsys):
        """--lr 1e300 overflows the first step: a numeric error naming the epoch and edge,
        not all-zero embeddings."""
        out = str(tmp_path / "e")
        assert main(["embed", "--tree", demo_tree_path, "--out", out, "--lr", "1e300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric error: epoch 1, edge ") and " -> " in err
        assert not os.path.exists(out)

    def test_negative_negatives_exit_1(self, tmp_path, demo_tree_path, capsys):
        out = str(tmp_path / "e")
        assert main(["embed", "--tree", demo_tree_path, "--out", out, "--dim", "4",
                     "--epochs", "1", "--negatives", "-1"]) == 1
        assert "n_negatives" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag, message", [
        ("--negatives", f"n_negatives must be in [1, {MAX_NEGATIVES}], got 1000000000000"),
        ("--dim", f"embedding dim must be in [2, {MAX_DIM}], got 1000000000000"),
    ])
    def test_huge_size_exit_1_before_allocating(self, tmp_path, demo_tree_path, capsys,
                                                flag, message):
        """A size past its cap is a user error, not a MemoryError from the allocation."""
        out = str(tmp_path / "e")
        assert main(["embed", "--tree", demo_tree_path, "--out", out, "--epochs", "0",
                     flag, "1000000000000"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out)

    def test_epochs_zero_init_only(self, tmp_path, demo_tree_path):
        out = str(tmp_path / "e0")
        assert main(["embed", "--tree", demo_tree_path, "--out", out,
                     "--dim", "50", "--epochs", "0"]) == 0
        from xrlat.checkpoint import load_embeddings

        from xrlat.code_tree import build_tree

        meta, emb = load_embeddings(os.path.join(out, "embeddings.ckpt"),
                                    build_tree(demo_tree_path))
        assert emb.level(4).shape == (81, 50)
        assert np.linalg.norm(emb.level(4), axis=1).max() <= 1e-3


class TestTrainCommand:
    def test_plm_icd_writes_artifacts(self, tmp_path, demo_tree_path, small_dataset):
        cfg = base_config(tmp_path, demo_tree_path, small_dataset)
        assert main(["train", "plm-icd", "--config", cfg]) == 0
        run = str(tmp_path / "run")
        for name in ("config.txt", "flat.ckpt", "train_flat.log", "vocab.txt"):
            assert os.path.exists(os.path.join(run, name)), name
        log_lines = Path(os.path.join(run, "train_flat.log")).read_text().strip().split("\n")
        step, lr, loss = log_lines[0].split("\t")
        assert step.isdigit() and float(lr) > 0 and float(loss) > 0

    def test_xr_lat_writes_four_checkpoints(self, tmp_path, demo_tree_path, small_dataset):
        cfg = base_config(tmp_path, demo_tree_path, small_dataset, max_steps=6)
        assert main(["train", "xr-lat", "--config", cfg]) == 0
        run = str(tmp_path / "run")
        for k in range(1, 5):
            assert os.path.exists(os.path.join(run, f"level{k}.ckpt"))
            assert os.path.exists(os.path.join(run, f"train_level{k}.log"))

    def test_unknown_config_key_exit_1_before_compute(self, tmp_path, demo_tree_path,
                                                      small_dataset, capsys):
        cfg = base_config(tmp_path, demo_tree_path, small_dataset, bogus_key=1)
        assert main(["train", "plm-icd", "--config", cfg]) == 1
        assert not os.path.exists(str(tmp_path / "run" / "config.txt"))
        assert "bogus_key" in capsys.readouterr().err

    def test_config_echo_contains_resolved_values(self, tmp_path, demo_tree_path, small_dataset):
        cfg = base_config(tmp_path, demo_tree_path, small_dataset)
        assert main(["train", "plm-icd", "--config", cfg, "--set", "max_steps=3",
                     "--seed", "99", "--set", "seed=4"]) == 0  # --seed wins over --set seed
        echo = Path(str(tmp_path / "run" / "config.txt")).read_text()
        assert "max_steps = 3" in echo
        assert "seed = 99" in echo
        assert "learning_rate = 0.001" in echo

    def test_seed_flag_changes_checkpoint(self, tmp_path, demo_tree_path, small_dataset):
        cfg = base_config(tmp_path, demo_tree_path, small_dataset, max_steps=4)
        assert main(["train", "plm-icd", "--config", cfg]) == 0
        first = sha(str(tmp_path / "run" / "flat.ckpt"))
        assert main(["train", "plm-icd", "--config", cfg, "--seed", "12"]) == 0
        assert sha(str(tmp_path / "run" / "flat.ckpt")) != first

    @pytest.mark.parametrize("key,value", [
        ("log_interval", "0"), ("hidden_size", "-1"), ("hidden_size", "0"),
        ("hidden_size", "1025"), ("hidden_size", "1000000000"),
        ("learning_rate", "-1e-3"), ("learning_rate", "inf"), ("weight_decay", "-0.1"),
        ("weight_decay", "nan"), ("n_layers", "3"), ("c", "0"), ("s", "0"), ("s", "513"),
        ("min_frequency", "0"), ("asl_gamma_pos", "-1"), ("asl_gamma_neg", "-2"),
        ("asl_margin", "1.0"), ("max_steps", "-1"),
    ])
    def test_bad_numeric_key_exit_1_before_config_echo(self, tmp_path, demo_tree_path,
                                                       small_dataset, capsys, key, value):
        """An out-of-range value exits 1 before the echo, naming its config line or --set."""
        cfg = write_config(tmp_path / "c.cfg", tree=demo_tree_path, dataset=small_dataset,
                           **{key: value}, out_dir=str(tmp_path / "run"))
        assert main(["train", "plm-icd", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:3: {key} must be ")
        cfg = base_config(tmp_path, demo_tree_path, small_dataset)
        assert main(["train", "plm-icd", "--config", cfg, "--set", f"{key}={value}"]) == 1
        assert capsys.readouterr().err.startswith(f"error: --set: {key} must be ")
        assert not os.path.exists(str(tmp_path / "run" / "config.txt"))

    def test_negative_seed_flag_names_the_flag(self, tmp_path, demo_tree_path, small_dataset,
                                               capsys):
        cfg = base_config(tmp_path, demo_tree_path, small_dataset)
        assert main(["train", "plm-icd", "--config", cfg, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: --seed: seed must be >= 0, got -1\n"
        assert not os.path.exists(str(tmp_path / "run" / "config.txt"))

    def test_hyperc_needs_embeddings(self, tmp_path, demo_tree_path, small_dataset):
        cfg = base_config(tmp_path, demo_tree_path, small_dataset, bootstrap="hyperc")
        assert main(["train", "xr-lat", "--config", cfg]) == 1

    def test_hyperc_with_embeddings(self, tmp_path, demo_tree_path, small_dataset):
        emb_dir = str(tmp_path / "emb")
        assert main(["embed", "--tree", demo_tree_path, "--out", emb_dir,
                     "--dim", "5", "--epochs", "1", "--seed", "4"]) == 0
        cfg = base_config(
            tmp_path, demo_tree_path, small_dataset, bootstrap="hyperc", max_steps=4,
            embeddings=os.path.join(emb_dir, "embeddings.ckpt"),
        )
        assert main(["train", "xr-lat", "--config", cfg]) == 0
        from xrlat.checkpoint import load_model

        model = load_model(str(tmp_path / "run" / "level4.ckpt"))[0]
        assert model.corr is not None and model.corr_inputs.shape == (81, 5)

    def test_non_finite_embeddings_exit_1_naming_tensor(self, tmp_path, demo_tree_path,
                                                         small_dataset, capsys):
        emb_dir = str(tmp_path / "emb")
        assert main(["embed", "--tree", demo_tree_path, "--out", emb_dir,
                     "--dim", "5", "--epochs", "1", "--seed", "4"]) == 0
        path = os.path.join(emb_dir, "embeddings.ckpt")
        meta, tensors = read_container(path)
        tensors["E2"][0, 0] = np.nan
        write_container(path, meta, tensors)
        cfg = base_config(tmp_path, demo_tree_path, small_dataset, bootstrap="hyperc",
                          max_steps=4, embeddings=path)
        capsys.readouterr()
        assert main(["train", "xr-lat", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {path}: tensor 'E2' has non-finite values\n"
        assert not os.path.exists(str(tmp_path / "run" / "level1.ckpt"))

    def test_embeddings_outside_ball_exit_1_naming_tensor(self, tmp_path, demo_tree_path,
                                                          small_dataset, capsys):
        emb_dir = str(tmp_path / "emb")
        assert main(["embed", "--tree", demo_tree_path, "--out", emb_dir,
                     "--dim", "5", "--epochs", "3", "--seed", "4"]) == 0
        path = os.path.join(emb_dir, "embeddings.ckpt")
        meta, tensors = read_container(path)
        tensors["E2"] *= 1000.0
        write_container(path, meta, tensors)
        cfg = base_config(tmp_path, demo_tree_path, small_dataset, bootstrap="hyperc",
                          max_steps=4, embeddings=path)
        capsys.readouterr()
        assert main(["train", "xr-lat", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: tensor 'E2' row ")
        assert not os.path.exists(str(tmp_path / "run" / "level1.ckpt"))


def _nan_at_first(a):
    a = a.copy()
    a.flat[0] = np.nan
    return a


class TestEvalCommand:
    def _trained_run(self, tmp_path, demo_tree_path, small_dataset, mode="plm-icd", **extra):
        cfg = base_config(tmp_path, demo_tree_path, small_dataset, **extra)
        assert main(["train", mode, "--config", cfg]) == 0
        return str(tmp_path / "run")

    @pytest.fixture(scope="class")
    def hyperc_chain(self, tmp_path_factory, demo_tree_path):
        """A 1-layer bootstrap-hyperc chain trained for one step; returns (run, dataset)."""
        root = tmp_path_factory.mktemp("hyperc")
        ds = str(root / "train.tsv")
        assert main(["data", "synth", "--tree", demo_tree_path, "--out", ds,
                     "--n-docs", "12", "--doc-len", "24", "--seed", "3"]) == 0
        emb_dir = str(root / "emb")
        assert main(["embed", "--tree", demo_tree_path, "--out", emb_dir,
                     "--dim", "5", "--epochs", "1", "--seed", "4"]) == 0
        cfg = base_config(root, demo_tree_path, ds, bootstrap="hyperc", max_steps=1,
                          embeddings=os.path.join(emb_dir, "embeddings.ckpt"))
        assert main(["train", "xr-lat", "--config", cfg]) == 0
        return str(root / "run"), ds

    def _eval_edited_chain(self, tmp_path, hyperc_chain, demo_tree_path, ckpt, edit):
        """Copy the chain, apply edit(meta, tensors) to one checkpoint, evaluate the copy."""
        run, ds = hyperc_chain
        chain = str(tmp_path / "chain")
        shutil.copytree(run, chain)
        path = os.path.join(chain, ckpt)
        meta, tensors = read_container(path)
        edit(meta, tensors)
        write_container(path, meta, tensors)
        return main(["eval", "--chain", chain, "--tree", demo_tree_path, "--dataset", ds,
                     "--vocab", os.path.join(chain, "vocab.txt")])

    def test_unedited_chain_evaluates(self, tmp_path, hyperc_chain, demo_tree_path):
        assert self._eval_edited_chain(tmp_path, hyperc_chain, demo_tree_path, "level4.ckpt",
                                       lambda meta, tensors: None) == 0

    @pytest.mark.parametrize("name,edit", [
        ("W_cl", lambda a: a[:-1]),
        ("blk0.q", lambda a: a[:, :-1]),
        ("b_cl", lambda a: a[:-1]),
        ("corr.E", lambda a: a[:-1]),
        ("W_la", _nan_at_first),
    ], ids=["W_cl-truncated", "blk0.q-narrowed", "b_cl-short", "corr.E-rows", "W_la-nan"])
    def test_bad_checkpoint_tensor_exit_1(self, tmp_path, hyperc_chain, demo_tree_path,
                                          capsys, name, edit):
        def edit_tensor(meta, tensors):
            tensors[name] = edit(tensors[name])

        capsys.readouterr()
        assert self._eval_edited_chain(tmp_path, hyperc_chain, demo_tree_path, "level4.ckpt",
                                       edit_tensor) == 1
        assert f"level4.ckpt: tensor '{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("binary_threshold", "0.3"), ("s", "5"),
                                           ("negative_sampling", "0")])
    def test_chain_levels_must_agree(self, tmp_path, hyperc_chain, demo_tree_path, capsys,
                                     key, value):
        def edit_meta(meta, tensors):
            meta[key] = value

        capsys.readouterr()
        assert self._eval_edited_chain(tmp_path, hyperc_chain, demo_tree_path, "level2.ckpt",
                                       edit_meta) == 1
        level1 = os.path.join(str(tmp_path / "chain"), "level1.ckpt")
        err = capsys.readouterr().err
        assert f"level2.ckpt: {key} is " in err and f" but {level1} has " in err

    @pytest.mark.parametrize("meta,tensors,message", MALFORMED_CONTAINERS)
    def test_malformed_checkpoint_exit_1(self, tmp_path, demo_tree_path, capsys,
                                         meta, tensors, message):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(container_bytes(meta, tensors))
        ds = tmp_path / "two.tsv"
        ds.write_text("# xrlat-dataset v1\ndoc0\tc0b0g0x0\tfiller text\n"
                      "doc1\tc0b0g0x1\tfiller text\n")
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--tree", demo_tree_path,
                     "--dataset", str(ds), "--vocab", str(tmp_path / "vocab.txt")]) == 1
        assert f"{ckpt}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["--scores", "--ckpt"])
    @pytest.mark.parametrize("case", ["tree-under-15-codes", "single-class-dataset"])
    def test_undefined_report_exit_1_before_scores(self, tmp_path, demo_tree_path, capsys,
                                                   source, case):
        """Checked from the tree and gold codes alone: the missing scores file or
        checkpoint is never opened."""
        if case == "tree-under-15-codes":
            tree = tmp_path / "small_tree.txt"
            tree.write_text("".join(f"a/ab/abc/x{i}\n" for i in range(10)))
            codes, named = ("x0", "x1"), tree
        else:
            tree = demo_tree_path
            codes, named = ("c0b0g0x0", "c0b0g0x0"), tmp_path / "same.tsv"
        ds = tmp_path / "same.tsv"
        ds.write_text("# xrlat-dataset v1\n" + "".join(
            f"doc{i}\t{code}\tfiller text\n" for i, code in enumerate(codes)))
        capsys.readouterr()
        assert main(["eval", source, str(tmp_path / "missing"), "--tree", str(tree),
                     "--dataset", str(ds), "--vocab", str(tmp_path / "vocab.txt")]) == 1
        err = capsys.readouterr().err
        assert f"error: {named}: " in err and "missing" not in err
        assert ("p@15" if case == "tree-under-15-codes" else "macro AUC") in err

    def test_eval_flat_writes_report(self, tmp_path, demo_tree_path, small_dataset, capsys):
        run = self._trained_run(tmp_path, demo_tree_path, small_dataset)
        out = str(tmp_path / "eval")
        assert main(["eval", "--ckpt", os.path.join(run, "flat.ckpt"),
                     "--tree", demo_tree_path, "--dataset", small_dataset,
                     "--vocab", os.path.join(run, "vocab.txt"),
                     "--out", out, "--topk", "3"]) == 0
        report = Path(os.path.join(out, "metrics.txt")).read_text()
        for key in ("macro_auc", "micro_auc", "macro_f1", "micro_f1",
                    "p@5", "p@8", "p@15", "macro_auc_skipped"):
            assert key in report
        topk = Path(os.path.join(out, "topk.txt")).read_text().strip().split("\n")
        assert len(topk) == 40
        assert topk[0].count(":") == 3

    def test_eval_rerun_identical(self, tmp_path, demo_tree_path, small_dataset):
        run = self._trained_run(tmp_path, demo_tree_path, small_dataset)
        outs = []
        for name in ("ev1", "ev2"):
            out = str(tmp_path / name)
            assert main(["eval", "--ckpt", os.path.join(run, "flat.ckpt"),
                         "--tree", demo_tree_path, "--dataset", small_dataset,
                         "--vocab", os.path.join(run, "vocab.txt"), "--out", out]) == 0
            outs.append(os.path.join(out, "metrics.txt"))
        assert sha(outs[0]) == sha(outs[1])

    def test_eval_chain(self, tmp_path, demo_tree_path, small_dataset):
        run = self._trained_run(tmp_path, demo_tree_path, small_dataset,
                                mode="xr-lat", max_steps=6)
        out = str(tmp_path / "evc")
        assert main(["eval", "--chain", run, "--tree", demo_tree_path,
                     "--dataset", small_dataset,
                     "--vocab", os.path.join(run, "vocab.txt"), "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "metrics.txt"))

    def test_perfect_oracle_scores(self, tmp_path, demo_tree_path, capsys):
        from xrlat.code_tree import build_tree

        tree = build_tree(demo_tree_path)
        leaves = tree.level(4).names
        rng = np.random.default_rng(21)
        ds = str(tmp_path / "oracle.tsv")
        scores_path = str(tmp_path / "scores.tsv")
        # every doc carries >= 15 gold codes so p@15 is exactly 1 for the oracle
        with open(ds, "w") as dfh, open(scores_path, "w") as sfh:
            dfh.write("# xrlat-dataset v1\n")
            sfh.write("# xrlat-scores v1\n")
            for i in range(25):
                codes = np.sort(rng.choice(81, size=20, replace=False))
                names = ";".join(leaves[c] for c in codes)
                dfh.write(f"doc{i}\t{names}\tfiller text\n")
                row = np.zeros(81)
                row[codes] = 1.0
                sfh.write(f"doc{i}\t" + " ".join(f"{v:.1f}" for v in row) + "\n")
        capsys.readouterr()
        assert main(["eval", "--scores", scores_path, "--tree", demo_tree_path,
                     "--dataset", ds]) == 0
        out = capsys.readouterr().out
        for line in out.strip().split("\n"):
            name, value = line.split("\t")
            if name != "macro_auc_skipped":
                assert value == "1.0000", line

    def _eval_scores(self, tmp_path, demo_tree_path, score_lines, *extra,
                     doc_ids=("doc0", "doc1")):
        """Evaluate a dataset (one document per id) against the given score lines."""
        from xrlat.code_tree import build_tree

        leaves = build_tree(demo_tree_path).level(4).names
        ds = str(tmp_path / "two.tsv")
        with open(ds, "w") as fh:
            fh.write("# xrlat-dataset v1\n")
            fh.writelines(f"{d}\t{leaves[i]}\tfiller text\n" for i, d in enumerate(doc_ids))
        scores_path = str(tmp_path / "scores.tsv")
        with open(scores_path, "w") as fh:
            fh.write("# xrlat-scores v1\n" + "".join(line + "\n" for line in score_lines))
        return main(["eval", "--scores", scores_path, "--tree", demo_tree_path,
                     "--dataset", ds, *extra])

    @pytest.mark.parametrize("flag,value", [("--threshold", "1.5"), ("--threshold", "-2"),
                                            ("--threshold", "0"), ("--threshold", "1"),
                                            ("--threshold", "nan"), ("--topk", "-3")])
    def test_bad_eval_flag_exit_1(self, tmp_path, demo_tree_path, capsys, flag, value):
        row = " ".join(["0.5"] * 81)
        out = str(tmp_path / "ev")
        rc = self._eval_scores(tmp_path, demo_tree_path, [f"doc0\t{row}", f"doc1\t{row}"],
                               "--out", out, flag, value)
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_duplicate_dataset_doc_id_rejected(self, tmp_path, demo_tree_path, capsys):
        row = " ".join(["0.5"] * 81)
        rc = self._eval_scores(tmp_path, demo_tree_path, [f"doc0\t{row}", f"doc1\t{row}"],
                               doc_ids=("doc0", "doc1", "doc0"))
        assert rc == 1
        assert "two.tsv:4: duplicate doc_id 'doc0'" in capsys.readouterr().err

    def test_topk_ties_toward_lower_code_index(self, tmp_path, demo_tree_path):
        from xrlat.code_tree import build_tree
        from xrlat.metrics import PredictionSet, precision_at_k, top_codes

        leaves = build_tree(demo_tree_path).level(4).names
        scores = np.full((2, 81), 0.5)
        scores[0, 7] = 0.9  # one clear winner, then ties among all the rest
        scores[1, :] = 0.1
        scores[1, [60, 5, 3, 2]] = 0.8  # four tied winners for three slots
        lines = [f"doc{i}\t" + " ".join(f"{v:.1f}" for v in row) for i, row in enumerate(scores)]
        out = str(tmp_path / "ev")
        assert self._eval_scores(tmp_path, demo_tree_path, lines,
                                 "--out", out, "--topk", "3") == 0
        topk = Path(os.path.join(out, "topk.txt")).read_text().splitlines()
        assert topk == [
            f"doc0\t{leaves[7]}:0.9000;{leaves[0]}:0.5000;{leaves[1]}:0.5000",
            f"doc1\t{leaves[2]}:0.8000;{leaves[3]}:0.8000;{leaves[5]}:0.8000",
        ]
        listed = [[leaves.index(e.split(":")[0]) for e in line.split("\t")[1].split(";")]
                  for line in topk]
        assert listed == top_codes(scores, 3).tolist()
        gold = np.zeros((2, 81), dtype=int)
        np.put_along_axis(gold, np.array(listed), 1, axis=1)
        assert precision_at_k(PredictionSet(scores, gold), 3) == 1.0

    def test_duplicate_score_doc_id_rejected(self, tmp_path, demo_tree_path, capsys):
        row = " ".join(["0.5"] * 81)
        rc = self._eval_scores(tmp_path, demo_tree_path,
                               [f"doc0\t{row}", f"doc1\t{row}", f"doc0\t{row}"])
        assert rc == 1
        assert "scores.tsv:4: duplicate doc_id 'doc0'" in capsys.readouterr().err

    def test_non_numeric_score_rejected(self, tmp_path, demo_tree_path, capsys):
        row = " ".join(["0.5"] * 81)
        rc = self._eval_scores(tmp_path, demo_tree_path,
                               [f"doc0\t{row}", "doc1\t" + " ".join(["0.5"] * 80 + ["high"])])
        assert rc == 1
        err = capsys.readouterr().err
        assert "scores.tsv:3:" in err and "'high'" in err

    def test_nan_score_rejected(self, tmp_path, demo_tree_path, capsys):
        row = " ".join(["0.5"] * 81)
        rc = self._eval_scores(tmp_path, demo_tree_path,
                               ["doc0\t" + " ".join(["nan"] + ["0.5"] * 80), f"doc1\t{row}"])
        assert rc == 1
        assert "scores.tsv:2: scores must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("level", None), ("n_layers", None), ("vocab_size", None), ("c", None), ("s", None),
        ("negative_sampling", None), ("binary_threshold", None),
        ("binary_threshold", "abc"), ("n_layers", "one"), ("negative_sampling", "yes"),
    ])
    def test_bad_checkpoint_metadata_exit_1(self, tmp_path, demo_tree_path, small_dataset,
                                            capsys, key, value):

        run = self._trained_run(tmp_path, demo_tree_path, small_dataset, max_steps=1)
        path = os.path.join(run, "flat.ckpt")
        meta, tensors = read_container(path)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        write_container(path, meta, tensors)
        capsys.readouterr()
        assert main(["eval", "--ckpt", path, "--tree", demo_tree_path,
                     "--dataset", small_dataset,
                     "--vocab", os.path.join(run, "vocab.txt")]) == 1
        assert f"flat.ckpt: metadata key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("binary_threshold", "5.0", "binary_threshold must be in (0, 1), got 5.0"),
        ("binary_threshold", "nan", "binary_threshold must be in (0, 1), got nan"),
        ("s", "0", "s must be in [1, 512], got 0"),
        ("n_layers", "-1", "n_layers must be 0, 1 or 2, got -1"),
    ], ids=["threshold-5.0", "threshold-nan", "s-0", "n_layers--1"])
    def test_out_of_range_checkpoint_setting_exit_1(self, tmp_path, demo_tree_path,
                                                    small_dataset, capsys, key, value, message):
        """Settings that parse are checked by TrainConfig's ranges, naming the checkpoint."""
        run = self._trained_run(tmp_path, demo_tree_path, small_dataset, max_steps=1,
                                n_layers=0)
        path = os.path.join(run, "flat.ckpt")
        meta, tensors = read_container(path)
        meta[key] = value
        write_container(path, meta, tensors)
        capsys.readouterr()
        assert main(["eval", "--ckpt", path, "--tree", demo_tree_path,
                     "--dataset", small_dataset,
                     "--vocab", os.path.join(run, "vocab.txt")]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_vocab_mismatch_rejected(self, tmp_path, demo_tree_path, small_dataset, capsys):
        run = self._trained_run(tmp_path, demo_tree_path, small_dataset)
        bad_vocab = str(tmp_path / "bad_vocab.txt")
        with open(bad_vocab, "w") as fh:
            fh.write("onlyone\t2\n")
        capsys.readouterr()
        ckpt = os.path.join(run, "flat.ckpt")
        assert main(["eval", "--ckpt", ckpt, "--tree", demo_tree_path,
                     "--dataset", small_dataset, "--vocab", bad_vocab]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad_vocab}: 3 ids, but {ckpt} ")

    def test_repeated_vocab_token_exit_1_naming_line(self, tmp_path, demo_tree_path,
                                                     small_dataset, capsys):
        run = self._trained_run(tmp_path, demo_tree_path, small_dataset, max_steps=1)
        vocab = os.path.join(run, "vocab.txt")
        with open(vocab) as fh:
            lines = fh.read().splitlines()
        with open(vocab, "a") as fh:
            fh.write(lines[1] + "\n")  # the first token again
        capsys.readouterr()
        assert main(["eval", "--ckpt", os.path.join(run, "flat.ckpt"), "--tree", demo_tree_path,
                     "--dataset", small_dataset, "--vocab", vocab]) == 1
        token = lines[1].split("\t")[0]
        assert capsys.readouterr().err == (
            f"error: {vocab}:{len(lines) + 1}: token {token!r} appears twice\n")


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory, demo_tree_path):
    """A 0-layer flat model trained for one step; returns (run, dataset)."""
    root = tmp_path_factory.mktemp("meta_fuzz")
    ds = str(root / "train.tsv")
    assert main(["data", "synth", "--tree", demo_tree_path, "--out", ds,
                 "--n-docs", "8", "--doc-len", "24", "--seed", "3"]) == 0
    cfg = base_config(root, demo_tree_path, ds, max_steps=1, n_layers=0)
    assert main(["train", "plm-icd", "--config", cfg]) == 0
    return str(root / "run"), ds


class TestCheckpointMetadataFuzz:
    """``xrlat eval`` on a flat.ckpt with one MODEL_KEYS value set to arbitrary text
    exits 0 or 1, and every exit-1 message starts with the checkpoint's path. Half the
    drawn values are printed numbers, so that most of them parse and reach the range
    checks."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(MODEL_KEYS)),
           st.one_of(st.text(max_size=40), st.integers().map(str), st.floats().map(repr)))
    def test_never_exits_2_and_names_the_checkpoint(self, fuzz_run, demo_tree_path, key,
                                                    value):
        run, ds = fuzz_run
        meta, tensors = read_container(os.path.join(run, "flat.ckpt"))
        meta[key] = value
        path = os.path.join(run, "edited.ckpt")
        write_container(path, meta, tensors)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["eval", "--ckpt", path, "--tree", demo_tree_path, "--dataset", ds,
                       "--vocab", os.path.join(run, "vocab.txt")])
        assert rc in (0, 1), err.getvalue()
        if rc == 1:
            assert err.getvalue().startswith(f"error: {path}: "), err.getvalue()


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert main(["gradcheck", "--layers", "0", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "worst_coord" in out

    def test_corrupted_fails(self, monkeypatch, capsys):
        corrupt_head_dW_cl(monkeypatch)
        assert main(["gradcheck", "--layers", "0"]) == 1
        assert "(tensor W_cl)" in capsys.readouterr().out

    def test_asl_gradcheck_passes(self):
        assert main(["gradcheck", "--layers", "1", "--loss", "asl", "--seed", "2"]) == 0

    @pytest.mark.parametrize("flag", ["--hidden", "--vocab-size", "--chunk-len", "--chunks",
                                      "--labels", "--max-coords", "--corrupt"])
    def test_removed_flag_exit_1(self, flag, capsys):
        assert main(["gradcheck", "--layers", "0", flag, "2"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDeterminism:
    def test_train_rerun_byte_identical(self, tmp_path, demo_tree_path, small_dataset):
        cfg_a = base_config(tmp_path, demo_tree_path, small_dataset,
                            out_dir=str(tmp_path / "runA"), max_steps=8)
        cfg_b = write_config(
            tmp_path / "runB.cfg",
            **dict(l.split(" = ") for l in Path(cfg_a).read_text().strip().split("\n")),
        )
        # rewrite out_dir for the second run
        cfg_b_text = Path(cfg_b).read_text().replace("runA", "runB")
        Path(cfg_b).write_text(cfg_b_text)
        assert main(["train", "plm-icd", "--config", cfg_a]) == 0
        assert main(["train", "plm-icd", "--config", cfg_b]) == 0
        assert sha(str(tmp_path / "runA" / "flat.ckpt")) == sha(str(tmp_path / "runB" / "flat.ckpt"))
        assert sha(str(tmp_path / "runA" / "train_flat.log")) == sha(
            str(tmp_path / "runB" / "train_flat.log")
        )


class TestLabelTiles:
    """A flat model with more labels than one head tile trains on worker threads."""

    @pytest.fixture()
    def wide_run(self, tmp_path):
        """A config for a tree with HEAD_TILE + 100 leaves, and its (16-document) data."""
        tree = tmp_path / "wide.txt"
        tree.write_text("\n".join(sized_hierarchy_lines((2, 4, 8, HEAD_TILE + 100))) + "\n")
        data = str(tmp_path / "wide.tsv")
        assert main(["data", "synth", "--tree", str(tree), "--out", data, "--n-docs", "16",
                     "--doc-len", "24", "--seed", "3"]) == 0

        def config(name, **extra):
            return base_config(tmp_path, str(tree), data, out_dir=str(tmp_path / name),
                               max_steps=4, batch_size=4, **extra)
        return config

    @staticmethod
    def train(cfg, cpus=None):
        """``xrlat train plm-icd`` in a new process, on ``cpus`` or on every CPU."""
        pin = f"os.sched_setaffinity(0, {cpus!r}); " if cpus else ""
        script = f"import os, sys; {pin}from xrlat.cli import main; sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
            SRC, os.environ.get("PYTHONPATH")))))
        return subprocess.run([sys.executable, "-c", script, "train", "plm-icd", "--config", cfg],
                              env=env, capture_output=True, text=True, timeout=600)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="one CPU: a pinned run and a free run use the same one worker")
    def test_checkpoint_does_not_depend_on_the_cpu_count(self, wide_run, tmp_path):
        one = self.train(wide_run("one"), {min(os.sched_getaffinity(0))})
        every = self.train(wide_run("every"))
        assert one.returncode == every.returncode == 0, one.stderr + every.stderr
        assert (sha(str(tmp_path / "one" / "flat.ckpt"))
                == sha(str(tmp_path / "every" / "flat.ckpt")))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_head_exits_2_naming_the_tensor(self, wide_run, monkeypatch, capsys):
        """An inf query in the last row of the last tile, whose forward runs on a worker
        thread: the run still exits 2 and names the attention scores."""
        init = training.init_level_model

        def poisoned(*args):
            model = init(*args)
            model.head.W_la[-1] = np.inf
            return model

        monkeypatch.setattr(training, "init_level_model", poisoned)
        assert main(["train", "plm-icd", "--config", wide_run("poisoned")]) == 2
        assert (capsys.readouterr().err
                == "numeric error: non-finite values in attention_scores at step 0\n")


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        for key in ("nonsense", "decision_threshold"):
            path = write_config(tmp_path / "c.cfg", **{key: "0.5"})
            with pytest.raises(ConfigError, match=key):
                resolve_config(path)
            with pytest.raises(ConfigError, match=key):
                resolve_config(overrides=[("--set", f"{key}=0.5")])
        with pytest.raises(TypeError):
            TrainConfig(decision_threshold=0.5)

    def test_comments_and_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nmax_steps = 5  # tail comment\nloss = asl\n")
        run = resolve_config(str(path), overrides=[("--set", "batch_size = 4"), ("--set", "seed=3"),
                                                       ("--set", "vocab=v#1")])
        assert run.train.max_steps == 5
        assert run.train.loss == "asl"
        assert run.train.batch_size == 4
        assert run.train.seed == 3
        assert run.vocab == "v#1"  # '#' starts a comment only in a file line

    def test_bad_value_type(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", max_steps="soon")
        with pytest.raises(ConfigError, match="c.cfg:1: bad value for 'max_steps'"):
            resolve_config(path)
        with pytest.raises(ConfigError, match="--set: bad value for 'negative_sampling'"):
            resolve_config(overrides=[("--set", "negative_sampling=maybe")])

    def test_bool_parsing(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", negative_sampling="false")
        assert resolve_config(path).train.negative_sampling is False

    def test_threshold_validation(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", binary_threshold="1.5")
        with pytest.raises(ConfigError):
            resolve_config(path)

    def test_echo_lists_everything(self, tmp_path):
        run = resolve_config(None, overrides=[("--set", f"out_dir={tmp_path}")])
        text = run.echo_text()
        for key in ("tree", "dataset", "vocab", "embeddings", "out_dir", "batch_size",
                    "learning_rate", "negative_sampling", "binary_threshold"):
            assert f"{key} = " in text
