import os
from pathlib import Path

import numpy as np
import pytest

from xrlat.textproc import build_vocab, synth_corpus
from xrlat.training import TrainConfig, prepare_dataset
from xrlat.util import (NumericsError, ParseError, atomic_write_text, derive_rng, stable_seed,
                        text_lines)


class TestSeeds:
    def test_stable_across_calls(self):
        assert stable_seed(1, "a", 2) == stable_seed(1, "a", 2)

    def test_distinct_parts_distinct_streams(self):
        assert stable_seed(1, "init", 4) != stable_seed(1, "init", 3)
        assert stable_seed(1, "data", 4) != stable_seed(1, "init", 4)

    def test_derive_rng_reproducible(self):
        a = derive_rng(7, "x").random(5)
        b = derive_rng(7, "x").random(5)
        assert np.array_equal(a, b)


class TestTextLines:
    def test_utf8_lines_as_text_mode_reads_them(self, tmp_path):
        """Multi-byte characters pass; CRLF and lone CR end lines as in text mode."""
        path = tmp_path / "t.txt"
        path.write_bytes("caf\u00e9 \u2603\r\n# note\n\nlast\rend".encode("utf-8"))
        assert list(text_lines(str(path))) == [(1, "caf\u00e9 \u2603"), (2, "# note"), (3, ""),
                                               (4, "last"), (5, "end")]
        assert list(text_lines(str(path), skip_comments=True)) == [
            (1, "caf\u00e9 \u2603"), (4, "last"), (5, "end")]

    def test_bad_byte_names_its_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"ok\n\xe2\x98\n")  # a 3-byte character cut after 2 bytes
        with pytest.raises(ParseError) as exc:
            list(text_lines(str(path)))
        assert str(exc.value) == f"{path}:2: not UTF-8 text"


class TestAtomicWrite:
    def test_write_and_replace(self, tmp_path):
        path = str(tmp_path / "f.txt")
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert Path(path).read_text() == "two"
        assert [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")] == []


class TestNumericsErrors:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_surfaces_tensor_and_step(self, demo_tree):
        docs, _ = synth_corpus(demo_tree, 16, codes_per_doc_mean=2.0, doc_len=24, seed=23)
        vocab = build_vocab((d.text for d in docs), 1)
        cfg = TrainConfig(max_steps=4, learning_rate=1e-3, c=6, s=4, hidden_size=8,
                          n_layers=0, batch_size=8, seed=5, log_interval=100)
        data = prepare_dataset(docs, vocab, demo_tree, cfg.c, cfg.s)
        from xrlat.network import init_level_model
        from xrlat.training import _train_level
        from xrlat.util import derive_rng as dr

        model = init_level_model(vocab.size, cfg.c, cfg.hidden_size, 81, cfg.n_layers, 4,
                                 dr(cfg.seed, "init", 4))
        model.enc.emb[2, 0] = np.inf
        with pytest.raises(NumericsError) as exc:
            _train_level(data.docs, data.labels.rows, None, model, cfg)
        assert exc.value.tensor is not None
        assert exc.value.step == 0
        assert "step 0" in str(exc.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where,value,tensor", [("W_la", np.inf, "attention_scores"),
                                                    ("W_cl", np.inf, "logits"),
                                                    ("W_cl", np.nan, "logits")])
    def test_nonfinite_head_weights_name_their_tensor(self, monkeypatch, where, value,
                                                      tensor):
        """The softmax overwrites the scores in place, yet an inf in a W_la row still
        names the attention scores. A single inf in W_cl names the logits although it
        only saturates p and leaves the loss finite; a NaN there makes the loss NaN.
        The same holds when the row sits in the last of several label tiles, and in
        the middle one of three, while the other two run their backward and write
        their head gradient rows: the gradients are then a partial sum."""
        from xrlat import network
        from xrlat.losses import LossConfig
        from xrlat.network import forward_backward, init_level_model, zero_grads
        from xrlat.textproc import chunk

        for head_tile, row in ((network.HEAD_TILE, 3), (2, 5), (2, 3)):
            monkeypatch.setattr(network, "HEAD_TILE", head_tile)
            rng = derive_rng(31)
            model = init_level_model(20, 4, 8, 6, 1, 0, rng)
            enc, head = model.enc, model.head
            doc = chunk(rng.integers(2, 20, size=7), 4, 2)
            if where == "W_la":
                head.W_la[row] = value
            else:
                head.W_cl[row, 0] = value
            gold = np.zeros(6)
            gold[1] = 1.0
            grads = zero_grads(model)
            with pytest.raises(NumericsError) as exc:
                forward_backward(doc, enc, head, gold, None, LossConfig(), grads=grads)
            assert exc.value.tensor == tensor
            if (head_tile, row) == (2, 3):
                written = np.any(grads["W_cl"] != 0.0, axis=1)
                assert written.tolist() == [True, True, False, False, True, True]
                assert not np.any(grads["emb"]) and not np.any(grads["blk0.q"])
