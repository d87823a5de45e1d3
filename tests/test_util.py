import os

import numpy as np
import pytest

from xrlat.textproc import build_vocab, clean_text, synth_corpus
from xrlat.training import TrainConfig, prepare_dataset
from xrlat.util import NumericsError, atomic_write_text, derive_rng, stable_seed


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


class TestAtomicWrite:
    def test_write_and_replace(self, tmp_path):
        path = str(tmp_path / "f.txt")
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert open(path).read() == "two"
        assert [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")] == []


class TestNumericsErrors:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_surfaces_tensor_and_step(self, demo_tree):
        docs, _ = synth_corpus(demo_tree, 16, codes_per_doc_mean=2.0, doc_len=24, seed=23)
        vocab = build_vocab((clean_text(d.text) for d in docs), 1)
        cfg = TrainConfig(max_steps=4, learning_rate=1e-3, c=6, s=4, hidden_size=8,
                          n_layers=0, batch_size=8, seed=5, log_interval=100)
        data = prepare_dataset(docs, vocab, demo_tree, cfg.c, cfg.s)
        from xrlat.training import init_level_model, _train_level
        from xrlat.util import derive_rng as dr

        model = init_level_model(vocab.size, 4, 81, cfg, dr(cfg.seed, "init", 4))
        model.enc.emb[2, 0] = np.inf
        with pytest.raises(NumericsError) as exc:
            _train_level(data.docs, data.labels.rows, 81, None, model, cfg, 4)
        assert exc.value.tensor is not None
        assert exc.value.step == 0
        assert "step 0" in str(exc.value)
