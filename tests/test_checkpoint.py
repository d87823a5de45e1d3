import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlat.checkpoint import (
    load_embeddings,
    load_model,
    read_container,
    save_embeddings,
    save_model,
    write_container,
)
from xrlat.hyperbolic import train_poincare
from xrlat.network import init_level_model
from xrlat.training import TrainConfig
from xrlat.util import ParseError, derive_rng

from conftest import MALFORMED_CONTAINERS, container_bytes


class TestContainer:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "x.ckpt")
        rng = derive_rng(0)
        tensors = {"a": rng.normal(size=(3, 4)), "b.c": rng.normal(size=7),
                   "scalarish": np.array(2.5)}
        meta = {"k1": "v1", "level": "4"}
        write_container(path, meta, tensors)
        assert Path(path).read_bytes() == container_bytes(
            [(k.encode(), v.encode()) for k, v in meta.items()],
            [(n.encode(), t.shape, t.astype("<f8").tobytes()) for n, t in tensors.items()])
        meta2, tensors2 = read_container(path)
        assert meta2 == meta
        assert list(tensors2) == list(tensors)
        for name in tensors:
            assert np.array_equal(tensors[name], np.asarray(tensors2[name]))
            assert tensors2[name].dtype == np.float64

    def test_transposed_tensor_writes_row_major(self, tmp_path):
        """A non-contiguous view writes the bytes of its C-ordered copy and reads back equal."""
        t = derive_rng(1).normal(size=(3, 5)).T
        assert not t.flags["C_CONTIGUOUS"]
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        write_container(a, {}, {"t": t})
        write_container(b, {}, {"t": np.ascontiguousarray(t)})
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert np.array_equal(read_container(a)[1]["t"], t)

    def test_streams_each_tensor_without_a_copy(self, tmp_path):
        """A contiguous float64 tensor's own bytes go to the file: writing a 4 MB tensor
        allocates less than a quarter of it, and the file equals the container built field
        by field, zero-size and integer tensors included."""
        tensors = {"big": derive_rng(2).normal(size=(1024, 512)), "empty": np.zeros((0, 3)),
                   "ints": np.arange(6).reshape(2, 3), "row": derive_rng(3).normal(size=5)}
        path = str(tmp_path / "x.ckpt")
        tracemalloc.start()
        try:
            write_container(path, {"kind": "test"}, tensors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tensors["big"].nbytes // 4
        assert Path(path).read_bytes() == container_bytes(
            [(b"kind", b"test")],
            [(n.encode(), t.shape, np.asarray(t, dtype=np.float64).tobytes())
             for n, t in tensors.items()])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError, match="magic"):
            read_container(str(path))

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "x.ckpt")
        write_container(path, {}, {"a": np.ones((4, 4))})
        data = Path(path).read_bytes()
        short = tmp_path / "short.ckpt"
        short.write_bytes(data[:-8])
        with pytest.raises(ParseError, match="truncated"):
            read_container(str(short))

    def test_tensors_load_as_owned_arrays(self, tmp_path):
        """Each tensor, zero-size ones too, is its own C-contiguous, aligned, writeable
        float64 array."""
        path = str(tmp_path / "x.ckpt")
        rng = derive_rng(2)
        tensors = {"m": rng.normal(size=(3, 4)), "s": np.array(1.5), "e": np.zeros(0),
                   "e3": np.zeros((2, 0, 3)), "v": rng.normal(size=5)}
        write_container(path, {}, tensors)
        loaded = read_container(path)[1]
        for name, tensor in tensors.items():
            got = loaded[name]
            assert got.shape == tensor.shape and np.array_equal(got, tensor)
            assert got.dtype == np.float64 and got.base is None
            assert got.flags.c_contiguous and got.flags.aligned and got.flags.writeable
            assert got.flags.owndata

    @pytest.mark.parametrize("cut", [1, 8, 20, 47])
    def test_payload_cut_inside_a_tensor_is_truncated(self, tmp_path, cut):
        """The file ends ``cut`` bytes into the first of two tensors' payloads."""
        path = tmp_path / "x.ckpt"
        tensors = [(b"a", (2, 3), bytes(48)), (b"b", (4,), bytes(32))]
        data = container_bytes([], tensors)
        start = len(container_bytes([], tensors[:1])) - 48
        path.write_bytes(data[: start + cut])
        with pytest.raises(ParseError) as exc:
            read_container(str(path))
        assert str(exc.value) == f"{path}: truncated checkpoint"

    @pytest.mark.parametrize("cut", [None, 100])
    def test_reads_from_a_fifo(self, tmp_path, cut):
        """A pipe has no file size: the whole stream is read, then checked the same way
        (a 64 KiB payload outgrows the pipe buffer)."""
        path = tmp_path / "x.ckpt"
        write_container(str(path), {"k": "v"}, {"a": derive_rng(3).normal(size=(128, 64))})
        data = path.read_bytes()[:cut]
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            if cut is None:
                meta, tensors = read_container(str(fifo))
                want_meta, want = read_container(str(path))
                assert meta == want_meta and np.array_equal(tensors["a"], want["a"])
            else:
                with pytest.raises(ParseError, match="truncated checkpoint"):
                    read_container(str(fifo))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_trailing_bytes_detected(self, tmp_path):
        path = str(tmp_path / "x.ckpt")
        write_container(path, {}, {"a": np.ones(2)})
        long = tmp_path / "long.ckpt"
        long.write_bytes(Path(path).read_bytes() + b"xx")
        with pytest.raises(ParseError, match="trailing"):
            read_container(str(long))

    @pytest.mark.parametrize("meta,tensors,message", MALFORMED_CONTAINERS)
    def test_malformed_container_rejected(self, tmp_path, meta, tensors, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(container_bytes(meta, tensors))
        with pytest.raises(ParseError) as exc:
            read_container(str(path))
        assert str(exc.value) == f"{path}: {message}"

    def test_rerun_is_byte_identical(self, tmp_path):
        rng = derive_rng(1)
        tensors = {"t": rng.normal(size=(5, 5))}
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        write_container(p1, {"m": "1"}, tensors)
        write_container(p2, {"m": "1"}, tensors)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


# a small valid container: two metadata pairs and tensors of rank 2, 0 and 1 (empty)
FUZZ_META = [(b"kind", b"level-model"), (b"k", b"v")]
FUZZ_TENSORS = [(name, shape, np.arange(np.prod(shape), dtype="<f8").tobytes())
                for name, shape in ((b"W", (2, 3)), (b"b", ()), (b"e", (0,)))]
FUZZ_BYTES = container_bytes(FUZZ_META, FUZZ_TENSORS)


def fuzz_header_offsets():
    """Every byte offset of FUZZ_BYTES outside the tensors' float payloads: magic,
    version, counts, string lengths and bytes, ranks and dims."""
    payload = set()
    for i, (_, _, data) in enumerate(FUZZ_TENSORS):
        end = len(container_bytes(FUZZ_META, FUZZ_TENSORS[:i + 1]))
        payload.update(range(end - len(data), end))
    return [i for i in range(len(FUZZ_BYTES)) if i not in payload]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.ckpt"


class TestContainerFuzz:
    """read_container on damaged copies of a small valid container raises ParseError
    or returns a container, never another exception. Flips inside the float payload
    are not checked: without a checksum they parse to other valid numbers."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, len(FUZZ_BYTES) - 1))
    def test_every_truncation_rejected(self, fuzz_path, n):
        fuzz_path.write_bytes(FUZZ_BYTES[:n])
        with pytest.raises(ParseError):
            read_container(str(fuzz_path))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(fuzz_header_offsets()), st.integers(1, 255))
    def test_header_byte_change_rejected_or_parsed(self, fuzz_path, offset, delta):
        data = bytearray(FUZZ_BYTES)
        data[offset] = (data[offset] + delta) % 256
        fuzz_path.write_bytes(bytes(data))
        try:
            meta, tensors = read_container(str(fuzz_path))
        except ParseError:
            return
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in meta.items())
        assert all(t.dtype == np.float64 for t in tensors.values())


class TestModelCheckpoint:
    def _model(self, n_layers=2, with_corr=False):
        rng = derive_rng(2)
        model = init_level_model(20, 4, 8, 5, n_layers, 3, rng, 6 if with_corr else None)
        model.provenance = "bootstrap-equal"
        if with_corr:
            model.corr_inputs = rng.normal(size=(5, 6))
        return model

    @pytest.mark.parametrize("with_corr", [False, True])
    def test_roundtrip(self, tmp_path, with_corr):
        model = self._model(with_corr=with_corr)
        cfg = TrainConfig(c=4, s=2, hidden_size=8, n_layers=2, seed=5)
        path = str(tmp_path / "m.ckpt")
        save_model(path, model, cfg)
        loaded, settings = load_model(path)
        assert settings == {"level": 3, "n_layers": 2, "vocab_size": 20, "c": 4, "s": 2,
                            "negative_sampling": True, "binary_threshold": 0.5}
        assert loaded.level == 3 and loaded.provenance == "bootstrap-equal"
        for (na, a), (nb, b) in zip(model.tensors(), loaded.tensors()):
            assert na == nb
            assert np.array_equal(a, b)
        assert np.array_equal(model.effective_w_la(), loaded.effective_w_la())

    def test_missing_tensor_detected(self, tmp_path):
        model = self._model()
        cfg = TrainConfig(c=4, s=2, hidden_size=8, n_layers=2, seed=5)
        path = str(tmp_path / "m.ckpt")
        save_model(path, model, cfg)
        meta, tensors = read_container(path)
        del tensors["blk1.ff1"]
        write_container(path, meta, tensors)
        with pytest.raises(ParseError, match="blk1.ff1"):
            load_model(path)

    @pytest.mark.parametrize("n_layers", ["1", "0", "-1"])
    def test_blocks_beyond_n_layers_rejected(self, tmp_path, n_layers):
        model = self._model(n_layers=2)
        cfg = TrainConfig(c=4, s=2, hidden_size=8, n_layers=2, seed=5)
        path = str(tmp_path / "m.ckpt")
        save_model(path, model, cfg)
        meta, tensors = read_container(path)
        meta["n_layers"] = n_layers
        write_container(path, meta, tensors)
        with pytest.raises(ParseError, match="blk1.ff1"):
            load_model(path)

    @pytest.mark.parametrize("edit,named", [
        (lambda meta, t: t.pop("corr.E"), "missing tensor 'corr.E'"),
        (lambda meta, t: t.pop("emb"), "missing tensor 'emb'"),
        (lambda meta, t: t.update(emb=t["emb"][0]), "tensor 'emb' has shape (8,)"),
        (lambda meta, t: meta.update(vocab_size="21"), "tensor 'emb' has shape (20, 8), "
                                                       "expected (21, 8)"),
        (lambda meta, t: meta.update(c="5"), "tensor 'pos'"),
        (lambda meta, t: t.update(pos=t["pos"] * np.inf), "tensor 'pos' has non-finite"),
        (lambda meta, t: t.update(ff=t["W_la"]), "tensors ['ff'] unused"),
        (lambda meta, t: t.update({"corr.W": np.array(1.0)}),
         "tensor 'corr.W' has shape (), expected (0, 8)"),
        (lambda meta, t: t.pop("corr.W"), "tensors ['corr.E', 'corr.b'] unused"),
        # the layout is read lazily, so a huge n_layers stops at its first missing block
        (lambda meta, t: meta.update(n_layers="9" * 30), "missing tensor 'blk2.q'"),
    ], ids=["no-corr.E", "no-emb", "emb-1d", "vocab_size", "c", "pos-inf", "unused",
            "corr.W-scalar", "no-corr.W", "n_layers-huge"])
    def test_tensor_table_mismatch_names_tensor(self, tmp_path, edit, named):
        model = self._model(with_corr=True)
        cfg = TrainConfig(c=4, s=2, hidden_size=8, n_layers=2, seed=5)
        path = str(tmp_path / "m.ckpt")
        save_model(path, model, cfg)
        meta, tensors = read_container(path)
        edit(meta, tensors)
        write_container(path, meta, tensors)
        with pytest.raises(ParseError) as exc:
            load_model(path)
        assert named in str(exc.value)

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "w.ckpt")
        write_container(path, {"kind": "poincare"}, {"E1": np.zeros((2, 2))})
        with pytest.raises(ParseError):
            load_model(path)


class TestEmbeddingCheckpoint:
    def test_roundtrip(self, tmp_path, demo_tree):
        emb = train_poincare(demo_tree, dim=6, epochs=2, lr=0.1, seed=4)
        path = str(tmp_path / "emb.ckpt")
        save_embeddings(path, emb, {"seed": 4})
        meta, loaded = load_embeddings(path, demo_tree)
        assert meta["kind"] == "poincare"
        assert int(meta["dim"]) == 6
        assert loaded.names == emb.names and loaded.level_slices == emb.level_slices
        assert np.array_equal(loaded.vectors[0], np.zeros(6))  # root is not stored
        for k in range(1, 5):
            assert np.array_equal(loaded.level(k), emb.level(k))

    def test_wrong_row_count_names_tensor(self, tmp_path, demo_tree):
        emb = train_poincare(demo_tree, dim=4, epochs=0, lr=0.1, seed=4)
        path = str(tmp_path / "emb.ckpt")
        save_embeddings(path, emb)
        meta, tensors = read_container(path)
        tensors["E3"] = tensors["E3"][:-1]
        write_container(path, meta, tensors)
        with pytest.raises(ParseError, match="E3"):
            load_embeddings(path, demo_tree)

    def test_dim_disagreeing_with_metadata_names_tensor(self, tmp_path, demo_tree):
        emb = train_poincare(demo_tree, dim=4, epochs=0, lr=0.1, seed=4)
        path = str(tmp_path / "emb.ckpt")
        save_embeddings(path, emb)
        meta, tensors = read_container(path)
        tensors["E2"] = np.zeros((tensors["E2"].shape[0], 5))
        write_container(path, meta, tensors)
        with pytest.raises(ParseError, match="E2"):
            load_embeddings(path, demo_tree)

    def test_named_e1_to_e4(self, tmp_path, demo_tree):
        emb = train_poincare(demo_tree, dim=4, epochs=0, lr=0.1, seed=4)
        path = str(tmp_path / "emb.ckpt")
        save_embeddings(path, emb)
        _, tensors = read_container(path)
        assert list(tensors) == ["E1", "E2", "E3", "E4"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_name_tensor(self, tmp_path, demo_tree, bad):
        emb = train_poincare(demo_tree, dim=4, epochs=0, lr=0.1, seed=4)
        path = str(tmp_path / "emb.ckpt")
        save_embeddings(path, emb)
        meta, tensors = read_container(path)
        tensors["E2"][0, 0] = bad
        write_container(path, meta, tensors)
        with pytest.raises(ParseError) as exc:
            load_embeddings(path, demo_tree)
        assert str(exc.value) == f"{path}: tensor 'E2' has non-finite values"

    @pytest.mark.parametrize("edit,message", [
        (lambda meta, t: t.update(E5=t["E4"]), "tensors ['E5'] unused by a poincare checkpoint"),
        (lambda meta, t: meta.pop("dim"), "metadata key 'dim' is missing"),
        (lambda meta, t: meta.update(ball_eps="tiny"),
         "metadata key 'ball_eps' has a malformed value 'tiny'"),
        *[(lambda meta, t, v=v: meta.update(ball_eps=v),
           f"metadata key 'ball_eps' must lie in (0, 1), got {v!r}")
          for v in ("0.0", "1.0", "nan")],
        (lambda meta, t: t.update(E2=t["E2"] * 1e200),  # a norm too large to square
         "tensor 'E2' row 0 lies outside the Poincare ball (norm above 1 - ball_eps = 0.99999)"),
    ], ids=["extra-E5", "no-dim", "ball_eps", "ball_eps-0", "ball_eps-1", "ball_eps-nan",
            "E2-outside-ball"])
    def test_contract_mismatch_names_key_or_tensor(self, tmp_path, demo_tree, edit, message):
        emb = train_poincare(demo_tree, dim=4, epochs=0, lr=0.1, seed=4)
        path = str(tmp_path / "emb.ckpt")
        save_embeddings(path, emb)
        meta, tensors = read_container(path)
        edit(meta, tensors)
        write_container(path, meta, tensors)
        with pytest.raises(ParseError) as exc:
            load_embeddings(path, demo_tree)
        assert str(exc.value) == f"{path}: {message}"

    def test_row_on_the_ball_limit_loads(self, tmp_path, demo_tree):
        """A row at exactly norm 1 - ball_eps is inside; a hair further out is not."""
        emb = train_poincare(demo_tree, dim=4, epochs=0, lr=0.1, seed=4)
        path = str(tmp_path / "emb.ckpt")
        save_embeddings(path, emb)
        meta, tensors = read_container(path)
        meta["ball_eps"] = "0.5"
        tensors["E4"][3] = [0.5, 0.0, 0.0, 0.0]
        write_container(path, meta, tensors)
        assert load_embeddings(path, demo_tree)[1].level(4)[3, 0] == 0.5
        tensors["E4"][3, 0] = np.nextafter(0.5, 1.0)
        write_container(path, meta, tensors)
        with pytest.raises(ParseError, match="tensor 'E4' row 3 lies outside"):
            load_embeddings(path, demo_tree)

    def test_model_checkpoint_rejected(self, tmp_path, demo_tree):
        path = str(tmp_path / "m.ckpt")
        save_model(path, init_level_model(20, 4, 8, 3, 0, 1, derive_rng(2)),
                   TrainConfig(c=4, s=2, hidden_size=8, n_layers=0, seed=5))
        with pytest.raises(ParseError) as exc:
            load_embeddings(path, demo_tree)
        assert str(exc.value) == f"{path}: container kind is 'level-model', expected 'poincare'"
