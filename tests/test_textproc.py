import hashlib
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlat.textproc import (
    PAD_ID,
    Vocabulary,
    build_vocab,
    chunk,
    clean_text,
    read_dataset,
    synth_corpus,
    tokenize,
    trigger_tokens,
    words,
    write_dataset,
)
from xrlat.util import ConfigError, DataError, ParseError


class TestCleanText:
    def test_special_runs_become_spaces(self):
        assert clean_text("ab==cd --- ef") == "ab cd ef"

    def test_deid_surrogates_removed(self):
        raw = "seen on [**2151-7-16**] at [**Hospital 1807**]"
        assert clean_text(raw) == "seen on at"

    def test_name_pattern_surrogate(self):
        raw = "pt [**First Name8 (NamePattern2) **] stable"
        assert clean_text(raw) == "pt stable"

    def test_plain_text_unchanged(self):
        assert clean_text("plain text stays") == "plain text stays"

    def test_single_separators_survive(self):
        assert clean_text("x-y a_b c=d") == "x-y a_b c=d"

    def test_unclosed_surrogate_kept(self):
        assert clean_text("[**open ended") == "[**open ended"

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=string.printable, max_size=200))
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once


class TestVocabAndTokenize:
    def test_min_frequency_two(self):
        vocab = build_vocab(["a a b"], min_frequency=2)
        assert vocab.token_to_id == {"a": 2}
        assert tokenize("a b", vocab).tolist() == [2, 1]

    def test_min_frequency_one(self):
        vocab = build_vocab(["a a b"], min_frequency=1)
        assert vocab.token_to_id == {"a": 2, "b": 3}

    def test_rebuild_is_identical(self):
        corpus = ["chest pain", "pain radiating", "chest clear"]
        assert build_vocab(corpus, 1).token_to_id == build_vocab(corpus, 1).token_to_id

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([], 1)

    def test_tokenize_strips_punctuation_and_lowers(self):
        vocab = Vocabulary({"chest": 2, "pain": 3})
        assert tokenize("Chest pain.", vocab).tolist() == [2, 3]

    def test_tokenize_empty(self):
        assert tokenize("", Vocabulary({})).size == 0

    def test_oov_maps_to_unk(self):
        assert tokenize("mystery", Vocabulary({})).tolist() == [1]

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet=string.printable, max_size=80))
    def test_tokenize_never_emits_pad(self, raw):
        vocab = Vocabulary({"aa": 2})
        ids = tokenize(clean_text(raw), vocab)
        assert not np.any(ids == 0)

    def test_vocab_roundtrip(self, tmp_path):
        vocab = build_vocab(["a a b c c c"], min_frequency=2)
        path = str(tmp_path / "vocab.txt")
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.min_frequency == vocab.min_frequency

    def test_vocab_load_rejects_sparse_ids(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\t2\nb\t4\n")
        with pytest.raises(ParseError):
            Vocabulary.load(str(path))


class TestChunk:
    def test_padding_in_last_chunk(self):
        doc = chunk([11, 12, 13, 14, 15], c=3, s=2)
        assert doc.chunks.tolist() == [[11, 12, 13], [14, 15, 0]]
        assert doc.n_real == 5

    def test_truncation(self):
        doc = chunk([1, 2, 3, 4, 5, 6, 7], c=3, s=2)
        assert doc.chunks.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert doc.n_real == 6

    def test_exact_fit(self):
        doc = chunk(list(range(1, 7)), c=3, s=2)
        assert doc.n_real == 6

    def test_chunk_len_cap(self):
        with pytest.raises(ConfigError):
            chunk([1], c=513, s=1)
        chunk([1], c=512, s=1)  # boundary value accepted

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            chunk([1], c=0, s=2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 500), max_size=40),
        st.integers(1, 8),
        st.integers(1, 5),
    )
    def test_roundtrip_recovers_prefix(self, tokens, c, s):
        doc = chunk(tokens, c, s)
        keep = min(len(tokens), c * s)
        assert doc.chunks.shape == (s, c) and doc.n_real == keep
        flat = doc.chunks.reshape(-1)
        assert flat[:keep].tolist() == tokens[:keep]
        assert np.all(flat[keep:] == PAD_ID)


class TestSynthCorpus:
    def test_triggers_present_at_prob_one(self, demo_tree):
        docs, labels = synth_corpus(demo_tree, 30, codes_per_doc_mean=1.0,
                                    trigger_prob=1.0, doc_len=64, seed=3)
        for doc, row in zip(docs, labels.rows):
            toks = set(doc.text.split())
            for code in row:
                a, b = trigger_tokens(int(code))
                assert a in toks and b in toks

    def test_empty_corpus_is_valid(self, demo_tree, tmp_path):
        docs, labels = synth_corpus(demo_tree, 0, seed=1)
        assert docs == [] and labels.n_instances == 0
        path = str(tmp_path / "empty.tsv")
        write_dataset(path, docs, demo_tree)
        content = Path(path).read_text()
        assert content.startswith("#")
        assert read_dataset(path, demo_tree) == []

    def test_deterministic_bytes(self, demo_tree, tmp_path):
        digests = []
        for run in range(2):
            docs, _ = synth_corpus(demo_tree, 200, seed=7)
            path = str(tmp_path / f"run{run}.tsv")
            write_dataset(path, docs, demo_tree)
            digests.append(hashlib.sha256(Path(path).read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_doc_len_too_small(self, demo_tree):
        with pytest.raises(DataError):
            synth_corpus(demo_tree, 50, codes_per_doc_mean=30.0, trigger_prob=1.0,
                         doc_len=8, seed=0)

    @pytest.mark.parametrize("kwargs", [dict(n_docs=-3), dict(codes_per_doc_mean=-1.0),
                                        dict(codes_per_doc_mean=float("nan")),
                                        dict(codes_per_doc_mean=float("inf")),
                                        dict(codes_per_doc_mean=82.0),
                                        dict(codes_per_doc_mean=1e19)])
    def test_bad_counts_rejected(self, demo_tree, kwargs):
        args = dict(n_docs=5, seed=1)
        args.update(kwargs)
        with pytest.raises(ConfigError):
            synth_corpus(demo_tree, **args)

    def test_every_doc_has_a_code(self, demo_tree):
        _, labels = synth_corpus(demo_tree, 50, codes_per_doc_mean=0.01, seed=5)
        assert all(row.size >= 1 for row in labels.rows)


class TestDatasetIO:
    def test_roundtrip(self, demo_tree, tmp_path):
        docs, _ = synth_corpus(demo_tree, 5, seed=9)
        path = str(tmp_path / "ds.tsv")
        write_dataset(path, docs, demo_tree)
        loaded = read_dataset(path, demo_tree)
        assert [d.doc_id for d in loaded] == [d.doc_id for d in docs]
        assert all(a.codes.tolist() == b.codes.tolist() for a, b in zip(loaded, docs))
        assert [d.text for d in loaded] == [d.text for d in docs]

    def test_unknown_code_rejected(self, demo_tree, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d1\tnosuchcode\tsome text\n")
        with pytest.raises(DataError, match="nosuchcode"):
            read_dataset(str(path), demo_tree)

    def test_missing_codes_rejected(self, demo_tree, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d1\t\tsome text\n")
        with pytest.raises(DataError):
            read_dataset(str(path), demo_tree)

    def test_duplicate_doc_id_rejected(self, demo_tree, tmp_path):
        leaf = demo_tree.level(4).names[0]
        path = tmp_path / "dup.tsv"
        path.write_text(f"# xrlat-dataset v1\nd0\t{leaf}\ta\nd1\t{leaf}\tb\nd0\t{leaf}\tc\n")
        with pytest.raises(ParseError, match=r"dup.tsv:4: duplicate doc_id 'd0'"):
            read_dataset(str(path), demo_tree)

    def test_bad_column_count(self, demo_tree, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d1\tonly-two-fields\n")
        with pytest.raises(ParseError):
            read_dataset(str(path), demo_tree)


def test_words_helper():
    assert words("Alpha, beta; GAMMA.") == ["alpha", "beta", "gamma"]
    assert words("--- ,,, ") == []
