import hashlib
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlat.cli import main
from xrlat.textproc import (
    PAD_ID,
    UNK_ID,
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
from xrlat.training import TrainConfig
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

    @pytest.mark.parametrize("repeat_id", ["2", "3"], ids=["same-id", "other-id"])
    def test_vocab_load_rejects_repeated_token(self, tmp_path, repeat_id):
        path = tmp_path / "dup.txt"
        path.write_text(f"a\t2\nb\t3\na\t{repeat_id}\n")
        with pytest.raises(ParseError) as exc:
            Vocabulary.load(str(path))
        assert str(exc.value) == f"{path}:3: token 'a' appears twice"


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

    @pytest.mark.parametrize("s", [0, 600])
    def test_geometry_rule_shared_with_train_config(self, s):
        """chunk and TrainConfig reject the same chunk count with the same message."""
        message = rf"^s must be in \[1, 512\], got {s}$"
        with pytest.raises(ConfigError, match=message):
            chunk(np.arange(3), 6, s)
        with pytest.raises(ConfigError, match=message):
            TrainConfig(c=6, s=s)

    def test_short_document_takes_only_its_chunks(self):
        """s bounds the chunk count but does not pad to it: 24 tokens at c = s = 512 make
        one chunk, not a 512 x 512 buffer of which 511 chunks are padding."""
        doc = chunk(np.arange(2, 26), 512, 512)
        assert doc.chunks.shape == (1, 512) and doc.n_real == 24
        assert chunk(np.arange(2, 2 + 2**18 + 5), 512, 512).chunks.shape == (512, 512)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 500), min_size=1, max_size=40),
        st.integers(1, 8),
        st.integers(1, 5),
    )
    def test_roundtrip_recovers_prefix(self, tokens, c, s):
        doc = chunk(tokens, c, s)
        keep = min(len(tokens), c * s)
        assert doc.chunks.shape == (-(-keep // c), c) and doc.n_real == keep
        flat = doc.chunks.reshape(-1)
        assert flat[:keep].tolist() == tokens[:keep]
        # PAD only in the last chunk's tail: every chunk holds a real token
        assert np.all(flat[keep:] == PAD_ID) and flat.size - keep < c


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
                                        dict(codes_per_doc_mean=1e19),
                                        dict(doc_len=0), dict(doc_len=2**18 + 1),
                                        dict(filler_vocab=0), dict(filler_vocab=2**63)])
    def test_bad_counts_rejected(self, demo_tree, kwargs):
        args = dict(n_docs=5, seed=1)
        args.update(kwargs)
        with pytest.raises(ConfigError):
            synth_corpus(demo_tree, **args)

    def test_largest_doc_len_and_filler_vocab(self, demo_tree):
        """doc_len may reach the 2**18 tokens a model reads, and filler ids the int64 range."""
        docs, _ = synth_corpus(demo_tree, 1, doc_len=2**18, filler_vocab=2**63 - 1, seed=2)
        assert len(docs[0].text.split()) == 2**18

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


# The text rules as first written, with three regexes, an append loop and a per-word
# method lookup: clean_text, words and tokenize must keep their every output.
_OLD_SURROGATE_RE = re.compile(r"\[\*\*.*?\*\*\]", re.DOTALL)
_OLD_SPECIAL_RUN_RE = re.compile(r"={2,}|-{2,}|_{2,}")
_OLD_WS_RE = re.compile(r"\s+")


def old_clean_text(raw):
    s = _OLD_SURROGATE_RE.sub(" ", raw)
    s = _OLD_SPECIAL_RUN_RE.sub(" ", s)
    return _OLD_WS_RE.sub(" ", s).strip()


def old_words(text):
    out = []
    for tok in text.lower().split():
        tok = tok.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


def old_tokenize(text, vocab):
    return np.array([vocab.token_to_id.get(w, UNK_ID) for w in old_words(text)], dtype=np.int64)


# Unicode whitespace beyond ASCII: the file, group, record and unit separators, NEL,
# no-break space, line separator and ideographic space
UNICODE_SPACE = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
TEXT_ALPHABET = "=-_[*]" + string.punctuation + "aBcDxYz09Éß" + " \t\n\r\x0b\x0c" + (
    UNICODE_SPACE)
TEXT_PIECES = ["[**", "**]", "==", "--", "__", "=-", "-_", "**", "[*", "*]"]
raw_texts = st.lists(st.sampled_from(TEXT_PIECES) | st.text(TEXT_ALPHABET, max_size=4),
                     max_size=40).map("".join)


class TestTextRulesUnchanged:
    @settings(max_examples=200, deadline=None)
    @given(raw_texts, raw_texts)
    def test_clean_words_and_tokenize_match_the_first_rules(self, raw, other):
        cleaned = clean_text(raw)
        assert cleaned == old_clean_text(raw)
        assert words(raw) == old_words(raw)
        assert words(cleaned) == old_words(cleaned)
        vocab = build_vocab([old_clean_text(other), cleaned[: len(cleaned) // 2]], 1)
        ids = tokenize(cleaned, vocab)
        expected = old_tokenize(cleaned, vocab)
        assert ids.dtype == expected.dtype and ids.tolist() == expected.tolist()

    def test_whitespace_is_str_isspace_on_every_code_point(self):
        """The old rule collapsed `re`'s \\s; clean_text and words split on str.isspace.
        They agree on every code point."""
        every = "".join(map(chr, range(0x110000)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
        assert " ".join(every.split()) == _OLD_WS_RE.sub(" ", every).strip()

    def test_data_clean_writes_the_first_rules_bytes(self, tmp_path):
        lines = ["seen on [**2151-7-16**] at [**Hospital\u20281807**] ok",
                 "ab==cd --- ef __ g=-h -_- x---=== y", "\x1c lead\x85and\xa0trail\u3000 ",
                 "[**open [**nested**] **] tail", "\t", "", "[** ** ]", "Mixed CASE, punct!"]
        raw = tmp_path / "raw.txt"
        raw.write_bytes("\n".join(lines).encode("utf-8") + b"\n")
        out = tmp_path / "clean.txt"
        assert main(["data", "clean", "--input", str(raw), "--output", str(out)]) == 0
        expected = "\n".join(old_clean_text(line) for line in lines) + "\n"
        assert out.read_bytes() == expected.encode("utf-8")
