"""Text cleaning, word-level tokenization, chunking, and synthetic corpora.

Dataset file format (UTF-8): an optional ``#``-prefixed header/comment lines,
then one document per line as ``doc_id<TAB>code1;code2;...<TAB>text``, where
codes are leaf identifiers of the active tree.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .code_tree import CodeTree, LabelMatrix
from .util import ConfigError, DataError, ParseError, atomic_write_text, derive_rng, text_lines

PAD_ID = 0
UNK_ID = 1
MAX_CHUNK_LEN = 512
MAX_CHUNKS = 512  # bounds a document's token buffer, c * s, at 2**18 tokens

DATASET_HEADER = "# xrlat-dataset v1"
VOCAB_HEADER = "# xrlat-vocab v1"

_SURROGATE_RE = re.compile(r"\[\*\*.*?\*\*\]", re.DOTALL)
_SPECIAL_RUN_RE = re.compile(r"={2,}|-{2,}|_{2,}")
_WS_RE = re.compile(r"\s+")


def clean_text(raw: str) -> str:
    """Strip de-identification surrogates and runs of =, -, _; collapse whitespace.

    ``[** ... **]`` spans (non-greedy, possibly containing whitespace) and any
    run of two or more ``=``, ``-`` or ``_`` are replaced by a space, then
    whitespace runs collapse to single spaces. Idempotent; may return "".
    """
    s = _SURROGATE_RE.sub(" ", raw)
    s = _SPECIAL_RUN_RE.sub(" ", s)
    return _WS_RE.sub(" ", s).strip()


def words(text: str) -> list[str]:
    """Lowercased whitespace tokens with leading/trailing punctuation stripped."""
    out = []
    for tok in text.lower().split():
        tok = tok.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


@dataclass
class Vocabulary:
    """Token-to-id map with reserved ids 0=PAD and 1=UNK."""

    token_to_id: dict
    min_frequency: int = 1

    @property
    def size(self) -> int:
        """Total id count including PAD and UNK."""
        return len(self.token_to_id) + 2

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def save(self, path: str) -> None:
        lines = [f"{VOCAB_HEADER} min_frequency={self.min_frequency}"]
        for tok, i in sorted(self.token_to_id.items(), key=lambda kv: kv[1]):
            lines.append(f"{tok}\t{i}")
        atomic_write_text(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        token_to_id = {}
        min_frequency = 1
        for lineno, line in text_lines(path):
            if not line:
                continue
            if line.startswith("#"):
                m = re.search(r"min_frequency=(\d+)", line)
                if m:
                    min_frequency = int(m.group(1))
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'token<TAB>id'")
            try:
                token_to_id[parts[0]] = int(parts[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: id {parts[1]!r} is not an integer") from None
        ids = sorted(token_to_id.values())
        if ids != list(range(2, 2 + len(ids))):
            raise ParseError(f"{path}: vocabulary ids must be dense starting at 2")
        return cls(token_to_id, min_frequency)


def build_vocab(texts, min_frequency: int = 1) -> Vocabulary:
    """Vocabulary over cleaned texts; ids assigned by descending count, then token.

    Tokens with count below ``min_frequency`` map to UNK. Raises on an empty
    corpus (no texts at all).
    """
    counts = Counter()
    n_texts = 0
    for text in texts:
        n_texts += 1
        counts.update(words(text))
    if n_texts == 0:
        raise DataError("cannot build a vocabulary from an empty corpus")
    kept = [(tok, c) for tok, c in counts.items() if c >= min_frequency]
    kept.sort(key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary({tok: i for i, (tok, _) in enumerate(kept, start=2)}, min_frequency)


def tokenize(text: str, vocab: Vocabulary) -> np.ndarray:
    """Token ids for a cleaned text; out-of-vocabulary words map to UNK, never PAD."""
    return np.array([vocab.id_for(w) for w in words(text)], dtype=np.int64)


@dataclass
class ChunkedDocument:
    """A document laid out as s chunks of exactly c token ids: its first n_real
    slots in row-major order hold its tokens, the rest hold PAD (id 0)."""

    chunks: np.ndarray  # (s, c) int64
    n_real: int


def chunk(tokens, c: int, s: int) -> ChunkedDocument:
    """Lay the first min(t, c*s) tokens into s chunks of c; pad the tail.

    Documents longer than c * s are truncated; shorter ones are padded with PAD.
    """
    if c < 1 or s < 1:
        raise ConfigError(f"chunk length and count must be >= 1, got c={c}, s={s}")
    if c > MAX_CHUNK_LEN:
        raise ConfigError(f"chunk length {c} exceeds the maximum of {MAX_CHUNK_LEN}")
    tokens = np.asarray(tokens, dtype=np.int64)
    n = min(tokens.size, c * s)
    flat = np.zeros(c * s, dtype=np.int64)
    flat[:n] = tokens[:n]
    return ChunkedDocument(flat.reshape(s, c), n)


@dataclass
class RawDocument:
    doc_id: str
    codes: np.ndarray  # sorted leaf indices
    text: str


def trigger_tokens(leaf_index: int) -> tuple[str, str]:
    """The two trigger tokens owned by a leaf code in synthetic corpora."""
    return f"t{leaf_index}a", f"t{leaf_index}b"


def synth_corpus(
    tree: CodeTree,
    n_docs: int,
    codes_per_doc_mean: float = 3.0,
    trigger_prob: float = 0.9,
    filler_vocab: int = 200,
    doc_len: int = 128,
    seed: int = 0,
) -> tuple[list[RawDocument], LabelMatrix]:
    """Generate a synthetic corpus whose codes are signalled by trigger tokens.

    Every leaf code owns two unique trigger tokens. Each document samples a
    Poisson-distributed number of gold codes (minimum 1) and injects each gold
    trigger independently with probability ``trigger_prob`` at distinct
    uniform positions; all other positions hold filler tokens. Deterministic
    for a given seed.
    """
    n_leaves = tree.nodes_per_level[-1]
    if n_docs < 0:
        raise ConfigError(f"n_docs must be >= 0, got {n_docs}")
    if not 0.0 <= codes_per_doc_mean <= n_leaves:  # also rejects NaN
        raise ConfigError(
            f"codes_per_doc_mean must be in [0, {n_leaves}] (the tree's leaf count), "
            f"got {codes_per_doc_mean}"
        )
    if not 0.0 <= trigger_prob <= 1.0:
        raise ConfigError(f"trigger_prob must be in [0, 1], got {trigger_prob}")
    if filler_vocab < 1 or doc_len < 1:
        raise ConfigError("filler_vocab and doc_len must be >= 1")
    rng = derive_rng(seed, "synth")
    docs = []
    rows = []
    for i in range(n_docs):
        n_gold = min(max(1, int(rng.poisson(codes_per_doc_mean))), n_leaves)
        gold = np.sort(rng.choice(n_leaves, size=n_gold, replace=False))
        injected = []
        for code in gold:
            for trig in trigger_tokens(int(code)):
                if rng.random() < trigger_prob:
                    injected.append(trig)
        if len(injected) > doc_len:
            raise DataError(
                f"doc_len={doc_len} too small to hold {len(injected)} trigger tokens; "
                f"raise doc_len or lower codes_per_doc_mean"
            )
        toks = [f"w{int(j)}" for j in rng.integers(0, filler_vocab, size=doc_len)]
        if injected:
            positions = rng.choice(doc_len, size=len(injected), replace=False)
            for pos, trig in zip(positions, injected):
                toks[int(pos)] = trig
        docs.append(RawDocument(f"syn{i:05d}", gold, " ".join(toks)))
        rows.append(gold)
    return docs, LabelMatrix(n_leaves, rows)


def write_dataset(path: str, docs, tree: CodeTree) -> None:
    """Write documents in the dataset file format (see module docstring)."""
    leaf_names = tree.level(4).names
    lines = [DATASET_HEADER]
    for doc in docs:
        codes = ";".join(leaf_names[int(c)] for c in doc.codes)
        lines.append(f"{doc.doc_id}\t{codes}\t{doc.text}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_dataset(path: str, tree: CodeTree) -> list[RawDocument]:
    """Parse a dataset file, resolving code names through the tree's leaves.

    Every document must carry at least one known leaf code and a doc_id that
    no earlier line used.
    """
    leaf_of = tree.leaf_index()
    docs = []
    seen = set()
    for lineno, line in text_lines(path, skip_comments=True):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                f"{path}:{lineno}: expected 'doc_id<TAB>codes<TAB>text', got {len(parts)} fields"
            )
        doc_id, codes_field, text = parts
        if doc_id in seen:
            raise ParseError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        names = [c for c in codes_field.split(";") if c]
        if not names:
            raise DataError(f"{path}:{lineno}: document {doc_id!r} has no codes")
        try:
            codes = np.unique(np.array([leaf_of[n] for n in names], dtype=np.int64))
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: unknown code {exc.args[0]!r}") from None
        docs.append(RawDocument(doc_id, codes, text))
    return docs
