"""Four-level code hierarchies: parsing, one-hot indexing matrices, label propagation.

A hierarchy file is UTF-8 text with one leaf code per line as exactly four
``/``-separated non-empty components (chapter/block/category/code). Lines
starting with ``#`` and blank lines are ignored. Node identifiers must be
unique within a level; the same identifier appearing under two different
parents is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import DataError, ParseError, text_lines

N_LEVELS = 4
LEVEL_NAMES = ("chapter", "block", "category", "code")


@dataclass(frozen=True)
class IndexingMatrix:
    """Sparse binary child-to-parent matrix, one 1 per row.

    Stored as the parent column index of each row. Row r corresponds to the
    r-th node of the child level, column c to the c-th node of the parent
    level.
    """

    parent_index: np.ndarray  # shape (rows,), int64, values in [0, n_cols)
    n_cols: int

    def __post_init__(self):
        pi = np.asarray(self.parent_index, dtype=np.int64)
        object.__setattr__(self, "parent_index", pi)
        if pi.ndim != 1:
            raise DataError("parent_index must be one-dimensional")
        if pi.size and (pi.min() < 0 or pi.max() >= self.n_cols):
            raise DataError("parent index out of range")

    @property
    def rows(self) -> int:
        return int(self.parent_index.shape[0])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.rows, self.n_cols), dtype=np.uint8)
        dense[np.arange(self.rows), self.parent_index] = 1
        return dense


@dataclass(frozen=True)
class TreeLevel:
    """Nodes of one level in deterministic (lexicographic) order."""

    names: tuple[str, ...]
    parents: np.ndarray  # index into the level above (all zeros at level 1)

    @property
    def size(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class CodeTree:
    """The 4-level hierarchy below a virtual root (level 0, a single node)."""

    levels: tuple[TreeLevel, ...]

    def __post_init__(self):
        if len(self.levels) != N_LEVELS:
            raise DataError(f"tree must have exactly {N_LEVELS} levels")

    @property
    def nodes_per_level(self) -> tuple[int, ...]:
        return tuple(lvl.size for lvl in self.levels)

    def level(self, k: int) -> TreeLevel:
        """Level k, 1-based (1=chapter .. 4=code)."""
        if not 1 <= k <= N_LEVELS:
            raise DataError(f"level must be in 1..{N_LEVELS}, got {k}")
        return self.levels[k - 1]

    def indexing_matrix(self, k: int) -> IndexingMatrix:
        """T at level k: maps level-k nodes to their level-(k-1) parents."""
        lvl = self.level(k)
        n_cols = 1 if k == 1 else self.level(k - 1).size
        return IndexingMatrix(lvl.parents, n_cols)

    def leaf_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.level(N_LEVELS).names)}


@dataclass
class LabelMatrix:
    """Binary instance-by-label assignments in sparse row form.

    Each row holds the sorted, duplicate-free positive label indices of one
    instance.
    """

    n_labels: int
    rows: list = field(default_factory=list)

    def __post_init__(self):
        cleaned = []
        for row in self.rows:
            arr = np.unique(np.asarray(row, dtype=np.int64))
            if arr.size and (arr[0] < 0 or arr[-1] >= self.n_labels):
                raise DataError("label index out of range")
            cleaned.append(arr)
        self.rows = cleaned

    @property
    def n_instances(self) -> int:
        return len(self.rows)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_instances, self.n_labels), dtype=np.uint8)
        for i, row in enumerate(self.rows):
            dense[i, row] = 1
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "LabelMatrix":
        dense = np.asarray(dense)
        return cls(dense.shape[1], [np.flatnonzero(r) for r in dense])


def parse_hierarchy(lines) -> CodeTree:
    """Build a CodeTree from an iterable of hierarchy-file lines; errors name ``line <n>``."""
    return _parse_numbered(enumerate(lines, start=1), None)


def _parse_numbered(numbered, path: str | None) -> CodeTree:
    """parse_hierarchy over (line number, line) pairs of the file ``path``; errors name
    ``<path>:<line number>``, or ``line <line number>`` when path is None."""
    where = "line " if path is None else f"{path}:"
    # parent_path_of[k][name] = tuple of ancestor names (levels 1..k-1)
    parent_path_of: list[dict] = [dict() for _ in range(N_LEVELS)]
    seen_paths: set[tuple] = set()
    n_data_lines = 0

    for lineno, raw in numbered:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("/")
        if len(parts) != N_LEVELS or any(not p.strip() for p in parts):
            raise ParseError(
                f"{where}{lineno}: expected 4 non-empty '/'-separated components, got {line!r}"
            )
        parts = tuple(p.strip() for p in parts)
        if parts in seen_paths:
            raise ParseError(f"{where}{lineno}: duplicate code path {'/'.join(parts)!r}")
        seen_paths.add(parts)
        n_data_lines += 1
        for k in range(N_LEVELS):
            name, ancestry = parts[k], parts[:k]
            prior = parent_path_of[k].get(name)
            if prior is None:
                parent_path_of[k][name] = ancestry
            elif prior != ancestry:
                raise ParseError(
                    f"{where}{lineno}: node {name!r} at level {k + 1} already has parent path "
                    f"{'/'.join(prior) or '<root>'!r}"
                )

    if n_data_lines == 0:
        source = "" if path is None else f"{path}: "
        raise ParseError(f"{source}hierarchy is empty (no data lines)")

    levels = []
    index_of_prev: dict[str, int] = {}
    for k in range(N_LEVELS):
        names = tuple(sorted(parent_path_of[k]))
        index_of = {name: i for i, name in enumerate(names)}
        if k == 0:
            parents = np.zeros(len(names), dtype=np.int64)
        else:
            parents = np.array(
                [index_of_prev[parent_path_of[k][n][-1]] for n in names], dtype=np.int64
            )
        levels.append(TreeLevel(names, parents))
        index_of_prev = index_of
    return CodeTree(tuple(levels))


def build_tree(path: str) -> CodeTree:
    """Parse a hierarchy file into a CodeTree. See the module docstring for the format."""
    return _parse_numbered(text_lines(path), path)


def hierarchy_lines(tree: CodeTree) -> list[str]:
    """Normalized hierarchy-file lines (sorted full paths), re-parseable to the same tree."""
    chapters, blocks, cats, codes = tree.levels
    out = []
    for i, code in enumerate(codes.names):
        c = codes.parents[i]
        b = cats.parents[c]
        ch = blocks.parents[b]
        out.append(f"{chapters.names[ch]}/{blocks.names[b]}/{cats.names[c]}/{code}")
    return sorted(out)


def propagate_labels(labels: LabelMatrix, T: IndexingMatrix) -> LabelMatrix:
    """Lift a level-k label matrix to level k-1.

    A parent is positive iff at least one of its children is positive, i.e.
    the binarized product of the label matrix with T.
    """
    if labels.n_labels != T.rows:
        raise DataError(
            f"label matrix has {labels.n_labels} labels but indexing matrix has {T.rows} rows"
        )
    rows = [np.unique(T.parent_index[row]) for row in labels.rows]
    return LabelMatrix(T.n_cols, rows)


def tree_stats(tree: CodeTree) -> str:
    """Deterministic plain-text report: per-level node counts and fanout min/mean/max."""
    lines = []
    counts = tree.nodes_per_level
    for k in range(1, N_LEVELS + 1):
        T = tree.indexing_matrix(k)
        fanout = np.bincount(T.parent_index, minlength=T.n_cols)
        lines.append(
            f"level {k} ({LEVEL_NAMES[k - 1]}): {counts[k - 1]} nodes, "
            f"fanout min/mean/max = {fanout.min()}/{fanout.mean():.2f}/{fanout.max()}"
        )
    lines.append(f"total nodes: {sum(counts)}")
    return "\n".join(lines) + "\n"


def uniform_hierarchy_lines(fanouts=(3, 3, 3, 3)) -> list[str]:
    """Hierarchy lines for a uniform tree with the given per-level fanouts.

    This generator writes the demo tree shipped with the repository
    (fanouts 3/3/3/3 giving level sizes 3/9/27/81).
    """
    if len(fanouts) != N_LEVELS or any(f < 1 for f in fanouts):
        raise DataError("fanouts must be 4 integers >= 1")
    lines = []
    for a in range(fanouts[0]):
        ch = f"c{a}"
        for b in range(fanouts[1]):
            bl = f"{ch}b{b}"
            for c in range(fanouts[2]):
                ca = f"{bl}g{c}"
                for d in range(fanouts[3]):
                    lines.append(f"{ch}/{bl}/{ca}/{ca}x{d}")
    return lines


def sized_hierarchy_lines(sizes=(36, 279, 1167, 8929)) -> list[str]:
    """Hierarchy lines for a tree with exact per-level node counts.

    Children are assigned to parents round-robin, so sizes must be
    non-decreasing across levels. Useful for shape checks at realistic label
    scales without any external data.
    """
    if len(sizes) != N_LEVELS or any(s < 1 for s in sizes):
        raise DataError("sizes must be 4 integers >= 1")
    if any(sizes[k] < sizes[k - 1] for k in range(1, N_LEVELS)):
        raise DataError("sizes must be non-decreasing so every parent has a child")
    widths = [len(str(s - 1)) for s in sizes]
    prefixes = ("c", "b", "g", "x")

    def name(k, i):
        return f"{prefixes[k]}{i:0{widths[k]}d}"

    lines = []
    for i in range(sizes[3]):
        cat = i % sizes[2]
        blk = cat % sizes[1]
        ch = blk % sizes[0]
        lines.append(f"{name(0, ch)}/{name(1, blk)}/{name(2, cat)}/{name(3, i)}")
    return lines
