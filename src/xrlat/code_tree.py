"""Four-level code hierarchies: parsing, one-hot indexing matrices, label propagation.

A hierarchy file is UTF-8 text with one leaf code per line as exactly four
``/``-separated non-empty components (chapter/block/category/code); the leaf
code may not contain ``;`` or a TAB, which separate a dataset line's fields. Lines
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
class TreeLevel:
    """One level's nodes in deterministic (lexicographic) order and its indexing matrix T.

    T is the sparse binary child-to-parent matrix, one 1 per row, stored as the
    parent column index of each row: row r is the r-th node of this level, column
    c the c-th node of the level above (the virtual root, one column, at level 1).
    """

    names: tuple[str, ...]
    parent_index: np.ndarray  # shape (rows,), int64, values in [0, n_cols)
    n_cols: int

    @property
    def rows(self) -> int:
        return len(self.names)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.rows, self.n_cols), dtype=np.uint8)
        dense[np.arange(self.rows), self.parent_index] = 1
        return dense


@dataclass(frozen=True)
class CodeTree:
    """The 4-level hierarchy below a virtual root (level 0, a single node)."""

    levels: tuple[TreeLevel, ...]

    @property
    def nodes_per_level(self) -> tuple[int, ...]:
        return tuple(lvl.rows for lvl in self.levels)

    def indexing_matrix(self, k: int) -> TreeLevel:
        """Level k, 1-based (1=chapter .. 4=code), whose T maps its nodes to their
        level-(k-1) parents."""
        if not 1 <= k <= N_LEVELS:
            raise DataError(f"level must be in 1..{N_LEVELS}, got {k}")
        return self.levels[k - 1]

    def leaf_index(self) -> dict[str, int]:
        names = self.levels[-1].names
        return dict(zip(names, range(len(names))))


@dataclass
class LabelMatrix:
    """Binary instance-by-label assignments in sparse row form.

    Each row holds the sorted, duplicate-free positive label indices of one
    instance; one np.unique over the keys row * n_labels + label makes all rows so.
    """

    n_labels: int
    rows: list = field(default_factory=list)

    def __post_init__(self):
        arrays = [np.asarray(row, dtype=np.int64).reshape(-1) for row in self.rows]
        flat = np.concatenate([np.empty(0, dtype=np.int64)] + arrays)
        if flat.size and (flat.min() < 0 or flat.max() >= self.n_labels):
            raise DataError("label index out of range")
        row_ids = np.repeat(np.arange(len(arrays)), [a.size for a in arrays])
        keys = np.unique(row_ids * self.n_labels + flat)
        row_of, labels = np.divmod(keys, self.n_labels)
        starts = np.searchsorted(row_of, np.arange(len(arrays) + 1)).tolist()
        self.rows = [labels[a:b] for a, b in zip(starts, starts[1:])]

    @property
    def n_instances(self) -> int:
        return len(self.rows)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_instances, self.n_labels), dtype=np.uint8)
        for i, row in enumerate(self.rows):
            dense[i, row] = 1
        return dense


def parse_hierarchy(lines) -> CodeTree:
    """Build a CodeTree from an iterable of hierarchy-file lines; errors name ``line <n>``."""
    return _parse_numbered(enumerate(lines, start=1), None)


def _parse_numbered(numbered, path: str | None) -> CodeTree:
    """parse_hierarchy over (line number, line) pairs of the file ``path``; errors name
    ``<path>:<line number>``, or ``line <line number>`` when path is None."""
    where = "line " if path is None else f"{path}:"
    # parent_of[k][name] = the name of the parent of the level-(k + 1) node ``name``;
    # None, the virtual root, for a chapter
    parent_of: list[dict] = [dict() for _ in range(N_LEVELS)]
    chapters, blocks, categories, leaves = parent_of

    for lineno, raw in numbered:
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split("/")
        if len(parts) == N_LEVELS:
            chapter, block, category, leaf = parts
            parts = chapter, block, category, leaf = (
                chapter.strip(), block.strip(), category.strip(), leaf.strip())
        if len(parts) != N_LEVELS or not all(parts):
            raise ParseError(
                f"{where}{lineno}: expected 4 non-empty '/'-separated components, got {line!r}"
            )
        if ";" in leaf or "\t" in leaf:
            raise ParseError(f"{where}{lineno}: leaf code {leaf!r} contains ';' or a TAB, "
                             "which separate the fields of a dataset line")
        n_leaves = len(leaves)
        chapters[chapter] = None
        # top-down, so each node's parent already has one recorded path: checking the
        # parent's name checks the node's whole ancestry
        if (blocks.setdefault(block, chapter) != chapter
                or categories.setdefault(category, block) != block
                or leaves.setdefault(leaf, category) != category):
            raise _moved_node(where, lineno, parent_of, parts)
        if len(leaves) == n_leaves:  # a known leaf under its own parent: the same path
            raise ParseError(f"{where}{lineno}: duplicate code path {'/'.join(parts)!r}")

    if not leaves:
        source = "" if path is None else f"{path}: "
        raise ParseError(f"{source}hierarchy is empty (no data lines)")

    levels = []
    index_of_prev: dict[str | None, int] = {None: 0}  # level 1's parent: the virtual root
    for k in range(N_LEVELS):
        names = tuple(sorted(parent_of[k]))
        parent_names = map(parent_of[k].__getitem__, names)
        parents = np.fromiter(map(index_of_prev.__getitem__, parent_names),
                              dtype=np.int64, count=len(names))
        levels.append(TreeLevel(names, parents, len(index_of_prev)))
        index_of_prev = dict(zip(names, range(len(names))))
    return CodeTree(tuple(levels))


def _moved_node(where: str, lineno: int, parent_of: list[dict], parts) -> ParseError:
    """The error for the line's topmost node whose recorded parent is not the line's,
    naming the path recorded above it."""
    k = next(k for k in range(1, N_LEVELS) if parent_of[k][parts[k]] != parts[k - 1])
    prior, name = [], parts[k]
    for j in range(k, 0, -1):
        name = parent_of[j][name]
        prior.append(name)
    return ParseError(f"{where}{lineno}: node {parts[k]!r} at level {k + 1} already has parent "
                      f"path {'/'.join(reversed(prior))!r}")


def build_tree(path: str) -> CodeTree:
    """Parse a hierarchy file into a CodeTree. See the module docstring for the format."""
    return _parse_numbered(text_lines(path), path)


def hierarchy_lines(tree: CodeTree) -> list[str]:
    """Normalized hierarchy-file lines (sorted full paths), re-parseable to the same tree."""
    chapters, blocks, cats, codes = tree.levels
    out = []
    for i, code in enumerate(codes.names):
        c = codes.parent_index[i]
        b = cats.parent_index[c]
        ch = blocks.parent_index[b]
        out.append(f"{chapters.names[ch]}/{blocks.names[b]}/{cats.names[c]}/{code}")
    return sorted(out)


def propagate_labels(labels: LabelMatrix, T: TreeLevel) -> LabelMatrix:
    """Lift a level-k label matrix to level k-1.

    A parent is positive iff at least one of its children is positive, i.e.
    the binarized product of the label matrix with T.
    """
    if labels.n_labels != T.rows:
        raise DataError(
            f"label matrix has {labels.n_labels} labels but indexing matrix has {T.rows} rows"
        )
    return LabelMatrix(T.n_cols, [T.parent_index[row] for row in labels.rows])


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
