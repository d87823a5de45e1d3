import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlat.code_tree import (
    LabelMatrix,
    _parse_numbered,
    build_tree,
    hierarchy_lines,
    parse_hierarchy,
    propagate_labels,
    sized_hierarchy_lines,
    tree_stats,
    uniform_hierarchy_lines,
)
from xrlat.util import DataError, ParseError

from conftest import random_tree


class TestParsing:
    def test_single_chain_pair(self, chain_tree):
        assert chain_tree.nodes_per_level == (1, 1, 1, 2)
        T4 = chain_tree.indexing_matrix(4)
        assert T4.parent_index.tolist() == [0, 0]

    def test_ordering_is_lexicographic(self):
        tree = parse_hierarchy(["B/B1/B11/B111", "A/A1/A11/A111"])
        assert tree.levels[0].names == ("A", "B")
        assert tree.levels[3].names == ("A111", "B111")

    def test_comments_and_blanks_ignored(self):
        tree = parse_hierarchy(["# header", "", "A/A1/A11/A111"])
        assert tree.nodes_per_level == (1, 1, 1, 1)

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_hierarchy(["A/A1/A11/A111", "A/A1/A11"])

    def test_empty_component_rejected(self):
        with pytest.raises(ParseError):
            parse_hierarchy(["A//A11/A111"])

    def test_duplicate_path_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_hierarchy(["A/A1/A11/A111", "A/A1/A11/A111"])

    def test_conflicting_parent_rejected(self):
        with pytest.raises(ParseError):
            parse_hierarchy(["A/X/A11/A111", "B/X/B11/B111"])

    @pytest.mark.parametrize("leaf", ["d;1", "d\t1", "d;"])
    def test_leaf_the_dataset_cannot_hold_rejected(self, leaf):
        with pytest.raises(ParseError, match=r"^line 2: leaf code .* contains ';' or a TAB"):
            parse_hierarchy(["a/b/c/d0", f"a/b/c/{leaf}"])

    def test_separator_in_an_inner_level_accepted(self):
        tree = parse_hierarchy(["a;1/b\t1/c;1/d1"])
        assert tree.levels[1].names == ("b\t1",)

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError, match=r"^hierarchy is empty \(no data lines\)$"):
            parse_hierarchy(["# nothing else"])

    def test_virtual_root_is_single(self, demo_tree):
        T1 = demo_tree.indexing_matrix(1)
        assert T1.n_cols == 1
        assert np.all(T1.parent_index == 0)

    def test_indexing_matrix_is_the_level(self, demo_tree):
        for k in range(1, 5):
            assert demo_tree.indexing_matrix(k) is demo_tree.levels[k - 1]

    @pytest.mark.parametrize("k", [0, 5])
    def test_indexing_matrix_rejects_a_level_outside_1_to_4(self, demo_tree, k):
        with pytest.raises(DataError, match=f"level must be in 1..4, got {k}"):
            demo_tree.indexing_matrix(k)


class TestDemoTree:
    def test_level_sizes(self, demo_tree):
        assert demo_tree.nodes_per_level == (3, 9, 27, 81)

    def test_matches_generator(self, demo_tree_path, demo_tree):
        regenerated = parse_hierarchy(uniform_hierarchy_lines())
        disk = build_tree(demo_tree_path)
        assert hierarchy_lines(regenerated) == hierarchy_lines(disk)

    def test_three_ones_per_column(self, demo_tree):
        for k in range(1, 5):
            dense = demo_tree.indexing_matrix(k).to_dense()
            assert np.all(dense.sum(axis=0) == 3)

    def test_stats_fanout_three_everywhere(self, demo_tree):
        text = tree_stats(demo_tree)
        assert text.count("fanout min/mean/max = 3/3.00/3") == 4


class TestRealisticScale:
    def test_level_counts(self):
        tree = parse_hierarchy(sized_hierarchy_lines((36, 279, 1167, 8929)))
        assert tree.nodes_per_level == (36, 279, 1167, 8929)
        stats = tree_stats(tree)
        assert "36 nodes" in stats and "8929 nodes" in stats


class TestPropagation:
    def test_siblings_collapse_to_one_parent(self):
        tree = parse_hierarchy(
            ["A/A1/A11/x1", "A/A1/A11/x2", "A/A1/A12/x3"]
        )
        # three codes: x1, x2 share category A11; x3 in A12
        L = LabelMatrix(3, [[0, 1]])
        out = propagate_labels(L, tree.indexing_matrix(4))
        assert out.n_labels == 2
        assert out.rows[0].tolist() == [0]

    def test_zero_row_stays_zero(self, demo_tree):
        L = LabelMatrix(81, [[]])
        out = propagate_labels(L, demo_tree.indexing_matrix(4))
        assert out.rows[0].size == 0

    def test_dimension_mismatch(self, demo_tree):
        with pytest.raises(DataError):
            propagate_labels(LabelMatrix(80, [[0]]), demo_tree.indexing_matrix(4))

    def test_matches_bruteforce_parent_or(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            tree = random_tree(rng, max_per_level=(4, 10, 30, 200))
            T = tree.indexing_matrix(4)
            n, v = 50, tree.nodes_per_level[3]
            dense = (rng.random((n, v)) < 0.1).astype(np.uint8)
            labels = LabelMatrix(v, [np.flatnonzero(r) for r in dense])
            got = propagate_labels(labels, T).to_dense()
            want = np.zeros((n, T.n_cols), dtype=np.uint8)
            for parent in range(T.n_cols):
                children = np.flatnonzero(T.parent_index == parent)
                if children.size:
                    want[:, parent] = dense[:, children].max(axis=1)
            assert np.array_equal(got, want)

    def test_double_propagation_shape_and_binary(self, demo_tree):
        rng = np.random.default_rng(0)
        dense = (rng.random((10, 81)) < 0.2).astype(np.uint8)
        L3 = propagate_labels(LabelMatrix(81, [np.flatnonzero(r) for r in dense]),
                              demo_tree.indexing_matrix(4))
        L2 = propagate_labels(L3, demo_tree.indexing_matrix(3))
        d2 = L2.to_dense()
        assert d2.shape == (10, 9)
        assert set(np.unique(d2)) <= {0, 1}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_indexing_matrix_rows_have_exactly_one_one(seed):
    tree = random_tree(np.random.default_rng(seed))
    for k in range(1, 5):
        dense = tree.indexing_matrix(k).to_dense()
        assert np.all(dense.sum(axis=1) == 1)


def test_label_matrix_rejects_out_of_range():
    with pytest.raises(DataError):
        LabelMatrix(3, [[3]])


def test_label_matrix_rows_sorted_unique():
    lm = LabelMatrix(5, [[3, 1, 3, 0]])
    assert lm.rows[0].tolist() == [0, 1, 3]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.lists(st.integers(0, n - 1), max_size=8),
                                             max_size=6))))
def test_label_matrix_rows_equal_per_row_unique(case):
    """The one np.unique over (row, label) keys gives every row, empty rows and an empty
    matrix included, bitwise as an np.unique of that row alone."""
    n_labels, rows = case
    got = LabelMatrix(n_labels, rows).rows
    assert len(got) == len(rows)
    for row, want in zip(got, (np.unique(np.asarray(r, dtype=np.int64)) for r in rows)):
        assert row.dtype == want.dtype and row.tobytes() == want.tobytes()


def full_ancestry_parse(lines, path=None):
    """The parser as first written: each node's whole ancestry tuple is recorded and
    compared, and every full path is kept in a set. ``parse_hierarchy`` must accept,
    reject and word its errors exactly as this does."""
    where = "line " if path is None else f"{path}:"
    parent_path_of = [dict() for _ in range(4)]
    seen_paths = set()
    n_data_lines = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("/")
        if len(parts) != 4 or any(not p.strip() for p in parts):
            raise ParseError(
                f"{where}{lineno}: expected 4 non-empty '/'-separated components, got {line!r}"
            )
        parts = tuple(p.strip() for p in parts)
        if ";" in parts[3] or "\t" in parts[3]:
            raise ParseError(f"{where}{lineno}: leaf code {parts[3]!r} contains ';' or a TAB, "
                             "which separate the fields of a dataset line")
        if parts in seen_paths:
            raise ParseError(f"{where}{lineno}: duplicate code path {'/'.join(parts)!r}")
        seen_paths.add(parts)
        n_data_lines += 1
        for k in range(4):
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
    index_of_prev = {}
    for k in range(4):
        names = tuple(sorted(parent_path_of[k]))
        if k == 0:
            parents = np.zeros(len(names), dtype=np.int64)
        else:
            parents = np.array([index_of_prev[parent_path_of[k][n][-1]] for n in names],
                               dtype=np.int64)
        levels.append((names, parents))
        index_of_prev = {name: i for i, name in enumerate(names)}
    return levels


FAULTS = ("duplicate", "move", "components", "blank", "separator", "comment", "padded",
          "fresh", "cross-level")


@st.composite
def faulty_hierarchies(draw):
    """A random 4-level tree's lines in random order, with up to four injected lines:
    duplicates, a node under a second parent (at any level), wrong component counts,
    blank components, ';' or TAB in a leaf or an inner node, comments and blank lines,
    padded copies, fresh paths and names reused across levels."""
    tree = random_tree(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), (3, 5, 8, 12))
    lines = draw(st.permutations(hierarchy_lines(tree)))
    for _ in range(draw(st.integers(0, 4))):
        fault = draw(st.sampled_from(FAULTS))
        parts = draw(st.sampled_from(lines)).strip().split("/")
        if len(parts) != 4 or not all(p.strip() for p in parts):
            parts = ["x", "y", "z", "w"]
        parts = [p.strip() for p in parts]
        fresh = [f"f{k}n{draw(st.integers(0, 2))}" for k in range(4)]
        if fault == "move":  # the node keeps its name under another line's ancestors
            k = draw(st.integers(1, 3))
            other = draw(st.sampled_from(lines)).strip().split("/")
            if len(other) == 4:
                parts = [p.strip() for p in other[:k]] + parts[k:k + 1] + (
                    parts[k + 1:] if draw(st.booleans()) else fresh[k + 1:])
        elif fault == "components":
            parts = parts[:draw(st.sampled_from([1, 2, 3]))] if draw(st.booleans()) else (
                parts + fresh[:draw(st.integers(1, 2))])
        elif fault == "blank":
            parts[draw(st.integers(0, 3))] = draw(st.sampled_from(["", " ", "\t"]))
        elif fault == "separator":
            k = draw(st.integers(0, 3))
            parts = fresh[:k] + [parts[k] + draw(st.sampled_from([";1", "\t1", ";"]))] + (
                fresh[k + 1:])
        elif fault == "comment":
            parts = [draw(st.sampled_from(["# a/b/c/d", "  #x", "", "   ", "#"]))]
        elif fault == "padded":
            parts = [f" {p}\t" for p in parts]
        elif fault == "fresh":
            parts = fresh
        elif fault == "cross-level":  # names are unique within a level, not across levels
            k, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            parts = fresh[:j] + [parts[k]] + fresh[j + 1:]
        lines.insert(draw(st.integers(0, len(lines))), "/".join(parts))
    return lines


@settings(max_examples=200, deadline=None)
@given(faulty_hierarchies(), st.sampled_from([None, "tree.txt"]))
def test_parser_matches_full_ancestry_parser(lines, path):
    """The parent-name checks accept, reject and word their errors (line, node, level
    and prior path) exactly as the full-ancestry parser did."""
    try:
        expected = full_ancestry_parse(lines, path)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _parse_numbered(enumerate(lines, start=1), path)
        assert str(got.value) == str(exc)
        return
    tree = _parse_numbered(enumerate(lines, start=1), path)
    for level, (names, parents) in zip(tree.levels, expected):
        assert level.names == names
        assert level.parent_index.dtype == parents.dtype
        assert level.parent_index.tolist() == parents.tolist()
