import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlat.code_tree import (
    LabelMatrix,
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
        assert tree.level(1).names == ("A", "B")
        assert tree.level(4).names == ("A111", "B111")

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

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError, match=r"^hierarchy is empty \(no data lines\)$"):
            parse_hierarchy(["# nothing else"])

    def test_virtual_root_is_single(self, demo_tree):
        T1 = demo_tree.indexing_matrix(1)
        assert T1.n_cols == 1
        assert np.all(T1.parent_index == 0)


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
            got = propagate_labels(LabelMatrix.from_dense(dense), T).to_dense()
            want = np.zeros((n, T.n_cols), dtype=np.uint8)
            for parent in range(T.n_cols):
                children = np.flatnonzero(T.parent_index == parent)
                if children.size:
                    want[:, parent] = dense[:, children].max(axis=1)
            assert np.array_equal(got, want)

    def test_double_propagation_shape_and_binary(self, demo_tree):
        rng = np.random.default_rng(0)
        dense = (rng.random((10, 81)) < 0.2).astype(np.uint8)
        L3 = propagate_labels(LabelMatrix.from_dense(dense), demo_tree.indexing_matrix(4))
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
