import os

import pytest

from xrlat import network
from xrlat.code_tree import build_tree, parse_hierarchy

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_TREE_PATH = os.path.join(REPO_ROOT, "data", "demo_tree.txt")


@pytest.fixture(scope="session")
def demo_tree():
    return build_tree(DEMO_TREE_PATH)


@pytest.fixture(scope="session")
def demo_tree_path():
    return DEMO_TREE_PATH


@pytest.fixture()
def chain_tree():
    return parse_hierarchy(["A/A1/A11/A111", "A/A1/A11/A112"])


def random_tree(rng, max_per_level=(4, 8, 16, 32)):
    """A random valid 4-level hierarchy for property tests."""
    sizes = [int(rng.integers(1, m + 1)) for m in max_per_level]
    for k in range(1, 4):
        sizes[k] = max(sizes[k], sizes[k - 1])
    lines = []
    parents = [None] * 4
    parents[0] = [0] * sizes[0]
    for k in range(1, 4):
        # every parent gets at least one child; the rest attach randomly
        alloc = list(range(sizes[k - 1]))
        alloc += [int(rng.integers(sizes[k - 1])) for _ in range(sizes[k] - sizes[k - 1])]
        rng.shuffle(alloc)
        parents[k] = alloc
    names = [[f"l{k}n{i:03d}" for i in range(sizes[k])] for k in range(4)]
    for i in range(sizes[3]):
        c = parents[3][i]
        b = parents[2][c]
        a = parents[1][b]
        lines.append(f"{names[0][a]}/{names[1][b]}/{names[2][c]}/{names[3][i]}")
    return parse_hierarchy(lines)


def corrupt_head_dW_cl(monkeypatch):
    """Make network._head_bwd return dW_cl with 1.0 added at row 0, column 0."""
    head_bwd = network._head_bwd

    def corrupted(*args):
        dW_la, dW_cl, db_cl, dHr = head_bwd(*args)
        dW_cl = dW_cl.copy()
        dW_cl[0, 0] += 1.0
        return dW_la, dW_cl, db_cl, dHr

    monkeypatch.setattr(network, "_head_bwd", corrupted)
