import os
import struct

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


def container_bytes(meta, tensors):
    """A checkpoint container written field by field, so any field can be malformed.

    ``meta`` holds (key, value) byte strings, ``tensors`` (name bytes, dims, data bytes).
    """
    out = [b"XRLT", struct.pack("<II", 1, len(meta))]
    for field in (f for pair in meta for f in pair):
        out += [struct.pack("<I", len(field)), field]
    out.append(struct.pack("<I", len(tensors)))
    for name, dims, data in tensors:
        out += [struct.pack("<I", len(name)), name,
                struct.pack(f"<I{len(dims)}I", len(dims), *dims), data]
    return b"".join(out)


NOT_UTF8 = b"\xff\xfe"

# (meta, tensors, the reader's message after "<path>: ")
MALFORMED_CONTAINERS = [
    pytest.param([(NOT_UTF8, b"v")], [], "string at byte 12 is not UTF-8", id="meta-key"),
    pytest.param([(b"k", NOT_UTF8)], [], "string at byte 17 is not UTF-8", id="meta-value"),
    pytest.param([], [(NOT_UTF8, (1,), bytes(8))], "string at byte 16 is not UTF-8",
                 id="tensor-name"),
    # 2^31 * 2^31 * 4 elements wrap an int64 element count to 0
    pytest.param([], [(b"t", (2**31, 2**31, 4), bytes(8))], "truncated checkpoint",
                 id="dims-overflow"),
    # numpy arrays have at most 64 dimensions; zero-size dims keep the payload empty
    pytest.param([], [(b"t", (0,) * 65, b"")], "tensor 't' has rank 65, above 64",
                 id="rank-65"),
    # numpy checks the size of a zero-size shape over its nonzero dims
    pytest.param([], [(b"t", (0, 2**32 - 1, 2**32 - 1), b"")],
                 f"tensor 't' has shape {(0, 2**32 - 1, 2**32 - 1)}, too large for an array",
                 id="zero-size-overflow"),
]
