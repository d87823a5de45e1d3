"""The package binds no names, every import sits at module top, the modules import no cycle,
only the two input readers open files, the dataset reader cleans each text once, one cascade
step builds the chain's masks, one level loop trains and saves every model, only chunk builds
a document, only the parser builds a tree, one helper multiplies activations with the
encoder's block weights, and one kernel computes the loss."""

import ast
import os

import xrlat

PACKAGE_DIR = os.path.dirname(xrlat.__file__)


def _modules():
    for fname in sorted(os.listdir(PACKAGE_DIR)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, fname), encoding="utf-8") as fh:
                yield fname[:-3], ast.parse(fh.read(), filename=fname)


def test_package_init_binds_no_names():
    init = dict(_modules())["__init__"]
    assert ast.get_docstring(init) and len(init.body) == 1


def test_no_import_inside_a_function():
    found = []
    for name, tree in _modules():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}.py:{node.lineno} in {func.name}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_package_imports_are_acyclic():
    graph = {}
    for name, tree in _modules():
        deps = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= ({node.module.split(".")[0]} if node.module
                         else {alias.name for alias in node.names})
        graph[name] = deps - {name}
    done, path = set(), []

    def visit(name):
        assert name not in path, f"import cycle: {' -> '.join(path + [name])}"
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in graph:
        visit(name)


def _callers(callees):
    """{callee: the "module.function" names that call it}, for calls by bare name or as an
    attribute anywhere in the package (module-level calls read "module.<module>")."""
    found = {name: set() for name in callees}
    for mod, tree in _modules():
        scope = {}
        for node in ast.walk(tree):  # breadth first: a node's scope is set before its children's
            in_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for child in ast.iter_child_nodes(node):
                scope[child] = node.name if in_def else scope.get(node, "<module>")
            func = getattr(node, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(node, ast.Call) and name in found:
                found[name].add(f"{mod}.{scope.get(node, '<module>')}")
    return found


def test_only_the_two_readers_call_open():
    """Text inputs read through util.text_lines, which numbers lines and rejects bytes that
    are not UTF-8, and checkpoints through checkpoint.read_container; no other code in the
    package calls open() (writes go through os.fdopen in util.atomic_write)."""
    assert _callers(["open"]) == {"open": {"util.text_lines", "checkpoint.read_container"}}


def test_the_dataset_reader_cleans_each_text_once():
    """textproc.read_dataset stores each document's text cleaned, and the vocabulary and
    the tokenizer read that text as it stands: only the reader and `data clean`
    (cli._cmd_data) call clean_text, so a second cleaning pass cannot come back."""
    assert _callers(["clean_text"]) == {"clean_text": {"textproc.read_dataset", "cli._cmd_data"}}


def test_one_cascade_step_builds_the_masks():
    """Chain training and prediction share one cascade step: only training._child_masks
    calls the mask builders (training_mask's own call of inference_mask aside), and only
    training._level_probs runs forward_probs, so a second cascade loop cannot come back."""
    assert _callers(["training_mask", "inference_mask", "forward_probs"]) == {
        "training_mask": {"training._child_masks"},
        "inference_mask": {"training._child_masks", "training.training_mask"},
        "forward_probs": {"training._level_probs"},
    }


def test_one_level_loop_trains_every_model():
    """Flat and chain training share one level loop: only training._train_levels runs a
    level's steps, saves a model and bootstraps a level (bootstrap_hyperc's own call of
    bootstrap_equal aside), so a second training loop cannot come back."""
    assert _callers(["_train_level", "save_model", "bootstrap_equal", "bootstrap_hyperc"]) == {
        "_train_level": {"training._train_levels"},
        "save_model": {"training._train_levels"},
        "bootstrap_equal": {"training._train_levels", "training.bootstrap_hyperc"},
        "bootstrap_hyperc": {"training._train_levels"},
    }


def test_only_chunk_builds_a_document():
    """textproc.chunk, which rejects an empty token sequence and pads only the last
    chunk's tail, is the one constructor of ChunkedDocument in the package, so every
    document's every chunk holds a real token."""
    assert _callers(["ChunkedDocument"]) == {"ChunkedDocument": {"textproc.chunk"}}


def test_only_the_parser_builds_a_tree():
    """code_tree._parse_numbered, which gives every level n_cols = the size of the level
    above and parent indices into that level, is the one constructor of TreeLevel and
    CodeTree in the package, so each level's indexing matrix is in range without a check."""
    assert _callers(["TreeLevel", "CodeTree"]) == {
        "TreeLevel": {"code_tree._parse_numbered"},
        "CodeTree": {"code_tree._parse_numbered"},
    }


def test_block_weights_multiply_only_in_project():
    """Each product of an activation with a block weight is one 2-D GEMM over a document's
    chunks * c rows: no @ or np.matmul in network.py outside network._project takes a
    block weight (blk.q, ..., blk.ff2, or its .T) as an operand, so a per-chunk 3-D
    product cannot come back."""
    weights = {"q", "k", "v", "o", "ff1", "ff2"}

    def is_weight(node):
        if isinstance(node, ast.Attribute) and node.attr == "T":
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr in weights

    tree = dict(_modules())["network"]
    project = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_project")
    inside = set(ast.walk(project))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            operands = [node.target, node.value]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "matmul":
            operands = node.args
        else:
            continue
        if node not in inside and any(map(is_weight, operands)):
            found.append(f"network.py:{node.lineno}")
    assert found == []
    assert _callers(["_project"]) == {"_project": {"network._encode_fwd", "network._encode_bwd"}}


def test_one_loss_kernel():
    """BCE is the asymmetric loss at LossConfig()'s (0, 0, 0): losses.py defines one
    function, loss_and_grad, and only network._loss calls it, so a second loss kernel
    cannot come back."""
    losses = dict(_modules())["losses"]
    assert [node.name for node in ast.walk(losses)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))] == ["loss_and_grad"]
    assert _callers(["loss_and_grad"]) == {"loss_and_grad": {"network._loss"}}
