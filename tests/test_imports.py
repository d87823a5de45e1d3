"""The package binds no names, every import sits at module top, the modules import no cycle,
only the two input readers open files, one cascade step builds the chain's masks, and one
level loop trains and saves every model."""

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
    package calls open() (writes go through os.fdopen in util.atomic_write_bytes)."""
    assert _callers(["open"]) == {"open": {"util.text_lines", "checkpoint.read_container"}}


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
