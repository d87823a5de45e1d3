"""The package binds no names, every import sits at module top, the modules import no cycle,
and only the two input readers open files."""

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


def test_only_the_two_readers_call_open():
    """Text inputs read through util.text_lines, which numbers lines and rejects bytes that
    are not UTF-8, and checkpoints through checkpoint.read_container; no other code in the
    package calls open() (writes go through os.fdopen in util.atomic_write_bytes)."""
    callers = set()
    for name, tree in _modules():
        scope = {}
        for node in ast.walk(tree):  # breadth first: a node's scope is set before its children's
            in_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for child in ast.iter_child_nodes(node):
                scope[child] = node.name if in_def else scope.get(node, "<module>")
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and (getattr(func, "id", None) == "open"
                                               or getattr(func, "attr", None) == "open"):
                callers.add(f"{name}.{scope.get(node, '<module>')}")
    assert callers == {"util.text_lines", "checkpoint.read_container"}
