"""The package binds no names, every import sits at module top, and the modules import no cycle."""

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
