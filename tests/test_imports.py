"""Every name a module of src/prismalab imports is used in that module."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "prismalab"


def unused_imports(source):
    """The names bound by import statements of source and never loaded."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nfrom math import comb, gcd as g\n"
              "print(os.sep, g)\n")
    assert unused_imports(source) == [(4, "comb")]


def test_src_has_no_unused_imports():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f.name: unused_imports(f.read_text()) for f in files}
    assert {k: v for k, v in found.items() if v} == {}
