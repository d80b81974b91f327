"""Checks on the library's source text rather than on its behaviour."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "singerlat"


def test_no_assert_statements_in_src():
    # python -O drops assert statements, and with them any soundness
    # check written as one; the library raises explicitly instead
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "exotic.py" in paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_does_not_import_test_code():
    # the oracles are references for the library; a library module that
    # leaned on them would check itself against itself
    test_modules = {"tests", "oracles", "conftest"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in test_modules]
    assert found == []
