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
