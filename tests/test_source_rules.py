"""Rules the package source keeps, checked by reading it."""

import ast
from pathlib import Path

import etf_forge

PACKAGE = Path(etf_forge.__file__).parent


def test_no_assert_guards_mathematics():
    # `python -O` strips assert statements, so no check may rely on one.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
