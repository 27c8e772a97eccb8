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


def test_verifiers_and_io_stay_on_the_planes():
    # The verifiers and the JSON reader and writer read matrices through their
    # integer planes; per-entry scalar scans and scalar parsing stay out.
    found = []
    for name in ("frames.py", "hadamard.py", "serialize.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("entries", "squared_modulus", "from_terms"):
                found.append(f"{name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Name) and node.id in ("squared_modulus", "from_terms"):
                found.append(f"{name}:{node.lineno} {node.id}")
    assert found == []
