"""Checks on the package source itself, independent of any computation."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "schern"


def test_package_source_has_no_assert_statements():
    # python -O strips assert, so a check that guards a printed number must
    # raise explicitly instead.
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
