"""Source-level properties of the package."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "pseudounitary").glob("*.py"))


def test_no_assert_statements():
    # public functions raise MembershipError or ValueError, never
    # AssertionError, and python -O would strip an assert anyway
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
