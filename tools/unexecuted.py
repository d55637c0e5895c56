"""List the statements in src/pseudounitary that the test suite never runs.

Runs pytest in this process under a line tracer (sys.settrace) that records
the lines executed in the package's modules, then prints every statement
none of whose own lines ran, as path:line and its first source line.
Statements directly in a module or class body count as run, since they run
at import; a statement nested in one, such as the body of a module-level
`if __name__ == "__main__":`, is judged by the trace. Docstrings and other
bare constants have no code and are skipped.

    python tools/unexecuted.py              # tier-1: pytest -q tests
    python tools/unexecuted.py tests/test_cli.py -x

Arguments are passed to pytest. The tracer slows the suite about twofold,
so this stays out of tier-1. Exits with pytest's status. Hypothesis mixes
the literals of every local module it finds loaded, this script among them,
into its draws, so a derandomized test may draw other examples here than
under a plain pytest run.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pseudounitary"


def _own_lines(node: ast.stmt) -> set[int]:
    """The lines of a statement, less those of the statements nested in it."""
    lines = set(range(node.lineno, node.end_lineno + 1))
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            lines -= set(range(child.lineno, child.end_lineno + 1))
        elif isinstance(child, ast.excepthandler):
            # the handler's own "except ...:" lines stay with the try
            for stmt in child.body:
                lines -= set(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def _checked_statements(tree: ast.Module) -> list[ast.stmt]:
    """The statements that compile to code, less those directly in a module or class body."""
    top = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef)):
            top.update(map(id, node.body))
    return sorted((node for node in ast.walk(tree)
                   if isinstance(node, ast.stmt) and id(node) not in top
                   and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))),
                  key=lambda node: node.lineno)


def main(argv: list[str]) -> int:
    executed: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set())
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        ran = executed.get(str(path), set())
        lines = source.splitlines()
        for node in _checked_statements(ast.parse(source)):
            if not _own_lines(node) & ran:
                missed.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                              f"{lines[node.lineno - 1].strip()}")
    print(f"\n{len(missed)} statements in {PACKAGE.relative_to(ROOT)} never ran:")
    print("\n".join(missed))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
