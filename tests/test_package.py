"""Source-level properties of the package."""

import ast
import re
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


# numpy 2 names with no numpy 1.x equivalent under that name; pyproject.toml
# declares numpy>=1.24, and stacked norms and transposes invite them
NUMPY2_ONLY = {"vecdot", "matrix_norm", "vector_norm", "matrix_transpose", "permute_dims", "mT"}


def numpy2_names(source: str) -> list:
    """Line numbers and names of numpy-2-only attributes, names and imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.extend(f"{node.lineno}:{name}" for name in names if name in NUMPY2_ONLY)
    return found


def test_numpy_floor_guard_sees_each_name():
    source = ("import numpy as np\nfrom numpy.linalg import matrix_norm\n"
              "x = np.linalg.vecdot(a, b) + np.vecdot(a, b)\ny = a.mT\n")
    assert sorted(numpy2_names(source)) == ["2:matrix_norm", "3:vecdot", "3:vecdot", "4:mT"]


def test_no_numpy2_only_names():
    assert SOURCES
    found = [f"{path.name}:{hit}" for path in SOURCES
             for hit in numpy2_names(path.read_text(encoding="utf-8"))]
    assert found == []


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unread_constants(sources: dict) -> list:
    """Module-level UPPER_CASE constants that no code in the given sources reads.

    sources maps a file name to its text. A constant counts as read where its
    name is loaded, as a name or as an attribute, anywhere in the sources;
    importing or re-exporting it does not count.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            found.extend(f"{name}:{t.id}" for t in targets
                         if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)
                         and t.id not in read)
    return found


def test_constant_guard_sees_an_unread_threshold():
    sources = {"a.py": "CUTOFF = 1e-8\nMARGIN = 0.5\n_LIMIT = 2\n\ndef f(x):\n    return x > MARGIN\n",
               "b.py": "from .a import CUTOFF\nfrom . import a\n\ndef g(x):\n    return a._LIMIT\n"}
    assert unread_constants(sources) == ["a.py:CUTOFF"]


def test_module_constants_are_used():
    # a threshold left behind after the code that compared against it is gone
    assert SOURCES
    assert unread_constants({path.name: path.read_text(encoding="utf-8")
                             for path in SOURCES}) == []


# private functions that nothing in the sources calls by name, with the reason
# each still has to exist
UNREFERENCED_ALLOWED = {
    "canonical.py:HyperbolicBlock._make": "the namedtuple's _replace calls it",
}


def unreferenced_private_functions(sources: dict) -> list:
    """Private functions and methods that no code in the given sources references.

    sources maps a file name to its text. A function counts as referenced
    where its name is loaded, as a name or as an attribute, anywhere in the
    sources; its own definition and imports of it do not count. Dunder
    methods are not private.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        scopes = [("", tree)]
        while scopes:
            prefix, scope = scopes.pop()
            for node in scope.body:
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{prefix}{node.name}.", node))
                elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and node.name.startswith("_") and not node.name.endswith("__")
                      and node.name not in read):
                    found.append(f"{name}:{prefix}{node.name}")
    return sorted(found)


def test_private_function_guard_sees_a_left_over_helper():
    sources = {"a.py": ("def _used(x):\n    return x\n\ndef _left(x):\n    return x\n\n"
                        "class C:\n    def __init__(self):\n        self.v = _used(1)\n\n"
                        "    def _method(self):\n        return 0\n\n"
                        "    def _called(self):\n        return 1\n"),
               "b.py": ("from .a import _left, C\n\ndef f():\n    return C()._called()\n")}
    assert unreferenced_private_functions(sources) == ["a.py:C._method", "a.py:_left"]


def test_private_functions_are_used():
    # a helper left behind after its last caller is gone
    assert SOURCES
    found = unreferenced_private_functions({path.name: path.read_text(encoding="utf-8")
                                            for path in SOURCES})
    assert found == sorted(UNREFERENCED_ALLOWED)
