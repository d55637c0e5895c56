"""Source-level properties of the package."""

import ast
import builtins
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import pseudounitary as pu
from conftest import HOSTILE_REALS, anchored

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


def exception_names(trees: dict) -> set:
    """Names of the builtin exception classes and of the classes the given
    module trees derive from them, directly or through each other."""
    names = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    classes = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    grown = True
    while grown:
        new = {c.name for c in classes if c.name not in names
               and any(getattr(b, "id", getattr(b, "attr", None)) in names for b in c.bases)}
        names |= new
        grown = bool(new)
    return names


def exceptions_built_outside_raise(sources: dict) -> list:
    """Calls that build an exception object anywhere but inside a raise statement.

    sources maps a file name to its text. A call builds an exception where it
    calls one of exception_names, by name or as an attribute.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    names = exception_names(trees)
    found = []
    for name, tree in trees.items():
        raised = {id(node) for r in ast.walk(tree) if isinstance(r, ast.Raise)
                  for node in ast.walk(r)}
        found.extend(f"{name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and id(node) not in raised
                     and getattr(node.func, "id", getattr(node.func, "attr", None)) in names)
    return sorted(found, key=lambda x: (x.split(":")[0], int(x.split(":")[1])))


def test_exception_guard_sees_a_returned_error():
    sources = {"a.py": ("class BadInput(ValueError):\n    pass\n\n\n"
                        "class WorseInput(BadInput):\n    pass\n\n\n"
                        "def f(x):\n    if x:\n        raise BadInput('x')\n"
                        "    raise ValueError('y') from KeyError('z')\n\n\n"
                        "def g(x):\n    return WorseInput('w') if x else None\n"),
               "b.py": ("from . import a\n\n\ndef h(out):\n"
                        "    out.append(a.BadInput('v'))\n    err = TypeError('u')\n"
                        "    raise err\n")}
    assert exceptions_built_outside_raise(sources) == ["a.py:16", "b.py:5", "b.py:6"]


def test_exceptions_are_built_where_they_are_raised():
    # a refusal is raised where it is decided, not returned for a caller to raise
    assert SOURCES
    assert exceptions_built_outside_raise({path.name: path.read_text(encoding="utf-8")
                                           for path in SOURCES}) == []


def _tol_calls() -> dict:
    """Calls per public function with a tol parameter, each on a valid (1, 1)
    input and taking the tolerance."""
    m = pu.make_metric(1, 1)
    c, s = math.cosh(0.5), math.sinh(0.5)
    M = np.array([[c, s], [s, c]], dtype=complex)
    gens = pu.extract_generators(M, m)
    empty = pu.GeneratorSet(m, 1, [], np.zeros((0, 2)))
    tangent = pu.LieElement(m, [[0.5]]).matrix()
    return {
        "are_equivalent": [lambda tol: pu.are_equivalent(M, M, m, tol)],
        "block_decompose": [lambda tol: pu.block_decompose(M, m, tol)],
        "canonical_invariant": [lambda tol: pu.canonical_invariant(M, m, tol)],
        "check_compact_intersection": [
            lambda tol: pu.check_compact_intersection(np.eye(2), m, tol)],
        "construct_from_generators": [lambda tol: pu.construct_from_generators(gens, tol),
                                      lambda tol: pu.construct_from_generators(empty, tol)],
        "extract_generators": [lambda tol: pu.extract_generators(M, m, tol)],
        "fast_inverse": [lambda tol: pu.fast_inverse(M, m, tol)],
        "is_hermitian": [lambda tol: pu.is_hermitian(M, tol)],
        "is_in_exp_image": [lambda tol: pu.is_in_exp_image(M, m, tol)],
        "is_pseudo_unitary": [lambda tol: pu.is_pseudo_unitary(M, m, tol)],
        "log_us": [lambda tol: pu.log_us(M, m, tol)],
        "require_member": [lambda tol: pu.require_member(M, m, tol)],
        "validate_generators": [lambda tol: pu.validate_generators(gens, tol),
                                lambda tol: pu.validate_generators(empty, tol)],
        "validate_lie_algebra": [lambda tol: pu.validate_lie_algebra(tangent, m, tol)],
    }


def _refuses(result) -> bool:
    return result is False or (isinstance(result, list) and result != [])


def test_nan_tolerance_always_refuses():
    # a tolerance must be a finite nonnegative number: NaN, an infinity, a
    # negative number, a bool, a string, None, a complex number or an array
    # with entries is refused by every function that takes one
    public = sorted(name for name, value in vars(pu).items() if not name.startswith("_")
                    and inspect.isfunction(value) and "tol" in inspect.signature(value).parameters)
    calls = _tol_calls()
    assert public == sorted(calls)
    inputs = [(name, i) for name in public for i in range(len(calls[name]))]
    for good in (pu.DEFAULT_TOL, np.float64(pu.DEFAULT_TOL), np.array(pu.DEFAULT_TOL)):
        accepted = [(name, i) for name, i in inputs if not _refuses(calls[name][i](good))]
        assert accepted == inputs, good
    for bad in (math.nan, math.inf, -math.inf, -1e-12, *HOSTILE_REALS):
        refused = []
        for name, i in inputs:
            try:
                result = calls[name][i](bad)
            except ValueError:
                refused.append((name, i))
                continue
            if _refuses(result):
                refused.append((name, i))
        assert refused == inputs, bad


def test_a_true_tolerance_is_not_a_tolerance_of_one():
    # True once read as tol = 1 and gave an invariant of 2 I, which is no member
    with pytest.raises(ValueError, match=anchored("tol must be a finite nonnegative number, got True")):
        pu.canonical_invariant(2 * np.eye(4), pu.make_metric(2, 2), tol=True)
