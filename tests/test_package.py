"""Source-level properties of the package."""

import ast
import builtins
import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import pseudounitary as pu
from conftest import HOSTILE_INTS, HOSTILE_METRICS, HOSTILE_REALS, anchored

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "pseudounitary").glob("*.py"))


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


def unused_public_names(names, sources: dict, texts: list) -> list:
    """The names that no code in the given sources uses and no given text names.

    sources maps a file name to its text. A name counts as used there where
    it is loaded, as a name or as an attribute, outside its own top-level
    definition; importing or re-exporting it does not count. In texts, a
    name counts where it stands as a whole word.
    """
    used = set()
    for text in sources.values():
        for top in ast.parse(text).body:
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))
                     and isinstance(node.ctx, ast.Load)} - {getattr(top, "name", None)}
    return sorted(name for name in names if name not in used
                  and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts))


def test_public_name_guard_sees_a_planted_name():
    sources = {"a.py": ("LIMIT = 2\n\n\ndef used(x):\n    return x < LIMIT\n\n\n"
                        "def planted(x):\n    return planted(x - 1) if x else 0\n\n\n"
                        "class Shown:\n    pass\n"),
               "__init__.py": "from .a import LIMIT, Shown, named, planted, used\n",
               "b.py": "from .a import used\n\n\ndef g():\n    return used(1)\n"}
    texts = ["`Shown` holds no planted_value", "named\n"]
    names = ["LIMIT", "Shown", "named", "planted", "used"]
    assert unused_public_names(names, sources, texts) == ["planted"]


def test_public_names_are_used():
    # a public name that only the tests use: the package itself, a workload,
    # an acceptance criterion or README has to use it
    names = [name for name, value in vars(pu).items()
             if not name.startswith("_") and not inspect.ismodule(value)]
    texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").iterdir())
             if path.suffix in (".py", ".md")]
    texts += [(ROOT / name).read_text(encoding="utf-8")
              for name in ("tests/test_acceptance.py", "README.md")]
    assert SOURCES and names
    assert unused_public_names(names, {path.name: path.read_text(encoding="utf-8")
                                       for path in SOURCES}, texts) == []


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(sources: dict) -> list:
    """Reads of the process environment in the given sources, as file:line: an
    environ or getenv attribute (bytes forms included), or such a name imported
    from os."""
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
                    or isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(alias.name in ENVIRONMENT_NAMES for alias in node.names)):
                found.append(f"{name}:{node.lineno}")
    return found


def test_environment_guard_sees_each_read():
    sources = {"a.py": ("import os\nfrom os import getenv\n\n\ndef f():\n"
                        "    return os.environ.get('X'), os.getenvb(b'Y'), getenv('Z')\n"),
               "b.py": ("import os as system\n\n\ndef g(path):\n"
                        "    return system.environ['X'], os.path.join(path, 'environ')\n")}
    assert environment_reads(sources) == ["a.py:2", "a.py:6", "a.py:6", "b.py:5"]


def test_nothing_reads_the_environment():
    # upq's tolerance is set by --tol alone; a setting read from the
    # environment would be a second knob that no command line shows
    assert SOURCES
    assert environment_reads({path.name: path.read_text(encoding="utf-8")
                              for path in SOURCES}) == []


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


def _bits(x):
    """A result as nested lists that compare equal only when every array and
    float in it is bitwise equal."""
    if isinstance(x, np.ndarray):
        return [x.dtype.str, x.shape, x.tobytes()]
    if dataclasses.is_dataclass(x):
        return [_bits(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, (tuple, list)):
        return [_bits(v) for v in x]
    return x.hex() if isinstance(x, float) else x


def _public_parameters(annotations) -> list:
    """The parameters, as name.parameter, of the public functions and classes of
    the package whose annotation is one of the given strings (None for none)."""
    found = []
    for name, value in vars(pu).items():
        if name.startswith("_") or not (inspect.isfunction(value) or inspect.isclass(value)
                                        and not issubclass(value, BaseException)):
            continue
        for param in inspect.signature(value).parameters.values():
            annotation = None if param.annotation is param.empty else param.annotation
            if annotation in annotations:
                found.append(f"{name}.{param.name}")
    return sorted(found)


def _int_calls() -> dict:
    """Per integer parameter of the package: a call taking the value, and the
    name and lower bound its refusal shows."""
    return {
        "SignatureMetric.p": (lambda v: pu.SignatureMetric(v, 1), "p", 0),
        "SignatureMetric.q": (lambda v: pu.SignatureMetric(1, v), "q", 0),
        "make_metric.p": (lambda v: pu.make_metric(v, 1), "p", 0),
        "make_metric.q": (lambda v: pu.make_metric(1, v), "q", 0),
        "haar_unitary.n": (lambda v: pu.haar_unitary(v, 0), "n", 1),
        "haar_unitary.seed": (lambda v: pu.haar_unitary(2, v), "seed", 0),
        "sample_upq.seed": (lambda v: pu.sample_upq(pu.make_metric(1, 2), v), "seed", 0),
        "sample_us_lie.seed": (lambda v: pu.sample_us_lie(pu.make_metric(2, 1), v), "seed", 0),
        "SampleSpec.seed": (lambda v: pu.sample_us_pp(pu.SampleSpec(pu.make_metric(2, 2), v)),
                            "seed", 0),
    }


def _sign_calls() -> dict:
    """Per int parameter of the package that is a sign: a call taking the value,
    and the name its refusal shows."""
    return {
        "GeneratorSet.sigma": (lambda v: pu.GeneratorSet(pu.make_metric(1, 1), v, [2.0],
                                                         [[1.0, 0.0]]), "sigma"),
        "HyperbolicBlock.sign": (lambda v: pu.HyperbolicBlock(pu.IOTA, 0.0, v), "block sign"),
    }


def test_every_integer_argument_takes_one_rule():
    # signature entries, every seed and haar_unitary's n are refused by one
    # rule, with ValueError and never numpy's TypeError; a seed of None once
    # drew a fresh seed from the OS on every call
    calls = _int_calls()
    assert _public_parameters({"int"}) == sorted([*calls, *_sign_calls()])
    for name, (call, shown, low) in calls.items():
        for bad in HOSTILE_INTS + ((0,) if low else ()):
            with pytest.raises(ValueError, match=anchored(
                    f"{shown} must be an integer >= {low}, got {bad!r}")):
                call(bad)
        # any integer type gives bitwise the result of the plain int
        plain = _bits(call(3))
        for same in (np.int64(3), np.uint8(3), np.array(3)):
            assert _bits(call(same)) == plain, (name, same)


@pytest.mark.parametrize("sign", [True, np.True_, np.array(True), 0, 2, -1.5, "1", None,
                                  np.array([1]), np.array([[1]]), np.array([1, 1])])
def test_every_sign_takes_one_rule(sign):
    # a bool equals 1 or 0 but is no sign, a 0-d one included; an array with
    # entries is no sign either, though one with a single 1 once passed as 1
    for call, shown in _sign_calls().values():
        with pytest.raises(ValueError, match=anchored(f"{shown} must be +1 or -1, got {sign!r}")):
            call(sign)


def _matrix_calls() -> dict:
    """Per matrix parameter of the package: a valid integer input and a call taking it."""
    m = pu.make_metric(1, 1)
    j, eye = np.array([[1, 0], [0, -1]]), np.eye(2, dtype=int)
    iota = (pu.HyperbolicBlock(pu.IOTA, 0.0, 1),)
    return {
        "BlockDecomposition.q": (eye, lambda a: pu.BlockDecomposition(a, iota).matrix()),
        "GeneratorSet.lambdas": (np.array([2]), lambda a: pu.GeneratorSet(m, 1, a, [[1.0, 0.0]])),
        "GeneratorSet.vectors": (np.array([[1, 0]]), lambda a: pu.GeneratorSet(m, 1, [2.0], a)),
        "LieElement.block": (np.array([[1]]), lambda a: pu.LieElement(m, a)),
        "are_equivalent.M1": (j, lambda a: pu.are_equivalent(a, j, m)),
        "are_equivalent.M2": (j, lambda a: pu.are_equivalent(j, a, m)),
        "assemble_blocks.unitary": (eye, lambda a: pu.assemble_blocks(iota, a)),
        "block_decompose.M": (j, lambda a: pu.block_decompose(a, m)),
        "block_identities_residual.M": (j, lambda a: pu.block_identities_residual(a, m)),
        "canonical_invariant.M": (j, lambda a: pu.canonical_invariant(a, m)),
        "check_compact_intersection.M": (j, lambda a: pu.check_compact_intersection(a, m)),
        "dumps_matrix.m": (j, lambda a: pu.dumps_matrix(a, m)),
        "extract_generators.M": (j, lambda a: pu.extract_generators(a, m)),
        "fast_inverse.M": (j, lambda a: pu.fast_inverse(a, m)),
        "hermitian_residual.M": (j, pu.hermitian_residual),
        "is_hermitian.M": (j, pu.is_hermitian),
        "is_in_exp_image.M": (eye, lambda a: pu.is_in_exp_image(a, m)),
        "is_pseudo_unitary.M": (j, lambda a: pu.is_pseudo_unitary(a, m)),
        "log_us.M": (eye, lambda a: pu.log_us(a, m)),
        "membership_residual.M": (j, lambda a: pu.membership_residual(a, m)),
        "require_member.M": (j, lambda a: pu.require_member(a, m)),
    }


# unannotated or ndarray parameters that no matrix rule applies to, with the reason
NOT_MATRICES = {
    "MatrixDocument.matrix": "a record that loads_matrix fills from entries it has checked",
    "assemble_blocks.blocks": "a list of (kind, t, sign) pieces",
    "invariant_from_blocks.blocks": "a list of (kind, t, sign) pieces",
}


def test_every_matrix_argument_takes_one_rule():
    # a matrix holds numbers: strings, bools and objects are refused by
    # as_matrix's dtype rule, not read as numbers, while an int matrix gives
    # bitwise the answer of its float copy
    calls = _matrix_calls()
    assert _public_parameters({None, "np.ndarray"}) == sorted([*calls, *NOT_MATRICES])
    for name, (valid, call) in calls.items():
        assert valid.dtype.kind == "i"
        assert _bits(call(valid)) == _bits(call(valid.astype(float))), name
        for dtype in (str, bool, object):
            with pytest.raises(ValueError, match="entries must be numbers, got dtype"):
                call(valid.astype(dtype))


def _metric_calls() -> dict:
    """Per metric parameter of the package: a call taking the value, valid with
    the metric of signature (1, 1)."""
    j, eye = np.diag([1.0, -1.0]), np.eye(2)
    return {
        "GeneratorSet.metric": lambda v: pu.GeneratorSet(v, 1, [2.0], [[1.0, 0.0]]),
        "LieElement.metric": lambda v: pu.LieElement(v, [[1.0]]),
        "SampleSpec.metric": lambda v: pu.SampleSpec(v, 0),
        "are_equivalent.metric": lambda v: pu.are_equivalent(j, j, v),
        "block_decompose.metric": lambda v: pu.block_decompose(j, v),
        "block_identities_residual.metric": lambda v: pu.block_identities_residual(j, v),
        "canonical_invariant.metric": lambda v: pu.canonical_invariant(j, v),
        "check_compact_intersection.metric": lambda v: pu.check_compact_intersection(j, v),
        "dumps_matrix.metric": lambda v: pu.dumps_matrix(j, v),
        "extract_generators.metric": lambda v: pu.extract_generators(j, v),
        "fast_inverse.metric": lambda v: pu.fast_inverse(j, v),
        "is_in_exp_image.metric": lambda v: pu.is_in_exp_image(eye, v),
        "is_pseudo_unitary.metric": lambda v: pu.is_pseudo_unitary(j, v),
        "log_us.metric": lambda v: pu.log_us(eye, v),
        "membership_residual.metric": lambda v: pu.membership_residual(j, v),
        "require_member.metric": lambda v: pu.require_member(j, v),
        "sample_upq.metric": lambda v: pu.sample_upq(v, 0),
        "sample_us_lie.metric": lambda v: pu.sample_us_lie(v, 0),
    }


# metric parameters that the metric rule does not apply to, with the reason
NOT_METRICS = {"MatrixDocument.metric": "a record that loads_matrix fills from make_metric"}


def test_every_metric_argument_takes_one_rule():
    # a (p, q) tuple once reached metric.n and failed with AttributeError;
    # every metric parameter now gives the rule's ValueError
    calls = _metric_calls()
    assert _public_parameters({"SignatureMetric"}) == sorted([*calls, *NOT_METRICS])
    for name, call in calls.items():
        call(pu.make_metric(1, 1))
        for bad in HOSTILE_METRICS:
            with pytest.raises(ValueError, match=anchored(
                    f"metric must be a SignatureMetric, got {bad!r}")):
                call(bad)


def test_numeric_strings_and_bools_are_not_matrices():
    with pytest.raises(ValueError, match=anchored("matrix entries must be numbers, got dtype <U2")):
        pu.membership_residual([["1", "0"], ["0", "-1"]], pu.make_metric(1, 1))
    with pytest.raises(ValueError, match=anchored("matrix entries must be numbers, got dtype bool")):
        pu.is_pseudo_unitary([[True, False], [False, True]], pu.make_metric(2, 0))


@pytest.mark.parametrize("lambdas, message", [
    ([2 + 1j], "lambdas must be real numbers"),
    (["2"], "lambdas entries must be numbers, got dtype <U1"),
    ([True], "lambdas entries must be numbers, got dtype bool"),
])
def test_generator_lambdas_are_real_numbers(lambdas, message):
    with pytest.raises(ValueError, match=anchored(message)):
        pu.GeneratorSet(pu.make_metric(1, 1), 1, lambdas, [[1.0, 0.0]])


def test_generator_lambdas_are_stored_as_floats():
    for lambdas in ([2], [2.0 + 0j], np.array([[2.0]])):
        gens = pu.GeneratorSet(pu.make_metric(1, 1), 1, lambdas, [[1.0, 0.0]])
        assert gens.lambdas.dtype == float and gens.lambdas.flags.c_contiguous
        assert gens.lambdas.tolist() == [2.0]


# names of the complex dtype, as np.asarray(x, dtype=...) may spell it
COMPLEX_NAMES = {"complex", "complex128", "complex_", "cdouble"}


def rule_copies(sources: dict) -> list:
    """Code outside metric.py that decides an integer, sign, metric or matrix
    argument itself, as file:line and what it is.

    sources maps a file name to its text. Flagged: an isinstance test against
    bool, np.bool_ or SignatureMetric, operator.index, np.asarray(..., dtype=complex), np.iterable
    (a sequence's entries are read by _checked_reals), and np.random.PCG64 built
    anywhere but sampler._rng, which checks every seed.
    """
    found = []

    def visit(name: str, node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else function
            what = None
            if isinstance(child, ast.ImportFrom) and child.module == "operator" and any(
                    alias.name == "index" for alias in child.names):
                what = "operator.index"
            elif (isinstance(child, ast.Attribute) and child.attr == "index"
                  and getattr(child.value, "id", None) == "operator"):
                what = "operator.index"
            elif isinstance(child, ast.Call):
                called = getattr(child.func, "id", getattr(child.func, "attr", None))
                if called == "isinstance" and len(child.args) == 2 and any(
                        getattr(n, "id", getattr(n, "attr", None)) in ("bool", "bool_")
                        for n in ast.walk(child.args[1])):
                    what = "isinstance bool"
                elif called == "isinstance" and len(child.args) == 2 and any(
                        getattr(n, "id", getattr(n, "attr", None)) == "SignatureMetric"
                        for n in ast.walk(child.args[1])):
                    what = "isinstance SignatureMetric"
                elif called == "asarray" and any(
                        getattr(n, "id", getattr(n, "attr", None)) in COMPLEX_NAMES
                        for n in child.args[1:] + [k.value for k in child.keywords
                                                   if k.arg == "dtype"]):
                    what = "asarray complex"
                elif called == "iterable":
                    what = "iterable"
                elif called == "PCG64" and (name, function) != ("sampler.py", "_rng"):
                    what = "PCG64"
            if what and (name != "metric.py" or what == "PCG64"):
                found.append(f"{name}:{child.lineno}:{what}")
            visit(name, child, inner)

    for name, text in sources.items():
        visit(name, ast.parse(text), None)
    return found


def test_rule_copy_guard_sees_each_copy():
    sources = {
        "a.py": ("import numpy as np\nfrom operator import index, sub\n\n\n"
                 "def f(x, s):\n    if isinstance(s, (bool, np.bool_)):\n        raise ValueError\n"
                 "    return np.asarray(x, dtype=complex), np.asarray(x, np.complex128)\n\n\n"
                 "def h(x):\n    return tuple(x) if np.iterable(x) else ()\n\n\n"
                 "def k(m):\n    return isinstance(m, metric.SignatureMetric)\n"),
        "metric.py": ("import operator\n\n\ndef g(x):\n    if isinstance(x, bool):\n"
                      "        return np.random.PCG64(1)\n    return operator.index(x)\n"),
        "sampler.py": ("def _rng(seed):\n    return np.random.PCG64(seed)\n\n\n"
                       "def other(seed):\n    return np.random.PCG64(seed)\n"),
    }
    assert rule_copies(sources) == [
        "a.py:2:operator.index", "a.py:6:isinstance bool", "a.py:8:asarray complex",
        "a.py:8:asarray complex", "a.py:12:iterable", "a.py:16:isinstance SignatureMetric",
        "metric.py:6:PCG64", "sampler.py:6:PCG64"]


def test_argument_rules_live_in_metric():
    # integers, signs, metrics, matrices and sequences are decided by
    # _checked_int, _checked_sign, _checked_metric, the matrix rule of
    # as_matrix and _measured, and _checked_reals alone, and every seed is
    # checked where the generator is built
    assert SOURCES
    assert rule_copies({path.name: path.read_text(encoding="utf-8") for path in SOURCES}) == []
