"""Metric construction and membership predicates."""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (anchored, block_unitary, count_calls, hyperbolic, indefinite_product,
                      two_read_measured, unscaled_residuals)
import pseudounitary as pu
from pseudounitary import canonical as canonical_module
from pseudounitary import metric as metric_module
from pseudounitary import (
    LieElement,
    MembershipError,
    SignatureMetric,
    assemble_blocks,
    block_identities_residual,
    canonical_invariant,
    check_compact_intersection,
    exp_us,
    fast_inverse,
    hermitian_residual,
    is_hermitian,
    is_pseudo_unitary,
    make_metric,
    membership_residual,
    require_member,
    sample_upq,
)

LN2 = np.log(2.0)


class TestMakeMetric:
    def test_basic_shapes(self):
        m = make_metric(1, 1)
        assert np.array_equal(m.matrix, np.diag([1.0, -1.0]))
        m = make_metric(1, 2)
        assert np.array_equal(m.matrix, np.diag([1.0, -1.0, -1.0]))

    def test_involution(self):
        j = make_metric(2, 2).matrix
        assert np.array_equal(j @ j, np.eye(4))

    def test_degenerate_signatures_allowed(self):
        assert make_metric(0, 3).n == 3
        assert make_metric(3, 0).n == 3

    def test_empty_signature_rejected(self):
        with pytest.raises(ValueError):
            make_metric(0, 0)
        with pytest.raises(ValueError):
            make_metric(-1, 2)

    def test_boolean_signature_rejected(self):
        # bool is a subclass of int; True must not pass for a dimension of 1
        with pytest.raises(ValueError):
            SignatureMetric(True, True)
        with pytest.raises(ValueError):
            SignatureMetric(1, False)
        with pytest.raises(ValueError):
            make_metric(True, 1)
        # floats are refused, not truncated; numpy integers are dimensions
        with pytest.raises(ValueError):
            make_metric(2.7, 1)
        with pytest.raises(ValueError):
            make_metric(2, 1.0)
        m = make_metric(np.int64(2), np.int32(1))
        assert (m.p, m.q) == (2, 1) and type(m.p) is int

    def test_signature_metric_takes_the_integer_rule(self):
        # the constructor itself takes any integer type and stores plain ints
        m = SignatureMetric(np.int64(2), np.int64(3))
        assert m == make_metric(2, 3) and hash(m) == hash(make_metric(2, 3))
        assert type(m.p) is int and type(m.q) is int
        # each entry takes the one integer rule, whose message names the entry it refuses
        for p, q in ((True, 1), (np.True_, 1), (2.0, 2), (2, np.float64(2.0)), ("2", 2)):
            name, bad = ("q", q) if type(p) is int else ("p", p)
            with pytest.raises(ValueError, match=anchored(
                    f"{name} must be an integer >= 0, got {bad!r}")):
                SignatureMetric(p, q)


class TestSigns:
    def test_computed_once_and_read_only(self):
        m = make_metric(2, 3)
        signs = m.signs
        assert signs is m.signs
        assert np.array_equal(signs, [1.0, 1.0, -1.0, -1.0, -1.0])
        with pytest.raises(ValueError):
            signs[0] = -1.0
        # the metric matrix is a fresh array the caller may change
        j = m.matrix
        j[0, 0] = 7.0
        assert np.array_equal(m.matrix, np.diag(signs))

    def test_equality_and_hashing_ignore_the_cache(self):
        a, b = make_metric(2, 3), make_metric(2, 3)
        assert a.signs is not None
        assert a == b and hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
        assert a != make_metric(3, 2)


class TestForms:
    def test_form_preserved_by_members(self):
        m = make_metric(2, 2)
        rng = np.random.default_rng(5)
        for seed in range(10):
            M = sample_upq(m, seed)
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert indefinite_product(M @ z, M @ w, m) == pytest.approx(
                indefinite_product(z, w, m), abs=1e-10
            )


class TestMembership:
    def test_identity_exact(self):
        m = make_metric(2, 2)
        assert membership_residual(np.eye(4), m) == 0.0

    def test_hyperbolic_member(self):
        m = make_metric(1, 1)
        assert membership_residual(hyperbolic(LN2), m) <= 1e-15

    def test_scaled_identity_value(self):
        # ||4J - J||_F / (1 + ||2I||_F^2) = 3 sqrt(2) / 9, worked by hand
        m = make_metric(1, 1)
        assert membership_residual(2.0 * np.eye(2), m) == pytest.approx(
            3.0 * np.sqrt(2.0) / 9.0
        )

    def test_predicate(self):
        m = make_metric(1, 1)
        assert is_pseudo_unitary(np.eye(2), m)
        assert is_pseudo_unitary(hyperbolic(LN2), m)
        assert not is_pseudo_unitary(2.0 * np.eye(2), m)

    def test_shape_rejected(self):
        m = make_metric(1, 1)
        with pytest.raises(ValueError):
            membership_residual(np.eye(3), m)

    def test_residual_invariances(self):
        m = make_metric(2, 1)
        rng = np.random.default_rng(23)
        for seed in range(8):
            M = sample_upq(m, seed)
            base = membership_residual(M, m)
            assert membership_residual(-M, m) == pytest.approx(base, abs=1e-14)
            Q = block_unitary(m, rng)
            assert membership_residual(Q.conj().T @ M @ Q, m) == pytest.approx(
                base, abs=1e-12
            )

    def test_members_have_unimodular_det(self):
        m = make_metric(2, 2)
        for seed in range(10):
            M = sample_upq(m, seed)
            assert abs(abs(np.linalg.det(M)) - 1.0) <= 1e-10


class TestHermitian:
    def test_examples(self):
        assert is_hermitian(np.diag([1.0, -1.0]))
        assert not is_hermitian(np.array([[0, 1j], [1j, 0]]))
        assert is_hermitian(np.array([[0, 1j], [-1j, 0]]))

    def test_residual_zero_on_real_symmetric(self):
        assert hermitian_residual(hyperbolic(0.3)) == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"^matrix must be square, got shape \(2, 3\)$"):
            hermitian_residual(np.ones((2, 3)))


class TestBlockIdentities:
    def test_member_near_zero(self):
        m = make_metric(1, 1)
        assert block_identities_residual(hyperbolic(LN2), m) <= 1e-15
        assert block_identities_residual(np.eye(2), m) == 0.0

    def test_non_member_positive(self):
        m = make_metric(1, 1)
        assert block_identities_residual(np.ones((2, 2)), m) > 1e-2

    def test_bounded_by_membership_residual(self):
        m = make_metric(2, 2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            blk = block_identities_residual(M, m)
            mem = membership_residual(M, m)
            assert blk <= mem * (1.0 + 1e-12) + 1e-15

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2**31 - 1),
           st.sampled_from(["member", "perturbed", "block_diagonal"]))
    def test_bounded_up_to_rounding(self, p, q, seed, kind):
        # the blocks come from the defect membership_residual measures, so the
        # bound holds to the rounding of the two norms, exact members included
        assume(p + q > 0)
        m = make_metric(p, q)
        rng = np.random.default_rng(seed)
        if kind == "block_diagonal":
            z = rng.standard_normal((m.n, m.n, 2)).view(complex)[..., 0]
            M = np.where(np.equal.outer(m.signs, m.signs), z, 0.0)
        else:
            M = sample_upq(m, seed)
            if kind == "perturbed":
                M = M + 1e-9 * rng.standard_normal((m.n, m.n))
        bound = membership_residual(M, m) * (1.0 + 4.0 * np.finfo(float).eps)
        assert block_identities_residual(M, m) <= bound


class TestFastInverse:
    def test_metric_is_its_own_inverse(self):
        m = make_metric(1, 2)
        assert np.allclose(fast_inverse(m.matrix, m), m.matrix)

    def test_hyperbolic_frozen(self):
        m = make_metric(1, 1)
        expected = np.array([[1.25, -0.75], [-0.75, 1.25]])
        assert np.allclose(fast_inverse(hyperbolic(LN2), m), expected, atol=1e-15)

    def test_block_unitary_inverse_is_adjoint(self):
        m = make_metric(2, 3)
        Q = block_unitary(m, np.random.default_rng(9))
        assert np.allclose(fast_inverse(Q, m), Q.conj().T, atol=1e-12)

    def test_rejects_non_member(self):
        m = make_metric(1, 1)
        with pytest.raises(MembershipError):
            fast_inverse(2.0 * np.eye(2), m)

    def test_two_sided_inverse_on_samples(self):
        m = make_metric(2, 2)
        for seed in range(20):
            M = sample_upq(m, seed)
            inv = fast_inverse(M, m)
            assert np.linalg.norm(inv @ M - np.eye(4)) <= 1e-10
            assert np.linalg.norm(M @ inv - np.eye(4)) <= 1e-10


class TestCompactIntersection:
    def test_block_unitary_accepted(self):
        m = make_metric(2, 2)
        Q = block_unitary(m, np.random.default_rng(2))
        assert check_compact_intersection(Q, m)
        assert check_compact_intersection(np.eye(4), m)

    def test_hyperbolic_rejected(self):
        m = make_metric(1, 1)
        assert not check_compact_intersection(hyperbolic(LN2), m)

    def test_generic_member_rejected(self):
        m = make_metric(2, 1)
        for seed in range(5):
            assert not check_compact_intersection(sample_upq(m, seed), m)

    def test_unitary_residual(self):
        assert _unitary_residual(np.eye(3)) == 0.0
        assert _unitary_residual(2 * np.eye(2)) > 0.1

    def test_one_measurement_per_check(self, monkeypatch):
        # both residuals, and the norm of the block test, read one _scaled(M)
        m = make_metric(2, 2)
        Q = block_unitary(m, np.random.default_rng(2))
        measured = count_calls(monkeypatch, "_scaled", metric_module, canonical_module)
        assert check_compact_intersection(Q, m)
        assert len(measured) == 1
        norms = count_calls(monkeypatch, "norm", np.linalg)
        assemble_blocks([("hyperbolic", 0.5, 1), ("iota", 0.0, -1)], Q)
        assert len(measured) == 2
        assert all(x.shape != Q.shape for x in norms)


def _validating_calls() -> dict:
    """Per validating public function: a call on a complex Hermitian member of
    U(2, 2) (two for are_equivalent, a block unitary for assemble_blocks), the
    matrices it validates, and the number of _scaled calls: one per matrix,
    and one more where the canonical frame scales the validated matrix for
    its reassembly residual."""
    m = make_metric(2, 2)
    M = np.kron(np.eye(2), hyperbolic(LN2))[[0, 2, 1, 3]][:, [0, 2, 1, 3]]
    N = M.conj().T.copy()
    Q = block_unitary(m, np.random.default_rng(3))
    pieces = [("hyperbolic", 0.5, 1), ("iota", 0.0, -1)]
    return {
        "require_member": (lambda: pu.require_member(M, m), [M], 1),
        "require_member_any": (lambda: pu.require_member(M, m, hermitian=False), [M], 1),
        "fast_inverse": (lambda: pu.fast_inverse(M, m), [M], 1),
        "membership_residual": (lambda: pu.membership_residual(M, m), [M], 1),
        "is_pseudo_unitary": (lambda: pu.is_pseudo_unitary(M, m), [M], 1),
        "hermitian_residual": (lambda: pu.hermitian_residual(M), [M], 1),
        "is_hermitian": (lambda: pu.is_hermitian(M), [M], 1),
        "block_identities_residual": (lambda: pu.block_identities_residual(M, m), [M], 1),
        "check_compact_intersection": (lambda: pu.check_compact_intersection(M, m), [M], 1),
        "assemble_blocks": (lambda: pu.assemble_blocks(pieces, Q), [Q], 1),
        "canonical_invariant": (lambda: pu.canonical_invariant(M, m), [M], 1),
        "are_equivalent": (lambda: pu.are_equivalent(M, N, m), [M, N], 2),
        "log_us": (lambda: pu.log_us(M, m), [M], 1),
        "is_in_exp_image": (lambda: pu.is_in_exp_image(M, m), [M], 1),
        "block_decompose": (lambda: pu.block_decompose(M, m), [M], 2),
        "extract_generators": (lambda: pu.extract_generators(M, m), [M], 2),
    }


class TestValidatesOnce:
    # every public function reads the matrix it validates once, through
    # _measured, whose max-abs decides finiteness; np.isfinite never sees it
    @pytest.mark.parametrize("name", sorted(_validating_calls()))
    def test_one_coercion_per_call(self, monkeypatch, name):
        call, matrices, scalings = _validating_calls()[name]
        measured = count_calls(monkeypatch, "_measured", metric_module, canonical_module)
        scaled = count_calls(monkeypatch, "_scaled", metric_module, canonical_module)
        finite_checks = count_calls(monkeypatch, "isfinite", np)
        call()
        assert [id(x) for x in measured] == [id(x) for x in matrices]
        assert len(scaled) == scalings
        assert not any(np.shares_memory(x, a) for x in finite_checks for a in matrices)

    def test_every_validating_function_is_listed(self):
        # every public function whose first parameter is a matrix, and the
        # unitary of assemble_blocks
        first = {name: next(iter(inspect.signature(value).parameters))
                 for name, value in vars(pu).items()
                 if inspect.isfunction(value) and not name.startswith("_")}
        validating = {name for name, param in first.items() if param in ("M", "M1")}
        assert validating | {"assemble_blocks"} == set(_validating_calls()) - {"require_member_any"}


@st.composite
def residual_inputs(draw):
    """A matrix at some signature (p, q), n <= 6: a random, Hermitian or member matrix
    with entries from 1e-100 to about 1e75, or an exp_us member with t up to 190."""
    n = draw(st.integers(1, 6))
    p = draw(st.integers(0, n))
    metric = make_metric(p, n - p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "hermitian", "member", "exp"]))
    if kind == "exp" and metric.p and metric.q:
        b = rng.standard_normal((p, n - p)) + 1j * rng.standard_normal((p, n - p))
        t = draw(st.floats(0.0, 190.0))
        return metric, exp_us(LieElement(metric=metric, block=t * b / np.linalg.norm(b, 2)))
    if kind == "member":
        x = sample_upq(metric, int(rng.integers(2**31)))
    else:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "hermitian":
            x = x + x.conj().T
    return metric, x * 10.0 ** draw(st.floats(-100.0, 75.0))


@st.composite
def measured_inputs(draw):
    """(metric or None, matrix): residual_inputs, the largest part moved to up to
    1e308, with a NaN or an infinity planted, transposed, real, or a row short."""
    metric, x = draw(residual_inputs())
    x = np.array(x, dtype=complex)
    big = np.abs(x.view(float)).max()
    if draw(st.booleans()) and big > 0:
        x = x / big * 10.0 ** draw(st.floats(-300.0, 308.0))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, metric.n - 1)), draw(st.integers(0, metric.n - 1))
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        x.view(float).reshape(metric.n, metric.n, 2)[i, j, draw(st.integers(0, 1))] = bad
    x = draw(st.sampled_from([x, x.T, x.real, x[:-1]]))
    return draw(st.sampled_from([metric, None])), x


def _unitary_residual(a):
    """||A* A - I|| / (1 + ||A||^2): the membership residual at signature (n, 0)."""
    return membership_residual(a, make_metric(len(a), 0))


def _residuals(a, metric):
    return (membership_residual(a, metric), hermitian_residual(a), _unitary_residual(a))


class TestFullRangeResiduals:
    """Residuals are formed from power-of-two scaled items: finite over the float range."""

    @pytest.mark.parametrize("t", [300.0, 700.0])
    def test_exponential_of_a_large_tangent_is_a_member(self, t):
        m = make_metric(1, 1)
        M = exp_us(LieElement(metric=m, block=np.array([[t]])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = membership_residual(M, m)
            assert np.isfinite(r) and r <= 1e-15
            assert require_member(M, m) is not None
            assert is_pseudo_unitary(M, m) and is_hermitian(M)
            assert block_identities_residual(M, m) <= r
            assert np.isfinite(_unitary_residual(M)) and not check_compact_intersection(M, m)
            inv = canonical_invariant(M, m)
        assert inv.triples == (("hyperbolic", pytest.approx(t, rel=1e-14), 1),)

    def test_huge_hermitian_non_member_refused(self):
        m = make_metric(1, 1)
        M = 1e300 * np.array([[2.0, 1.0], [1.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = membership_residual(M, m)
            assert np.isfinite(r) and r > 0.1
            assert hermitian_residual(M) == 0.0
            with pytest.raises(MembershipError, match="membership residual"):
                require_member(M, m)
            with pytest.raises(MembershipError):
                fast_inverse(M, m)
            assert not is_pseudo_unitary(M, m)
            assert 0.0 < block_identities_residual(M, m) <= r
            assert np.isfinite(_unitary_residual(M))

    def test_largest_floats_give_finite_residuals(self):
        m = make_metric(1, 2)
        M = np.full((3, 3), complex(np.finfo(float).max, -np.finfo(float).max))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(np.isfinite(r) for r in _residuals(M, m))
            with pytest.raises(MembershipError, match="not Hermitian"):
                require_member(M, m)

    @pytest.mark.parametrize("helper, message", [("_skew_residual", "not Hermitian"),
                                                 ("_gram_residual", "membership residual")])
    def test_nan_residual_refuses(self, monkeypatch, helper, message):
        monkeypatch.setattr(metric_module, helper, lambda *args: np.float64(np.nan))
        with pytest.raises(MembershipError, match=f"{message}.* nan exceeds"):
            require_member(np.eye(2), make_metric(1, 1))

    def test_small_entries_are_not_scaled(self):
        # scaled by 1/16 this matrix gets another last bit in 1 + ||A||^2
        m = make_metric(1, 1)
        a = np.array([[-2.0, 1.1], [-7.0, 2.3]])
        got = _residuals(a, m) + (block_identities_residual(a, m),)
        assert got == tuple(float(e) for e in unscaled_residuals(a, m))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(residual_inputs())
    def test_equal_to_the_unscaled_formulas_in_range(self, case):
        """Bitwise equal where no part reaches 2^200 and nothing is scaled.

        Above, the squared norm of a scaled item may round differently in the
        last place, because numpy's x ** 2 is not always correctly rounded.
        """
        metric, a = case
        with np.errstate(all="ignore"):
            expected = tuple(float(e) for e in unscaled_residuals(a, metric))
        assume(all(np.isfinite(expected)))
        got = _residuals(a, metric) + (block_identities_residual(a, metric),)
        a = np.asarray(a, complex)
        if np.abs(a.view(float)).max() < 2.0 ** 200:
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert float(metric_module._measured(a, metric)[4]) == np.linalg.norm(a)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(measured_inputs())
    def test_one_read_agrees_with_two(self, case):
        # the max-abs that scales also decides finiteness: (b, s, ||b||, ||a||)
        # are bitwise those of a finiteness check followed by the scaling, and
        # every refusal is the same ValueError
        metric, x = case

        def outcome(measure):
            try:
                b, *rest = measure()
            except ValueError as exc:
                return str(exc)
            return [b.dtype.str, b.shape, b.tobytes()] + [float(v).hex() for v in rest]
        shape = None if metric is None else (metric.n, metric.n)
        assert (outcome(lambda: metric_module._measured(x, metric)[1:])
                == outcome(lambda: two_read_measured(x, shape)))

    def test_stack_item_squares_its_norm_as_the_matrix_does(self):
        # item 1693 read one ulp apart when the invariant pass validated its
        # stack on a path of its own, which squared norms with x * x; at this
        # tol, its membership residual, canonical_invariant refused it and
        # require_member accepted it
        m = make_metric(2, 2)
        z = np.random.default_rng(17).standard_normal((3000, 4, 4, 2)).view(complex)[..., 0]
        a = (np.eye(4) + 1e-3 * (z + z.conj().swapaxes(-1, -2)) + 1e-9 * z)[1693]
        tol = 0.00255307948817986
        assert membership_residual(a, m) == tol
        require_member(a, m, tol)
        canonical_invariant(a, m, tol)
        below = np.nextafter(tol, 0.0)
        with pytest.raises(MembershipError, match="membership residual") as refused:
            require_member(a, m, below)
        with pytest.raises(MembershipError) as also_refused:
            canonical_invariant(a, m, below)
        assert str(also_refused.value) == str(refused.value)
