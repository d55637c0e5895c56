"""Metric construction, indefinite forms, and membership predicates."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import block_unitary, count_calls, hyperbolic, unscaled_residuals
from pseudounitary import metric as metric_module
from pseudounitary import (
    DEFAULT_TOL,
    LieElement,
    MembershipError,
    SignatureMetric,
    block_identities_residual,
    canonical_invariant,
    check_compact_intersection,
    exp_us,
    fast_inverse,
    hermitian_residual,
    indefinite_form,
    is_hermitian,
    is_pseudo_unitary,
    make_metric,
    membership_residual,
    quadratic_form,
    require_member,
    sample_upq,
    split_blocks,
    unitary_residual,
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
    def test_basis_vectors(self):
        m = make_metric(1, 1)
        assert indefinite_form([1, 0], [1, 0], m) == 1
        assert indefinite_form([0, 1], [0, 1], m) == -1

    def test_hand_expansion(self):
        m = make_metric(1, 1)
        z = np.array([1, 1]) / np.sqrt(2)
        w = np.array([1, -1]) / np.sqrt(2)
        assert indefinite_form(z, w, m) == pytest.approx(1.0)

    def test_conjugate_symmetry(self):
        m = make_metric(2, 3)
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            assert indefinite_form(z, w, m) == pytest.approx(
                np.conj(indefinite_form(w, z, m))
            )

    def test_quadratic_values(self):
        m = make_metric(1, 2)
        assert quadratic_form([3, 4, 0], m) == pytest.approx(-7.0)
        assert quadratic_form([0, 0, 0], m) == 0.0
        z = np.array([np.sqrt(2), 1, 0]) / np.sqrt(3)
        assert quadratic_form(z, m) == pytest.approx(1.0 / 3.0)

    def test_dimension_mismatch(self):
        m = make_metric(1, 1)
        with pytest.raises(ValueError):
            indefinite_form([1, 0, 0], [1, 0], m)

    def test_form_preserved_by_members(self):
        m = make_metric(2, 2)
        rng = np.random.default_rng(5)
        for seed in range(10):
            M = sample_upq(m, seed)
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert indefinite_form(M @ z, M @ w, m) == pytest.approx(
                indefinite_form(z, w, m), abs=1e-10
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
        assert unitary_residual(np.eye(3)) == 0.0
        assert unitary_residual(2 * np.eye(2)) > 0.1


class TestBlockView:
    def test_round_trip_exact(self):
        m = make_metric(2, 3)
        rng = np.random.default_rng(1)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m11, m12, m21, m22 = split_blocks(M, m)
        assert m11.shape == (2, 2) and m12.shape == (2, 3)
        assert m21.shape == (3, 2) and m22.shape == (3, 3)
        assert np.array_equal(np.block([[m11, m12], [m21, m22]]), M)


class TestValidatesOnce:
    # the public functions coerce and finiteness-check their input once, then
    # hand the array to trusting helpers
    @pytest.mark.parametrize("fn, kwargs", [
        (metric_module.require_member, {}),
        (metric_module.require_member, {"hermitian": False}),
        (fast_inverse, {}),
        (check_compact_intersection, {}),
        (block_identities_residual, {}),
    ], ids=["require_member", "require_member_any", "fast_inverse",
            "check_compact_intersection", "block_identities_residual"])
    def test_one_coercion_per_call(self, monkeypatch, fn, kwargs):
        metric = make_metric(2, 2)
        m = np.kron(np.eye(2), hyperbolic(LN2))[[0, 2, 1, 3]][:, [0, 2, 1, 3]]
        coercions = count_calls(monkeypatch, "as_matrix", metric_module)
        fn(m, metric, **kwargs)
        assert len(coercions) == 1


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


def _residuals(a, metric):
    return (membership_residual(a, metric), hermitian_residual(a), unitary_residual(a))


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
            assert np.isfinite(unitary_residual(M)) and not check_compact_intersection(M, m)
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
            assert np.isfinite(unitary_residual(M))

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
        _, norm = metric_module._refusals(a, metric, DEFAULT_TOL)
        assert float(norm) == np.linalg.norm(a)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(residual_inputs())
    def test_stack_items_match_single_matrices(self, case):
        metric, a = case
        stack = np.array([a, a.conj().T, 2.0 ** 600 * a], dtype=complex)
        for fn in (lambda x: metric_module._membership_residual(x, metric),
                   metric_module._hermitian_residual, metric_module._unitary_residual):
            assert fn(stack) == [float(fn(x)) for x in stack]
        messages, norms = metric_module._refusals(stack, metric, DEFAULT_TOL)
        single = [metric_module._refusals(x, metric, DEFAULT_TOL) for x in stack]
        assert messages == [m for (m,), _ in single]
        assert norms == [float(n) for _, n in single]

    def test_stack_item_squares_its_norm_as_the_matrix_does(self):
        # item 1693 read one ulp apart when the stack squared its norms with
        # x * x and the matrix with pow; a tol between the two refused the
        # one-item stack of canonical_invariant and accepted require_member
        m = make_metric(2, 2)
        z = np.random.default_rng(17).standard_normal((3000, 4, 4, 2)).view(complex)[..., 0]
        a = (np.eye(4) + 1e-3 * (z + z.conj().swapaxes(-1, -2)) + 1e-9 * z)[1693]
        tol = 0.00255307948817986
        assert metric_module._membership_residual(a[None], m) == [membership_residual(a, m)]
        assert metric_module._refusals(a[None], m, tol)[0] == [None]
        require_member(a, m, tol)
