"""Metric construction, indefinite forms, and membership predicates."""

import numpy as np
import pytest

from conftest import block_unitary, count_calls, hyperbolic
from pseudounitary import metric as metric_module
from pseudounitary import (
    MembershipError,
    SignatureMetric,
    block_identities_residual,
    check_compact_intersection,
    fast_inverse,
    hermitian_residual,
    indefinite_form,
    is_hermitian,
    is_pseudo_unitary,
    make_metric,
    membership_residual,
    quadratic_form,
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
