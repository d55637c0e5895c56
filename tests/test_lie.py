"""Tangent space validation, the exponential map, and its inverse."""

import numpy as np
import pytest

from conftest import block_unitary, hyperbolic
from pseudounitary import (
    LieElement,
    MembershipError,
    exp_us,
    hermitian_residual,
    is_in_exp_image,
    is_pseudo_unitary,
    log_us,
    make_metric,
    membership_residual,
    validate_lie_algebra,
)

LN2 = np.log(2.0)


def tangent(metric, b):
    return LieElement(metric, np.asarray(b, dtype=complex))


class TestValidate:
    def test_offdiagonal_hermitian_generators_pass(self):
        m = make_metric(1, 1)
        T = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert validate_lie_algebra(T, m)
        assert validate_lie_algebra(np.zeros((2, 2)), m)

    def test_diagonal_part_rejected(self):
        m = make_metric(1, 1)
        assert not validate_lie_algebra(np.eye(2), m)

    def test_complex_offdiagonal(self):
        m = make_metric(1, 2)
        T = np.zeros((3, 3), dtype=complex)
        T[0, 1] = 2.0 - 1j
        T[1, 0] = 2.0 + 1j
        assert validate_lie_algebra(T, m)
        T[1, 2] = 0.5
        assert not validate_lie_algebra(T, m)


class TestGenerator:
    def test_embedding(self):
        m = make_metric(1, 2)
        el = tangent(m, [[1.0, 2.0j]])
        T = el.matrix()
        assert T.shape == (3, 3)
        assert T[0, 1] == 1.0
        assert T[0, 2] == 2.0j
        assert T[1, 0] == 1.0
        assert T[2, 0] == -2.0j
        assert validate_lie_algebra(T, m)
        assert hermitian_residual(T) == 0.0

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            tangent(make_metric(1, 1), [[1.0, 2.0]])


class TestExp:
    def test_zero_maps_to_identity(self):
        m = make_metric(1, 1)
        assert np.allclose(exp_us(tangent(m, [[0.0]])), np.eye(2))

    def test_scalar_parameter(self):
        m = make_metric(1, 1)
        M = exp_us(tangent(m, [[LN2]]))
        assert np.allclose(M, [[1.25, 0.75], [0.75, 1.25]], atol=1e-15)
        assert np.allclose(M, hyperbolic(LN2), atol=1e-15)

    def test_imaginary_parameter(self):
        m = make_metric(1, 1)
        M = exp_us(tangent(m, [[1j * LN2]]))
        expected = np.array([[1.25, 0.75j], [-0.75j, 1.25]])
        assert np.allclose(M, expected, atol=1e-15)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (2, 3), (2, 1)])
    def test_image_is_hermitian_positive_member(self, p, q):
        m = make_metric(p, q)
        rng = np.random.default_rng(100 * p + q)
        for _ in range(10):
            b = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
            M = exp_us(LieElement(m, b))
            assert membership_residual(M, m) <= 1e-10
            assert hermitian_residual(M) <= 1e-12
            assert np.min(np.linalg.eigvalsh(M)) > 0

    def test_one_parameter_subgroup(self):
        m = make_metric(2, 3)
        rng = np.random.default_rng(5)
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        half = exp_us(LieElement(m, 0.5 * b))
        full = exp_us(LieElement(m, b))
        assert np.linalg.norm(half @ half - full) <= 1e-10 * np.linalg.norm(full)


class TestLog:
    def test_identity_maps_to_zero(self):
        m = make_metric(2, 2)
        el = log_us(np.eye(4), m)
        assert np.linalg.norm(el.block) == 0.0

    def test_scalar_inverse(self):
        m = make_metric(1, 1)
        el = log_us(hyperbolic(LN2), m)
        assert el.block.shape == (1, 1)
        assert el.block[0, 0] == pytest.approx(LN2, abs=1e-12)

    def test_metric_is_outside_the_image(self):
        m = make_metric(1, 1)
        with pytest.raises(MembershipError, match="not positive definite"):
            log_us(m.matrix, m)

    def test_negated_member_rejected(self):
        m = make_metric(1, 1)
        with pytest.raises(MembershipError):
            log_us(-hyperbolic(0.5), m)


class TestRoundTrips:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (1, 2), (2, 3)])
    def test_log_after_exp(self, p, q):
        m = make_metric(p, q)
        rng = np.random.default_rng(31 * p + q)
        for _ in range(10):
            b = 0.6 * (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)))
            back = log_us(exp_us(LieElement(m, b)), m)
            assert np.linalg.norm(back.block - b) <= 1e-9 * max(1.0, np.linalg.norm(b))

    def test_exp_after_log(self):
        m = make_metric(2, 2)
        rng = np.random.default_rng(9)
        for _ in range(10):
            b = 0.7 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            M = exp_us(LieElement(m, b))
            again = exp_us(log_us(M, m))
            assert np.linalg.norm(again - M) <= 1e-9 * np.linalg.norm(M)

    def test_conjugated_positive_member_round_trips(self):
        m = make_metric(2, 2)
        rng = np.random.default_rng(13)
        Q = block_unitary(m, rng)
        b = 0.8 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        M = Q.conj().T @ exp_us(LieElement(m, b)) @ Q
        again = exp_us(log_us(M, m))
        assert np.linalg.norm(again - M) <= 1e-9 * np.linalg.norm(M)

    def test_large_parameter_fails_loudly(self):
        # cosh(30) ~ 5e12 pushes the smallest eigenvalue below the positivity
        # floor relative to the norm, so the inverse refuses instead of
        # returning garbage
        m = make_metric(1, 1)
        M = exp_us(tangent(m, [[30.0]]))
        assert is_pseudo_unitary(M, m, tol=1e-3)
        with pytest.raises(MembershipError):
            log_us(M, m)


class TestImagePredicate:
    def test_positive_hyperbolic_in_image(self):
        m = make_metric(1, 1)
        assert is_in_exp_image(hyperbolic(2.0), m)

    def test_negated_not_in_image(self):
        m = make_metric(1, 1)
        assert not is_in_exp_image(-hyperbolic(2.0), m)

    def test_indefinite_member_not_in_image(self):
        m = make_metric(2, 2)
        M = np.zeros((4, 4), dtype=complex)
        M[np.ix_((0, 2), (0, 2))] = np.diag([1.0, -1.0])
        M[np.ix_((1, 3), (1, 3))] = hyperbolic(0.4)
        assert not is_in_exp_image(M, m)

    def test_non_member_raises(self):
        m = make_metric(1, 1)
        with pytest.raises(MembershipError):
            is_in_exp_image(np.full((2, 2), 0.9 + 0j), m)


class TestDimension:
    def test_degenerate_signature_smoke(self):
        # q = 0 leaves an empty tangent block; exp is the 0x0 -> identity map
        m = make_metric(2, 0)
        M = exp_us(LieElement(m, np.zeros((2, 0), dtype=complex)))
        assert np.array_equal(M, np.eye(2))
        assert np.linalg.norm(log_us(np.eye(2), m).block) == 0.0
