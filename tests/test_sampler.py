"""Random generation: Haar unitaries, block-form members, tangents, generic members."""

import numpy as np
import pytest

from pseudounitary import (
    HYPERBOLIC,
    IOTA,
    SampleSpec,
    check_compact_intersection,
    exp_us,
    haar_unitary,
    hermitian_residual,
    invariant_from_blocks,
    is_hermitian,
    is_pseudo_unitary,
    make_metric,
    membership_residual,
    sample_upq,
    sample_us_lie,
    sample_us_pp,
    unitary_residual,
    validate_lie_algebra,
)


class TestHaar:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_unitarity(self, n):
        assert unitary_residual(haar_unitary(n, seed=3)) <= 1e-12

    def test_scalar_case_has_unit_modulus(self):
        u = haar_unitary(1, seed=11)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_deterministic(self):
        assert np.array_equal(haar_unitary(4, seed=9), haar_unitary(4, seed=9))

    def test_seeds_differ(self):
        assert not np.allclose(haar_unitary(4, seed=9), haar_unitary(4, seed=10))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            haar_unitary(0, seed=1)


class TestSampleSpec:
    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            SampleSpec(metric=make_metric(1, 2), seed=0)

    def test_weights_validated(self):
        m = make_metric(2, 2)
        with pytest.raises(ValueError):
            SampleSpec(metric=m, seed=0, block_kind_weights=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            SampleSpec(metric=m, seed=0, block_kind_weights=(0.5, 0.5, 0.5, -0.5))
        with pytest.raises(ValueError):
            SampleSpec(metric=m, seed=0, block_kind_weights=(0.3, 0.3, 0.3, 0.3))

    def test_t_values_validated(self):
        m = make_metric(2, 2)
        with pytest.raises(ValueError):
            SampleSpec(metric=m, seed=0, t_values=(1.0,))
        with pytest.raises(ValueError):
            SampleSpec(metric=m, seed=0, t_values=(1.0, -2.0))

    def test_t_max_positive(self):
        with pytest.raises(ValueError):
            SampleSpec(metric=make_metric(1, 1), seed=0, t_max=0.0)

    @pytest.mark.parametrize("t_max", [np.inf, np.nan])
    def test_t_max_finite(self, t_max):
        # rng.uniform(0, inf) raises OverflowError, not a usage error
        with pytest.raises(ValueError, match="t_max must be finite and positive"):
            SampleSpec(metric=make_metric(1, 1), seed=0, t_max=t_max)


class TestSampleBlockForm:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_members_and_ground_truth(self, p):
        m = make_metric(p, p)
        for seed in range(10):
            M, dec = sample_us_pp(SampleSpec(metric=m, seed=seed))
            assert membership_residual(M, m) <= 1e-10
            assert hermitian_residual(M) <= 1e-12
            assert len(dec.blocks) == p
            assert np.linalg.norm(dec.matrix() - M) <= 1e-10 * max(1.0, np.linalg.norm(M))

    def test_forced_hyperbolic_zero_is_identity(self):
        m = make_metric(3, 3)
        spec = SampleSpec(
            metric=m, seed=4,
            block_kind_weights=(1.0, 0.0, 0.0, 0.0),
            t_values=(0.0, 0.0, 0.0),
        )
        M, dec = sample_us_pp(spec)
        assert np.linalg.norm(M - np.eye(6)) <= 1e-12
        assert all(b.kind == HYPERBOLIC and b.sign == 1 for b in dec.blocks)

    def test_forced_iota_is_the_metric(self):
        # any conjugator works here because the pieces assemble to J itself
        m = make_metric(3, 3)
        spec = SampleSpec(metric=m, seed=4, block_kind_weights=(0.0, 0.0, 1.0, 0.0))
        M, dec = sample_us_pp(spec)
        assert np.linalg.norm(M - m.matrix) <= 1e-12
        assert all(b.kind == IOTA and b.sign == 1 for b in dec.blocks)

    def test_prescribed_parameters_used(self):
        m = make_metric(2, 2)
        spec = SampleSpec(
            metric=m, seed=0,
            block_kind_weights=(1.0, 0.0, 0.0, 0.0),
            t_values=(0.25, 1.5),
        )
        _, dec = sample_us_pp(spec)
        assert sorted(b.t for b in dec.blocks) == [0.25, 1.5]

    def test_deterministic(self):
        m = make_metric(3, 3)
        a, da = sample_us_pp(SampleSpec(metric=m, seed=21))
        b, db = sample_us_pp(SampleSpec(metric=m, seed=21))
        assert np.array_equal(a, b)
        assert da.blocks == db.blocks

    def test_ground_truth_unitary_is_block_diagonal(self):
        m = make_metric(3, 3)
        _, dec = sample_us_pp(SampleSpec(metric=m, seed=2))
        assert unitary_residual(dec.q) <= 1e-12
        assert np.linalg.norm(dec.q[:3, 3:]) == 0.0
        assert np.linalg.norm(dec.q[3:, :3]) == 0.0


class TestSampleTangent:
    def test_zero_scale_gives_zero(self):
        m = make_metric(2, 3)
        el = sample_us_lie(m, seed=1, scale=0.0)
        assert np.linalg.norm(el.block) == 0.0

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (1, 4)])
    def test_valid_tangent(self, p, q):
        m = make_metric(p, q)
        el = sample_us_lie(m, seed=8)
        assert el.block.shape == (p, q)
        assert validate_lie_algebra(el.matrix(), m)

    def test_exp_of_sample_is_positive_member(self):
        m = make_metric(2, 3)
        for seed in range(5):
            M = exp_us(sample_us_lie(m, seed=seed, scale=0.5))
            assert membership_residual(M, m) <= 1e-10
            assert hermitian_residual(M) <= 1e-12
            assert np.min(np.linalg.eigvalsh(M)) > 0

    def test_deterministic(self):
        m = make_metric(2, 2)
        assert np.array_equal(
            sample_us_lie(m, seed=5).block, sample_us_lie(m, seed=5).block
        )


class TestSampleGeneric:
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (3, 2)])
    def test_membership(self, p, q):
        m = make_metric(p, q)
        for seed in range(25):
            M = sample_upq(m, seed=seed)
            assert membership_residual(M, m) <= 1e-10

    def test_generically_not_hermitian_not_compact(self):
        m = make_metric(2, 2)
        hermitian_hits = 0
        compact_hits = 0
        for seed in range(100):
            M = sample_upq(m, seed=seed)
            hermitian_hits += is_hermitian(M)
            compact_hits += check_compact_intersection(M, m)
        assert hermitian_hits == 0
        assert compact_hits == 0

    def test_block_unitaries_are_compact_members(self):
        m = make_metric(2, 3)
        for seed in range(20):
            Q = np.zeros((5, 5), dtype=complex)
            Q[:2, :2] = haar_unitary(2, seed=seed)
            Q[2:, 2:] = haar_unitary(3, seed=seed + 1000)
            assert is_pseudo_unitary(Q, m)
            assert check_compact_intersection(Q, m)

    def test_deterministic(self):
        m = make_metric(2, 2)
        assert np.array_equal(sample_upq(m, seed=3), sample_upq(m, seed=3))

    def test_seeds_differ(self):
        m = make_metric(2, 2)
        assert not np.allclose(sample_upq(m, seed=3), sample_upq(m, seed=4))


class TestGroundTruthInvariant:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_truth_blocks_describe_the_sample(self, p):
        from pseudounitary import canonical_invariant

        m = make_metric(p, p)
        for seed in range(10):
            M, dec = sample_us_pp(SampleSpec(metric=m, seed=seed, t_max=2.5))
            assert canonical_invariant(M, m).matches(invariant_from_blocks(dec.blocks))
