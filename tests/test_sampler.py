"""Random generation: Haar unitaries, block-form members, tangents, generic members."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (HOSTILE_REALS, anchored, count_calls, reference_sample_us_pp,
                      tangent_matrix, unitary_residual, unscaled_tangent_residual)
from pseudounitary import (
    HYPERBOLIC,
    IOTA,
    SampleSpec,
    canonical,
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
)
from pseudounitary import sampler as sampler_module
from pseudounitary.sampler import DEFAULT_KIND_WEIGHTS


@st.composite
def sample_specs(draw):
    """Specs at p <= 6 with zero kind weights, t_max up to 700 and, when
    t_values are given, ties among them."""
    p = draw(st.integers(1, 6))
    weights = draw(st.sampled_from([
        DEFAULT_KIND_WEIGHTS, (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.5, 0.5), (0.5, 0.5, 0.0, 0.0),
        (0.0, 0.3, 0.7, 0.0), (0.25, 0.25, 0.25, 0.25),
    ]))
    t_max = draw(st.floats(1e-3, 700.0))
    t_values = None
    if draw(st.booleans()):
        # a pool of at most three values, one of them 0, makes ties common
        pool = draw(st.lists(st.floats(0.0, t_max), min_size=1, max_size=2)) + [0.0]
        t_values = tuple(draw(st.lists(st.sampled_from(pool), min_size=p, max_size=p)))
    return SampleSpec(metric=make_metric(p, p), seed=draw(st.integers(0, 2**32 - 1)),
                      t_max=t_max, block_kind_weights=weights, t_values=t_values)


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


# per SampleSpec field that takes entries: its refusal of a value with none, at (2, 2)
NO_ENTRIES = {
    "block_kind_weights": "block_kind_weights must be four nonnegative numbers summing to 1",
    "t_values": "t_values must have one entry per slot (2)",
}

# per such field: unordered collections of entries that would pass its count and rule at (2, 2)
UNORDERED = {
    "block_kind_weights": [{0.4, 0.2, 0.3, 0.1}, frozenset({0.4, 0.2, 0.3, 0.1}),
                           dict.fromkeys((0.4, 0.2, 0.3, 0.1), "x")],
    "t_values": [{2.5, 1.0}, frozenset({2.5, 1.0}), {2.5: "x", 1.0: "y"}],
}


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

    @pytest.mark.parametrize("weights", [(np.nan, 0.0, 0.0, 1.0), (0.5, 0.5, np.nan, 0.0),
                                         (np.inf, 0.0, 0.0, 1.0)])
    def test_non_finite_weights_refused(self, weights):
        # each entry is checked, so rng.choice never sees a NaN
        shown = next(repr(x) for x in weights if not np.isfinite(x))
        with pytest.raises(ValueError, match=anchored(
                f"block_kind_weights entry must be a finite nonnegative number, got {shown}")):
            SampleSpec(metric=make_metric(1, 1), seed=0, block_kind_weights=weights)

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
        with pytest.raises(ValueError, match=anchored(
                f"t_max must be a finite nonnegative number, got {t_max!r}")):
            SampleSpec(metric=make_metric(1, 1), seed=0, t_max=t_max)

    def test_every_real_setting_takes_one_rule(self):
        m = make_metric(2, 2)
        for bad in (np.nan, np.inf, -1.0, *HOSTILE_REALS):
            with pytest.raises(ValueError, match=anchored(
                    f"t_max must be a finite nonnegative number, got {bad!r}")):
                SampleSpec(metric=m, seed=0, t_max=bad)
            with pytest.raises(ValueError, match=anchored(
                    f"t_values entry must be a finite nonnegative number, got {bad!r}")):
                SampleSpec(metric=m, seed=0, t_values=(1.0, bad))
            with pytest.raises(ValueError, match=anchored(
                    f"block_kind_weights entry must be a finite nonnegative number, got {bad!r}")):
                SampleSpec(metric=m, seed=0, block_kind_weights=(0.0, 0.0, 0.0, bad))
            with pytest.raises(ValueError, match=anchored(
                    f"scale must be a finite nonnegative number, got {bad!r}")):
                sample_us_lie(m, 0, bad)

    @pytest.mark.parametrize("field", sorted(NO_ENTRIES))
    @pytest.mark.parametrize("value", [1.0, 0, np.array(1.0), True])
    def test_a_value_without_entries_takes_its_fields_rule(self, field, value):
        # a number once raised TypeError: 'float' object is not iterable
        with pytest.raises(ValueError, match=anchored(NO_ENTRIES[field])):
            SampleSpec(metric=make_metric(2, 2), seed=0, **{field: value})

    @pytest.mark.parametrize("field", sorted(UNORDERED))
    def test_an_unordered_collection_takes_its_fields_rule(self, field):
        # a set once stored the weights in hash order, handing the species the
        # wrong weights, and a dict gave its keys
        for value in UNORDERED[field]:
            with pytest.raises(ValueError, match=anchored(NO_ENTRIES[field])):
                SampleSpec(metric=make_metric(2, 2), seed=0, **{field: value})

    def test_a_list_a_tuple_and_an_array_give_the_same_sample(self):
        m = make_metric(3, 3)
        weights, ts = (0.4, 0.1, 0.2, 0.3), (0.5, 2.0, 1.25)
        want, truth = sample_us_pp(SampleSpec(metric=m, seed=5, block_kind_weights=weights,
                                              t_values=ts))
        for sequence in (list, np.array):
            spec = SampleSpec(metric=m, seed=5, block_kind_weights=sequence(weights),
                              t_values=sequence(ts))
            assert (spec.block_kind_weights, spec.t_values) == (weights, ts)
            got, got_truth = sample_us_pp(spec)
            assert got.tobytes() == want.tobytes() and got_truth.blocks == truth.blocks

    def test_numpy_scalars_and_0d_arrays_are_real_settings(self):
        m = make_metric(2, 2)
        spec = SampleSpec(metric=m, seed=3, t_max=np.float64(2.0), t_values=(np.array(0.5), 1),
                          block_kind_weights=(np.float32(0.5), 0.5, np.int64(0), 0))
        assert spec.t_values == (0.5, 1.0) and spec.block_kind_weights == (0.5, 0.5, 0.0, 0.0)
        assert all(type(x) is float for x in spec.t_values + spec.block_kind_weights)
        plain = SampleSpec(metric=m, seed=3, t_max=2.0, t_values=(0.5, 1.0),
                           block_kind_weights=(0.5, 0.5, 0.0, 0.0))
        assert sample_us_pp(spec)[0].tobytes() == sample_us_pp(plain)[0].tobytes()
        assert (sample_us_lie(m, 4, np.array(0.5)).block.tobytes()
                == sample_us_lie(m, 4, 0.5).block.tobytes())


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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(sample_specs())
    def test_bitwise_the_draws_taken_one_at_a_time(self, spec):
        # one stacked Haar QR and the product formed in place give the bits
        # of two Haar draws and assemble_blocks
        M, truth = sample_us_pp(spec)
        ref_m, ref_q, ref_blocks = reference_sample_us_pp(spec)
        assert M.tobytes() == ref_m.tobytes()
        assert truth.q.tobytes() == ref_q.tobytes()
        assert truth.blocks == ref_blocks

    @pytest.mark.parametrize("p", [1, 4])
    def test_does_not_check_what_it_built(self, monkeypatch, p):
        # the pieces and the unitary are built here: one QR for both Haar
        # factors, and no second check of either through assemble_blocks
        qr = count_calls(monkeypatch, "qr", np.linalg)
        assembled = count_calls(monkeypatch, "assemble_blocks", *[
            module for module in (canonical, sampler_module) if hasattr(module, "assemble_blocks")])
        checked = count_calls(monkeypatch, "_require_block_unitary", canonical)
        sample_us_pp(SampleSpec(metric=make_metric(p, p), seed=3))
        assert (len(qr), len(assembled), len(checked)) == (1, 0, 0)

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
        assert unscaled_tangent_residual(tangent_matrix(el.block, m), m) <= 1e-10

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

    @pytest.mark.parametrize("scale", [-1.0, float("nan")])
    def test_negative_or_nan_scale_refused(self, scale):
        with pytest.raises(ValueError, match=anchored(
                f"scale must be a finite nonnegative number, got {scale!r}")):
            sample_us_lie(make_metric(1, 1), 1, scale)


class TestSampleGeneric:
    # at (0, q) and (p, 0) one Haar factor is the empty one
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (3, 2), (0, 3), (3, 0)])
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
