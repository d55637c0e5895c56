"""Rank pairs, generator extraction off the canonical frame, and reconstruction."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    block_unitary,
    count_calls,
    four_product_validate_generators,
    hyperbolic,
    nxn_generators,
    per_piece_frame,
    random_generator_set,
    rank_pair,
    three_eigh_generators,
)
from pseudounitary import (
    DEFAULT_TOL,
    HYPERBOLIC,
    IOTA,
    GeneratorSet,
    HyperbolicBlock,
    LieElement,
    MembershipError,
    SampleSpec,
    assemble_blocks,
    block_decompose,
    canonical,
    construct_from_generators,
    exp_us,
    extract_generators,
    invariant_from_blocks,
    make_metric,
    membership_residual,
    sample_us_lie,
    sample_us_pp,
    spectral,
    validate_generators,
)
from pseudounitary.sampler import DEFAULT_KIND_WEIGHTS

LN3 = np.log(3.0)


def frozen_example_12():
    # member of U(1,2) with one generator: lambda = 6, z = (sqrt 2, 1, 0)/sqrt 3
    return np.array(
        [[3.0, 2.0 * np.sqrt(2.0), 0.0],
         [2.0 * np.sqrt(2.0), 3.0, 0.0],
         [0.0, 0.0, 1.0]],
        dtype=complex,
    )


class TestRankPair:
    def test_metric_itself(self):
        m = make_metric(1, 2)
        assert rank_pair(m.matrix, m) == (0, 3)

    def test_negated_metric(self):
        m = make_metric(1, 2)
        assert rank_pair(-m.matrix, m) == (3, 0)

    def test_hyperbolic(self):
        # both shifted matrices are rank one: det(M_t -+ J) = 0, trace 2 cosh t
        m = make_metric(1, 1)
        assert rank_pair(hyperbolic(LN3), m) == (1, 1)

    def test_sum_bounded_by_dimension(self):
        m = make_metric(4, 4)
        for seed in range(10):
            M, _ = sample_us_pp(SampleSpec(metric=m, seed=seed))
            r1, r2 = rank_pair(M, m)
            assert r1 + r2 <= m.n

    def test_rejects_non_hermitian(self):
        m = make_metric(1, 1)
        with pytest.raises(MembershipError):
            rank_pair(np.array([[0, 1j], [1j, 0]]), m)

    def test_rejects_non_member(self):
        m = make_metric(1, 1)
        with pytest.raises(MembershipError):
            rank_pair(2.0 * np.eye(2), m)


KIND_MIXES = (DEFAULT_KIND_WEIGHTS, (0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.5, 0.5),
              (0.3, 0.3, 0.2, 0.2))


def member_case(family, p, q, mix, k, sign, seed):
    """A Hermitian member of U(p, q) from one of four independent constructions.

    uspp: block-form sample at (p, p) with kind mix KIND_MIXES[mix]; exp:
    exp_us of a sampled tangent; gens: construct_from_generators of a family
    with k generators and sigma = sign; metric: J itself. The member is
    multiplied by sign (uspp, exp, metric).
    """
    m = make_metric(p, p if family == "uspp" else q)
    if family == "uspp":
        M, _ = sample_us_pp(SampleSpec(metric=m, seed=seed, block_kind_weights=KIND_MIXES[mix]))
    elif family == "exp":
        M = exp_us(sample_us_lie(m, seed=seed, scale=0.8))
    elif family == "gens":
        gens = random_generator_set(m, min(k, p, q), np.random.default_rng(seed), sign)
        return construct_from_generators(gens), m
    else:
        M = m.matrix
    return sign * M, m


@st.composite
def member_cases(draw):
    family = draw(st.sampled_from(["uspp", "exp", "gens", "metric"]))
    p = draw(st.integers(1, 5))
    q = draw(st.integers(1, 5))
    if family == "exp" and q == p:
        q = p + 1
    return (family, p, q, draw(st.integers(0, len(KIND_MIXES) - 1)), draw(st.integers(0, 5)),
            draw(st.sampled_from([1, -1])), draw(st.integers(0, 2**32 - 1)))


# exact ties r_plus = r_minus at even n: all-hyperbolic (p, p) samples and
# generator families with k = p = q
TIES = (("uspp", 2, 2, 1, 0, 1, 7), ("uspp", 3, 3, 1, 0, -1, 8),
        ("gens", 2, 2, 0, 2, 1, 9), ("gens", 3, 3, 0, 3, -1, 10))


def trace_jm(M, m) -> float:
    return float((np.trace(M[: m.p, : m.p]) - np.trace(M[m.p:, m.p:])).real)


class TestTraceRule:
    """JM is an involution on members, so rank(M + J) = (n + tr JM) / 2 exactly."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(member_cases())
    @example(TIES[0])
    @example(TIES[1])
    @example(TIES[2])
    @example(TIES[3])
    def test_rank_pair_matches_trace(self, case):
        M, m = member_case(*case)
        tr = trace_jm(M, m)
        t = round(tr)
        assert abs(tr - t) <= 1e-8 * m.n and (m.n + t) % 2 == 0
        r_minus, r_plus = rank_pair(M, m)
        assert (r_minus, r_plus) == ((m.n - t) // 2, (m.n + t) // 2)
        # the sign taken from the trace obeys the rank rule of rank_pair
        assert extract_generators(M, m).sigma == (1 if r_plus <= r_minus else -1)

    @pytest.mark.parametrize("case", TIES)
    def test_exact_ties_take_sigma_plus(self, case):
        M, m = member_case(*case)
        assert trace_jm(M, m) == pytest.approx(0.0, abs=1e-9)
        assert rank_pair(M, m) == (m.n // 2, m.n // 2)
        assert extract_generators(M, m).sigma == 1

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(member_cases())
    def test_agrees_with_three_eigendecomposition_oracle(self, case):
        M, m = member_case(*case)
        got = extract_generators(M, m)
        ref = three_eigh_generators(M, m)
        assert (got.sigma, got.k) == (ref.sigma, ref.k)
        np.testing.assert_allclose(got.lambdas, ref.lambdas, rtol=1e-12)
        scale = max(1.0, float(np.linalg.norm(M)))
        for g in (got, ref):
            assert np.linalg.norm(construct_from_generators(g, tol=1e-8) - M) <= 1e-9 * scale


def reassembly_error(gens, M) -> tuple:
    """(||construct_from_generators(gens) - M||, 1000 tol max(1, ||M||)), both
    divided by the largest entry of M, so neither overflows at t = 700."""
    s = max(1.0, float(np.abs(M).max()))
    err = np.linalg.norm((construct_from_generators(gens) - M) / s)
    return err, 1000.0 * DEFAULT_TOL * max(1.0 / s, float(np.linalg.norm(M / s)))


class TestTraceRefusal:
    """Where the trace of JM is rounding noise, the sign counts of the frame decide sigma."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_trace_outside_the_range_is_named(self, p):
        # all pieces hyperbolic + at t = 40: cosh t * eps swamps tr M11 - tr M22 = 0,
        # which the trace rule refused; the frame's sign counts give sigma and k
        m = make_metric(p, p)
        blocks = [HyperbolicBlock(HYPERBOLIC, 40.0, 1)] * p
        M = assemble_blocks(blocks, block_unitary(m, np.random.default_rng(0)))
        assert abs(trace_jm(M, m)) > m.n + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gens = extract_generators(M, m)
            assert (gens.sigma, gens.k) == (1, p)
            assert validate_generators(gens) == []
            err, bound = reassembly_error(gens, M)
        assert err <= bound
        dec = block_decompose(M, m)
        assert invariant_from_blocks(dec.blocks).matches(invariant_from_blocks(blocks))

    def test_trace_at_the_top_of_the_range_does_not_overflow(self):
        # tr M11 and tr M22 each overflow at six pieces of t = 709
        m = make_metric(6, 6)
        M = assemble_blocks([HyperbolicBlock(HYPERBOLIC, 709.0, 1)] * 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gens = extract_generators(M, m)
        assert (gens.sigma, gens.k) == (1, 6)


def assert_refused_then_loosely_reassembled(M, m, tol) -> None:
    """A non-member is refused at DEFAULT_TOL. At the loose tol, as for
    block_decompose, canonical_invariant and log_us, the generators returned
    form a valid set whose reconstruction is within 1000 tol max(1, ||M||)."""
    with pytest.raises(MembershipError, match="membership residual"):
        extract_generators(M, m)
    gens = extract_generators(M, m, tol=tol)
    assert validate_generators(gens, tol) == []
    err = np.linalg.norm(construct_from_generators(gens, tol) - M)
    assert err <= 1000.0 * tol * max(1.0, np.linalg.norm(M))


class TestExtractGenerators:
    def test_negated_metric_has_no_generators(self):
        m = make_metric(1, 2)
        g = extract_generators(-m.matrix, m)
        assert g.k == 0 and g.sigma == 1

    def test_metric_itself(self):
        # rank(J + J) = n > 0 = rank(J - J) forces sigma = -1, then no generators
        m = make_metric(1, 2)
        g = extract_generators(m.matrix, m)
        assert g.k == 0 and g.sigma == -1

    def test_frozen_example(self):
        m = make_metric(1, 2)
        g = extract_generators(frozen_example_12(), m)
        assert g.sigma == 1 and g.k == 1
        assert g.lambdas[0] == pytest.approx(6.0, abs=1e-12)
        expected = np.array([np.sqrt(2.0), 1.0, 0.0]) / np.sqrt(3.0)
        assert np.allclose(np.abs(g.vectors[0]), expected, atol=1e-12)

    def test_hyperbolic_splits(self):
        m = make_metric(1, 1)
        g = extract_generators(np.array([[5 / 3, 4 / 3], [4 / 3, 5 / 3]]), m)
        assert g.k == 1
        assert g.lambdas[0] == pytest.approx(10.0 / 3.0, abs=1e-12)
        assert g.alphas[0] ** 2 == pytest.approx(0.8, abs=1e-12)
        assert g.betas[0] ** 2 == pytest.approx(0.2, abs=1e-12)

    def test_extraction_feeds_validation(self):
        m = make_metric(2, 2)
        for seed in range(10):
            M, _ = sample_us_pp(SampleSpec(metric=m, seed=seed))
            g = extract_generators(M, m)
            assert validate_generators(g, tol=1e-8) == []
            assert g.k <= m.n // 2

    def test_metric_pairings(self):
        # lambda_j z_j* J z_j = 2 for every generator
        m = make_metric(3, 3)
        for seed in range(10):
            M, _ = sample_us_pp(SampleSpec(metric=m, seed=seed))
            g = extract_generators(M, m)
            for j in range(g.k):
                z = g.vectors[j]
                pairing = g.lambdas[j] * np.sum(np.conj(z) * m.signs * z).real
                assert pairing == pytest.approx(2.0, abs=1e-9)

    def test_round_trip_construct_then_extract(self):
        rng = np.random.default_rng(17)
        for metric in (make_metric(1, 1), make_metric(1, 2), make_metric(2, 3)):
            for k in range(min(metric.p, metric.q) + 1):
                for sigma in (1, -1):
                    gens = random_generator_set(metric, k, rng, sigma)
                    M = construct_from_generators(gens)
                    assert membership_residual(M, metric) <= 1e-12
                    g2 = extract_generators(M, metric)
                    M2 = construct_from_generators(g2)
                    assert np.linalg.norm(M2 - M) <= 1e-9 * (1 + np.linalg.norm(M))

    def test_rank_certificate_rejects_wrong_count(self):
        # not a member: refused by validation; a loose membership tolerance
        # lets it through, and the frame returns a valid set within the bound
        assert_refused_then_loosely_reassembled(np.diag([3.0, -1.0, 1.0]), make_metric(2, 1), 10.0)

    def test_gap_violation_rejected(self):
        assert_refused_then_loosely_reassembled(0.6 * np.eye(2), make_metric(1, 1), 1.0)

    def test_triple_product_vanishes(self):
        # (M - J) J (M + J) = 0 for members
        m = make_metric(2, 2)
        for seed in range(10):
            M, _ = sample_us_pp(SampleSpec(metric=m, seed=seed))
            jm = m.matrix
            prod = (M - jm) @ jm @ (M + jm)
            assert np.linalg.norm(prod) <= 1e-9 * (1 + np.linalg.norm(M) ** 2)


class TestTiedClusterOrder:
    """Within a tied lambda, generators are ordered by ascending entry magnitudes."""

    def test_identity_pins_order(self):
        # tr JM = 0 at (2, 2): sigma = +1 and I + J = diag(2, 2, 0, 0)
        m = make_metric(2, 2)
        g = extract_generators(np.eye(4), m)
        assert g.sigma == 1 and np.array_equal(g.lambdas, [2.0, 2.0])
        assert np.array_equal(np.abs(g.vectors), [[0, 1, 0, 0], [1, 0, 0, 0]])

    def test_negated_identity_pins_order(self):
        m = make_metric(2, 2)
        g = extract_generators(-np.eye(4), m)
        assert g.sigma == 1 and np.array_equal(g.lambdas, [-2.0, -2.0])
        assert np.array_equal(np.abs(g.vectors), [[0, 0, 0, 1], [0, 0, 1, 0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_conjugated_ties_follow_the_sort_key(self, seed):
        # inside a tied lambda the basis is the frame's, not the n x n route's:
        # the lambdas agree with the oracle, the sort keys ascend and the set
        # rebuilds the member
        m = make_metric(4, 4)
        blocks = [HyperbolicBlock(HYPERBOLIC, t, 1) for t in (0.7, 0.7, 0.7, 1.9)]
        M = assemble_blocks(blocks, block_unitary(m, np.random.default_rng(seed)))
        g = extract_generators(M, m)
        ref = three_eigh_generators(M, m)
        np.testing.assert_allclose(g.lambdas, ref.lambdas, rtol=1e-12)
        keys = [(-lam, tuple(np.abs(z).tolist())) for lam, z in zip(g.lambdas, g.vectors)]
        assert keys == sorted(keys)
        err, bound = reassembly_error(g, M)
        assert err <= bound


class TestKernelSizes:
    """The generators come from the frame's block kernels and one validation."""

    @pytest.mark.parametrize("p,q", [(3, 5), (5, 3)])
    def test_kernels_fit_the_larger_block(self, monkeypatch, p, q):
        m = make_metric(p, q)
        M = exp_us(sample_us_lie(m, seed=4, scale=0.8))
        calls = {name: count_calls(monkeypatch, name, np.linalg) for name in ("eigh", "svd", "qr")}
        validations = count_calls(monkeypatch, "require_member", spectral, canonical)
        g = extract_generators(M, m)
        assert g.k == min(p, q) and calls["eigh"] and calls["svd"]
        shapes = [x.shape for name in calls for x in calls[name]]
        assert all(max(shape) <= max(p, q) for shape in shapes), shapes
        assert len(validations) == 1


class TestValidateGenerators:
    def test_valid_family_passes(self):
        rng = np.random.default_rng(4)
        gens = random_generator_set(make_metric(2, 3), 2, rng)
        assert validate_generators(gens) == []

    def test_degenerate_split_flagged(self):
        m = make_metric(1, 1)
        z = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
        gens = GeneratorSet(metric=m, sigma=1, lambdas=np.array([2.0]), vectors=z)
        msgs = validate_generators(gens)
        assert any(msg.startswith("alpha=beta degeneracy") for msg in msgs)

    def test_duplicate_vector_flagged(self):
        m = make_metric(2, 2)
        z = np.zeros((2, 4), dtype=complex)
        z[0, 0] = z[1, 0] = 0.8
        z[0, 2] = z[1, 2] = 0.6
        gens = GeneratorSet(metric=m, sigma=1, lambdas=np.array([2.0 / 0.28] * 2), vectors=z)
        msgs = validate_generators(gens)
        assert any(msg.startswith("orthonormality") for msg in msgs)

    def test_metric_orthogonality_flagged(self):
        # orthonormal pair that is not orthogonal in the indefinite form
        m = make_metric(2, 2)
        z = np.zeros((2, 4), dtype=complex)
        z[0] = [0.8, 0, 0.6, 0]
        z[1] = [0.6, 0, -0.8, 0]
        lam = np.array([2.0 / 0.28, 2.0 / (0.36 - 0.64)])
        gens = GeneratorSet(metric=m, sigma=1, lambdas=lam, vectors=z)
        msgs = validate_generators(gens)
        assert any(msg.startswith("J-orthogonality") for msg in msgs)
        assert not any(msg.startswith("orthonormality") for msg in msgs)

    def test_lambda_mismatch_flagged(self):
        rng = np.random.default_rng(6)
        gens = random_generator_set(make_metric(1, 1), 1, rng)
        tampered = GeneratorSet(
            metric=gens.metric,
            sigma=gens.sigma,
            lambdas=gens.lambdas + 0.5,
            vectors=gens.vectors,
        )
        msgs = validate_generators(tampered)
        assert any(msg.startswith("lambda mismatch") for msg in msgs)

    @pytest.mark.parametrize("lam, deviation", [(0.0, "1.000e+00"), (-1.5, "1.450e+00")])
    def test_small_lambda_deviation_is_relative_to_two(self, lam, deviation):
        # below |lambda| = 2 the deviation of lambda (alpha^2 - beta^2) from 2
        # is taken relative to 2, so lambda = 0 divides by nothing small
        gens = GeneratorSet(metric=make_metric(1, 1), sigma=1, lambdas=[lam],
                            vectors=[[np.sqrt(0.8), np.sqrt(0.2)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_generators(gens) == [
                f"lambda mismatch: largest relative deviation {deviation}"]

    @pytest.mark.parametrize("t", [20.0, 40.0, 300.0, 700.0])
    def test_closed_form_pair_valid_at_large_t(self, t):
        # alpha^2 - beta^2 = sech t is below rounding here, yet the pair is valid
        m = make_metric(1, 1)
        sech = 1.0 / np.cosh(t)
        z = np.array([[np.sqrt((1.0 + sech) / 2.0), np.sqrt((1.0 - sech) / 2.0)]])
        gens = GeneratorSet(metric=m, sigma=1, lambdas=np.array([2.0 * np.cosh(t)]), vectors=z)
        assert validate_generators(gens) == []

    def test_empty_family_valid(self):
        m = make_metric(1, 1)
        gens = GeneratorSet(metric=m, sigma=1, lambdas=np.zeros(0),
                            vectors=np.zeros((0, 2), dtype=complex))
        assert validate_generators(gens) == []

    def test_nan_tolerance_fails_every_check(self):
        # diag(6, 1) is no member; at the default tolerance only its lambda is
        # wrong, and a NaN tolerance is refused before any check is made
        gens = GeneratorSet(metric=make_metric(1, 1), sigma=1, lambdas=[7.0], vectors=[[1.0, 0.0]])
        assert [msg.split(":")[0] for msg in validate_generators(gens)] == ["lambda mismatch"]
        with pytest.raises(ValueError, match="^tol must be a finite nonnegative number, got nan"):
            validate_generators(gens, float("nan"))
        with pytest.raises(ValueError, match="^tol must be a finite nonnegative number, got nan"):
            construct_from_generators(gens, float("nan"))


class TestGeneratorSetSign:
    @pytest.mark.parametrize("sigma", [1, -1, 1.0, -1.0, np.int64(-1), np.float64(1.0),
                                       1 + 0j, np.array(1)])
    def test_sign_stored_as_int(self, sigma):
        gens = GeneratorSet(metric=make_metric(1, 1), sigma=sigma, lambdas=[2.0],
                            vectors=[[1.0, 0.0]])
        assert type(gens.sigma) is int and gens.sigma == (1 if sigma == 1 else -1)

    @pytest.mark.parametrize("sigma", [True, False, np.True_, 0, 2, -1.5, np.array([1])])
    def test_other_signs_refused(self, sigma):
        # bool is a subclass of int, but True is not a sign; nor is an array with entries
        with pytest.raises(ValueError, match="sigma must be"):
            GeneratorSet(metric=make_metric(1, 1), sigma=sigma, lambdas=[2.0],
                         vectors=[[1.0, 0.0]])

    def test_extracted_sign_is_int(self):
        cases = [(np.diag([1.0, -1.0]), make_metric(1, 1)), (np.diag([-1.0, 1.0]), make_metric(1, 1)),
                 (frozen_example_12(), make_metric(1, 2))]
        for p, seed in [(2, 1), (3, 2), (4, 3)]:
            m = make_metric(p, p)
            cases += [(sample_us_pp(SampleSpec(metric=m, seed=seed))[0], m)]
            cases += [(-sample_us_pp(SampleSpec(metric=m, seed=seed))[0], m)]
        m = make_metric(3, 5)
        cases += [(exp_us(sample_us_lie(m, seed=4)), m)]
        sigmas = [extract_generators(M, m).sigma for M, m in cases]
        assert {type(s) for s in sigmas} == {int} and set(sigmas) == {1, -1}


class TestConstructFromGenerators:
    def test_empty_set_gives_negated_metric(self):
        m = make_metric(1, 2)
        gens = GeneratorSet(metric=m, sigma=1, lambdas=np.zeros(0),
                            vectors=np.zeros((0, 3), dtype=complex))
        assert np.allclose(construct_from_generators(gens), -m.matrix)

    def test_frozen_example(self):
        m = make_metric(1, 2)
        z = np.array([[np.sqrt(2.0), 1.0, 0.0]]) / np.sqrt(3.0)
        gens = GeneratorSet(metric=m, sigma=1, lambdas=np.array([6.0]), vectors=z)
        assert np.allclose(construct_from_generators(gens), frozen_example_12(), atol=1e-12)

    def test_pure_plus_generator_gives_identity(self):
        m = make_metric(1, 2)
        z = np.array([[1.0, 0.0, 0.0]])
        gens = GeneratorSet(metric=m, sigma=1, lambdas=np.array([2.0]), vectors=z)
        assert np.allclose(construct_from_generators(gens), np.eye(3))

    def test_invalid_set_rejected(self):
        m = make_metric(1, 1)
        z = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
        gens = GeneratorSet(metric=m, sigma=1, lambdas=np.array([2.0]), vectors=z)
        with pytest.raises(ValueError, match="alpha=beta degeneracy"):
            construct_from_generators(gens)


class TestEigenvalueBound:
    """Members pass; a non-member is refused by validation, and a loose
    tolerance that lets it through gets a valid set within the bound."""

    def test_members_pass(self):
        assert extract_generators(hyperbolic(LN3), make_metric(1, 1)).k == 1
        m = make_metric(1, 2)
        assert extract_generators(m.matrix, m).k == 0
        assert extract_generators(np.eye(3), m).k == 1

    def test_non_member_fails(self):
        assert_refused_then_loosely_reassembled(0.5 * np.eye(2), make_metric(1, 1), 1.0)

    def test_samples_pass(self):
        m = make_metric(2, 2)
        for seed in range(10):
            M, _ = sample_us_pp(SampleSpec(metric=m, seed=seed))
            extract_generators(M, m)

    def test_conjugated_samples_pass(self):
        m = make_metric(2, 2)
        rng = np.random.default_rng(31)
        M, _ = sample_us_pp(SampleSpec(metric=m, seed=3))
        Q = block_unitary(m, rng)
        extract_generators(Q.conj().T @ M @ Q, m)


@st.composite
def frame_members(draw, t_cap=700.0):
    """Members of U(p, q), p and q in 0..6 (both orientations), in block form
    with unpaired +-1 slots, conjugated by a block unitary, times a global sign.

    Ties, iota-heavy mixes and per-piece signs. Parameters within 15 of the
    largest one, small ones and iota pieces beside it; above t = 20 the small
    ones only half the time.
    """
    p = draw(st.integers(0, 6))
    q = draw(st.integers(0 if p else 1, 6))
    top = draw(st.sampled_from([700.0, 300.0, 100.0, 40.0, 18.0, 10.0, 3.0, 1.0]))
    top = max(0.0, min(top, t_cap) - draw(st.floats(0.0, 1.0)))
    pool = [top, max(0.0, top - draw(st.floats(0.0, 15.0)))]
    mixed = top < 20.0 or draw(st.booleans())
    if mixed:
        pool.append(draw(st.sampled_from([0.0, 1e-10, 1e-7, 1e-3, 0.5])))
    iota_share = draw(st.sampled_from([0, 1, 3])) if mixed else 0
    blocks = []
    for _ in range(min(p, q)):
        sign = draw(st.sampled_from([1, -1]))
        if draw(st.integers(0, 3)) < iota_share:
            blocks.append(HyperbolicBlock(IOTA, 0.0, sign))
        else:
            blocks.append(HyperbolicBlock(HYPERBOLIC, draw(st.sampled_from(pool)), sign))
    unpaired = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=abs(p - q),
                             max_size=abs(p - q)))
    m = make_metric(p, q)
    Q = block_unitary(m, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return m, draw(st.sampled_from([1, -1])) * per_piece_frame(blocks, unpaired, m, Q)


class TestFrameRoute:
    """extract_generators reads the canonical frame: against the n x n route up
    to t = 15, and on its own over the full range."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(frame_members(t_cap=15.0))
    def test_agrees_with_the_nxn_route(self, case):
        m, M = case
        got = extract_generators(M, m)
        err, bound = reassembly_error(got, M)
        assert err <= bound
        ref = nxn_generators(M, m)
        assert (got.sigma, got.k) == (ref.sigma, ref.k)
        top = max(1.0, float(np.abs(ref.lambdas).max(initial=0.0)))
        np.testing.assert_allclose(got.lambdas, ref.lambdas, rtol=0, atol=1e-12 * top)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(frame_members())
    def test_returns_and_reassembles_over_the_full_range(self, case):
        m, M = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gens = extract_generators(M, m)
            assert validate_generators(gens) == []
            assert np.all(np.abs(gens.lambdas) >= 2.0 * (1.0 - 1e-12))
            err, bound = reassembly_error(gens, M)
        assert err <= bound

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (3, 2), (4, 4), (1, 5)])
    @pytest.mark.parametrize("norm", [20.0, 80.0, 300.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_exponentials_at_large_norm(self, p, q, norm, sign):
        m = make_metric(p, q)
        block = sample_us_lie(m, seed=p * 10 + q).block
        M = sign * exp_us(LieElement(m, norm * block / np.linalg.norm(block, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gens = extract_generators(M, m)
            assert validate_generators(gens) == []
            err, bound = reassembly_error(gens, M)
        assert err <= bound

    @pytest.mark.parametrize("t", [14.0, 19.0, 40.0, 300.0, 700.0])
    def test_round_trip_beside_a_small_parameter(self, t):
        # alpha^2 - beta^2 = sech t carries an absolute rounding error of about
        # eps, so a lambda check against 2 / (alpha^2 - beta^2) fails from
        # about t = 15; the check of lambda (alpha^2 - beta^2) against 2 holds
        m = make_metric(2, 2)
        blocks = [HyperbolicBlock(HYPERBOLIC, t, 1), HyperbolicBlock(HYPERBOLIC, 0.5, 1)]
        M = assemble_blocks(blocks, block_unitary(m, np.random.default_rng(0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gens = extract_generators(M, m)
            assert validate_generators(gens) == []
            err, bound = reassembly_error(gens, M)
        assert err <= bound
        # past t of about 20 the small piece is below the rounding of the large
        # one, and its sign, hence sigma, may read either way within the bound
        assert np.abs(gens.lambdas).max() == pytest.approx(2.0 * np.cosh(t), rel=1e-12)


TAMPERINGS = ("none", "perturb", "duplicate", "swap", "shift", "degenerate")


@st.composite
def checked_generator_sets(draw):
    """A valid generator set, tampered with one way or left alone.

    Valid sets come from random_generator_set, from extract_generators of
    frame members (p, q <= 6, both orientations), or are the closed-form pair
    of a hyperbolic piece at t up to 700. Tamperings move one vector by
    10^-7 .. 10^-1, copy one vector onto another, exchange the leading entries
    of a vector's two parts, scale one lambda by 1 + 10^-7 .. 1 + 10^-1, or
    replace a vector by one with alpha = beta.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(["random", "extracted", "closed form"]))
    if source == "random":
        m = make_metric(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        gens = random_generator_set(m, draw(st.integers(0, min(m.p, m.q))), rng,
                                    sigma=draw(st.sampled_from([1, -1])))
    elif source == "extracted":
        m, M = draw(frame_members())
        gens = extract_generators(M, m)
    else:
        m, t, e = make_metric(1, 1), draw(st.floats(0.0, 700.0)), draw(st.sampled_from([1, -1]))
        sech = 1.0 / np.cosh(t)
        z = np.array([[np.sqrt((1.0 + e * sech) / 2.0), np.sqrt((1.0 - e * sech) / 2.0)]])
        gens = GeneratorSet(metric=m, sigma=1, lambdas=np.array([2.0 * e * np.cosh(t)]),
                            vectors=z)
    lam, vec, k, p = gens.lambdas.copy(), gens.vectors.copy(), gens.k, m.p
    tamper = draw(st.sampled_from(TAMPERINGS)) if k else "none"
    i = draw(st.integers(0, k - 1)) if k else 0
    size = 10.0 ** draw(st.sampled_from([-7, -5, -3, -1]))
    if tamper == "perturb":
        d = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
        vec[i] += size * d / np.linalg.norm(d)
    elif tamper == "duplicate" and k > 1:
        j = (i + 1) % k
        vec[j], lam[j] = vec[i], lam[i]
    elif tamper == "swap":
        w = min(p, m.q)
        vec[i, :w], vec[i, p:p + w] = vec[i, p:p + w].copy(), vec[i, :w].copy()
    elif tamper == "shift":
        lam[i] *= 1.0 + size
    elif tamper == "degenerate" and p and m.q:
        u = rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n)
        u[:p] /= np.linalg.norm(u[:p])
        u[p:] /= np.linalg.norm(u[p:])
        vec[i] = u / np.sqrt(2.0)
    tol = draw(st.sampled_from([DEFAULT_TOL, 1e-8]))
    return GeneratorSet(metric=m, sigma=gens.sigma, lambdas=lam, vectors=vec), tol


class TestTwoProductValidation:
    """validate_generators reads every condition off the two part-Grams; the
    four-product check it replaced is the oracle."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(checked_generator_sets())
    def test_agrees_with_the_four_product_check(self, case):
        gens, tol = case
        got = validate_generators(gens, tol)
        ref = four_product_validate_generators(gens, tol)
        assert [msg.split(":")[0] for msg in got] == [msg.split(":")[0] for msg in ref]
        # each message ends with its value, printed to four digits
        values = [[float(msg.rsplit(" ", 1)[1]) for msg in msgs] for msgs in (got, ref)]
        np.testing.assert_allclose(*values, rtol=1e-3, atol=1e-13)

    def test_forms_two_products_and_no_row_norms(self, monkeypatch):
        gens = random_generator_set(make_metric(3, 4), 3, np.random.default_rng(8))
        norms = count_calls(monkeypatch, "norm", np.linalg)
        products = []
        matmul = np.ndarray.__matmul__

        class Counted(np.ndarray):
            def __matmul__(self, other):
                products.append(self.shape)
                return matmul(np.asarray(self), np.asarray(other))
        # the vectors as an array whose @ records its left operand's shape
        object.__setattr__(gens, "vectors", gens.vectors.view(Counted))
        assert validate_generators(gens) == []
        assert products == [(3, 3), (3, 4)] and norms == []
