"""Block assembly, decomposition, canonical invariants, and equivalence."""

import functools
import io
import itertools
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    anchored,
    array_refusals,
    array_residuals,
    array_rules_invariants,
    block_invariant,
    block_unitary,
    classify_pieces,
    count_calls,
    hyperbolic,
    mp_invariant,
    per_generator_block_decompose,
    per_piece_assemble,
    per_piece_matrix,
    unitary_residual,
)
from pseudounitary import metric as metric_module
from pseudounitary import (
    DEFAULT_TOL,
    HYPERBOLIC,
    IOTA,
    CanonicalInvariant,
    HyperbolicBlock,
    LieElement,
    MembershipError,
    SampleSpec,
    are_equivalent,
    assemble_blocks,
    block_decompose,
    canonical,
    canonical_invariant,
    exp_us,
    extract_generators,
    haar_unitary,
    hermitian_residual,
    invariant_from_blocks,
    is_in_exp_image,
    log_us,
    make_metric,
    membership_residual,
    require_member,
    sample_us_pp,
    spectral,
)
from pseudounitary.canonical import T_COMPARE_TOL
from pseudounitary.cli import main
from pseudounitary.matrixfile import dumps_matrix
from pseudounitary.sampler import DEFAULT_KIND_WEIGHTS

LN2 = np.log(2.0)
LN3 = np.log(3.0)
# the parameter whose coupling beside hyp(3.0) is twice the weak/strong cut
STRONG_T = float(np.arcsinh(2.0 * canonical.WEAK_COUPLING * np.cosh(3.0)))


def hyp(t, sign=1):
    return HyperbolicBlock(HYPERBOLIC, t, sign)


def iota(sign=1):
    return HyperbolicBlock(IOTA, 0.0, sign)


class TestHyperbolicBlock:
    def test_matrices(self):
        assert np.allclose(assemble_blocks([hyp(LN2)]), hyperbolic(LN2))
        assert np.allclose(assemble_blocks([hyp(LN2, -1)]), -hyperbolic(LN2))
        assert np.array_equal(assemble_blocks([iota(1)]), np.diag([1.0 + 0j, -1.0]))
        assert np.array_equal(assemble_blocks([iota(-1)]), np.diag([-1.0 + 0j, 1.0]))

    def test_block_members_of_u11(self):
        m = make_metric(1, 1)
        for b in (hyp(0.7), hyp(1.2, -1), iota(1), iota(-1)):
            assert membership_residual(assemble_blocks([b]), m) <= 1e-15

    def test_constructor_defaults_and_repr(self):
        assert HyperbolicBlock(IOTA) == (IOTA, 0.0, 1)
        assert HyperbolicBlock(kind=HYPERBOLIC, sign=-1, t=0.5) == (HYPERBOLIC, 0.5, -1)
        assert repr(hyp(1.5, -1)) == "HyperbolicBlock(kind='hyperbolic', t=1.5, sign=-1)"

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperbolicBlock("circle", 0.0, 1)
        with pytest.raises(ValueError):
            HyperbolicBlock(HYPERBOLIC, -0.5, 1)
        with pytest.raises(ValueError):
            HyperbolicBlock(HYPERBOLIC, 0.0, 2)
        with pytest.raises(ValueError):
            HyperbolicBlock(IOTA, 0.3, 1)


class TestAssemble:
    def test_single_zero_block_is_identity(self):
        assert np.allclose(assemble_blocks([hyp(0.0)]), np.eye(2))

    def test_interleaved_placement(self):
        # slot j occupies rows and columns (j, p + j)
        M = assemble_blocks([hyp(LN2), iota(1)])
        expected = np.zeros((4, 4), dtype=complex)
        expected[np.ix_((0, 2), (0, 2))] = hyperbolic(LN2)
        expected[np.ix_((1, 3), (1, 3))] = np.diag([1.0, -1.0])
        assert np.allclose(M, expected)

    def test_negative_iota(self):
        assert np.allclose(assemble_blocks([iota(-1)]), np.diag([-1.0, 1.0]))

    def test_no_blocks_need_a_metric(self):
        # the pieces fix the signature, so an empty list has none
        with pytest.raises(ValueError, match="^need at least one block$"):
            assemble_blocks([])

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="^conjugating matrix is not unitary: residual"):
            assemble_blocks([(HYPERBOLIC, 1.0, 1)], 2 * np.eye(2))

    def test_non_block_unitary_rejected(self):
        rng = np.random.default_rng(0)
        full = rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(full + 1j * rng.standard_normal((2, 2)))
        with pytest.raises(ValueError):
            assemble_blocks([hyp(1.0)], unitary=q)  # mixes the two directions

    def test_assembled_matrices_are_members(self):
        m = make_metric(3, 3)
        rng = np.random.default_rng(8)
        blocks = [hyp(0.4), iota(-1), hyp(2.2, -1)]
        Q = block_unitary(m, rng)
        M = assemble_blocks(blocks, Q)
        assert membership_residual(M, m) <= 1e-14


def classify(block):
    """Classify one numerical 2x2 piece through the array classifier of the generator route."""
    b = np.asarray(block)
    hyp_mask, t, sign = classify_pieces(np.diagonal(b).real.reshape(2, 1), np.abs(b[:1, 1]))
    return HyperbolicBlock(HYPERBOLIC if hyp_mask[0] else IOTA, float(t[0]), int(sign[0]))


class TestClassify:
    def test_all_kinds(self):
        assert classify(hyperbolic(1.3)) == hyp(1.3)
        got = classify(-hyperbolic(0.2))
        assert got.kind == HYPERBOLIC and got.sign == -1
        assert got.t == pytest.approx(0.2, abs=1e-15)
        assert classify(np.diag([1.0, -1.0])) == iota(1)
        assert classify(np.diag([-1.0, 1.0])) == iota(-1)
        assert classify(np.eye(2)) == hyp(0.0)
        assert classify(-np.eye(2)) == hyp(0.0, -1)

    def test_garbage_rejected(self):
        with pytest.raises(MembershipError):
            classify(np.array([[0.2, 0.0], [0.0, 0.3]]))


class TestDecompose:
    def test_single_hyperbolic(self):
        m = make_metric(1, 1)
        M = np.array([[5 / 3, 4 / 3], [4 / 3, 5 / 3]], dtype=complex)
        dec = block_decompose(M, m)
        assert len(dec.blocks) == 1
        b = dec.blocks[0]
        assert b.kind == HYPERBOLIC and b.sign == 1
        assert b.t == pytest.approx(LN3, abs=1e-12)
        assert unitary_residual(dec.q) <= 1e-12
        assert np.linalg.norm(dec.matrix() - M) <= 1e-12

    def test_metric_gives_iota_blocks(self):
        m = make_metric(2, 2)
        dec = block_decompose(m.matrix, m)
        assert all(b == iota(1) for b in dec.blocks)

    def test_conjugated_known_blocks(self):
        m = make_metric(2, 2)
        rng = np.random.default_rng(12)
        Q = block_unitary(m, rng)
        M = assemble_blocks([hyp(LN2), iota(1)], Q)
        dec = block_decompose(M, m)
        kinds = sorted((b.kind, b.sign, round(b.t, 9)) for b in dec.blocks)
        assert kinds == [(HYPERBOLIC, 1, round(LN2, 9)), (IOTA, 1, 0.0)]

    def test_rectangular_signature_rejected(self):
        m = make_metric(1, 2)
        with pytest.raises(ValueError):
            block_decompose(np.eye(3), m)

    def test_non_member_rejected(self):
        m = make_metric(1, 1)
        with pytest.raises(MembershipError):
            block_decompose(2.0 * np.eye(2), m)

    def test_a_frame_that_does_not_reassemble_is_refused(self, monkeypatch):
        # the reassembly gate: eigenvectors of M11 out of step with their
        # eigenvalues give a frame that does not rebuild the member
        m = make_metric(2, 2)
        M = assemble_blocks([hyp(1.0), hyp(0.5, -1)], block_unitary(m, np.random.default_rng(5)))
        eigh, calls = np.linalg.eigh, []

        def reversed_first_eigh(a, *args, **kwargs):
            lam, x = eigh(a, *args, **kwargs)
            calls.append(a)
            return (lam, x[..., ::-1]) if len(calls) == 1 else (lam, x)
        monkeypatch.setattr(np.linalg, "eigh", reversed_first_eigh)
        with pytest.raises(MembershipError, match="^block reduction failed: residual"):
            block_decompose(M, m)
        # the first eigh is that of the M11 stack of one that _m11_reading reads
        assert np.array_equal(calls[0], M[None, :2, :2])

    @pytest.mark.parametrize("tol", [np.float16(1e-4), np.float32(1e-10), np.float64(1e-10),
                                     np.array(1e-4, dtype=np.float16)])
    @pytest.mark.parametrize("t", [20.0, 100.0])
    def test_a_numpy_scalar_tol_is_read_as_its_float(self, t, tol):
        # the reassembly gate's bound 1000 * tol * ||M|| once took the dtype of
        # the tol: in float16 it overflowed to inf from t of about 12 (in
        # float32 from about 89), with a RuntimeWarning
        m = make_metric(2, 2)
        M = assemble_blocks([hyp(t), hyp(1.0, -1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec, gens = block_decompose(M, m, tol), extract_generators(M, m, tol)
        want, want_gens = block_decompose(M, m, float(tol)), extract_generators(M, m, float(tol))
        assert dec.blocks == want.blocks and dec.residual == want.residual
        assert np.array_equal(dec.q, want.q)
        assert gens.sigma == want_gens.sigma
        assert np.array_equal(gens.lambdas, want_gens.lambdas)
        assert np.array_equal(gens.vectors, want_gens.vectors)

    def test_the_reassembly_gate_refuses_whatever_the_dtype_of_tol(self, monkeypatch):
        # the reversed-eigenvector fault of
        # test_a_frame_that_does_not_reassemble_is_refused, beside t = 20: a
        # float16 tol once let the gate pass its reassembly residual of about 7e8
        m = make_metric(2, 2)
        z = np.zeros((2, 2))
        Q = np.block([[haar_unitary(2, 1), z], [z, haar_unitary(2, 2)]])
        M = assemble_blocks([hyp(20.0), hyp(0.5, -1)], Q)
        eigh, calls = np.linalg.eigh, []

        def reversed_first_eigh(a, *args, **kwargs):
            lam, x = eigh(a, *args, **kwargs)
            calls.append(a)
            return (lam, x[..., ::-1]) if len(calls) == 1 else (lam, x)
        monkeypatch.setattr(np.linalg, "eigh", reversed_first_eigh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MembershipError, match="^block reduction failed: residual"):
                block_decompose(M, m, np.float16(1e-4))
        assert np.array_equal(calls[0], M[None, :2, :2])

    @pytest.mark.parametrize("blocks", [
        [hyp(3.0), hyp(STRONG_T), iota(-1)],
        [hyp(3.0), hyp(STRONG_T, -1), iota(1)],
        [hyp(3.0), hyp(STRONG_T), iota(-1), iota(-1)],
        [hyp(3.0), hyp(STRONG_T), iota(-1), hyp(1.0)],
    ])
    def test_a_coupling_just_above_the_weak_cut_is_strong(self, blocks):
        # sinh t = 2 WEAK_COUPLING cosh 3 is a strong coupling, read with its
        # V row off the SVD of M12; read as weak, its V row would come from
        # M22, where an iota piece of the other sign holds an eigenvalue
        # within about s^2 of its own, and the frame reassembles only to about 1e-10
        m = make_metric(len(blocks), len(blocks))
        rng = np.random.default_rng(0)
        for _ in range(6):
            M = assemble_blocks(blocks, block_unitary(m, rng))
            dec = block_decompose(M, m)
            assert np.linalg.norm(dec.matrix() - M) <= 1e-12 * np.linalg.norm(M)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_sampled_round_trips(self, p):
        m = make_metric(p, p)
        u11 = make_metric(1, 1)
        for seed in range(25):
            M, truth = sample_us_pp(SampleSpec(metric=m, seed=seed))
            dec = block_decompose(M, m)
            # reassembly reproduces the member
            assert np.linalg.norm(dec.matrix() - M) <= 1e-9 * max(1.0, np.linalg.norm(M))
            # the conjugating matrix is block unitary
            assert unitary_residual(dec.q) <= 1e-10
            assert np.linalg.norm(dec.q[:p, p:]) == 0.0
            # every piece is itself a 2x2 Hermitian member
            b = dec.q @ M @ dec.q.conj().T
            for j in range(p):
                piece = b[np.ix_((j, p + j), (j, p + j))]
                assert membership_residual(piece, u11) <= 1e-9
            # invariants agree with the ground truth
            assert invariant_from_blocks(dec.blocks).matches(
                invariant_from_blocks(truth.blocks)
            )


class TestInvariants:
    @pytest.mark.parametrize("block", [(HYPERBOLIC, 0.7, 1), (HYPERBOLIC, 0.7, -1),
                                       (IOTA, 0.0, 1), (IOTA, 0.0, -1)])
    def test_flipped_sort_key_is_the_key_of_the_flipped_block(self, block):
        # the normalizer sorts the flipped triples by keys it builds without
        # flipping them, so a list of (kind, t, sign) triples and its flipped
        # list normalize alike
        triples = [block, (HYPERBOLIC, 1.3, -1)]
        flipped = [(k, t, -s) for k, t, s in triples]
        got = canonical._normalized(triples).triples
        assert got == canonical._normalized(flipped).triples
        assert got in (tuple(sorted(triples, key=lambda x: (x[0], -x[2], x[1]))),
                       tuple(sorted(flipped, key=lambda x: (x[0], -x[2], x[1]))))

    def test_sign_flip_invariance(self):
        m = make_metric(1, 1)
        M = hyperbolic(1.1)
        assert canonical_invariant(M, m).matches(canonical_invariant(-M, m))

    def test_identity_invariant(self):
        m = make_metric(1, 1)
        inv = canonical_invariant(np.eye(2), m)
        assert inv.triples == ((HYPERBOLIC, 0.0, 1),)

    def test_distinct_parameters_differ(self):
        m = make_metric(1, 1)
        assert not canonical_invariant(hyperbolic(LN2), m).matches(
            canonical_invariant(hyperbolic(LN3), m)
        )

    def test_conjugation_invariance(self):
        m = make_metric(2, 2)
        rng = np.random.default_rng(44)
        M, _ = sample_us_pp(SampleSpec(metric=m, seed=6))
        Q = block_unitary(m, rng)
        assert canonical_invariant(M, m).matches(
            canonical_invariant(Q.conj().T @ M @ Q, m)
        )

    def test_iota_pair_merge(self):
        # an iota pair of opposite signs re-pairs into a +-identity pair
        merged = invariant_from_blocks([iota(1), iota(-1)])
        assert merged.triples == ((HYPERBOLIC, 0.0, 1), (HYPERBOLIC, 0.0, -1))
        assert merged.matches(invariant_from_blocks([hyp(0.0), hyp(0.0, -1)]))

    def test_iota_pair_matrices_equivalent(self):
        m = make_metric(2, 2)
        A = assemble_blocks([iota(1), iota(-1)])
        B = assemble_blocks([hyp(0.0), hyp(0.0, -1)])
        assert are_equivalent(A, B, m)

    def test_global_flip_normalization(self):
        inv = invariant_from_blocks([hyp(0.9, -1)])
        assert inv.triples == ((HYPERBOLIC, 0.9, 1),)
        inv = invariant_from_blocks([iota(-1)])
        assert inv.triples == ((IOTA, 0.0, 1),)

    def test_near_tie_global_sign_still_matches(self):
        # parameters 1 + 1e-8 (1 -+ 1e-6) differ by 2e-14, but one lies inside
        # T_COMPARE_TOL of the other piece's t = 1 and one just outside, so the
        # two invariants are normalized to opposite global signs
        ta, tb = 1.0 + T_COMPARE_TOL * (1 - 1e-6), 1.0 + T_COMPARE_TOL * (1 + 1e-6)
        a = invariant_from_blocks([hyp(ta), hyp(1.0, -1)])
        b = invariant_from_blocks([hyp(tb), hyp(1.0, -1)])
        assert a.triples == ((HYPERBOLIC, ta, 1), (HYPERBOLIC, 1.0, -1))
        assert b.triples == ((HYPERBOLIC, 1.0, 1), (HYPERBOLIC, tb, -1))
        assert a.matches(b) and b.matches(a)
        assert not a.matches(invariant_from_blocks([hyp(1.1), hyp(1.0, -1)]))
        # the same through matrices and the spectral route
        A = assemble_blocks([hyp(ta), hyp(1.0, -1)])
        B = assemble_blocks([hyp(tb), hyp(1.0, -1)])
        assert are_equivalent(A, B, make_metric(2, 2))


@st.composite
def block_form_specs(draw, t_max=6.0):
    """Sample specs at p <= 8 with tied and zero parameters, t <= t_max, and
    iota-heavy kind mixes."""
    p = draw(st.integers(1, 8))
    weights = draw(st.sampled_from([
        DEFAULT_KIND_WEIGHTS, (0.3, 0.3, 0.2, 0.2), (0.1, 0.1, 0.4, 0.4), (0.0, 0.0, 0.5, 0.5),
        (0.5, 0.5, 0.0, 0.0),
    ]))
    # a small pool of values, one of them 0, makes ties across slots common;
    # the pair base, base + offset puts near ties at small t, where cosh
    # flattens differences in t below rounding
    base = 10.0 ** draw(st.floats(-7.0, -2.0))
    offset = 10.0 ** draw(st.floats(-7.0, -5.0))
    pool = draw(st.lists(st.floats(0.0, t_max), min_size=1, max_size=3)) + [0.0, base, base + offset]
    t_values = draw(st.lists(st.sampled_from(pool), min_size=p, max_size=p))
    seed = draw(st.integers(0, 2**32 - 1))
    return SampleSpec(metric=make_metric(p, p), seed=seed, block_kind_weights=weights,
                      t_values=tuple(t_values))


@st.composite
def near_tie_blocks(draw):
    """Opposite-sign pieces with small, nearly equal t beside one large t <= 18."""
    p = draw(st.integers(3, 8))
    base = 10.0 ** draw(st.floats(-7.0, -1.0))
    blocks = [hyp(draw(st.floats(2.0, 18.0)), draw(st.sampled_from([1, -1])))]
    for _ in range(p - 1):
        sign = draw(st.sampled_from([1, -1]))
        if draw(st.integers(0, 5)) == 0:
            blocks.append(iota(sign))
        else:
            # steps well below or well above T_COMPARE_TOL: a difference of
            # about the tolerance itself may decide the global sign either way
            step = draw(st.sampled_from([0.0, 1e-10, 1e-7, 1e-6, 1e-5]))
            blocks.append(hyp(base + step * draw(st.integers(0, 3)), sign))
    return blocks


def resolvability(blocks) -> float:
    """Ratio of the refusal rule of canonical_invariant, evaluated on exact pieces.

    Above 1 the rule refuses: eps * sinh(t_max) / cosh(t_j) exceeds
    T_COMPARE_TOL * max(1, t_j / 20) for some piece j (iota pieces at t = 0).
    """
    t = np.array([b.t for b in blocks])
    return float(np.max(np.finfo(float).eps * np.sinh(t.max()) / np.cosh(t)
                        / (T_COMPARE_TOL * np.maximum(1.0, t / 20.0))))


SWEEP_WEIGHTS = (0.3, 0.3, 0.2, 0.2)
SWEEP_T_MAX = (3.0, 8.0, 14.0, 20.0, 30.0)


FAMILY_METRIC = make_metric(5, 5)
T18_FAMILY = [iota(-1), iota(-1), hyp(18.0), hyp(0.0, -1), hyp(18.0, -1)]


@functools.cache
def _t18_family() -> tuple:
    """(seed, member, mpmath invariant) of the t = 0 piece beside two t = 18
    pieces, conjugated by block_unitary at seeds 0-39."""
    out = []
    for seed in range(40):
        Q = block_unitary(FAMILY_METRIC, np.random.default_rng(seed))
        M = assemble_blocks(T18_FAMILY, Q)
        out.append((seed, M, mp_invariant(M, FAMILY_METRIC)))
    return tuple(out)


class TestSpectralInvariant:
    """canonical_invariant reads the pieces off block spectra; block_decompose is the oracle."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(block_form_specs())
    def test_agrees_with_block_decomposition(self, spec):
        m = spec.metric
        M, truth = sample_us_pp(spec)
        got = canonical_invariant(M, m)
        assert got.matches(invariant_from_blocks(truth.blocks))
        try:
            dec = block_decompose(M, m)
        except MembershipError:
            return
        assert got.matches(invariant_from_blocks(dec.blocks))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(near_tie_blocks(), st.integers(0, 2**32 - 1))
    def test_near_ties_at_small_t_keep_their_signs(self, blocks, seed):
        m = make_metric(len(blocks), len(blocks))
        M = assemble_blocks(blocks, block_unitary(m, np.random.default_rng(seed)))
        assert canonical_invariant(M, m).matches(invariant_from_blocks(blocks))

    @pytest.mark.parametrize("blocks", [
        [hyp(17.0), hyp(1e-3), hyp(1e-3 + 2e-7, -1)],
        [hyp(6.0), hyp(0.0), hyp(2e-7, -1)],
        [hyp(15.0), hyp(1e-3, -1), hyp(1e-3 + 1e-6), hyp(2e-3)],
    ])
    def test_near_tied_opposite_signs_beside_large_parameter(self, blocks):
        # cosh t of the two small pieces agree below the rounding of eig(M11),
        # so magnitude order alone cannot say which t carries which sign
        m = make_metric(len(blocks), len(blocks))
        expected = invariant_from_blocks(blocks)
        rng = np.random.default_rng(11)
        for _ in range(20):
            M = assemble_blocks(blocks, block_unitary(m, rng))
            assert canonical_invariant(M, m).matches(expected)

    def test_seeded_sweep_is_never_wrong(self):
        # a refusal is allowed where the documented rule predicts it, a wrong
        # invariant never. The decomposition returns wherever the spectral
        # route does, with the same invariant, so it answers at least as many
        # members correctly; it also answers members the rule refuses.
        correct = {"spectral": 0, "decomposition": 0}
        for seed in range(3000):
            p = 1 + seed % 6
            t_max = SWEEP_T_MAX[(seed // 6) % len(SWEEP_T_MAX)]
            m = make_metric(p, p)
            M, truth = sample_us_pp(SampleSpec(metric=m, seed=seed, t_max=t_max,
                                               block_kind_weights=SWEEP_WEIGHTS))
            expected = invariant_from_blocks(truth.blocks)
            try:
                got = canonical_invariant(M, m)
            except MembershipError:
                assert t_max > 14.0 and resolvability(truth.blocks) > 0.5, (seed, p, t_max)
                got = None
            else:
                assert got.matches(expected), (seed, p, t_max, got, expected)
                correct["spectral"] += 1
            try:
                dec = invariant_from_blocks(block_decompose(M, m).blocks)
            except MembershipError:
                assert got is None, (seed, p, t_max)
                continue
            assert got is None or dec.matches(got), (seed, p, t_max, dec, got)
            correct["decomposition"] += dec.matches(expected)
        assert correct["decomposition"] >= correct["spectral"]

    def test_small_parameter_next_to_large_ones(self):
        # t = 0.0113 beside t = 15.8 and 17.9: block reduction through the
        # full eigendecomposition returns t off by 7e-8
        m = make_metric(3, 3)
        M, truth = sample_us_pp(SampleSpec(metric=m, seed=979, t_max=30.0,
                                           block_kind_weights=SWEEP_WEIGHTS))
        assert canonical_invariant(M, m).matches(invariant_from_blocks(truth.blocks))

    @pytest.mark.xfail(strict=True, reason=(
        "the FOUND in CHANGES.md on canonical_invariant's resolvability rule: the "
        "eigenvectors of M11 lose the t = 0 coupling beside t = 18, and the rule lets "
        "the reading through"))
    def test_small_coupling_beside_t18_matches_the_mpmath_oracle(self):
        wrong = [seed for seed, M, oracle in _t18_family()
                 if not canonical_invariant(M, FAMILY_METRIC).matches(oracle)]
        assert wrong == []

    def test_mpmath_oracle_reads_the_t18_family(self):
        # the oracle itself gives the invariant the family was built from
        truth = invariant_from_blocks(T18_FAMILY)
        assert [seed for seed, _, oracle in _t18_family() if not oracle.matches(truth)] == []

    def test_large_parameters_resolved(self):
        m = make_metric(2, 2)
        blocks = [hyp(100.0), hyp(100.5, -1)]
        M = assemble_blocks(blocks, block_unitary(m, np.random.default_rng(3)))
        assert canonical_invariant(M, m).matches(invariant_from_blocks(blocks))

    def test_unresolvable_coupling_refused(self):
        # rounding at cosh 40 swamps the zero coupling of the iota piece
        m = make_metric(2, 2)
        M = assemble_blocks([hyp(40.0), iota(1)], block_unitary(m, np.random.default_rng(4)))
        with pytest.raises(MembershipError):
            canonical_invariant(M, m)

    def test_rectangular_signature_rejected(self):
        with pytest.raises(ValueError):
            canonical_invariant(np.eye(3), make_metric(1, 2))


def agrees_with_oracle(M, m) -> None:
    """block_decompose against the per-generator frame of the generator route.

    Where the oracle returns, block_decompose returns too and the invariants
    are equal; both reassemble M within the reassembly bound of the library.
    Slot order and q differ between the routes.
    """
    try:
        q, pieces = per_generator_block_decompose(M, m)
    except MembershipError:
        ref = None
    else:
        ref = [HyperbolicBlock(*piece) for piece in pieces]
    try:
        got = block_decompose(M, m)
    except MembershipError:
        assert ref is None, "refused where the oracle returns"
        return
    bound = 1000.0 * DEFAULT_TOL * max(1.0, np.linalg.norm(M))
    assert np.linalg.norm(got.matrix() - M) <= bound
    if ref is not None:
        assert np.linalg.norm(per_piece_assemble(ref, q) - M) <= bound
        assert invariant_from_blocks(got.blocks).matches(invariant_from_blocks(ref))


class TestDecomposeOracle:
    """block_decompose on the block spectra against the generator route, up to t = 15."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(block_form_specs(t_max=15.0), st.sampled_from([1, -1]))
    def test_matches_oracle_fed_decomposition(self, spec, sign):
        agrees_with_oracle(sign * sample_us_pp(spec)[0], spec.metric)

    def test_validates_once(self, monkeypatch):
        m = make_metric(4, 4)
        M, truth = sample_us_pp(SampleSpec(metric=m, seed=5))
        validations = count_calls(monkeypatch, "require_member", canonical, spectral)
        dec = block_decompose(M, m)
        assert invariant_from_blocks(dec.blocks).matches(invariant_from_blocks(truth.blocks))
        assert len(validations) == 1


@st.composite
def full_range_members(draw):
    """Members at p <= 8 with t up to 700, conjugated by a block unitary.

    Ties, iota-heavy mixes and both signs, per piece and global. Parameters
    within 15 of the largest one stay resolvable beside it; small ones and
    iota pieces only while the largest is below about 18.
    """
    p = draw(st.integers(1, 8))
    top = draw(st.sampled_from([700.0, 300.0, 100.0, 40.0, 18.0, 10.0, 3.0, 1.0]))
    top -= draw(st.floats(0.0, 1.0))
    pool = [top, max(0.0, top - draw(st.floats(0.0, 15.0)))]
    # small parameters and iota pieces are unresolvable beside a large one,
    # so members with a large one get them only half the time
    mixed = top < 20.0 or draw(st.booleans())
    if mixed:
        pool.append(draw(st.sampled_from([0.0, 1e-10, 1e-7, 1e-3, 0.5])))
    iota_share = draw(st.sampled_from([0, 1, 3])) if mixed else 0
    blocks = []
    for _ in range(p):
        sign = draw(st.sampled_from([1, -1]))
        if draw(st.integers(0, 3)) < iota_share:
            blocks.append(iota(sign))
        else:
            blocks.append(hyp(draw(st.sampled_from(pool)), sign))
    m = make_metric(p, p)
    Q = block_unitary(m, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return m, draw(st.sampled_from([1, -1])) * assemble_blocks(blocks, Q)


class TestBlockSpectraRoute:
    """block_decompose and canonical_invariant read the same block spectra."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(full_range_members())
    def test_decomposes_wherever_the_invariant_returns(self, case):
        m, M = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                expected = canonical_invariant(M, m)
            except MembershipError:
                expected = None
            try:
                dec = block_decompose(M, m)
            except MembershipError:
                assert expected is None
                return
        assert dec.residual <= 1e-7 * max(1.0, float(np.abs(M).max()) * M.shape[0])
        if expected is not None:
            assert invariant_from_blocks(dec.blocks).matches(expected)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(full_range_members())
    def test_both_routes_match_the_mpmath_oracle(self, case):
        # the only check that shares no kernel with either route. A wrong
        # answer is let through only where the resolvability rule, on the
        # oracle's pieces, stands above half its limit: the band of the
        # strict xfail test_small_coupling_beside_t18_matches_the_mpmath_oracle,
        # where both routes read a t = 0 piece beside t = 18 at about 1.3e-8
        m, M = case
        try:
            got = canonical_invariant(M, m)
        except MembershipError:
            return
        oracle = mp_invariant(M, m)
        if resolvability([HyperbolicBlock(*x) for x in oracle.triples]) > 0.5:
            return
        assert got.matches(oracle), (got, oracle)
        try:
            dec = block_decompose(M, m)
        except MembershipError:
            return
        assert invariant_from_blocks(dec.blocks).matches(oracle), (dec.blocks, oracle)

    @pytest.mark.parametrize("p", [1, 4])
    def test_kernels_act_on_blocks_of_side_at_most_p(self, monkeypatch, p):
        m = make_metric(p, p)
        M = sample_us_pp(SampleSpec(metric=m, seed=3, block_kind_weights=(0.3, 0.3, 0.2, 0.2)))[0]
        calls = {name: count_calls(monkeypatch, name, np.linalg) for name in ("eigh", "svd", "qr")}
        block_decompose(M, m)
        assert calls["eigh"] and calls["svd"]
        shapes = [x.shape for name in calls for x in calls[name]]
        assert all(max(shape) <= p for shape in shapes), shapes

    @pytest.mark.parametrize("blocks", [
        [hyp(17.0), hyp(1e-3), hyp(1e-3 + 2e-7, -1)],
        [hyp(15.0), hyp(1e-7), iota(-1), hyp(1e-7, -1)],
        [hyp(3.0, -1), iota(-1), iota(1), hyp(1e-10)],
        [hyp(0.0, -1), iota(-1), hyp(1e-12), hyp(0.5)],
        [hyp(300.0), hyp(290.0, -1), hyp(300.0, -1)],
    ])
    def test_small_couplings_beside_large_ones(self, blocks):
        # couplings far below the largest take their V rows from M22, which
        # resolves them where the SVD of M12 does not
        m = make_metric(len(blocks), len(blocks))
        expected = invariant_from_blocks(blocks)
        rng = np.random.default_rng(5)
        for _ in range(10):
            M = assemble_blocks(blocks, block_unitary(m, rng))
            dec = block_decompose(M, m)
            assert invariant_from_blocks(dec.blocks).matches(expected)
            assert unitary_residual(dec.q) <= 1e-14


    def test_weak_couplings_are_real_with_the_piece_sign(self):
        # beside t = 18 the couplings of t = 1e-4 and 2e-4 are weak: their V
        # rows come from M22, turned so that the frame holds sign * sinh t
        m = make_metric(3, 3)
        blocks = [hyp(18.0), hyp(1e-4, -1), hyp(2e-4)]
        M = assemble_blocks(blocks, block_unitary(m, np.random.default_rng(9)))
        dec = block_decompose(M, m)
        assert [b.t > 1.0 for b in dec.blocks] == [True, False, False]
        coupling = np.diagonal(dec.q @ M @ dec.q.conj().T, 3)
        assert np.allclose(coupling[1:], [b.sign * np.sinh(b.t) for b in dec.blocks[1:]],
                           rtol=0.0, atol=1e-6)


@st.composite
def piece_lists(draw):
    """One to eight pieces of every kind and sign, t over [0, 700] with ties and zeros."""
    pool = draw(st.lists(st.floats(0.0, 700.0), min_size=1, max_size=3)) + [0.0, 1e-7]
    blocks = []
    for _ in range(draw(st.integers(1, 8))):
        sign = draw(st.sampled_from([1, -1]))
        if draw(st.integers(0, 2)) == 0:
            blocks.append(iota(sign))
        else:
            blocks.append(hyp(draw(st.sampled_from(pool)), sign))
    return blocks


class TestArrayAssembly:
    """The array assembly against the per-piece oracle, the frame against the per-generator one."""

    @pytest.mark.parametrize("block", [hyp(0.0), hyp(0.0, -1), hyp(LN2), hyp(LN2, -1),
                                       hyp(709.0), iota(1), iota(-1)])
    def test_piece_matrix_is_bitwise_the_per_piece_formula(self, block):
        assert assemble_blocks([block]).tobytes() == per_piece_matrix(block).tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(piece_lists(), st.integers(0, 2**32 - 1), st.booleans())
    def test_assemble_is_bitwise_the_per_piece_oracle(self, blocks, seed, conjugate):
        m = make_metric(len(blocks), len(blocks))
        Q = block_unitary(m, np.random.default_rng(seed)) if conjugate else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = assemble_blocks(blocks, Q)
        # tobytes also tells the signs of zero apart
        assert got.tobytes() == per_piece_assemble(blocks, Q).tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(block_form_specs(), st.sampled_from([1, -1]))
    def test_frame_matches_per_generator_oracle(self, spec, sign):
        agrees_with_oracle(sign * sample_us_pp(spec)[0], spec.metric)

    def test_norm_calls_do_not_grow_with_p(self, monkeypatch):
        counts = []
        for p in (2, 32):
            m = make_metric(p, p)
            M = sample_us_pp(SampleSpec(metric=m, seed=4, block_kind_weights=(0.5, 0.5, 0.0, 0.0)))[0]
            calls = count_calls(monkeypatch, "norm", np.linalg)
            assert len(block_decompose(M, m).blocks) == p
            counts.append(len(calls))
            monkeypatch.undo()
        # one norm call per generator part would give 2p + 2
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("t", [400.0, 600.0, 709.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_top_of_the_range_decomposes_without_warnings(self, t, sign):
        m = make_metric(1, 1)
        M = sign * exp_us(LieElement(m, np.array([[t]])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (piece,) = block_decompose(M, m).blocks
        assert (piece.kind, piece.sign) == (HYPERBOLIC, sign)
        assert abs(piece.t - t) <= T_COMPARE_TOL * t / 20.0

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_parameters_past_the_float_range_are_refused(self, conjugate):
        m = make_metric(2, 2)
        Q = block_unitary(m, np.random.default_rng(6)) if conjugate else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"t = 709\.9 is past the limit 709\.78"):
                assemble_blocks([hyp(709.9)])
            with pytest.raises(ValueError, match=r"t = 709\.9 is past the limit 709\.78"):
                assemble_blocks([iota(1), hyp(709.9, -1)], Q)
            assert np.isfinite(assemble_blocks([iota(1), hyp(709.0, -1)], Q)).all()

    @staticmethod
    def _analyses(M, m) -> list:
        return [lambda: canonical_invariant(M, m), lambda: are_equivalent(M, M, m),
                lambda: is_in_exp_image(M, m), lambda: log_us(M, m),
                lambda: block_decompose(M, m), lambda: extract_generators(M, m)]

    @pytest.mark.parametrize("t", [709.9, 710.3])
    def test_every_route_refuses_a_parameter_past_the_range(self, t):
        # the entries of this member are still finite, but exp_us could not
        # map its logarithm back: every analysis applies the one range rule
        m = make_metric(1, 1)
        M = hyperbolic(t)
        assert np.isfinite(M).all()
        for analysis in self._analyses(M, m):
            with pytest.raises(ValueError, match=rf"t = {t} is past the limit 709\.78"):
                analysis()

    def test_every_route_returns_just_inside_the_range(self):
        m = make_metric(1, 1)
        M = hyperbolic(709.5)
        for analysis in self._analyses(M, m):
            analysis()
        assert canonical_invariant(M, m).triples == ((HYPERBOLIC, 709.5, 1),)
        # C07's group-side tolerance, relative to the largest entry, since
        # the Frobenius norm of M overflows here
        again = exp_us(log_us(M, m))
        assert np.abs(again - M).max() <= 1e-9 * np.abs(M).max()


class TestEquivalence:
    def test_conjugate_and_negated(self):
        m = make_metric(2, 2)
        rng = np.random.default_rng(15)
        M, _ = sample_us_pp(SampleSpec(metric=m, seed=20))
        Q = block_unitary(m, rng)
        assert are_equivalent(M, Q.conj().T @ M @ Q, m)
        assert are_equivalent(M, -M, m)

    def test_frozen_negative_pair(self):
        # hyperbolic + iota(+1) is not equivalent to hyperbolic + identity
        m = make_metric(2, 2)
        A = assemble_blocks([hyp(LN2), iota(1)])
        B = assemble_blocks([hyp(LN2), hyp(0.0)])
        assert not are_equivalent(A, B, m)

    def test_distinct_parameter_multisets(self):
        m = make_metric(2, 2)
        A = assemble_blocks([hyp(0.5), hyp(1.5)])
        B = assemble_blocks([hyp(0.5), hyp(1.6)])
        assert not are_equivalent(A, B, m)

    def test_parameters_past_t_20_compare_relatively(self):
        # at t = 30 the tolerance is T_COMPARE_TOL * 30 / 20 = 1.5e-8
        base = invariant_from_blocks([hyp(30.0)])
        assert base.matches(invariant_from_blocks([hyp(30.0 + 1.2e-8)]))
        assert not base.matches(invariant_from_blocks([hyp(30.0 + 2e-8)]))

    def test_resolvability_shortcut_sums_the_couplings(self):
        # Python's max([1.0, nan]) is 1.0, so a shortcut on the largest
        # coupling would accept a NaN in a later position; the sum is NaN
        s = [1.0, math.nan]
        with pytest.raises(MembershipError, match="^hyperbolic parameters not resolvable"):
            canonical._require_resolvable(s, [math.hypot(1.0, x) for x in s],
                                          [math.asinh(x) for x in s])


def _perturbed(M, rng):
    """A 1e-6 Hermitian perturbation: still Hermitian, no longer a member."""
    e = rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape)
    return M + 1e-6 * (e + e.conj().T)


@st.composite
def mixed_stacks(draw):
    """One to five matrices at one (p, p), p <= 4: sampled members (t up to 20,
    some of them unresolvable), Hermitian non-members, and members with t = 40
    beside an iota piece, which the resolvability rule refuses."""
    p = draw(st.integers(1, 4))
    m = make_metric(p, p)
    items = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["member", "member", "nonmember", "unresolvable"]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "unresolvable" and p > 1:
            blocks = [hyp(40.0), iota(1)] + [hyp(rng.uniform(0.0, 3.0)) for _ in range(p - 2)]
            items.append(assemble_blocks(blocks, block_unitary(m, rng)))
            continue
        spec = SampleSpec(metric=m, seed=int(rng.integers(2**31)),
                          t_max=draw(st.sampled_from([3.0, 8.0, 20.0])),
                          block_kind_weights=(0.3, 0.3, 0.2, 0.2))
        M = sample_us_pp(spec)[0]
        items.append(_perturbed(M, rng) if kind == "nonmember" else M)
    return m, np.array(items)


@st.composite
def validation_inputs(draw):
    """A sampled member at (p, p), p <= 4, as it is, perturbed off the group
    or off Hermitian symmetry, then scaled by 2^k, k up to 600."""
    p = draw(st.integers(1, 4))
    m = make_metric(p, p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = SampleSpec(metric=m, seed=int(rng.integers(2**31)),
                      t_max=draw(st.sampled_from([3.0, 8.0, 20.0])),
                      block_kind_weights=(0.3, 0.3, 0.2, 0.2))
    M = sample_us_pp(spec)[0]
    kind = draw(st.sampled_from(["member", "perturbed", "non-Hermitian"]))
    if kind == "perturbed":
        M = _perturbed(M, rng)
    elif kind == "non-Hermitian":
        M = M + 1e-9 * rng.standard_normal(M.shape)
    return m, 2.0 ** draw(st.one_of(st.just(0), st.integers(1, 600))) * M


def _refusal(call):
    """The message of the MembershipError call() raises, or None."""
    try:
        call()
    except MembershipError as e:
        return str(e)
    return None


def _invariant_or_refusal(call):
    """The CanonicalInvariant call() returns, or the MembershipError it raises."""
    try:
        return call()
    except MembershipError as e:
        return e


def _outcome(call):
    """The invariants call() returns with their floats as bit patterns, or the
    type and message of the MembershipError it raises."""
    try:
        return [_bitwise(r) for r in call()]
    except MembershipError as e:
        return _bitwise(e)


def _pass_outcome(refusals, results):
    """The outcome of the pass over matrices that validation alone refuses with
    these messages (None where it accepts) and whose results alone are these:
    the first validation refusal, in order, else the first refusal of a rule,
    else every invariant."""
    first = next((r for r in refusals if r is not None), None)
    if first is not None:
        return MembershipError, first
    refused = [r for r in results if isinstance(r, MembershipError)]
    return _bitwise(refused[0]) if refused else [_bitwise(r) for r in results]


def _batches(count: int) -> list:
    """Index lists of the stacks to pass: each matrix after every matrix before
    it, the last of them the whole stack."""
    return [list(range(k + 1)) for k in range(count)]


def _refusal_cases(m, rng) -> dict:
    """A sampled member at (2, 2), a Hermitian non-member near it, and a
    member that the resolvability rule refuses, t = 40 beside an iota piece."""
    member = sample_us_pp(SampleSpec(metric=m, seed=8))[0]
    return {
        "member": member,
        "nonmember": _perturbed(member, rng),
        "unresolvable": assemble_blocks([hyp(40.0), iota(1)], block_unitary(m, rng)),
    }


class TestStackedInvariants:
    """canonical._invariants reads a whole stack in one pass; B = 1 is canonical_invariant."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(mixed_stacks())
    def test_stack_is_bitwise_the_single_calls(self, case):
        # each matrix after the matrices before it: every invariant bitwise
        # its single call, or the first validation refusal, else the first
        # refusal of a rule
        m, stack = case
        alone = [_invariant_or_refusal(lambda: canonical_invariant(a, m)) for a in stack]
        refusals = [_refusal(lambda: require_member(a, m)) for a in stack]
        for idx in _batches(len(stack)):
            got = _outcome(lambda: canonical._invariants(stack[idx], m, DEFAULT_TOL))
            assert got == _pass_outcome([refusals[k] for k in idx], [alone[k] for k in idx])

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(block_form_specs(), st.sampled_from([1.0, -1.0]), st.floats(0.05, 0.5),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_verdicts_agree_with_block_decomposition(self, spec, sign, shift, seed, conjugate):
        m = spec.metric
        M, truth = sample_us_pp(spec)
        if conjugate:
            Q = block_unitary(m, np.random.default_rng(seed))
            M2 = sign * (Q.conj().T @ M @ Q)
        else:
            M2 = sample_us_pp(SampleSpec(
                metric=m, seed=spec.seed, block_kind_weights=spec.block_kind_weights,
                t_values=tuple(b.t + shift for b in truth.blocks)))[0]
        try:
            d1, d2 = block_decompose(M, m), block_decompose(M2, m)
        except MembershipError:
            return
        expected = invariant_from_blocks(d1.blocks).matches(invariant_from_blocks(d2.blocks))
        assert expected or not conjugate
        assert are_equivalent(M, M2, m) is expected

    @pytest.mark.parametrize("order", ["nonmember, member", "member, nonmember",
                                       "unresolvable, nonmember", "unresolvable, member",
                                       "member, unresolvable"])
    def test_first_refused_matrix_gives_the_message(self, order):
        # a validation refusal wins over a rule refusal of an earlier matrix
        m = make_metric(2, 2)
        matrices = _refusal_cases(m, np.random.default_rng(8))
        pair = [matrices[name] for name in order.split(", ")]
        first_refused = matrices["nonmember" if "nonmember" in order else "unresolvable"]
        with pytest.raises(MembershipError) as alone:
            canonical_invariant(first_refused, m)
        with pytest.raises(MembershipError) as both:
            are_equivalent(*pair, m)
        assert str(both.value) == str(alone.value)
        expected = "membership residual" if "nonmember" in order else "not resolvable"
        assert expected in str(both.value)

    @pytest.mark.parametrize("order", ["nonmember, member", "member, nonmember",
                                       "unresolvable, nonmember", "member, non-Hermitian"])
    def test_no_kernel_runs_on_a_pair_validation_refuses(self, order, monkeypatch):
        m = make_metric(2, 2)
        rng = np.random.default_rng(8)
        matrices = _refusal_cases(m, rng)
        matrices["non-Hermitian"] = matrices["member"] + 1e-6 * rng.standard_normal((4, 4))
        pair = [matrices[name] for name in order.split(", ")]
        calls = {name: count_calls(monkeypatch, name, np.linalg)
                 for name in ("eigh", "eigvalsh", "svd")}
        with pytest.raises(MembershipError, match="^matrix is not "):
            are_equivalent(*pair, m)
        assert calls == {"eigh": [], "eigvalsh": [], "svd": []}

    def test_one_validation_and_one_call_of_each_kernel(self, monkeypatch):
        # one validation per matrix, each of one matrix; one call of each
        # kernel per pass, over the whole stack
        m = make_metric(3, 3)
        M = sample_us_pp(SampleSpec(metric=m, seed=4))[0]
        Q = block_unitary(m, np.random.default_rng(4))
        calls = {name: count_calls(monkeypatch, name, np.linalg)
                 for name in ("eigh", "eigvalsh", "svd")}
        validations = count_calls(monkeypatch, "_validated", canonical)
        assert are_equivalent(M, Q.conj().T @ M @ Q, m)
        assert [len(calls[k]) for k in ("eigh", "eigvalsh", "svd")] == [1, 1, 1]
        assert calls["eigh"][0].shape == (2, 3, 3)
        assert [x[0].shape for x in validations] == [(6, 6), (6, 6)]
        canonical_invariant(M, m)
        assert [len(calls[k]) for k in ("eigh", "eigvalsh", "svd")] == [2, 2, 2]
        assert len(validations) == 3

    def test_both_routes_read_m11_once_in_one_helper(self, monkeypatch):
        # _m11_reading is the one eigh of an M11 block: each route calls it
        # once, on the first p rows of its stack, and no other eigh call of
        # either route takes an M11 block, alone or stacked
        readings = count_calls(monkeypatch, "_m11_reading", canonical)
        eighs = count_calls(monkeypatch, "eigh", np.linalg)

        def read_once(p, *members):
            m11 = [a[:p, :p] for a in members]
            assert [x.shape for x in readings] == [(len(members), p, members[0].shape[0])]
            assert np.array_equal(readings.pop()[..., :p], m11)
            on_m11 = [x for x in eighs if any(np.array_equal(x, b) for b in [*m11, m11])]
            assert len(on_m11) == 1
            eighs.clear()

        m = make_metric(3, 3)
        M = sample_us_pp(SampleSpec(metric=m, seed=4))[0]
        Q = block_unitary(m, np.random.default_rng(4))
        block_decompose(M, m)
        read_once(3, M)
        canonical_invariant(M, m)
        read_once(3, M)
        N = Q.conj().T @ M @ Q
        assert are_equivalent(M, N, m)
        read_once(3, M, N)
        # at (3, 2) the frame is that of the block swap, a member of U(2, 3)
        m32 = make_metric(3, 2)
        M = exp_us(LieElement(m32, np.random.default_rng(5).standard_normal((3, 2))))
        extract_generators(M, m32)
        swap = np.r_[3:5, :3]
        read_once(2, M[np.ix_(swap, swap)])

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(validation_inputs())
    def test_pass_refuses_exactly_where_require_member_refuses(self, case):
        # at tol equal to the membership residual and one ulp below it, the
        # pass refuses an input on validation exactly when require_member
        # does, with its message; past validation, only the rules of the
        # pass may refuse it
        m, M = case
        residual = membership_residual(M, m)
        identity = np.eye(m.n)
        for tol in (residual, np.nextafter(residual, 0.0)):
            expected = _refusal(lambda: require_member(M, m, tol))
            for got in (_refusal(lambda: canonical_invariant(M, m, tol)),
                        _refusal(lambda: are_equivalent(M, M, m, tol)),
                        _refusal(lambda: are_equivalent(identity, M, m, tol))):
                if expected is None:
                    assert got is None or not got.startswith("matrix is not")
                else:
                    assert got == expected

    @pytest.mark.parametrize("non_finite_first", [True, False])
    def test_non_finite_input_raises_before_any_refusal(self, non_finite_first):
        # every matrix is coerced before any is validated
        m = make_metric(2, 2)
        nonmember = 2.0 * np.eye(4)
        non_finite = np.eye(4)
        non_finite[0, 1] = np.nan
        pair = [non_finite, nonmember] if non_finite_first else [nonmember, non_finite]
        with pytest.raises(ValueError, match="non-finite") as raised:
            are_equivalent(*pair, m)
        assert type(raised.value) is ValueError


def _inconsistent(m, rng) -> np.ndarray:
    """hyp(12) and hyp(0.05) beside p - 2 pieces at t = 1, the hyp(0.05) piece
    perturbed on its own by 1e-9 ||M||: the membership residual is about 1e-14,
    relative to ||M||^2, but the spectra of that piece move by about 1e-4."""
    p = m.p
    b = assemble_blocks([hyp(12.0), hyp(0.05)] + [hyp(1.0)] * (p - 2))
    e = np.zeros((2 * p, 2 * p), dtype=complex)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    e[np.ix_([1, p + 1], [1, p + 1])] = z + z.conj().T
    Q = block_unitary(m, rng)
    return Q.conj().T @ (b + 1e-9 * np.linalg.norm(b) / np.linalg.norm(e) * e) @ Q


@st.composite
def oracle_stacks(draw):
    """One to five matrices at one (p, p), p <= 5, and a tolerance: sampled
    members (t up to 30, iota-heavy mixes, tied t), Hermitian non-members,
    non-Hermitian matrices, members scaled past 2^201, members with every t
    at 150 (entries past 2^201), unresolvable members, and near-members whose
    block spectra are inconsistent at the tolerance 1e-13."""
    p = draw(st.integers(1, 5))
    m = make_metric(p, p)
    items = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["member", "member", "member", "tied", "nonmember",
                                     "non-Hermitian", "scaled", "huge", "unresolvable",
                                     "inconsistent"]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "unresolvable" and p > 1:
            blocks = [hyp(40.0), iota(1)] + [hyp(rng.uniform(0.0, 3.0)) for _ in range(p - 2)]
            items.append(assemble_blocks(blocks, block_unitary(m, rng)))
            continue
        if kind == "inconsistent" and p > 1:
            items.append(_inconsistent(m, rng))
            continue
        weights = draw(st.sampled_from([DEFAULT_KIND_WEIGHTS, (0.3, 0.3, 0.2, 0.2),
                                        (0.1, 0.1, 0.4, 0.4), (0.0, 0.0, 0.5, 0.5)]))
        t_values = None
        if kind in ("tied", "huge"):
            t = 150.0 if kind == "huge" else draw(st.sampled_from([0.0, 0.3, 2.0]))
            t_values = (t,) * p
        spec = SampleSpec(metric=m, seed=int(rng.integers(2**31)),
                          t_max=draw(st.sampled_from([3.0, 8.0, 20.0, 30.0])),
                          block_kind_weights=weights, t_values=t_values)
        M = sample_us_pp(spec)[0]
        if kind == "nonmember":
            M = _perturbed(M, rng)
        elif kind == "non-Hermitian":
            M = M + 1e-6 * rng.standard_normal(M.shape)
        elif kind == "scaled":
            M = 2.0 ** 210 * M
        items.append(M)
    tol = draw(st.sampled_from([DEFAULT_TOL, DEFAULT_TOL, 1e-13, 1e-7]))
    return m, np.array(items), tol


def _bitwise(result) -> tuple:
    """A result of the pass with every float as its bit pattern."""
    if isinstance(result, CanonicalInvariant):
        return tuple((k, type(t), float(t).hex(), type(s), s) for k, t, s in result.triples)
    return type(result), str(result)


@st.composite
def hand_made_blocks(draw):
    """Block lists with iota pairs, both signs, and t tied within T_COMPARE_TOL
    (zeros of both signs among them)."""
    blocks = []
    for _ in range(draw(st.integers(1, 7))):
        sign = draw(st.sampled_from([1, -1]))
        if draw(st.booleans()):
            blocks.append(iota(sign))
            continue
        base = draw(st.sampled_from([0.0, -0.0, 0.5, 1.0, 20.0, 30.0]))
        step = draw(st.sampled_from([0.0, 0.5, 1 - 1e-6, 1 + 1e-6, 2.0])) * T_COMPARE_TOL
        blocks.append(hyp(base + step * draw(st.integers(0, 2)) if step else base, sign))
    return blocks


class TestArrayRulesOracle:
    """The pass on Python floats against array_rules_invariants, the pass with
    its rules as array expressions over the stack and its invariants built
    from HyperbolicBlock objects."""

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(oracle_stacks())
    def test_pass_is_bitwise_the_array_rules(self, case):
        # each matrix after the matrices before it, the last the whole stack
        m, stack, tol = case
        refusals = array_refusals(stack, m, tol)[0]
        for idx in _batches(len(stack)):
            got = _outcome(lambda: canonical._invariants(stack[idx], m, tol))
            assert got == _pass_outcome([refusals[k] for k in idx],
                                        array_rules_invariants(stack[idx], m, tol))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(oracle_stacks())
    def test_validation_is_bitwise_the_array_residuals(self, case):
        # validation takes one matrix and raises its refusal; the oracle
        # reads the whole stack
        m, stack, tol = case
        measured = [metric_module._measured(a, m) for a in stack]
        messages = [_refusal(lambda: metric_module._validated(x, m, tol)) for x in measured]
        norms = [x[4] for x in measured]
        expected_messages, expected_norms = array_refusals(stack, m, tol)
        assert list(messages) == expected_messages
        assert [float(x).hex() for x in norms] == [x.hex() for x in expected_norms.tolist()]

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 300])
    def test_stacked_residuals_are_bitwise_the_array_residuals(self, scale):
        # about one squared norm in a thousand rounds differently under pow,
        # so the stack is large enough to hold some
        m = make_metric(2, 2)
        z = np.random.default_rng(17).standard_normal((20000, 4, 4, 2)).view(complex)[..., 0]
        stack = scale * (np.eye(4) + 1e-3 * (z + z.conj().swapaxes(-1, -2)) + 1e-9 * z)
        expected = [x.tolist() for x in array_residuals(stack, m)]
        got = [[hermitian_residual(a) for a in stack],
               [membership_residual(a, m) for a in stack],
               [float(metric_module._scaled(a)[3]) for a in stack]]
        assert [[x.hex() for x in g] for g in got] == [[x.hex() for x in e] for e in expected]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(hand_made_blocks())
    def test_invariant_from_blocks_is_bitwise_the_block_route(self, blocks):
        assert _bitwise(invariant_from_blocks(blocks)) == _bitwise(block_invariant(blocks))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_inconsistent_block_spectra_refused(self, seed):
        m = make_metric(2, 2)
        M = _inconsistent(m, np.random.default_rng(seed))
        tol = 1.01 * membership_residual(M, m)
        with pytest.raises(MembershipError, match="^block spectra inconsistent: residual ") as exc:
            canonical_invariant(M, m, tol)
        assert str(exc.value) == str(array_rules_invariants(M[None], m, tol)[0])

    def test_invariants_build_no_block_objects(self, monkeypatch):
        # a piece is a tuple, built and checked in __new__
        built = []
        new = HyperbolicBlock.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)
        monkeypatch.setattr(HyperbolicBlock, "__new__", counted)
        m = make_metric(3, 3)
        # hyperbolic pieces of both signs and an iota piece
        M = sample_us_pp(SampleSpec(metric=m, seed=1, block_kind_weights=(0.3, 0.3, 0.2, 0.2)))[0]
        built.clear()
        Q = block_unitary(m, np.random.default_rng(1))
        assert are_equivalent(M, Q.conj().T @ M @ Q, m)
        canonical_invariant(-M, m)
        assert built == []
        hyp(1.0)
        assert len(built) == 1


# hyperbolic pieces only, iota pieces only, both kinds at even odds, the sampler's default
KIND_MIXES = ((0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.5, 0.5), (0.3, 0.3, 0.2, 0.2),
              DEFAULT_KIND_WEIGHTS)


@st.composite
def kind_mix_specs(draw):
    """Sample specs at p <= 6 under each kind mix, t <= 6 with ties and zeros."""
    p = draw(st.integers(1, 6))
    pool = draw(st.lists(st.floats(0.0, 6.0), min_size=1, max_size=3)) + [0.0]
    return SampleSpec(metric=make_metric(p, p), seed=draw(st.integers(0, 2**32 - 1)),
                      block_kind_weights=draw(st.sampled_from(KIND_MIXES)),
                      t_values=tuple(draw(st.lists(st.sampled_from(pool), min_size=p, max_size=p))))


valid_triples = st.one_of(
    st.tuples(st.just(HYPERBOLIC), st.floats(0.0, 700.0), st.sampled_from([1, -1])),
    st.tuples(st.just(IOTA), st.just(0.0), st.sampled_from([1, -1])))

def refused_t(shown: str) -> str:
    """The whole refusal of a block parameter whose repr is shown."""
    return anchored(f"block parameter must be a finite nonnegative number, got {shown}")


BAD_TRIPLES = {
    "unknown_kind": (("circle", 0.0, 1), "unknown block kind"),
    "array_kind": ((np.array([IOTA]), 0.0, 1), "unknown block kind"),
    "array_kinds": ((np.array([IOTA, IOTA]), 0.0, 1), "unknown block kind"),
    "sign_2": ((HYPERBOLIC, 1.0, 2), "block sign must be"),
    "negative_t": ((HYPERBOLIC, -0.5, 1), refused_t("-0.5")),
    "nan_t": ((HYPERBOLIC, float("nan"), 1), refused_t("nan")),
    "str_t": ((HYPERBOLIC, "1", 1), refused_t("'1'")),
    "none_t": ((HYPERBOLIC, None, 1), refused_t("None")),
    "complex_t": ((HYPERBOLIC, 1j, 1), refused_t("1j")),
    "iota_with_t": ((IOTA, 0.3, -1), "iota blocks carry no hyperbolic parameter"),
    "bool_sign": ((HYPERBOLIC, 1.0, True), "block sign must be"),
    "numpy_bool_sign": ((IOTA, 0.0, np.True_), "block sign must be"),
    "bool_t": ((HYPERBOLIC, True, 1), refused_t("True")),
    "numpy_bool_t": ((IOTA, np.False_, 1), refused_t("np.False_")),
}


def plain_types(pieces) -> bool:
    """Every piece is exactly (str, float, int): no bool, numpy scalar or 0-d array."""
    return all(type(kind) is str and type(t) is float and type(sign) is int
               for kind, t, sign in pieces)


def decompose_payload(M, m) -> list:
    """The pieces `upq decompose` prints for M, as (kind, t, sign) triples."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(dumps_matrix(M, m))), mock.patch("sys.stdout", out):
        assert main(["decompose", "-"]) == 0
    return [(b["kind"], b["t"], b["sign"]) for b in json.loads(out.getvalue())["result"]["blocks"]]


class TestOnePieceType:
    """Decompositions, samples, invariants and upq reports hold one piece type,
    the (kind, t, sign) triple, and the boundaries check every piece they take."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind_mix_specs(), st.sampled_from([1, -1]))
    def test_routes_give_one_invariant(self, spec, sign):
        m = spec.metric
        M, truth = sample_us_pp(spec)
        M = sign * M
        dec = block_decompose(M, m)
        payload = decompose_payload(M, m)
        assert all(type(b) is HyperbolicBlock for b in dec.blocks + truth.blocks)
        assert payload == list(dec.blocks)
        inv = invariant_from_blocks(dec.blocks)
        assert _bitwise(invariant_from_blocks(payload)) == _bitwise(inv)
        assert inv.matches(canonical_invariant(M, m))
        assert inv.matches(invariant_from_blocks(truth.blocks))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind_mix_specs(), st.sampled_from([1, -1]))
    def test_invariant_triples_assemble_to_an_equivalent_member(self, spec, sign):
        M = sign * sample_us_pp(spec)[0]
        triples = canonical_invariant(M, spec.metric).triples
        assert all(type(x) is tuple and len(x) == 3 for x in triples)
        assert are_equivalent(assemble_blocks(triples), M, spec.metric)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(valid_triples)
    def test_a_piece_is_its_triple(self, x):
        piece = HyperbolicBlock(*x)
        assert piece == x and hash(piece) == hash(x)
        assert (piece.kind, piece.t, piece.sign) == x
        assert assemble_blocks([x]).tobytes() == assemble_blocks([piece]).tobytes()

    @pytest.mark.parametrize("case", sorted(BAD_TRIPLES))
    def test_bad_triples_are_refused_at_both_boundaries(self, case):
        bad, message = BAD_TRIPLES[case]
        with pytest.raises(ValueError, match=message):
            HyperbolicBlock(*bad)
        with pytest.raises(ValueError, match=message):
            invariant_from_blocks([hyp(1.0), bad])
        with pytest.raises(ValueError, match=message):
            assemble_blocks([hyp(1.0), bad])

    def test_replace_and_make_check_the_piece(self):
        with pytest.raises(ValueError, match=refused_t("-1.0")):
            HyperbolicBlock(HYPERBOLIC, 1.0, 1)._replace(t=-1.0)
        with pytest.raises(ValueError, match="block sign must be"):
            HyperbolicBlock._make((IOTA, 5.0, 7))
        with pytest.raises(ValueError, match=refused_t("'2'")):
            HyperbolicBlock(HYPERBOLIC, 1.0, 1)._replace(t="2")
        piece = HyperbolicBlock(HYPERBOLIC, 1.0, 1)._replace(t=2.0)
        assert type(piece) is HyperbolicBlock and piece == (HYPERBOLIC, 2.0, 1)
        assert HyperbolicBlock._make((IOTA, 0.0, -1)) == HyperbolicBlock(IOTA, 0.0, -1)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind_mix_specs(), st.sampled_from([1, -1]))
    def test_every_piece_list_holds_plain_types(self, spec, sign):
        M, truth = sample_us_pp(spec)
        M = sign * M
        dec = block_decompose(M, spec.metric)
        # the same pieces handed over as numpy strings, floats, 0-d arrays and
        # float or numpy integer signs
        casts = itertools.cycle([(np.str_, np.float64, float), (np.str_, np.array, np.int64)])
        loose = [tuple(cast(x) for cast, x in zip(c, piece)) for c, piece in zip(casts, dec.blocks)]
        assert plain_types(dec.blocks) and plain_types(truth.blocks)
        for pieces in (dec.blocks, truth.blocks, loose):
            assert plain_types(invariant_from_blocks(pieces).triples)
            assert plain_types(HyperbolicBlock(*x) for x in pieces)
        assert plain_types(canonical_invariant(M, spec.metric).triples)
        assert _bitwise(invariant_from_blocks(loose)) == _bitwise(invariant_from_blocks(dec.blocks))

    def test_loose_types_are_stored_plain(self):
        inv = invariant_from_blocks([(HYPERBOLIC, 1.0, 1.0), (IOTA, 0, np.int64(1))])
        assert inv.triples == ((HYPERBOLIC, 1.0, 1), (IOTA, 0.0, 1))
        assert plain_types(inv.triples)
        piece = HyperbolicBlock(np.str_(HYPERBOLIC), np.array(1.5), np.float64(-1.0))
        assert piece == (HYPERBOLIC, 1.5, -1) and plain_types([piece])

    @pytest.mark.parametrize("piece", [(HYPERBOLIC, 1.0), (HYPERBOLIC, 1.0, 1, 0)],
                             ids=["short", "long"])
    def test_pieces_must_be_triples(self, piece):
        # the constructor's defaults do not fill in a short piece
        with pytest.raises(ValueError, match="values to unpack"):
            invariant_from_blocks([hyp(1.0), piece])
        with pytest.raises(ValueError, match="values to unpack"):
            assemble_blocks([hyp(1.0), piece])


class TestSpecial:
    """Members have |det| = 1; the pieces below lie in the special subgroup (det 1)."""

    def test_hyperbolic_blocks_are_special(self):
        assert np.linalg.det(hyperbolic(0.8)) == pytest.approx(1.0, abs=1e-10)

    def test_metric_at_11_is_not(self):
        assert np.linalg.det(make_metric(1, 1).matrix) == pytest.approx(-1.0, abs=1e-10)

    def test_double_iota_is_special(self):
        M = assemble_blocks([iota(1), iota(1)])
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-10)


class TestGroupLaw:
    def test_parameter_addition(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            t1, t2 = rng.uniform(0.0, 3.0, size=2)
            prod = hyperbolic(t1) @ hyperbolic(t2)
            assert np.max(np.abs(prod - hyperbolic(t1 + t2))) <= 1e-12

    def test_commutativity_of_assembled_family(self):
        # members assembled from the same conjugating unitary commute
        m = make_metric(3, 3)
        rng = np.random.default_rng(78)
        Q = block_unitary(m, rng)
        t = rng.uniform(0.0, 3.0, size=3)
        s = rng.uniform(0.0, 3.0, size=3)
        A = assemble_blocks([hyp(x) for x in t], Q)
        B = assemble_blocks([hyp(x) for x in s], Q)
        C = assemble_blocks([hyp(x + y) for x, y in zip(t, s)], Q)
        assert np.linalg.norm(A @ B - B @ A) <= 1e-10
        assert np.linalg.norm(A @ B - C) <= 1e-10

    def test_trace_recovers_parameter(self):
        # trace of a signed hyperbolic block is sign * 2 cosh t; the larger
        # eigenvalue magnitude is e^t
        for t in (0.0, 0.3, 2.7):
            for sign in (1, -1):
                B = sign * hyperbolic(t)
                tr = np.trace(B).real
                assert abs(tr) == pytest.approx(2.0 * np.cosh(t), abs=1e-12)
                t_from_trace = np.arccosh(abs(tr) / 2.0)
                t_from_eig = np.log(np.max(np.abs(np.linalg.eigvalsh(B))))
                assert t_from_trace == pytest.approx(t, abs=1e-7)
                assert t_from_eig == pytest.approx(t, abs=1e-12)
