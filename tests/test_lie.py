"""Tangent blocks, the exponential map, and its inverse."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (
    anchored,
    block_unitary,
    count_calls,
    hyperbolic,
    local_haar,
    mp_exp_tangent,
    mp_log_parameters,
    pd_floor_log,
    tangent_matrix,
    unscaled_tangent_residual,
)
from pseudounitary import (
    HYPERBOLIC,
    IOTA,
    T_COMPARE_TOL,
    HyperbolicBlock,
    LieElement,
    MembershipError,
    assemble_blocks,
    canonical_invariant,
    exp_us,
    hermitian_residual,
    is_in_exp_image,
    is_pseudo_unitary,
    log_us,
    make_metric,
    membership_residual,
)
import pseudounitary

LN2 = np.log(2.0)


def tangent(metric, b):
    return LieElement(metric, np.asarray(b, dtype=complex))


class TestValidate:
    """The tangent defect T* J + J T, measured as the Hermitian residual of i J T."""

    def test_residual_is_bitwise_the_unscaled_formula(self):
        # tangents and non-tangents scaled from 1e-30 to 1e30, where the
        # unscaled formula does not overflow
        rng = np.random.default_rng(17)
        for _ in range(300):
            p, q = rng.integers(0, 4, size=2)
            m = make_metric(int(p), int(q) + (p + q == 0))
            n = m.n
            T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if rng.random() < 0.5:
                T = tangent_matrix(T[: m.p, m.p:], m)
            T = T * 10.0 ** rng.uniform(-30, 30)
            x = 1j * m.signs[:, None] * T
            assert hermitian_residual(x) == unscaled_tangent_residual(T, m)


class TestGenerator:
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

    def test_overflow_bound(self):
        # arccosh(float max / 2): exp_us is finite at the bound and refuses past it
        bound = np.arccosh(np.finfo(float).max / 2.0)
        assert bound == pytest.approx(709.78, abs=0.01)
        m = make_metric(1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(exp_us(tangent(m, [[bound]]))).all()
            # the range rule of every analysis route, on the largest singular value
            with pytest.raises(ValueError, match=anchored(
                    f"hyperbolic parameter t = {float(np.nextafter(bound, np.inf))!r} is past "
                    f"the limit {float(bound)!r} = arccosh(float max / 2) of finite entries")):
                exp_us(tangent(m, [[np.nextafter(bound, np.inf)]]))
            with pytest.raises(ValueError, match="^hyperbolic parameter t = 709.8 is past the limit"):
                exp_us(tangent(make_metric(2, 3), 709.8 * np.eye(2, 3)))


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

    @pytest.mark.parametrize("t", [12.0, 19.0, 30.0, 300.0, 700.0])
    def test_large_parameter_recovered(self, t):
        # exact exponentials far past desk scale, up to the top of the float
        # range, come back within the bound of the resolvability rule
        m = make_metric(1, 1)
        M = exp_us(tangent(m, [[t]]))
        assert is_pseudo_unitary(M, m)
        assert is_in_exp_image(M, m)
        back = log_us(M, m).block[0, 0]
        assert abs(back - t) <= T_COMPARE_TOL * max(1.0, t / 20.0)


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


def _profile(rng, profile: str, t_max: float, r: int) -> np.ndarray:
    """r parameters up to t_max: spread over [0, t_max] or over its top 15, clustered
    below it, or tied at it."""
    if profile in ("spread", "band"):
        t = rng.uniform(0.0 if profile == "spread" else max(t_max - 15.0, 0.0), t_max, size=r)
        t[:1] = t_max
        return t
    if profile == "clustered":
        return np.maximum(t_max - rng.uniform(0.0, 1e-6, size=r), 0.0)
    return np.full(r, t_max)


@st.composite
def image_members(draw, t_cap: float = 700.0):
    """(metric, M, whether M is positive definite, the parameters of M).

    Either +-exp of a tangent with prescribed singular values at any (p, q)
    with p, q <= 8, or, at (p, p), pieces assembled with assemble_blocks,
    some of them iota or negative. The largest parameter is drawn up to
    t_cap, from desk scale to the top of the float range.
    """
    profile = draw(st.sampled_from(["spread", "band", "clustered", "tied"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t_max = rng.uniform(0.0, draw(st.sampled_from([t_cap, min(t_cap, 12.0)])))
    if draw(st.booleans()):
        p, q = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        m = make_metric(p, q + (p + q == 0))
        r = min(m.p, m.q)
        t = _profile(rng, profile, t_max, r)
        b = (local_haar(rng, m.p)[:, :r] * t[None, :]) @ local_haar(rng, m.q)[:, :r].conj().T
        sign = draw(st.sampled_from([1, 1, -1]))
        return m, sign * exp_us(LieElement(m, b)), sign == 1, t
    p = draw(st.integers(1, 8))
    m = make_metric(p, p)
    species = draw(st.lists(st.sampled_from([(HYPERBOLIC, 1)] * 3 + [(HYPERBOLIC, -1), (IOTA, 1),
                                                                     (IOTA, -1)]),
                            min_size=p, max_size=p))
    t = _profile(rng, profile, t_max, p)
    blocks = [HyperbolicBlock(kind, float(tj) if kind == HYPERBOLIC else 0.0, sign)
              for (kind, sign), tj in zip(species, t)]
    pd = all(b.kind == HYPERBOLIC and b.sign == 1 for b in blocks)
    return m, assemble_blocks(blocks, block_unitary(m, rng)), pd, t


class TestExponentialImage:
    """The trace rule and the shared resolvability rule decide the image over t in [0, 700]."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(image_members())
    def test_accepted_within_the_bound_or_refused(self, case):
        m, M, pd, t = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                verdict = is_in_exp_image(M, m)
            except MembershipError as exc:
                # log_us refuses the same members, for the same reason
                with pytest.raises(MembershipError, match=re.escape(str(exc).split(":")[0])):
                    log_us(M, m)
                return
            assert verdict == pd
            if not pd:
                with pytest.raises(MembershipError, match="not positive definite"):
                    log_us(M, m)
                return
            back = np.linalg.svd(log_us(M, m).block, compute_uv=False)
        want = np.sort(t)[::-1]
        assert np.all(np.abs(back - want) <= T_COMPARE_TOL * np.maximum(1.0, want / 20.0))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(image_members(t_cap=11.0))
    def test_agrees_with_the_eigenvalue_floor_up_to_t_11(self, case):
        m, M, _, _ = case
        want = pd_floor_log(M, m)
        assert is_in_exp_image(M, m) == (want is not None)
        if want is None:
            with pytest.raises(MembershipError, match="not positive definite"):
                log_us(M, m)
        else:
            assert np.array_equal(log_us(M, m).block, want)

    def test_top_of_the_range(self):
        m = make_metric(8, 8)
        M = assemble_blocks([HyperbolicBlock(HYPERBOLIC, 709.0, 1)] * 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_in_exp_image(M, m)
            back = np.linalg.svd(log_us(M, m).block, compute_uv=False)
        assert np.all(np.abs(back - 709.0) <= T_COMPARE_TOL * 709.0 / 20.0)

    def test_one_svd_and_no_eigendecomposition(self, monkeypatch):
        m = make_metric(2, 3)
        M = exp_us(LieElement(m, np.full((2, 3), 0.5 + 0.25j)))
        calls = {name: count_calls(monkeypatch, name, np.linalg)
                 for name in ("svd", "eigh", "eigvalsh")}
        log_us(M, m)
        assert [len(calls[k]) for k in ("svd", "eigh", "eigvalsh")] == [1, 0, 0]
        assert is_in_exp_image(M, m)
        assert [len(calls[k]) for k in ("svd", "eigh", "eigvalsh")] == [2, 0, 0]

    @pytest.mark.parametrize("t", [0.5, 5.0])
    def test_trace_deficit_of_an_indefinite_member_is_two(self, t):
        # at (1, 2) the member with pieces hyp(t) and the unpaired -1 has
        # tr M = 2 cosh t - 1 against the positive definite bound 2 cosh t + 1,
        # and h_min = 1 is the padding coupling's; t <= 5 stays resolvable
        m = make_metric(1, 2)
        c, s = np.cosh(t), np.sinh(t)
        M = np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, -1.0]], dtype=complex)
        sv = np.linalg.svd(M[:1, 1:], compute_uv=False)
        assert pseudounitary.lie._trace_deficit(M, sv, m) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(MembershipError, match="trace deficit 2 h_min"):
            log_us(M, m)

    @pytest.mark.parametrize("p, q", [(1, 2), (2, 2), (3, 2)])
    def test_trace_deficit_of_an_exponential_is_zero(self, p, q):
        m = make_metric(p, q)
        b = np.random.default_rng(4).standard_normal((p, q)) * (1.0 + 0.5j)
        M = exp_us(LieElement(m, b))
        sv = np.linalg.svd(M[:p, p:], compute_uv=False)
        assert pseudounitary.lie._trace_deficit(M, sv, m) == pytest.approx(0.0, abs=1e-12)

    def test_no_tuned_floor(self):
        assert not hasattr(pseudounitary, "PD_FLOOR")
        assert not hasattr(pseudounitary.lie, "PD_FLOOR")

    @pytest.mark.parametrize("t", [21.0, 30.0, 40.0])
    def test_refusals_print_the_rule_ratio(self, t):
        # a parameter t next to t = 0.5 on a positive definite member: rounding
        # of size eps * sinh t moves the small parameter past the tolerance, so
        # canonical_invariant, log_us and is_in_exp_image refuse, each printing
        # the ratio of the measured value to the limit
        m = make_metric(2, 2)
        blocks = [HyperbolicBlock(HYPERBOLIC, t, 1), HyperbolicBlock(HYPERBOLIC, 0.5, 1)]
        M = assemble_blocks(blocks, block_unitary(m, np.random.default_rng(6)))
        ratios = []
        for f in (canonical_invariant, log_us, is_in_exp_image):
            with pytest.raises(MembershipError, match="not resolvable") as exc:
                f(M, m)
            ratios.append(float(re.search(r"a ratio of (\S+)$", str(exc.value)).group(1)))
        assert min(ratios) > 1.0
        if t < 40.0:
            # at t = 40 rounding swamps the small coupling itself, and the
            # ratio depends on the route the SVD takes
            assert ratios[1] == pytest.approx(ratios[0], rel=1e-2)
            assert ratios[2] == pytest.approx(ratios[0], rel=1e-2)


@st.composite
def tangent_blocks(draw):
    """(metric, B) at p, q <= 3, with the singular values of B drawn in [0, 700]."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    r = min(p, q)
    s = np.array(draw(st.lists(st.floats(0.0, 700.0), min_size=r, max_size=r)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = (local_haar(rng, p)[:, :r] * s[None, :]) @ local_haar(rng, q)[:, :r].conj().T
    return make_metric(p, q), b


class TestMpmathOracle:
    """exp_us and log_us against 50-digit mpmath over t in [0, 700]: routes that
    share no kernel with the library."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(tangent_blocks())
    def test_exp_matches_the_mpmath_exponential(self, case):
        m, b = case
        got = exp_us(LieElement(m, b))
        want, s_max = mp_exp_tangent(b)
        # relative to the largest entry: the SVD's backward error and the unitarity
        # defect of its factors, about n eps each, pass through exp with its
        # relative condition number 1 + ||A||_2 = 1 + s_max for a Hermitian A, and
        # the products W cosh(S) W* and W sinh(S) X* add about n eps more
        bound = 4 * m.n * np.finfo(float).eps * (1.0 + s_max) * np.abs(want).max()
        assert np.abs(got - want).max() <= bound

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(tangent_blocks())
    def test_log_matches_the_mpmath_singular_values(self, case):
        # wherever log_us returns, its parameters are within its documented
        # T_COMPARE_TOL * max(1, t / 20) of arcsinh of the exact singular
        # values of the float member's M12
        m, b = case
        M = exp_us(LieElement(m, b))
        want = mp_log_parameters(M, m)
        try:
            got = np.linalg.svd(log_us(M, m).block, compute_uv=False)
        except MembershipError as exc:
            assert "not resolvable" in str(exc)
            event("refused")
            return
        event("returned")
        assert np.all(np.abs(got - want) <= T_COMPARE_TOL * np.maximum(1.0, want / 20.0))
