"""Acceptance gate: the twelve numerical guarantees this package commits to.

Each criterion prints exactly one verdict line (visible under pytest -s)
reporting the measured extreme against the committed bound, then asserts.
A FAIL line and a red test mean the same thing; nothing is downgraded to a
warning. The whole module is seeded and deterministic.
"""

import numpy as np
import pytest

from conftest import block_unitary, hyperbolic, random_generator_set, rank_pair
from pseudounitary import (
    HYPERBOLIC,
    IOTA,
    HyperbolicBlock,
    LieElement,
    MembershipError,
    SampleSpec,
    are_equivalent,
    assemble_blocks,
    block_decompose,
    check_compact_intersection,
    construct_from_generators,
    exp_us,
    extract_generators,
    fast_inverse,
    haar_unitary,
    hermitian_residual,
    invariant_from_blocks,
    is_hermitian,
    is_in_exp_image,
    is_pseudo_unitary,
    log_us,
    make_metric,
    membership_residual,
    sample_upq,
    sample_us_lie,
    sample_us_pp,
)


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_c01_defining_identities_of_sampled_members():
    # 1000 block-form draws across sizes: membership and symmetry to 1e-10
    worst_m = worst_h = 0.0
    count = 0
    for p in (1, 2, 4, 8):
        m = make_metric(p, p)
        for seed in range(250):
            M, _ = sample_us_pp(SampleSpec(metric=m, seed=seed, t_max=3.0))
            worst_m = max(worst_m, membership_residual(M, m))
            worst_h = max(worst_h, hermitian_residual(M))
            count += 1
    ok = count == 1000 and worst_m <= 1e-10 and worst_h <= 1e-10
    report("C01 defining identities on 1000 sampled members", ok,
           f"max membership {worst_m:.2e}, max hermitian {worst_h:.2e}, bound 1e-10")


def test_c02_rank_inequality_and_triple_factorization():
    # the normalizing sign always satisfies rank(sM + J) <= rank(sM - J),
    # and (M - J) J (M + J) vanishes for every member
    mats = []
    for p in (1, 2, 4):
        m = make_metric(p, p)
        for seed in range(100):
            M, _ = sample_us_pp(SampleSpec(metric=m, seed=1000 + seed, t_max=3.0))
            mats.append((M, m))
    rng = np.random.default_rng(202)
    for (p, q) in ((1, 1), (1, 2), (2, 3)):
        m = make_metric(p, q)
        for _ in range(67):
            k = int(rng.integers(0, min(p, q) + 1))
            sigma = 1 if rng.integers(2) else -1
            gens = random_generator_set(m, k, rng, sigma=sigma)
            mats.append((construct_from_generators(gens), m))
    worst_triple = 0.0
    sum_violations = 0
    order_violations = 0
    for M, m in mats:
        j = m.matrix
        worst_triple = max(worst_triple, float(np.linalg.norm((M - j) @ j @ (M + j))))
        minus_rank, plus_rank = rank_pair(M, m)
        if minus_rank + plus_rank > m.n:
            sum_violations += 1
        sigma = extract_generators(M, m).sigma
        s_minus, s_plus = rank_pair(sigma * M, m)
        if s_plus > s_minus:
            order_violations += 1
    ok = (sum_violations == 0 and order_violations == 0
          and worst_triple <= 1e-9 and len(mats) == 501)
    report("C02 rank inequality and triple factorization", ok,
           f"{len(mats)} members, rank-sum violations {sum_violations}, "
           f"sign-order violations {order_violations}, "
           f"max |(M-J)J(M+J)| {worst_triple:.2e}, bound 1e-9")


def test_c03_eigenvalue_annulus():
    # eigenvalues of M + J are either zero or at least 2 in magnitude
    band_count = 0
    checked = 0
    closest = 2.0
    cases = []
    for p in (1, 2, 3):
        m = make_metric(p, p)
        cases.extend(
            (sample_us_pp(SampleSpec(metric=m, seed=2000 + s, t_max=3.0))[0], m)
            for s in range(100)
        )
    for (p, q) in ((1, 2), (2, 3)):
        m = make_metric(p, q)
        cases.extend(
            (exp_us(sample_us_lie(m, seed=2500 + s, scale=0.8)), m)
            for s in range(50)
        )
    for M, m in cases:
        checked += 1
        w = np.abs(np.linalg.eigvalsh((M + m.matrix + (M + m.matrix).conj().T) / 2.0))
        if np.any((w > 1e-8) & (w < 2.0 - 1e-8)):
            band_count += 1
        nonzero = w[w > 1e-8]
        if nonzero.size:
            closest = min(closest, float(np.min(nonzero)))
    ok = band_count == 0 and checked == 400 and closest >= 2.0 - 1e-8
    report("C03 eigenvalue annulus of M + J", ok,
           f"{checked} members, band violations {band_count}, "
           f"smallest nonzero magnitude {closest:.10f} vs 2")


def test_c04_block_decomposition_round_trip():
    # 500 decompositions: reassembly to 1e-9, every 2x2 piece is itself a
    # Hermitian member, and the invariant matches the generating truth
    u11 = make_metric(1, 1)
    worst_rec = worst_piece = 0.0
    mismatches = 0
    count = 0
    for p in (1, 2, 4, 8):
        m = make_metric(p, p)
        for seed in range(125):
            M, truth = sample_us_pp(SampleSpec(metric=m, seed=3000 + seed, t_max=3.0))
            dec = block_decompose(M, m)
            rec = float(np.linalg.norm(dec.matrix() - M)) / max(1.0, float(np.linalg.norm(M)))
            worst_rec = max(worst_rec, rec)
            b = dec.q @ M @ dec.q.conj().T
            for j in range(p):
                piece = b[np.ix_((j, p + j), (j, p + j))]
                worst_piece = max(worst_piece, membership_residual(piece, u11),
                                  hermitian_residual(piece))
            if not invariant_from_blocks(dec.blocks).matches(
                    invariant_from_blocks(truth.blocks)):
                mismatches += 1
            count += 1
    ok = count == 500 and worst_rec <= 1e-9 and worst_piece <= 1e-9 and mismatches == 0
    report("C04 block decomposition round trip", ok,
           f"{count} members, max reassembly {worst_rec:.2e}, "
           f"max piece residual {worst_piece:.2e}, invariant mismatches {mismatches}")


def test_c05_equivalence_detection():
    # invariants are blind to sign flips and block-unitary conjugation, and
    # separate genuinely different parameter multisets
    rng = np.random.default_rng(505)
    false_negatives = 0
    for i in range(200):
        p = (2, 3)[i % 2]
        m = make_metric(p, p)
        M, _ = sample_us_pp(SampleSpec(metric=m, seed=5000 + i, t_max=3.0))
        for _ in range(5):
            Q = block_unitary(m, rng)
            s = 1.0 if rng.integers(2) else -1.0
            if not are_equivalent(M, s * (Q.conj().T @ M @ Q), m):
                false_negatives += 1
    false_positives = 0
    for i in range(100):
        p = 2 + (i % 2)
        m = make_metric(p, p)
        ts = rng.uniform(0.0, 3.0, size=p)
        ts2 = ts.copy()
        ts2[int(rng.integers(p))] += rng.uniform(2e-3, 0.8)
        A = assemble_blocks([HyperbolicBlock(HYPERBOLIC, t, 1) for t in ts],
                            block_unitary(m, rng))
        B = assemble_blocks([HyperbolicBlock(HYPERBOLIC, t, 1) for t in ts2],
                            block_unitary(m, rng))
        if are_equivalent(A, B, m):
            false_positives += 1
    ok = false_negatives == 0 and false_positives == 0
    report("C05 equivalence detection", ok,
           f"1000 transformed pairs, false negatives {false_negatives}; "
           f"100 separated pairs, false positives {false_positives}")


def test_c06_one_parameter_group_law():
    # parameters add under multiplication, entrywise to 1e-12; families
    # sharing a conjugator commute
    rng = np.random.default_rng(606)
    worst_add = 0.0
    for _ in range(100):
        t1, t2 = rng.uniform(0.0, 3.0, size=2)
        err = float(np.max(np.abs(hyperbolic(t1) @ hyperbolic(t2) - hyperbolic(t1 + t2))))
        worst_add = max(worst_add, err)
    m = make_metric(3, 3)
    worst_comm = 0.0
    for _ in range(20):
        Q = block_unitary(m, rng)
        t = rng.uniform(0.0, 3.0, size=3)
        s = rng.uniform(0.0, 3.0, size=3)
        A = assemble_blocks([HyperbolicBlock(HYPERBOLIC, x, 1) for x in t], Q)
        B = assemble_blocks([HyperbolicBlock(HYPERBOLIC, x, 1) for x in s], Q)
        C = assemble_blocks([HyperbolicBlock(HYPERBOLIC, x + y, 1) for x, y in zip(t, s)], Q)
        worst_comm = max(worst_comm,
                         float(np.linalg.norm(A @ B - B @ A)),
                         float(np.linalg.norm(A @ B - C)))
    worst_tr = 0.0
    for t in rng.uniform(0.0, 3.0, size=20):
        for sign in (1.0, -1.0):
            tr = float(np.trace(sign * hyperbolic(t)).real)
            worst_tr = max(worst_tr, abs(tr - sign * 2.0 * np.cosh(t)))
    ok = worst_add <= 1e-12 and worst_comm <= 1e-10 and worst_tr <= 1e-12
    report("C06 one-parameter group law", ok,
           f"max addition error {worst_add:.2e} (bound 1e-12), "
           f"max commutator/product error {worst_comm:.2e} (bound 1e-10), "
           f"max trace error {worst_tr:.2e}")


def test_c07_exp_log_round_trips():
    # 300 tangents with spectral norm up to 3: exp output is a member, the
    # group-side round trip exp(log(exp T)) returns to 1e-9, and the tangent
    # itself is recovered
    worst_group = worst_tangent = worst_member = 0.0
    done = 0
    for (p, q) in ((1, 1), (2, 2), (1, 2), (2, 3)):
        m = make_metric(p, q)
        rng = np.random.default_rng(700 + 10 * p + q)
        taken = 0
        while taken < 75:
            b = 0.8 * (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)))
            if np.linalg.norm(b, 2) > 3.0:
                continue
            M = exp_us(LieElement(m, b))
            worst_member = max(worst_member, membership_residual(M, m))
            back = log_us(M, m)
            again = exp_us(back)
            worst_group = max(worst_group, float(np.linalg.norm(again - M)))
            worst_tangent = max(worst_tangent,
                                float(np.linalg.norm(back.block - b))
                                / max(1.0, float(np.linalg.norm(b))))
            taken += 1
            done += 1
    ok = (done == 300 and worst_group <= 1e-9 and worst_member <= 1e-10
          and worst_tangent <= 1e-9)
    report("C07 exp/log round trips", ok,
           f"{done} tangents with spectral norm <= 3, "
           f"max group-side error {worst_group:.2e} (bound 1e-9), "
           f"max membership {worst_member:.2e}, max tangent error {worst_tangent:.2e}")


def test_c08_exponential_image_characterization():
    # the image is exactly the positive definite members: traces stay >= 2
    # at signature (1, 1), and any sampled member carrying an iota piece or
    # a negative sign is refused by the logarithm
    m11 = make_metric(1, 1)
    min_trace = np.inf
    for seed in range(100):
        M = exp_us(sample_us_lie(m11, seed=seed, scale=1.0))
        min_trace = min(min_trace, float(np.trace(M).real))
    trace_ok = min_trace >= 2.0 - 1e-10

    outside = [(m11.matrix, m11), (-hyperbolic(1.3), m11)]
    m22 = make_metric(2, 2)
    inside = []
    seed = 0
    while (len(outside) < 27 or len(inside) < 25) and seed < 500:
        M, truth = sample_us_pp(SampleSpec(metric=m22, seed=seed, t_max=2.0))
        if any(b.kind == IOTA or b.sign == -1 for b in truth.blocks):
            if len(outside) < 27:
                outside.append((M, m22))
        elif len(inside) < 25:
            inside.append((M, m22))
        seed += 1

    rejected = 0
    for M, m in outside:
        if not is_in_exp_image(M, m):
            try:
                log_us(M, m)
            except MembershipError:
                rejected += 1
    recovered = 0
    for M, m in inside:
        if is_in_exp_image(M, m):
            again = exp_us(log_us(M, m))
            if np.linalg.norm(again - M) <= 1e-9 * max(1.0, np.linalg.norm(M)):
                recovered += 1
    ok = (trace_ok and len(outside) == 27 and rejected == 27
          and len(inside) == 25 and recovered == 25)
    report("C08 exponential image characterization", ok,
           f"min trace {min_trace:.12f} (>= 2), "
           f"{rejected}/{len(outside)} outside refused, "
           f"{recovered}/{len(inside)} inside recovered")


def test_c09_differential_rank_at_identity():
    # finite differences of exp at zero span a space of real dimension 2pq
    h = 1e-5
    results = []
    for (p, q) in ((1, 1), (1, 2), (2, 2)):
        m = make_metric(p, q)
        n = p + q
        cols = []
        for i in range(p):
            for j in range(q):
                for phase in (1.0, 1j):
                    b = np.zeros((p, q), dtype=complex)
                    b[i, j] = phase
                    d = (exp_us(LieElement(m, h * b)) - np.eye(n)) / h
                    cols.append(np.concatenate([d.real.reshape(-1), d.imag.reshape(-1)]))
        sv = np.linalg.svd(np.column_stack(cols), compute_uv=False)
        results.append((p, q, int(np.sum(sv > 1e-3)), 2 * p * q))
    ok = all(rank == dim for (_, _, rank, dim) in results)
    detail = ", ".join(f"({p},{q}): rank {r} vs {d}" for (p, q, r, d) in results)
    report("C09 differential rank of exp at zero", ok, detail)


def test_c10_compact_intersection_detector():
    # block-diagonal unitaries are exactly the members that are also unitary
    m = make_metric(2, 3)
    hits = 0
    false_hits = 0
    worst_offdiag = 0.0
    for seed in range(100):
        Q = np.zeros((5, 5), dtype=complex)
        Q[:2, :2] = haar_unitary(2, seed=seed)
        Q[2:, 2:] = haar_unitary(3, seed=seed + 777)
        if is_pseudo_unitary(Q, m) and check_compact_intersection(Q, m):
            hits += 1
        worst_offdiag = max(worst_offdiag,
                            float(np.linalg.norm(Q[:2, 2:])),
                            float(np.linalg.norm(Q[2:, :2])))
        if check_compact_intersection(sample_upq(m, seed=seed), m):
            false_hits += 1
    ok = hits == 100 and false_hits == 0 and worst_offdiag <= 1e-10
    report("C10 compact intersection detector", ok,
           f"{hits}/100 block unitaries accepted (max off-diagonal {worst_offdiag:.1e}), "
           f"{false_hits}/100 generic members accepted")


def test_c11_fast_inverse():
    # J M* J inverts members to 1e-9 and agrees with direct inversion to 1e-8
    worst_prod = worst_diff = 0.0
    count = 0
    for (p, q) in ((1, 1), (2, 2), (2, 3), (3, 2)):
        m = make_metric(p, q)
        eye = np.eye(m.n)
        for seed in range(50):
            M = sample_upq(m, seed=9000 + seed)
            inv = fast_inverse(M, m)
            worst_prod = max(worst_prod,
                             float(np.linalg.norm(inv @ M - eye)),
                             float(np.linalg.norm(M @ inv - eye)))
            ref = np.linalg.inv(M)
            worst_diff = max(worst_diff,
                             float(np.linalg.norm(inv - ref)) / max(1.0, float(np.linalg.norm(ref))))
            count += 1
    ok = count == 200 and worst_prod <= 1e-9 and worst_diff <= 1e-8
    report("C11 fast inverse", ok,
           f"{count} members, max product defect {worst_prod:.2e} (bound 1e-9), "
           f"max deviation from direct inverse {worst_diff:.2e} (bound 1e-8)")


def test_c12_independent_membership_oracle():
    # entrywise triple-loop oracle and closed-form 2x2 equations, written
    # without the library's linear algebra, agree with the predicates
    def oracle_residual(M, m):
        n = m.n
        signs = [1.0] * m.p + [-1.0] * m.q
        worst = 0.0
        for r in range(n):
            for c in range(n):
                acc = 0.0 + 0.0j
                for k in range(n):
                    acc += np.conj(M[k, r]) * signs[k] * M[k, c]
                target = signs[r] if r == c else 0.0
                worst = max(worst, abs(acc - target))
        return worst

    def oracle_hermitian(M):
        n = M.shape[0]
        return max(abs(M[r][c] - np.conj(M[c][r])) for r in range(n) for c in range(n))

    def oracle_2x2(M):
        a, b = M[0, 0], M[0, 1]
        c, d = M[1, 0], M[1, 1]
        return max(
            abs(abs(a) ** 2 - abs(c) ** 2 - 1.0),
            abs(abs(b) ** 2 - abs(d) ** 2 + 1.0),
            abs(np.conj(a) * b - np.conj(c) * d),
        )

    disagreements = 0
    total = members = 0
    for (p, q) in ((1, 1), (2, 2)):
        m = make_metric(p, q)
        rng = np.random.default_rng(1200 + p)
        for seed in range(25):
            M, _ = sample_us_pp(SampleSpec(metric=m, seed=seed, t_max=2.5))
            pert = rng.standard_normal((m.n, m.n)) + 1j * rng.standard_normal((m.n, m.n))
            herm = M + 1e-3 * (pert + pert.conj().T) / 2.0
            skew = M + 1e-3 * pert
            for A in (M, herm, skew):
                total += 1
                lib_member = is_pseudo_unitary(A, m)
                orc_member = oracle_residual(A, m) <= 1e-6
                lib_herm = is_hermitian(A)
                orc_herm = oracle_hermitian(A) <= 1e-6
                if lib_member != orc_member or lib_herm != orc_herm:
                    disagreements += 1
                members += lib_member
                if m.n == 2:
                    orc_closed = oracle_2x2(A) <= 1e-6
                    if orc_closed != lib_member:
                        disagreements += 1
    # exactly the unperturbed draws are members: 25 per signature
    ok = disagreements == 0 and total == 150 and members == 50
    report("C12 independent membership oracle", ok,
           f"{total} classifications, disagreements {disagreements}, members seen {members}/50")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
