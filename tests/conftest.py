"""Shared oracle helpers for the test suite.

These build structured inputs (hyperbolic blocks, valid generator families,
block unitaries) directly from their defining formulas, independently of the
library code paths they are used to check.
"""

import json
import math
import re

import mpmath as mp
import numpy as np

from pseudounitary import (
    DEFAULT_TOL,
    HYPERBOLIC,
    IOTA,
    T_COMPARE_TOL,
    CanonicalInvariant,
    GeneratorSet,
    HyperbolicBlock,
    MembershipError,
    SampleSpec,
    SignatureMetric,
    assemble_blocks,
    invariant_from_blocks,
    require_member,
)
from pseudounitary.matrixfile import FORMAT_VERSION, KIND_SQUARE
from pseudounitary.metric import _phase_fixed_qr

# A generator split with norm at or below this counts as exactly zero.
SPLIT_CUTOFF = 1e-8
# Canonical 2x2 entries are +-cosh(t) (magnitude at least 1) or +-1, so this
# margin cleanly separates the piece families.
CLASSIFY_MARGIN = 0.5


def hyperbolic(t: float) -> np.ndarray:
    """The 2x2 hyperbolic member [[cosh t, sinh t], [sinh t, cosh t]]."""
    c, s = np.cosh(t), np.sinh(t)
    return np.array([[c, s], [s, c]], dtype=complex)


def local_haar(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary built here (QR with phase fix), independent of the library."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[None, :]


def block_unitary(metric: SignatureMetric, rng: np.random.Generator) -> np.ndarray:
    """A random unitary of the block-diagonal shape U + V for the signature."""
    out = np.zeros((metric.n, metric.n), dtype=complex)
    out[: metric.p, : metric.p] = local_haar(rng, metric.p)
    out[metric.p:, metric.p:] = local_haar(rng, metric.q)
    return out


def reference_sample_us_pp(spec: SampleSpec) -> tuple:
    """(M, Q, pieces) of sample_us_pp by its draws one at a time: the kinds,
    the parameters, one Haar factor after the other, then assemble_blocks,
    which checks the pieces and the unitary again."""
    p = spec.metric.p
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    kinds = ((HYPERBOLIC, 1), (HYPERBOLIC, -1), (IOTA, 1), (IOTA, -1))
    kind_idx = rng.choice(len(kinds), size=p, p=spec.block_kind_weights)
    ts = np.asarray(spec.t_values) if spec.t_values is not None else rng.uniform(
        0.0, spec.t_max, size=p)
    blocks = []
    for j in range(p):
        kind, sign = kinds[kind_idx[j]]
        blocks.append(HyperbolicBlock(kind, float(ts[j]) if kind == HYPERBOLIC else 0.0, sign))
    q = np.zeros((2 * p, 2 * p), dtype=complex)
    q[:p, :p] = local_haar(rng, p)
    q[p:, p:] = local_haar(rng, p)
    return assemble_blocks(blocks, q), q, tuple(blocks)


def random_generator_set(metric: SignatureMetric, k: int, rng: np.random.Generator,
                         sigma: int = 1) -> GeneratorSet:
    """Build a valid generator family directly from the defining structure.

    Vectors are alpha_j * (column j of a Haar U) stacked over beta_j *
    (column j of a Haar V); orthonormality and metric orthogonality hold by
    construction, and lambda_j = 2 / (alpha_j^2 - beta_j^2). Splits are kept
    away from the alpha = beta degeneracy.
    """
    p, q = metric.p, metric.q
    assert k <= min(p, q), "this construction uses one column per side"
    u = local_haar(rng, p)
    v = local_haar(rng, q)
    lambdas = np.empty(k)
    vectors = np.empty((k, metric.n), dtype=complex)
    for j in range(k):
        base = rng.uniform(0.05, 0.45)
        al2 = base if rng.random() < 0.5 else 1.0 - base
        al, be = np.sqrt(al2), np.sqrt(1.0 - al2)
        vectors[j, :p] = al * u[:, j]
        vectors[j, p:] = be * v[:, j]
        lambdas[j] = 2.0 / (al2 - (1.0 - al2))
    return GeneratorSet(metric=metric, sigma=sigma, lambdas=lambdas, vectors=vectors)


def count_calls(monkeypatch, name: str, *modules) -> list:
    """Wrap the function `name` of the first module, bound under that name in
    every module given; returns the list of first arguments of its calls."""
    calls = []
    fn = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


# Values every real argument refuses besides NaN, the infinities and negatives:
# bools (a 0-d one too), a numeric string, None, complex numbers, an array with
# entries, and an int past the float range.
HOSTILE_REALS = (True, np.True_, np.array(True), "1e-10", None, 1j, np.complex128(1e-10),
                 np.array([1e-10, 1e-10]), 10 ** 400)

# Values every integer argument (signature entries, seeds, sizes) refuses: bools,
# floats (an integral one too), a numeric string, None, a negative int and an
# array with entries.
HOSTILE_INTS = (True, np.True_, 1.5, 2.0, "3", None, -1, np.array([1, 2]))

# Values every metric argument refuses: a (p, q) tuple, None, a string, an int
# and a dict, none of them a SignatureMetric.
HOSTILE_METRICS = ((1, 1), None, "(1, 1)", 2, {"p": 1, "q": 1})


def anchored(message: str) -> str:
    """A pattern that matches exactly message."""
    return "^" + re.escape(message) + "$"


def _herm(h: np.ndarray) -> np.ndarray:
    return (h + h.conj().T) / 2.0


# The thresholds of the n x n generator route below. Eigenvalues of
# sigma*M + J at or below ZERO_EIGENVALUE_TOL count as zero, nonzero ones
# must reach 2 - SPECTRAL_GAP_TOL, RANK_THRESHOLD sits between the two
# clusters, and eigenvalues closer than CLUSTER_RTOL (relative) are tied.
ZERO_EIGENVALUE_TOL = 1e-8
SPECTRAL_GAP_TOL = 1e-8
RANK_THRESHOLD = 1.0
CLUSTER_RTOL = 1e-8


def _cluster_slices(values: np.ndarray) -> list[slice]:
    """Group consecutive sorted eigenvalues whose relative gap is below CLUSTER_RTOL."""
    slices = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or abs(values[i] - values[i - 1]) > CLUSTER_RTOL * max(
            1.0, abs(values[i - 1])
        ):
            slices.append(slice(start, i))
            start = i
    return slices


def _orthogonalize_clusters(lam: np.ndarray, vec: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Rotate each degenerate eigenvalue cluster so the indefinite form is diagonal on it.

    Within a cluster the eigenvectors returned by eigh are only determined up
    to a unitary mix; re-orthonormalize, then diagonalize the cluster's
    indefinite Gram matrix to pin the mix down.
    """
    out = vec.copy()
    for sl in _cluster_slices(lam):
        if sl.stop - sl.start < 2:
            continue
        qc = _phase_fixed_qr(out[:, sl])
        gram = _herm(qc.conj().T @ (signs[:, None] * qc))
        _, rot = np.linalg.eigh(gram)
        out[:, sl] = qc @ rot
    return out


def nxn_generators(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> GeneratorSet:
    """Generator extraction by one n x n eigh of sigma*M + J, kept as the oracle
    of extract_generators up to t = 15.

    The sign comes from the trace rule: JM is an involution on members, so
    rank(M + J) = (n + tr JM) / 2, with sigma = +1 on ties. The eigenvalues
    must show exactly that rank and respect the spectral gap; degenerate
    clusters are rotated so the indefinite form is diagonal on them. Only
    validation and the QR with phase fix come from the library. Rounding of
    size eps cosh t in the zero eigenvalues refuses valid members from
    about t = 19, and the trace from about t = 36.
    """
    a = require_member(M, metric, tol)
    n, p = metric.n, metric.p
    d = np.diagonal(a).real
    c = math.ldexp(1.0, -math.frexp(float(np.abs(d).max()))[1])
    tr = float((c * d[:p]).sum() - (c * d[p:]).sum()) / c
    r_plus = round((n + tr) / 2.0) if math.isfinite(tr) else -1
    if not 0 <= r_plus <= n:
        raise MembershipError(f"trace rule violated: the trace of JM measures {tr:.6g}")
    sigma = 1 if 2 * r_plus <= n else -1
    rank = r_plus if sigma == 1 else n - r_plus
    w, v = np.linalg.eigh(_herm(sigma * a + metric.matrix))
    aw = np.abs(w)
    if np.any((aw > ZERO_EIGENVALUE_TOL) & (aw < 2.0 - SPECTRAL_GAP_TOL)):
        raise MembershipError("spectral gap violated")
    keep = np.flatnonzero(aw > RANK_THRESHOLD)
    if keep.size != rank:
        raise MembershipError("rank structure violated")
    lam = w[keep]
    vec = _orthogonalize_clusters(lam, v[:, keep], metric.signs)
    order = np.lexsort(np.vstack([np.abs(vec)[::-1], -lam]))
    return GeneratorSet(metric=metric, sigma=sigma, lambdas=lam[order],
                        vectors=vec[:, order].T.copy())


def _numeric_rank(h: np.ndarray) -> int:
    """Count of eigenvalues of the Hermitian part of h above RANK_THRESHOLD."""
    return int(np.count_nonzero(np.abs(np.linalg.eigvalsh(_herm(h))) > RANK_THRESHOLD))


def rank_pair(M, metric: SignatureMetric) -> tuple[int, int]:
    """Numerical ranks (rank(M - J), rank(M + J)) of a Hermitian member, from their own spectra.

    The oracle for the trace rule of the library: on members JM is an
    involution (M J M = J), so the two ranks are the dimensions of its -1
    and +1 eigenspaces, (n - tr JM) / 2 and (n + tr JM) / 2. The spectral gap
    puts every nonzero eigenvalue of M -+ J at magnitude 2 or more, so any
    cutoff inside (0, 2) gives the same answer.
    """
    a = require_member(M, metric)
    jm = metric.matrix
    return _numeric_rank(a - jm), _numeric_rank(a + jm)


def three_eigh_generators(M, metric: SignatureMetric) -> GeneratorSet:
    """Generator extraction by three eigendecompositions, kept as a regression oracle.

    The sign comes from the numerical ranks of M + J and M - J (two eigvalsh
    calls), with sigma = +1 on ties; the generators come from eigh of
    sigma*M + J, at most n // 2 of them, sorted by descending lambda and then
    by a Python sort on the entry magnitudes of the vectors. Only the
    validation and the QR with phase fix inside the rotation of degenerate
    clusters come from the library.
    """
    a = require_member(M, metric)
    jm = metric.matrix
    sigma = 1 if _numeric_rank(a + jm) <= _numeric_rank(a - jm) else -1
    w, v = np.linalg.eigh(_herm(sigma * a + jm))
    aw = np.abs(w)
    if np.any((aw > 1e-8) & (aw < 2.0 - 1e-8)):
        raise MembershipError("spectral gap violated")
    keep = np.flatnonzero(aw > RANK_THRESHOLD)
    if keep.size > metric.n // 2:
        raise MembershipError("rank structure violated")
    lam = w[keep]
    vec = _orthogonalize_clusters(lam, v[:, keep], metric.signs)
    order = sorted(range(lam.size), key=lambda i: (-lam[i], tuple(np.abs(vec[:, i]).tolist())))
    return GeneratorSet(metric=metric, sigma=sigma, lambdas=lam[order],
                        vectors=vec[:, order].T.copy())


def unscaled_residuals(a: np.ndarray, metric: SignatureMetric) -> tuple:
    """(membership, Hermitian, unitary, block identities) residuals of a matrix, unscaled.

    The np.linalg.norm formulas the library used before it scaled its
    residuals, written out as they stood, with the block identities read off
    the unscaled membership defect. So they overflow where the library's
    residuals do not and agree with them bitwise elsewhere.
    """
    a = np.asarray(a, complex)
    j = metric.signs
    defect = (a.conj().T * j) @ a
    defect[np.diag_indices(metric.n)] -= j
    membership = np.linalg.norm(defect) / (1.0 + np.linalg.norm(a) ** 2)
    # the blockwise identities (1,1), (2,2) and (1,2) are blocks of that defect
    p = metric.p
    r1 = np.linalg.norm(defect[:p, :p])
    r2 = np.linalg.norm(defect[p:, p:])
    r3 = np.linalg.norm(defect[:p, p:])
    blocks = max(r1, r2, r3) / (1.0 + np.linalg.norm(a) ** 2)
    hermitian = np.linalg.norm(a - a.conj().T) / (1.0 + np.linalg.norm(a))
    defect = a.conj().T @ a - np.eye(a.shape[0])
    unitary = np.linalg.norm(defect) / (1.0 + np.linalg.norm(a) ** 2)
    return membership, hermitian, unitary, blocks


def two_read_measured(m, shape: tuple | None, name: str = "matrix") -> tuple:
    """(b, s, ||b||, ||a||) of a matrix argument by two reads of its entries, as
    the library took them before one max-abs decided finiteness too: the
    matrix rule with np.isfinite, then the power-of-two scale of the largest
    real or imaginary part (s is 2^(201 - k) from 2^201 on, 2^k the smallest
    power of two above it), with np.sqrt Frobenius norms."""
    a = np.asarray(m)
    if a.dtype.kind not in "iufc":
        raise ValueError(f"{name} entries must be numbers, got dtype {a.dtype}")
    if shape is None:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"{name} must be square, got shape {a.shape}")
    elif a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    a = np.asarray(a, dtype=complex)

    def fro(x):
        v = x.ravel(order="K")
        return np.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    big = np.abs(a.reshape(-1).view(float)).max()
    if big < 2.0 ** 201:
        return a, 1.0, fro(a), fro(a)
    s = np.ldexp(1.0, 201 - np.frexp(big)[1])
    b = a * s
    with np.errstate(over="ignore"):
        return b, s, fro(b), fro(b) / s


def mp_invariant(M, metric: SignatureMetric, dps: int = 50) -> CanonicalInvariant:
    """Canonical invariant of the float member M of U(p, p), computed in mpmath at dps digits.

    Shares no kernel with the library: the eigh of the symmetrized M11
    (mp.eighe), Y = X* M12, one mp.svd_c of the rows of Y on each sign
    eigenspace of M11, t = arcsinh(s), and the sign counts of M11 and of the
    symmetrized M22 for the iota pieces, which take the smallest couplings
    of their sign, as canonical_invariant states the rule. Rounding in M is
    part of the input, not an error of the route.
    """
    p = metric.p
    with mp.workdps(dps):
        a = mp.matrix(np.asarray(M, complex).tolist())
        m11, m22 = a[:p, :p], a[p:, p:]
        lam, x = mp.eighe((m11 + m11.H) / 2)
        lam22 = mp.eighe((m22 + m22.H) / 2, eigvals_only=True)
        y = x.H * a[:p, p:]
        t = []
        for negative in (True, False):
            rows = [list(y[i, :]) for i in range(p) if (lam[i] < 0) == negative]
            s = mp.svd_c(mp.matrix(rows), compute_uv=False) if rows else []
            t.append(sorted((float(mp.asinh(v)) for v in s), reverse=True))
        excess = sum(1 for v in lam22 if v <= 0) - len(t[0])
    t_minus, t_plus = t
    if excess > 0:
        t_plus = t_plus[:len(t_plus) - excess]
    elif excess < 0:
        t_minus = t_minus[:len(t_minus) + excess]
    return invariant_from_blocks([(HYPERBOLIC, x, -1) for x in t_minus]
                                 + [(HYPERBOLIC, x, 1) for x in t_plus]
                                 + [(IOTA, 0.0, 1 if excess > 0 else -1)] * abs(excess))


def mp_exp_tangent(b, dps: int = 50) -> tuple:
    """(exp [[0, B], [B*, 0]] by mp.expm at dps digits, rounded to complex, and
    the largest singular value of B by mp.svd_c), for the float block B."""
    b = np.asarray(b, complex)
    p, q = b.shape
    with mp.workdps(dps):
        t = mp.zeros(p + q, p + q)
        for i in range(p):
            for j in range(q):
                t[i, p + j] = mp.mpc(b[i, j].real, b[i, j].imag)
                t[p + j, i] = mp.mpc(b[i, j].real, -b[i, j].imag)
        e = mp.expm(t)
        s_max = max(mp.svd_c(mp.matrix(b.tolist()), compute_uv=False), default=0)
        return (np.array([[complex(e[i, j]) for j in range(p + q)] for i in range(p + q)]),
                float(s_max))


def mp_log_parameters(M, metric: SignatureMetric, dps: int = 50) -> np.ndarray:
    """arcsinh of the singular values of M12 computed by mp.svd_c at dps digits,
    descending: the parameters of the logarithm of the float member M."""
    with mp.workdps(dps):
        s = mp.svd_c(mp.matrix(np.asarray(M, complex)[:metric.p, metric.p:].tolist()),
                     compute_uv=False)
        return np.array(sorted((float(mp.asinh(v)) for v in s), reverse=True))


def pd_floor_log(M, metric: SignatureMetric):
    """The logarithm behind an eigvalsh positivity gate with a fixed floor, kept as a regression oracle.

    The gate the library used before it read positive definiteness off the
    SVD: refuse (return None) when the smallest eigenvalue of M is at or
    below 1e-10 times its spectral norm, otherwise return arcsinh applied to
    the SVD of M12. The floor refuses exact exponentials from t near 11.5.
    """
    a = require_member(M, metric)
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    if float(w[0]) <= 1e-10 * float(np.max(np.abs(w))):
        return None
    u, s, vh = np.linalg.svd(a[: metric.p, metric.p:])
    r = s.size
    return (u[:, :r] * np.arcsinh(s)[None, :]) @ vh[:r, :]


def unitary_residual(a) -> float:
    """||A* A - I|| / (1 + ||A||^2) in plain numpy: zero exactly on unitary matrices."""
    a = np.asarray(a, complex)
    return float(np.linalg.norm(a.conj().T @ a - np.eye(len(a))) / (1.0 + np.linalg.norm(a) ** 2))


def indefinite_product(z, w, metric: SignatureMetric) -> complex:
    """sum(conj(z) J w), the indefinite inner product that members of U(p, q) preserve."""
    return complex(np.vdot(z, metric.signs * np.asarray(w)))


def tangent_matrix(block, metric: SignatureMetric) -> np.ndarray:
    """The n x n Hermitian tangent [[0, B], [B*, 0]] of a p x q block B."""
    p = metric.p
    out = np.zeros((metric.n, metric.n), dtype=complex)
    out[:p, p:] = block
    out[p:, :p] = np.conj(block).T
    return out


def unscaled_tangent_residual(T, metric: SignatureMetric) -> float:
    """||T* J + J T|| / (1 + ||T||) in plain np.linalg.norm arithmetic, unscaled: zero
    exactly on the Lie algebra of U(p, q)."""
    a = np.asarray(T, complex)
    j = metric.signs
    defect = a.conj().T * j[None, :] + j[:, None] * a
    return np.linalg.norm(defect) / (1.0 + np.linalg.norm(a))


def per_piece_matrix(block) -> np.ndarray:
    """The 2x2 matrix of one canonical piece, built from its own cosh and sinh."""
    if block.kind == IOTA:
        return block.sign * np.diag([1.0 + 0j, -1.0 + 0j])
    c, s = np.cosh(block.t), np.sinh(block.t)
    return block.sign * np.array([[c, s], [s, c]], dtype=complex)


def per_piece_assemble(blocks, unitary=None) -> np.ndarray:
    """Block assembly one piece at a time, kept as the bitwise oracle of assemble_blocks.

    Each piece is built on its own and placed at rows and columns (j, p + j);
    with a unitary Q the result is Q* B Q. Input checks are left to the library.
    """
    p = len(blocks)
    out = np.zeros((2 * p, 2 * p), dtype=complex)
    j = np.arange(p)
    idx = np.stack([j, p + j], axis=1)
    out[idx[:, :, None], idx[:, None, :]] = np.array([per_piece_matrix(b) for b in blocks])
    if unitary is not None:
        Q = np.asarray(unitary, dtype=complex)
        out = Q.conj().T @ out @ Q
    return out


def per_piece_frame(blocks, unpaired, metric: SignatureMetric, unitary=None) -> np.ndarray:
    """A member of U(p, q) in block form, placed one piece and one slot at a time.

    Piece j of the min(p, q) pieces sits at rows and columns (j, p + j), and
    the |p - q| unpaired values +-1 on the diagonal of the larger side, after
    its paired rows; with a unitary Q the result is Q* B Q.
    """
    p, q = metric.p, metric.q
    out = np.zeros((metric.n, metric.n), dtype=complex)
    for j, b in enumerate(blocks):
        out[np.ix_([j, p + j], [j, p + j])] = per_piece_matrix(b)
    start = q if p > q else p + p
    for i, value in enumerate(unpaired):
        out[start + i, start + i] = value
    if unitary is not None:
        Q = np.asarray(unitary, dtype=complex)
        out = Q.conj().T @ out @ Q
    return out


def _column_map(cols: dict, dim: int) -> np.ndarray:
    """Unitary sending each prescribed column to its slot, placed one column at a time."""
    slots = sorted(cols)
    m = len(slots)
    basis = np.eye(dim, dtype=complex)
    if m:
        qf = _phase_fixed_qr(np.column_stack([cols[s] for s in slots]), mode="complete")
        free = [j for j in range(dim) if j not in cols]
        basis = np.empty((dim, dim), dtype=complex)
        for i, s in enumerate(slots):
            basis[:, s] = qf[:, i]
        for i, s in enumerate(free):
            basis[:, s] = qf[:, m + i]
    return basis.conj().T


def classify_pieces(x: np.ndarray, s: np.ndarray) -> tuple:
    """Match numerical 2x2 pieces against the canonical vocabulary, all at once.

    Piece j is [[x[0, j], *], [*, x[1, j]]] with coupling magnitude s[j].
    Returns the hyperbolic mask, the parameters (0 for iota pieces) and the
    signs. The array classifier of the generator route, kept beside its
    per-generator oracle.
    """
    margin = CLASSIFY_MARGIN
    mag = np.abs(x)
    pos = x > 0
    # signs compared, not multiplied: x[0] * x[1] overflows from t of about 355 on
    same = pos[0] == pos[1]
    iota = ~same & (s < margin) & (np.abs(mag - 1.0) < margin).all(axis=0)
    hyp = same & (np.abs(x[0] - x[1]) < margin) & (mag.min(axis=0) > 1.0 - margin)
    ok = iota | hyp
    if not ok.all():
        j = np.flatnonzero(~ok)[0]
        raise MembershipError(
            f"2x2 piece {j} does not match any canonical block: "
            f"diagonal ({x[0, j]:.6g}, {x[1, j]:.6g}), coupling {s[j]:.6g}"
        )
    t = np.log(np.maximum(mag.sum(axis=0) / 2.0, 1.0) + s)
    return hyp, np.where(hyp, t, 0.0), np.where(pos[0], 1, -1)


def per_generator_block_decompose(M, metric: SignatureMetric) -> tuple:
    """The canonical frame of the generator route, built one generator, column and
    piece at a time; returns (q, [(kind, t, sign), ...]). Kept as the oracle of
    block_decompose up to t = 15, where that route resolves the pieces.

    A norm per generator part, a dict of prescribed columns completed by a
    QR and placed column by column, a full conjugation by q = U + V, each
    piece classified on its own, and the reassembly residual against
    per_piece_assemble, on the generators of nxn_generators. Only validation
    and the QR with phase fix come from the library.
    """
    p = metric.p
    a = require_member(M, metric)
    gens = nxn_generators(a, metric)
    plus, minus = {}, {}
    for j in range(gens.k):
        zp, zm = gens.vectors[j, :p], gens.vectors[j, p:]
        al, be = np.linalg.norm(zp), np.linalg.norm(zm)
        if al > SPLIT_CUTOFF:
            plus[j] = zp / al
        if be > SPLIT_CUTOFF:
            minus[j] = zm / be
    q = np.zeros((2 * p, 2 * p), dtype=complex)
    q[:p, :p] = _column_map(plus, p)
    q[p:, p:] = _column_map(minus, p)
    b = q @ a @ q.conj().T
    margin = CLASSIFY_MARGIN
    pieces = []
    for j in range(p):
        x, d, s = float(b[j, j].real), float(b[p + j, p + j].real), float(abs(b[j, p + j]))
        sign = 1 if x > 0 else -1
        same = (x > 0) == (d > 0)
        if same and abs(x - d) < margin and min(abs(x), abs(d)) > 1.0 - margin:
            pieces.append((HYPERBOLIC, float(np.log(max((abs(x) + abs(d)) / 2.0, 1.0) + s)), sign))
        elif not same and s < margin and abs(abs(x) - 1.0) < margin and abs(abs(d) - 1.0) < margin:
            pieces.append((IOTA, 0.0, sign))
        else:
            raise MembershipError(f"2x2 piece {j} does not match any canonical block")
    err = np.linalg.norm(b - per_piece_assemble([HyperbolicBlock(*x) for x in pieces]))
    if err > 1000.0 * DEFAULT_TOL * max(1.0, np.linalg.norm(a)):
        raise MembershipError("block reduction failed")
    return q, pieces


def _fmt(x: float) -> str:
    # 17 significant digits guarantee an exact float64 round trip.
    s = "%.17g" % x
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def per_entry_dumps_matrix(m, metric: SignatureMetric, kind: str = KIND_SQUARE,
                           extra: dict | None = None) -> str:
    """The matrix file writer that formats each entry with its own Python calls.

    Kept as the byte-for-byte oracle of `dumps_matrix`; it takes a matrix of
    the right shape for the kind and leaves the shape check to the library.
    """
    a = np.asarray(m, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError(f"{kind} matrix for ({metric.p}, {metric.q}) contains non-finite entries")
    lines = ["{"]
    lines.append(f'  "format": "{FORMAT_VERSION}",')
    lines.append(f'  "kind": "{kind}",')
    lines.append(f'  "p": {metric.p},')
    lines.append(f'  "q": {metric.q},')
    for key, value in (extra or {}).items():
        lines.append(f'  {json.dumps(str(key))}: {json.dumps(value)},')
    row_texts = []
    for row in a:
        cells = ", ".join(f"[{_fmt(v.real)}, {_fmt(v.imag)}]" for v in row)
        row_texts.append("    " + cells)
    lines.append('  "entries": [')
    lines.append(",\n".join(row_texts))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


# The stacked invariant pass with its rules as array expressions and its
# invariants built from HyperbolicBlock objects, as the library computed it
# before it ran the rules item by item on Python floats. Kept as the bitwise
# oracle of canonical._invariants, with the array validation it ran first.


def _array_fro(x: np.ndarray) -> np.ndarray:
    v = x.reshape(len(x), -1)
    return np.sqrt([r.dot(r) + i.dot(i) for r, i in zip(v.real, v.imag)])


def array_residuals(a: np.ndarray, metric: SignatureMetric) -> tuple:
    """(Hermitian residuals, membership residuals, Frobenius norms) of the items
    of a (B, n, n) stack as arrays over the stack, scaled as metric._scaled scales."""
    parts = np.abs(a.reshape(len(a), -1).view(float))
    if parts.max() < 2.0 ** 201:
        b, s = a, 1.0
        fro = norms = _array_fro(a)
    else:
        k = np.frexp(parts.max(axis=-1, initial=2.0 ** 200))[1]
        s = np.ldexp(1.0, 201 - k)
        b = a * s[:, None, None]
        fro = _array_fro(b)
        with np.errstate(over="ignore"):
            norms = fro / s
    skew = _array_fro(b - b.conj().swapaxes(-1, -2)) / (s + fro)
    j = metric.signs
    n = j.size
    defect = (b.conj().swapaxes(-1, -2) * j) @ b
    s2 = s * s
    defect.reshape(len(a), n * n)[:, :: n + 1] -= np.multiply.outer(s2, j)
    # each norm squared with the float ** 2 (pow) of the matrix path, not
    # with numpy's array square, which is x * x
    gram = _array_fro(defect) / (s2 + np.array([x ** 2 for x in fro.tolist()]))
    return skew, gram, norms


def array_refusals(a: np.ndarray, metric: SignatureMetric, tol: float) -> tuple:
    """Refusal messages and Frobenius norms of the items of a (B, n, n) stack,
    from array_residuals."""
    skew, gram, norms = array_residuals(a, metric)
    messages = [None] * len(a)
    for i, hr in enumerate(skew.tolist()):
        if not hr <= tol:
            messages[i] = f"matrix is not Hermitian: residual {hr:.3e} exceeds {tol:.3e}"
    if None in messages:
        for i, r in enumerate(gram.tolist()):
            if messages[i] is None and not r <= tol:
                messages[i] = (f"matrix is not in U({metric.p},{metric.q}): "
                               f"membership residual {r:.3e} exceeds {tol:.3e}")
    return messages, norms


def _merge_iota_pairs(blocks) -> list:
    plus = sum(1 for b in blocks if b.kind == IOTA and b.sign == 1)
    minus = sum(1 for b in blocks if b.kind == IOTA and b.sign == -1)
    m = min(plus, minus)
    if m == 0:
        return list(blocks)
    out = [b for b in blocks if b.kind != IOTA]
    out.extend([HyperbolicBlock(IOTA, 0.0, 1)] * (plus - m))
    out.extend([HyperbolicBlock(IOTA, 0.0, -1)] * (minus - m))
    out.extend([HyperbolicBlock(HYPERBOLIC, 0.0, 1)] * m)
    out.extend([HyperbolicBlock(HYPERBOLIC, 0.0, -1)] * m)
    return out


def _t_close(t1: float, t2: float) -> bool:
    return abs(t1 - t2) <= T_COMPARE_TOL * max(1.0, max(t1, t2) / 20.0)


def _flip_is_smaller(base_key, flip_key) -> bool:
    for (k1, s1, t1), (k2, s2, t2) in zip(base_key, flip_key):
        if k1 != k2:
            return k2 < k1
        if s1 != s2:
            return s2 < s1
        if not _t_close(t1, t2):
            return t2 < t1
    return False


def _block_sort_key(b, flip: bool = False) -> tuple:
    return (b.kind, b.sign if flip else -b.sign, b.t)


def block_invariant(blocks) -> CanonicalInvariant:
    """invariant_from_blocks on HyperbolicBlock objects: merge iota pairs into
    new blocks, sort the keys of the blocks and of their flips, walk them."""
    base = _merge_iota_pairs(blocks)
    base_key = sorted(_block_sort_key(b) for b in base)
    flip_key = sorted(_block_sort_key(b, flip=True) for b in base)
    chosen = flip_key if _flip_is_smaller(base_key, flip_key) else base_key
    return CanonicalInvariant(triples=tuple((kind, t, -negsign) for (kind, negsign, t) in chosen))


def _array_pieces(t_sides: tuple, excess: int) -> list:
    n_iota = abs(excess)
    iota_sign = 1 if excess > 0 else -1
    blocks = []
    for sign, ts in zip((-1, 1), t_sides):
        if sign == iota_sign:
            ts = ts[:len(ts) - n_iota]
        blocks.extend(HyperbolicBlock(HYPERBOLIC, tj, sign) for tj in ts)
    blocks.extend([HyperbolicBlock(IOTA, 0.0, iota_sign)] * n_iota)
    return blocks


def array_rules_invariants(stack: np.ndarray, metric: SignatureMetric, tol: float) -> list:
    """Invariants of the items of a stack, or the MembershipError refusing one,
    and None after the first item validation refuses; the resolvability rule,
    the spectra bound and the sign counts as array expressions over the stack."""
    p = metric.p
    refusals, norms = array_refusals(stack, metric, tol)
    out = [None] * len(refusals)
    b = next((i for i, r in enumerate(refusals) if r), len(refusals))
    if b < len(out):
        out[b] = MembershipError(refusals[b])
        stack, norms = stack[:b], norms[:b]
    if not b:
        return out
    lam11, x = np.linalg.eigh(stack[:, :p, :p])
    lam22 = np.linalg.eigvalsh(stack[:, p:, p:])
    neg = lam11 < 0
    pos = ~neg
    y = x.conj().swapaxes(-1, -2) @ stack[:, :p, p:]
    s = np.linalg.svd(y * np.array([neg, pos])[..., None], compute_uv=False)
    real = np.array([neg, pos[:, ::-1]])
    t = np.arcsinh(s)
    h = np.hypot(1.0, s)
    s_max = np.where(real, s, 0.0).max(axis=(0, 2))
    measured = np.finfo(float).eps * s_max[:, None] / h
    limit = T_COMPARE_TOL * np.maximum(1.0, t / 20.0)
    unresolvable = (real & (measured > limit)).any(axis=(0, 2)).tolist()
    gap = np.where(real, np.abs(np.array([-lam11, lam11[:, ::-1]]) - h), 0.0).max(axis=(0, 2))
    h_all = np.sort(np.where(real, h, 0.0).swapaxes(0, 1).reshape(b, 2 * p))[:, :-p - 1:-1]
    err = np.maximum(gap, np.abs(np.sort(np.abs(lam22))[:, ::-1] - h_all).max(axis=1))
    inconsistent = (err > 1000.0 * tol * np.maximum(1.0, norms)).tolist()
    n_neg = neg.sum(axis=1).tolist()
    excess = (pos.sum(axis=1) - (lam22 > 0).sum(axis=1)).tolist()
    t = t.tolist()
    for k in range(b):
        ts = (t[0][k][:n_neg[k]], t[1][k][:p - n_neg[k]])
        if unresolvable[k]:
            m_k, l_k = measured[:, k][real[:, k]], limit[:, k][real[:, k]]
            j = np.argmax(m_k / l_k)
            out[k] = MembershipError(
                f"hyperbolic parameters not resolvable: eps * s_max / h is {m_k[j]:.3e} "
                f"against the limit {l_k[j]:.3e}, a ratio of {m_k[j] / l_k[j]:.3g}")
        elif inconsistent[k]:
            out[k] = MembershipError(f"block spectra inconsistent: residual {err[k]:.3e}")
        else:
            out[k] = block_invariant(_array_pieces(ts, excess[k]))
    return out


def four_product_validate_generators(gens: GeneratorSet, tol: float = DEFAULT_TOL) -> list:
    """The generator-set check with four products: the Gram, the J-Gram, the
    Grams of both parts less their row norms squared, and norms from row norms.

    Kept as the oracle of spectral.validate_generators, which reads the same
    conditions off the two part-Grams; same message prefixes and order.
    """
    problems = []
    k = gens.k
    if k == 0:
        return problems
    v = gens.vectors
    lam = gens.lambdas
    signs = gens.metric.signs

    gram = v.conj() @ v.T
    dev = float(np.max(np.abs(gram - np.eye(k))))
    if dev > tol:
        problems.append(f"orthonormality: largest Gram deviation {dev:.3e}")

    jgram = v.conj() @ (signs[None, :] * v).T
    cross = 0.0
    if k > 1:
        off = jgram - np.diag(np.diagonal(jgram))
        cross = float(np.max(np.abs(off)))
        pp = gens.plus_parts
        mm = gens.minus_parts
        pgram = pp.conj() @ pp.T - np.diag(np.linalg.norm(pp, axis=1) ** 2)
        mgram = mm.conj() @ mm.T - np.diag(np.linalg.norm(mm, axis=1) ** 2)
        cross = max(cross, float(np.max(np.abs(pgram))), float(np.max(np.abs(mgram))))
    if cross > tol:
        problems.append(f"J-orthogonality: largest cross term {cross:.3e}")

    al2 = gens.alphas ** 2
    be2 = gens.betas ** 2
    ndev = float(np.max(np.abs(al2 + be2 - 1.0)))
    if ndev > tol:
        problems.append(f"norm-sum: largest deviation of alpha^2 + beta^2 from 1 is {ndev:.3e}")

    denom = al2 - be2
    dev = np.abs(lam * denom - 2.0) / np.maximum(np.abs(lam), 2.0)
    bad = dev > tol
    degenerate = bad & (np.abs(denom) <= tol)
    if np.any(degenerate):
        worst = float(np.min(np.abs(denom[degenerate])))
        problems.append(f"alpha=beta degeneracy: smallest |alpha^2 - beta^2| is {worst:.3e}")
    if np.any(bad & ~degenerate):
        ldev = float(np.max(dev[bad & ~degenerate]))
        problems.append(f"lambda mismatch: largest relative deviation {ldev:.3e}")
    return problems
