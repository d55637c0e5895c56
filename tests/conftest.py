"""Shared oracle helpers for the test suite.

These build structured inputs (hyperbolic blocks, valid generator families,
block unitaries) directly from their defining formulas, independently of the
library code paths they are used to check.
"""

import json

import numpy as np

from pseudounitary import GeneratorSet, MembershipError, SignatureMetric, require_member
from pseudounitary.matrixfile import FORMAT_VERSION, KIND_SQUARE
from pseudounitary.spectral import RANK_THRESHOLD, _orthogonalize_clusters


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


def _herm(h: np.ndarray) -> np.ndarray:
    return (h + h.conj().T) / 2.0


def _numeric_rank(h: np.ndarray) -> int:
    """Count of eigenvalues of the Hermitian part of h above the library's rank cutoff."""
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
    validation, the rank threshold and the rotation of degenerate clusters
    come from the library.
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
    residuals, written out as they stood, so they overflow where the
    library's residuals do not and agree with them bitwise elsewhere.
    """
    a = np.asarray(a, complex)
    j = metric.signs
    defect = (a.conj().T * j) @ a
    defect[np.diag_indices(metric.n)] -= j
    membership = np.linalg.norm(defect) / (1.0 + np.linalg.norm(a) ** 2)
    hermitian = np.linalg.norm(a - a.conj().T) / (1.0 + np.linalg.norm(a))
    defect = a.conj().T @ a - np.eye(a.shape[0])
    unitary = np.linalg.norm(defect) / (1.0 + np.linalg.norm(a) ** 2)
    p = metric.p
    m11, m12, m21, m22 = a[:p, :p], a[:p, p:], a[p:, :p], a[p:, p:]
    r1 = np.linalg.norm(m11.conj().T @ m11 - m21.conj().T @ m21 - np.eye(metric.p))
    r2 = np.linalg.norm(m12.conj().T @ m12 - m22.conj().T @ m22 + np.eye(metric.q))
    r3 = np.linalg.norm(m11.conj().T @ m12 - m21.conj().T @ m22)
    blocks = max(r1, r2, r3) / (1.0 + np.linalg.norm(a) ** 2)
    return membership, hermitian, unitary, blocks


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


def unscaled_tangent_residual(T, metric: SignatureMetric) -> float:
    """||T* J + J T|| / (1 + ||T||), the np.linalg.norm formula of the tangent check, unscaled."""
    a = np.asarray(T, complex)
    j = metric.signs
    defect = a.conj().T * j[None, :] + j[:, None] * a
    return np.linalg.norm(defect) / (1.0 + np.linalg.norm(a))


def _fmt(x: float) -> str:
    # 17 significant digits guarantee an exact float64 round trip.
    if not np.isfinite(x):
        raise ValueError("matrix files cannot hold non-finite entries")
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
