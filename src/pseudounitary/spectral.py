"""Spectral structure of Hermitian members: generator vectors and reconstruction.

A Hermitian member M of U(p, q) is, up to a sign sigma, a finite sum
sigma * (sum_j lambda_j z_j z_j* - J) with orthonormal vectors z_j that are
also orthogonal in the indefinite form, and lambda_j = 2 / (alpha_j^2 - beta_j^2)
where alpha_j, beta_j are the norms of the positive and negative parts of z_j.
Every nonzero eigenvalue of sigma*M + J has magnitude at least 2, which makes
the numerical rank decisions below unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import (
    DEFAULT_TOL,
    MembershipError,
    SignatureMetric,
    _phase_fixed_qr,
    as_matrix,
    require_member,
)

# Eigenvalues of sigma*M + J at or below this magnitude count as zero.
ZERO_EIGENVALUE_TOL = 1e-8
# Nonzero eigenvalues must have magnitude at least 2 minus this.
SPECTRAL_GAP_TOL = 1e-8
# Rank cutoff, placed between the zero cluster and the magnitude >= 2 cluster.
RANK_THRESHOLD = 1.0
# Eigenvalues closer than this (relative) form one degenerate cluster.
CLUSTER_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Sign and nonzero eigenpairs of sigma*M + J for a Hermitian member M.

    vectors holds one generator per row; the member is rebuilt as
    sigma * (sum_j lambda_j z_j z_j* - J).
    """

    metric: SignatureMetric
    sigma: int
    lambdas: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        lam = np.asarray(self.lambdas, dtype=float).reshape(-1)
        vec = as_matrix(self.vectors, (lam.size, self.metric.n), "vectors")
        as_matrix(lam, lam.shape, "lambdas")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "vectors", vec)

    @property
    def k(self) -> int:
        return int(self.lambdas.size)

    @property
    def plus_parts(self) -> np.ndarray:
        return self.vectors[:, : self.metric.p]

    @property
    def minus_parts(self) -> np.ndarray:
        return self.vectors[:, self.metric.p:]

    @property
    def alphas(self) -> np.ndarray:
        return np.linalg.norm(self.plus_parts, axis=1)

    @property
    def betas(self) -> np.ndarray:
        return np.linalg.norm(self.minus_parts, axis=1)


def _symmetrized(h: np.ndarray) -> np.ndarray:
    return (h + h.conj().T) / 2.0


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
        gram = _symmetrized(qc.conj().T @ (signs[:, None] * qc))
        _, rot = np.linalg.eigh(gram)
        out[:, sl] = qc @ rot
    return out


def extract_generators(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> GeneratorSet:
    """Recover the generator data of a Hermitian member from sigma*M + J.

    The sign sigma is chosen so that rank(sigma*M + J) <= rank(sigma*M - J),
    with sigma = +1 on ties. Generators are sorted by descending lambda, ties
    broken by the entry magnitudes of the vectors, so output is reproducible.

    JM is an involution on members (M J M = J), so rank(M + J), the dimension
    of its +1 eigenspace, is (n + tr JM) / 2 exactly: the sign needs a trace,
    not two rank computations, and the one eigendecomposition of sigma*M + J
    must then show exactly that rank.
    """
    a = require_member(M, metric, tol)
    n, p = metric.n, metric.p
    # tr M11 - tr M22 from the diagonal scaled by a power of two at most
    # 1 / max |M_jj|, so the sums stay finite for any member
    d = np.diagonal(a).real
    c = math.ldexp(1.0, -math.frexp(float(np.abs(d).max()))[1])
    tr = float((c * d[:p]).sum() - (c * d[p:]).sum()) / c
    r_plus = round((n + tr) / 2.0) if math.isfinite(tr) else -1
    if not 0 <= r_plus <= n:
        raise MembershipError(
            f"trace rule violated: the trace of JM measures {tr:.6g}, outside the range "
            f"[-{n}, {n}] of an involution of size {n}; "
            "input is not a Hermitian member within tolerance"
        )
    sigma = 1 if 2 * r_plus <= n else -1
    rank = r_plus if sigma == 1 else n - r_plus

    h = _symmetrized(sigma * a + metric.matrix)
    w, v = np.linalg.eigh(h)
    aw = np.abs(w)
    bad = (aw > ZERO_EIGENVALUE_TOL) & (aw < 2.0 - SPECTRAL_GAP_TOL)
    if np.any(bad):
        val = w[bad][0]
        raise MembershipError(
            f"eigenvalue {val:.6g} of the shifted matrix violates the spectral gap "
            f"(forbidden band ({ZERO_EIGENVALUE_TOL:.1e}, {2.0 - SPECTRAL_GAP_TOL})); "
            "input is not a Hermitian member within tolerance"
        )
    keep = np.flatnonzero(aw > RANK_THRESHOLD)
    if keep.size != rank:
        raise MembershipError(
            f"rank structure violated: {keep.size} nonzero eigenvalues after sign "
            f"normalization, but the trace of JM requires {rank}"
        )
    lam = w[keep]
    vec = _orthogonalize_clusters(lam, v[:, keep], metric.signs)
    # descending lambda, then ascending entry magnitudes (lexsort keys run last to first)
    order = np.lexsort(np.vstack([np.abs(vec)[::-1], -lam]))
    return GeneratorSet(metric=metric, sigma=sigma, lambdas=lam[order],
                        vectors=vec[:, order].T.copy())


def validate_generators(gens: GeneratorSet, tol: float = DEFAULT_TOL) -> list[str]:
    """Check the generator-set invariants; returns violation messages (empty when valid).

    Each message starts with the failed condition: orthonormality,
    J-orthogonality, norm-sum, alpha=beta degeneracy, or lambda mismatch.
    """
    problems: list[str] = []
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
        # Derived split conditions: positive and negative parts pairwise orthogonal.
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
    degenerate = np.abs(denom) <= tol
    if np.any(degenerate):
        worst = float(np.min(np.abs(denom)))
        problems.append(
            f"alpha=beta degeneracy: smallest |alpha^2 - beta^2| is {worst:.3e}"
        )
    ok = ~degenerate
    if np.any(ok):
        expected = 2.0 / denom[ok]
        ldev = float(np.max(np.abs(lam[ok] - expected) / np.maximum(1.0, np.abs(expected))))
        if ldev > tol:
            problems.append(f"lambda mismatch: largest relative deviation {ldev:.3e}")
    return problems


def construct_from_generators(gens: GeneratorSet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Build the Hermitian member sigma * (sum_j lambda_j z_j z_j* - J)."""
    problems = validate_generators(gens, tol)
    if problems:
        raise ValueError("invalid generator set: " + "; ".join(problems))
    metric = gens.metric
    acc = -np.diag(metric.signs).astype(complex)
    if gens.k:
        v = gens.vectors
        acc = acc + v.T @ (gens.lambdas[:, None] * v.conj())
    return gens.sigma * acc
