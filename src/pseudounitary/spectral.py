"""Spectral structure of Hermitian members: generator vectors and reconstruction.

A Hermitian member M of U(p, q) is, up to a sign sigma, a finite sum
sigma * (sum_j lambda_j z_j z_j* - J) with orthonormal vectors z_j that are
also orthogonal in the indefinite form, and lambda_j = 2 / (alpha_j^2 - beta_j^2)
where alpha_j, beta_j are the norms of the positive and negative parts of z_j.
Every nonzero eigenvalue of sigma*M + J has magnitude at least 2. The
generators are read in closed form off the canonical frame of the member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import _frame
from .metric import (DEFAULT_TOL, SignatureMetric, _checked_metric, _checked_real,
                     _checked_sign, as_matrix, require_member)


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
        _checked_metric(self.metric)
        object.__setattr__(self, "sigma", _checked_sign(self.sigma, "sigma"))
        lam = as_matrix(np.ravel(self.lambdas), (np.size(self.lambdas),), "lambdas")
        if lam.imag.any():
            raise ValueError("lambdas must be real numbers")
        vec = as_matrix(self.vectors, (lam.size, self.metric.n), "vectors")
        object.__setattr__(self, "lambdas", lam.real.copy())
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


def extract_generators(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> GeneratorSet:
    """Read the generator data of a Hermitian member off its canonical frame.

    The frame of block_decompose, at any (p, q), writes M = Q* B Q with Q
    block diagonal and B a sum of 2x2 pieces and unpaired +-1 entries, so
    the eigenpairs of sigma*M + J follow from those of sigma*B + J in
    closed form. A hyperbolic piece with e = sigma * sign and parameter t
    gives lambda = 2 e cosh t on the vector with weights
    (sqrt((1 + e sech t) / 2), sqrt((1 - e sech t) / 2)) on its two rows.
    Any other positive row with sigma * d = +1 gives lambda = 2, any other
    negative row with sigma * d = -1 gives lambda = -2, on its unit vector.

    The sign sigma is chosen so that rank(sigma*M + J) <= rank(sigma*M - J),
    with sigma = +1 on ties; rank(M + J) = #pos(M11) + #neg(M22) counts the
    diagonal signs of B, which are exact. Generators are sorted by
    descending lambda, ties broken by the entry magnitudes of the vectors,
    so output is reproducible; inside a tied lambda the basis is the frame's.
    """
    a = require_member(M, metric, tol)
    n, p, j = metric.n, metric.p, metric.signs
    Q, hyp, t, d, _ = _frame(a, p, tol)
    # rank(M + J) = #pos(M11) + #neg(M22): the rows where d J > 0
    sigma = 1 if 2 * np.count_nonzero(d * j > 0) <= n else -1
    # one generator per hyperbolic piece, on its two rows, and one per other
    # row with sigma d J = +1, lambda = 2 J there
    h = np.flatnonzero(hyp)
    e, sech = sigma * d[h], 1.0 / np.cosh(t[h])
    free = np.ones(n, dtype=bool)
    free[h] = free[p + h] = False
    rows = np.flatnonzero(free & (sigma * d * j > 0))
    vec = np.concatenate([np.sqrt((1.0 + e * sech) / 2.0)[:, None] * Q[h].conj()
                          + np.sqrt((1.0 - e * sech) / 2.0)[:, None] * Q[p + h].conj(),
                          Q[rows].conj()])
    lam = np.concatenate([2.0 * e * np.cosh(t[h]), 2.0 * j[rows]])
    # descending lambda, then ascending entry magnitudes (lexsort keys run last
    # to first); the n magnitude keys are sorted only where lambdas tie
    order = np.argsort(-lam, kind="stable")
    if np.any(lam[order[1:]] == lam[order[:-1]]):
        order = np.lexsort(np.vstack([np.abs(vec).T[::-1], -lam]))
    return GeneratorSet(metric=metric, sigma=sigma, lambdas=lam[order], vectors=vec[order])


def validate_generators(gens: GeneratorSet, tol: float = DEFAULT_TOL) -> list[str]:
    """Check the generator-set invariants; returns violation messages (empty when valid).

    Each message starts with the failed condition: orthonormality,
    J-orthogonality, norm-sum, alpha=beta degeneracy, or lambda mismatch.
    All of them are read off the Grams pg of the positive and mg of the
    negative parts: pg + mg is the Gram of the vectors, pg - mg their J-Gram,
    and the diagonals are alpha^2 and beta^2.
    """
    tol = _checked_real(tol, "tol")
    problems: list[str] = []
    pp, mm, lam = gens.plus_parts, gens.minus_parts, gens.lambdas
    pg, mg = pp.conj() @ pp.T, mm.conj() @ mm.T
    al2, be2 = pg.diagonal().real.copy(), mg.diagonal().real.copy()

    dev = float(np.max(np.abs(pg + mg - np.eye(gens.k)), initial=0.0))
    if not dev <= tol:
        problems.append(f"orthonormality: largest Gram deviation {dev:.3e}")

    # off the diagonal: the J-Gram, and the derived split conditions that the
    # positive and negative parts are pairwise orthogonal
    jgram = pg - mg
    for g in (jgram, pg, mg):
        np.fill_diagonal(g, 0.0)
    cross = float(max(np.max(np.abs(g), initial=0.0) for g in (jgram, pg, mg)))
    if not cross <= tol:
        problems.append(f"J-orthogonality: largest cross term {cross:.3e}")

    ndev = float(np.max(np.abs(al2 + be2 - 1.0), initial=0.0))
    if not ndev <= tol:
        problems.append(f"norm-sum: largest deviation of alpha^2 + beta^2 from 1 is {ndev:.3e}")

    # lambda (alpha^2 - beta^2) = 2 within tol |lambda|, for |lambda| >= 2: the
    # product, not 2 / (alpha^2 - beta^2), since alpha^2 - beta^2 = sech t
    # carries an absolute rounding error of about eps
    denom = al2 - be2
    dev = np.abs(lam * denom - 2.0) / np.maximum(np.abs(lam), 2.0)
    bad = ~(dev <= tol)
    degenerate = bad & (np.abs(denom) <= tol)
    if np.any(degenerate):
        worst = float(np.min(np.abs(denom[degenerate])))
        problems.append(f"alpha=beta degeneracy: smallest |alpha^2 - beta^2| is {worst:.3e}")
    if np.any(bad & ~degenerate):
        ldev = float(np.max(dev[bad & ~degenerate]))
        problems.append(f"lambda mismatch: largest relative deviation {ldev:.3e}")
    return problems


def construct_from_generators(gens: GeneratorSet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Build the Hermitian member sigma * (sum_j lambda_j z_j z_j* - J)."""
    problems = validate_generators(gens, tol)
    if problems:
        raise ValueError("invalid generator set: " + "; ".join(problems))
    v = gens.vectors
    return gens.sigma * (v.T @ (gens.lambdas[:, None] * v.conj()) - np.diag(gens.metric.signs))
