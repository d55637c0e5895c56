"""Hermitian tangent directions and the closed-form exp/log for U(p, q).

The Hermitian part of the Lie algebra of U(p, q) consists of matrices
T = [[0, B], [B*, 0]] with an arbitrary p x q block B (complex dimension pq).
Their exponentials are exactly the positive-definite Hermitian members, and
both directions reduce to one SVD of the off-diagonal block:

    exp T = [[W cosh(S) W*, W sinh(S) X*], [X sinh(S) W*, X cosh(S) X*]]

for B = W S X*, with cosh/sinh applied to the (rectangular) singular value
profile. The logarithm applies arcsinh to the singular values of the
off-diagonal block of the member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import (
    DEFAULT_TOL,
    MembershipError,
    SignatureMetric,
    as_matrix,
    require_member,
)

# Relative positive-definiteness floor for log: smallest eigenvalue must
# exceed this times the spectral norm.
PD_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class LieElement:
    """A Hermitian tangent direction, stored as its p x q off-diagonal block."""

    metric: SignatureMetric
    block: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.block, (self.metric.p, self.metric.q), "block")
        object.__setattr__(self, "block", b)

    def matrix(self) -> np.ndarray:
        """The full n x n Hermitian tangent matrix [[0, B], [B*, 0]]."""
        p, q = self.metric.p, self.metric.q
        out = np.zeros((p + q, p + q), dtype=complex)
        out[:p, p:] = self.block
        out[p:, :p] = self.block.conj().T
        return out


def validate_lie_algebra(T, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> bool:
    """True when T* J + J T vanishes relatively, i.e. T is a tangent direction."""
    a = as_matrix(T, (metric.n, metric.n), "T")
    j = metric.signs
    defect = a.conj().T * j[None, :] + j[:, None] * a
    return bool(np.linalg.norm(defect) <= tol * (1.0 + np.linalg.norm(a)))


def _padded(values: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[: values.size] = values
    return out


def exp_us(element: LieElement) -> np.ndarray:
    """Exponential of a Hermitian tangent direction; a positive-definite member."""
    metric = element.metric
    p, q = metric.p, metric.q
    b = element.block
    w, s, xh = np.linalg.svd(b)
    r = s.size
    cp = (w * np.cosh(_padded(s, p))[None, :]) @ w.conj().T
    cq = (xh.conj().T * np.cosh(_padded(s, q))[None, :]) @ xh
    off = (w[:, :r] * np.sinh(s)[None, :]) @ xh[:r, :]
    out = np.zeros((p + q, p + q), dtype=complex)
    out[:p, :p] = (cp + cp.conj().T) / 2.0
    out[p:, p:] = (cq + cq.conj().T) / 2.0
    out[:p, p:] = off
    out[p:, :p] = off.conj().T
    return out


def log_us(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> LieElement:
    """Logarithm of a positive-definite Hermitian member.

    Rejects members outside the exponential image: anything with an
    eigenvalue at or below PD_FLOOR times the spectral norm fails loudly.
    """
    a = require_member(M, metric, tol)
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    floor = PD_FLOOR * float(np.max(np.abs(w)))
    smallest = float(w[0])
    if smallest <= floor:
        raise MembershipError(
            f"not positive definite: smallest eigenvalue {smallest:.3e} "
            f"is at or below the floor {floor:.3e}; outside the exponential image"
        )
    b12 = a[: metric.p, metric.p:]
    u2, s2, v2h = np.linalg.svd(b12)
    r = s2.size
    xi = (u2[:, :r] * np.arcsinh(s2)[None, :]) @ v2h[:r, :]
    return LieElement(metric=metric, block=xi)


def is_in_exp_image(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> bool:
    """True when the Hermitian member M is positive definite (hence some exp T)."""
    a = require_member(M, metric, tol)
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return bool(float(w[0]) > PD_FLOOR * float(np.max(np.abs(w))))
