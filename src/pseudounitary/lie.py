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

import math
from dataclasses import dataclass

import numpy as np

from .canonical import _T_MAX, _unresolvable
from .metric import (
    DEFAULT_TOL,
    MembershipError,
    SignatureMetric,
    _hermitian_residual,
    as_matrix,
    require_member,
)


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
    """True when T* J + J T vanishes relatively, i.e. T is a tangent direction.

    The defect T* J + J T is i (X - X*) for X = i J T, and ||X|| = ||T||, so
    this is the Hermitian residual of X, finite over the whole float range.
    """
    a = as_matrix(T, (metric.n, metric.n), "T")
    return bool(_hermitian_residual(1j * metric.signs[:, None] * a) <= tol)


def _padded(values: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[: values.size] = values
    return out


def exp_us(element: LieElement) -> np.ndarray:
    """Exponential of a Hermitian tangent direction; a positive-definite member.

    Raises ValueError past s_max = arccosh(float max / 2), where it would overflow.
    """
    metric = element.metric
    p, q = metric.p, metric.q
    b = element.block
    w, s, xh = np.linalg.svd(b)
    if s.size and s[0] > _T_MAX:
        raise ValueError(f"tangent too large: singular value {s[0]!r} exceeds {_T_MAX!r}")
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


def _trace_deficit(a: np.ndarray, s: np.ndarray, metric: SignatureMetric) -> float:
    """(2 sum(h_j) + |p - q| - tr M) / h_min for a Hermitian member whose M12 has singular values s.

    The eigenvalues of M11 and M22 are +-h_j = +-hypot(1, s_j), s padded with
    zeros to p and to q, so M is positive definite iff this is below 1.
    Raises MembershipError where the resolvability rule of canonical_invariant
    refuses; padding pieces count with t = 0.
    """
    p, q = metric.p, metric.q
    # svd sorts s descending, and the padding zeros go last: h[0] is h_max, h[-1] h_min
    sp = _padded(s, max(p, q))
    h = np.hypot(1.0, sp)
    refusal = _unresolvable(sp.tolist(), h.tolist(), np.arcsinh(sp).tolist())
    if refusal is not None:
        raise refusal
    # a power of two at most 1 / h_max keeps the sums finite for any member
    c = math.ldexp(1.0, -math.frexp(h[0])[1])
    bound = 2.0 * (c * h[:s.size]).sum() + c * abs(p - q)
    return float((bound - (c * np.diagonal(a).real).sum()) / (c * h[-1]))


def log_us(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> LieElement:
    """Logarithm of a positive-definite Hermitian member.

    Refuses with MembershipError members outside the exponential image and
    members whose parameters the resolvability rule of canonical_invariant
    cannot resolve, so each returned t_j is within T_COMPARE_TOL * max(1, t_j / 20).
    """
    a = require_member(M, metric, tol)
    u2, s2, v2h = np.linalg.svd(a[: metric.p, metric.p:])
    deficit = _trace_deficit(a, s2, metric)
    if not deficit < 1.0:
        raise MembershipError(f"not positive definite: trace deficit {deficit:.3g} h_min, "
                              "at or above the limit 1; outside the exponential image")
    r = s2.size
    xi = (u2[:, :r] * np.arcsinh(s2)[None, :]) @ v2h[:r, :]
    return LieElement(metric=metric, block=xi)


def is_in_exp_image(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> bool:
    """True when the Hermitian member M is positive definite (hence some exp T).

    Refuses where log_us refuses for resolvability: True means log_us returns.
    """
    a = require_member(M, metric, tol)
    s = np.linalg.svd(a[: metric.p, metric.p:], compute_uv=False)
    return _trace_deficit(a, s, metric) < 1.0
