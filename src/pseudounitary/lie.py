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

from .canonical import _check_range, _require_resolvable
from .metric import (DEFAULT_TOL, MembershipError, SignatureMetric, _checked_metric, as_matrix,
                     require_member)


@dataclass(frozen=True, eq=False)
class LieElement:
    """A Hermitian tangent direction, stored as its p x q off-diagonal block."""

    metric: SignatureMetric
    block: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.block, (_checked_metric(self.metric).p, self.metric.q), "block")
        object.__setattr__(self, "block", b)


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
    _check_range(s.max(initial=0.0))
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
    Raises ValueError for a parameter past the range of canonical_invariant,
    and MembershipError where its resolvability rule refuses; padding pieces
    count with t = 0.
    """
    p, q = metric.p, metric.q
    # svd sorts s descending, and the padding zeros go last: h[0] is h_max, h[-1] h_min
    sp = _padded(s, max(p, q))
    h, t = np.hypot(1.0, sp), np.arcsinh(sp)
    _check_range(t[0])
    _require_resolvable(sp.tolist(), h.tolist(), t.tolist())
    # a power of two at most 1 / h_max keeps the sums finite for any member
    c = math.ldexp(1.0, -math.frexp(h[0])[1])
    bound = 2.0 * (c * h[:s.size]).sum() + c * abs(p - q)
    return float((bound - (c * np.diagonal(a).real).sum()) / (c * h[-1]))


def log_us(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> LieElement:
    """Logarithm of a positive-definite Hermitian member.

    Refuses with MembershipError members outside the exponential image and
    members whose parameters the resolvability rule of canonical_invariant
    cannot resolve, so each returned t_j is within T_COMPARE_TOL * max(1, t_j / 20).
    Raises ValueError for a parameter past arccosh(float max / 2), which
    exp_us could not map back.
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
