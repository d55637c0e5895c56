"""Signature metrics, indefinite forms, and membership checks for U(p, q).

A matrix M belongs to U(p, q) when M* J M = J, where J = diag{I_p, -I_q}.
Everything downstream (generators, block forms, exp/log) builds on the
predicates and residuals defined here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Default relative tolerance for membership-style predicates (dimensions <= 64).
DEFAULT_TOL = 1e-10


class MembershipError(ValueError):
    """The input is not (numerically) in the set an operation requires."""


@dataclass(frozen=True)
class SignatureMetric:
    """Signature (p, q): p positive directions followed by q negative ones."""

    p: int
    q: int

    def __post_init__(self):
        # bool is a subclass of int, but True is not a dimension
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (self.p, self.q)):
            raise ValueError("signature entries must be integers")
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ValueError(
                f"invalid signature ({self.p}, {self.q}): need p >= 0, q >= 0, p + q >= 1"
            )

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def signs(self) -> np.ndarray:
        """Diagonal of the metric matrix: p ones, then q minus ones."""
        s = np.ones(self.n)
        s[self.p:] = -1.0
        return s

    @property
    def matrix(self) -> np.ndarray:
        """The metric matrix diag{I_p, -I_q}; its own inverse."""
        return np.diag(self.signs)


def make_metric(p: int, q: int) -> SignatureMetric:
    """Build the signature metric for p positive and q negative directions.

    Any integer type is accepted (numpy integers included); booleans and
    floats raise ValueError instead of being truncated.
    """
    if not (isinstance(p, bool) or isinstance(q, bool)):
        try:
            return SignatureMetric(operator.index(p), operator.index(q))
        except TypeError:
            pass
    raise ValueError(f"signature entries must be integers, got ({p!r}, {q!r})")


def as_matrix(m, shape: tuple | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex array of the given shape, rejecting non-finite entries.

    Without a shape, any square matrix is accepted.
    """
    a = np.asarray(m, dtype=complex)
    if shape is None:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"{name} must be square, got shape {a.shape}")
    elif a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _blocks(a: np.ndarray, p: int) -> tuple:
    return a[:p, :p], a[:p, p:], a[p:, :p], a[p:, p:]


def split_blocks(M, metric: SignatureMetric) -> tuple:
    """Split M into blocks (p x p, p x q, q x p, q x q) along the signature."""
    return _blocks(as_matrix(M, (metric.n, metric.n)), metric.p)


def indefinite_form(z, w, metric: SignatureMetric) -> complex:
    """Indefinite inner product: conjugate z, weight by the signature, sum against w.

    Conjugate-linear in the first argument, so indefinite_form(w, z) is the
    complex conjugate of indefinite_form(z, w).
    """
    zv = as_matrix(np.ravel(z), (metric.n,), "z")
    wv = as_matrix(np.ravel(w), (metric.n,), "w")
    return complex(np.sum(np.conj(zv) * metric.signs * wv))


def quadratic_form(z, metric: SignatureMetric) -> float:
    """The real value of the indefinite form of z against itself."""
    return float(indefinite_form(z, z, metric).real)


# The residuals below trust an array that as_matrix has already coerced and
# checked; the public functions coerce once and then call them.
def _membership_residual(a: np.ndarray, metric: SignatureMetric) -> float:
    j = metric.signs
    defect = (a.conj().T * j) @ a
    defect[np.diag_indices(metric.n)] -= j
    return float(np.linalg.norm(defect) / (1.0 + np.linalg.norm(a) ** 2))


def _hermitian_residual(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - a.conj().T) / (1.0 + np.linalg.norm(a)))


def _unitary_residual(a: np.ndarray) -> float:
    defect = a.conj().T @ a - np.eye(a.shape[0])
    return float(np.linalg.norm(defect) / (1.0 + np.linalg.norm(a) ** 2))


def _require_membership(a: np.ndarray, metric: SignatureMetric, tol: float) -> None:
    r = _membership_residual(a, metric)
    if r > tol:
        raise MembershipError(
            f"matrix is not in U({metric.p},{metric.q}): "
            f"membership residual {r:.3e} exceeds {tol:.3e}"
        )


def membership_residual(M, metric: SignatureMetric) -> float:
    """Relative Frobenius size of M* J M - J; zero exactly on members of U(p, q)."""
    return _membership_residual(as_matrix(M, (metric.n, metric.n)), metric)


def is_pseudo_unitary(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> bool:
    """True when the membership residual is at most tol."""
    return membership_residual(M, metric) <= tol


def hermitian_residual(M) -> float:
    """Relative Frobenius size of M - M*."""
    return _hermitian_residual(as_matrix(M))


def is_hermitian(M, tol: float = DEFAULT_TOL) -> bool:
    """True when ||M - M*|| <= tol * (1 + ||M||) in the Frobenius norm."""
    return hermitian_residual(M) <= tol


def unitary_residual(M) -> float:
    """Relative Frobenius size of M* M - I."""
    return _unitary_residual(as_matrix(M))


def block_identities_residual(M, metric: SignatureMetric) -> float:
    """Worst relative defect of the blockwise membership identities.

    Members satisfy, block by block:
        M11* M11 - M21* M21 = I_p
        M12* M12 - M22* M22 = -I_q
        M11* M12 - M21* M22 = 0
    These are the blocks of M* J M - J, so this residual never exceeds
    membership_residual (same normalization).
    """
    a = as_matrix(M, (metric.n, metric.n))
    m11, m12, m21, m22 = _blocks(a, metric.p)
    r1 = np.linalg.norm(m11.conj().T @ m11 - m21.conj().T @ m21 - np.eye(metric.p))
    r2 = np.linalg.norm(m12.conj().T @ m12 - m22.conj().T @ m22 + np.eye(metric.q))
    r3 = np.linalg.norm(m11.conj().T @ m12 - m21.conj().T @ m22)
    return float(max(r1, r2, r3) / (1.0 + np.linalg.norm(a) ** 2))


def fast_inverse(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Group inverse J M* J; valid only for members of U(p, q).

    Costs one conjugate transpose and two sign flips instead of a solve.
    """
    a = as_matrix(M, (metric.n, metric.n))
    _require_membership(a, metric, tol)
    j = metric.signs
    return (j[:, None] * a.conj().T) * j[None, :]


def require_member(M, metric: SignatureMetric, tol: float = DEFAULT_TOL,
                   hermitian: bool = True) -> np.ndarray:
    """Validate membership (and optionally Hermitian symmetry), returning the array."""
    a = as_matrix(M, (metric.n, metric.n))
    if hermitian:
        hr = _hermitian_residual(a)
        if hr > tol:
            raise MembershipError(
                f"matrix is not Hermitian: residual {hr:.3e} exceeds {tol:.3e}"
            )
    _require_membership(a, metric, tol)
    return a


def check_compact_intersection(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> bool:
    """True when M is within tol of both U(p, q) and the unitary group.

    Such matrices commute with the metric, hence are block diagonal: a unitary
    from the p block plus a unitary from the q block.
    """
    a = as_matrix(M, (metric.n, metric.n))
    return _membership_residual(a, metric) <= tol and _unitary_residual(a) <= tol
