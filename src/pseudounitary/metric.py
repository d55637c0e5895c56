"""Signature metrics, indefinite forms, and membership checks for U(p, q).

A matrix M belongs to U(p, q) when M* J M = J, where J = diag{I_p, -I_q}.
Everything downstream (generators, block forms, exp/log) builds on the
predicates and residuals defined here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import add, index, truediv

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

    @functools.cached_property
    def signs(self) -> np.ndarray:
        """Diagonal of the metric matrix: p ones, then q minus ones (read-only).

        Computed once per metric: every residual reads it. Caching keeps it
        out of equality and hashing, which compare p and q only.
        """
        s = np.ones(self.n)
        s[self.p:] = -1.0
        s.flags.writeable = False
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
            return SignatureMetric(index(p), index(q))
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


def _phase_fixed_qr(z: np.ndarray, mode: str = "reduced") -> np.ndarray:
    """Q of the QR decomposition of z, with the columns paired with diag(R) turned by its phases."""
    q, r = np.linalg.qr(z, mode=mode)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    q[:, :d.size] *= (d / np.abs(d))[None, :]
    return q


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


# The helpers below trust an array that as_matrix has already coerced and
# checked; the public functions coerce once and then call them. They take a
# matrix or a (B, n, n) stack and return one value per item.


def _fro(x: np.ndarray):
    """Frobenius norm of a matrix, or the list of those of the items of a stack,
    as np.linalg.norm forms it.

    The real parts and the imaginary parts are each dotted with themselves,
    item by item, so a stack item gets the bits np.linalg.norm gives the
    matrix alone.
    """
    if x.ndim == 2:
        v = x.ravel(order="K")
        re, im = v.real, v.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    v = x.reshape(len(x), -1)
    return [math.sqrt(r.dot(r) + i.dot(i)) for r, i in zip(v.real, v.imag)]


# Below 2^(_SCALE_FROM + 1) in every real and imaginary part, no product or
# sum of squares the residuals form can overflow for n up to 2^20.
_SCALE_FROM = 200


def _scaled(a: np.ndarray) -> tuple:
    """(b, s, ||b||, ||a||) with b = s a per item, s a power of two.

    An item with a real or imaginary part at or above 2^(_SCALE_FROM + 1)
    gets s = 2^(_SCALE_FROM + 1 - k), with 2^k the smallest power of two
    above its largest part, which brings its parts below that bound; every
    other item gets s = 1, so below the bound the residuals are bitwise
    those of the plain formulas. While no item needs scaling, s is the float
    1 and a is used as it is, which saves about a third of a one-shot
    residual's time. Scaling by a power of two is exact, so the residuals
    are finite over the whole float range and, where the plain formulas do
    not overflow, agree with them up to the rounding of the squared norm
    (numpy's x ** 2 is not always correctly rounded). A norm of a beyond the
    float range is inf. For a stack, s is the float 1 or the list of the
    items' s, and the norms are lists of floats.
    """
    parts = np.abs(a.reshape(a.shape[:-2] + (-1,)).view(float))
    if parts.max() < 2.0 ** (_SCALE_FROM + 1):
        fro = _fro(a)
        return a, 1.0, fro, fro
    # frexp writes big = m 2^k with m in [0.5, 1); big >= 2^_SCALE_FROM gives s <= 1
    k = np.frexp(parts.max(axis=-1, initial=2.0 ** _SCALE_FROM))[1]
    s = np.ldexp(1.0, _SCALE_FROM + 1 - k)
    b = a * s[..., None, None]
    fro = _fro(b)
    if a.ndim == 2:
        with np.errstate(over="ignore"):
            return b, s, fro, fro / s
    s = s.tolist()
    return b, s, fro, list(map(truediv, fro, s))


def _each(s, fro: list) -> list:
    """The s of _scaled for a stack, one float per item."""
    return s if type(s) is list else [s] * len(fro)


def _gram_residual(b: np.ndarray, s, fro, j: np.ndarray):
    """||A* diag(j) A - diag(j)|| / (1 + ||A||^2), a list per item for a stack, from _scaled(A)."""
    defect = (b.conj().swapaxes(-1, -2) * j) @ b
    n = j.size
    # s is the float 1 while nothing was scaled
    defect.reshape(defect.shape[:-2] + (n * n,))[..., :: n + 1] -= (
        j if type(s) is float else np.multiply.outer(np.square(s), j))
    d = _fro(defect)
    if b.ndim == 2:
        return d / (s * s + fro ** 2)
    # each norm squared with ** 2, pow as on the matrix path, not x * x as numpy
    # squares an array: the two round differently about once in a thousand
    return [x / (y * y + f ** 2) for x, y, f in zip(d, _each(s, fro), fro)]


def _skew_residual(b: np.ndarray, s, fro):
    """||A - A*|| / (1 + ||A||), a list per item for a stack, from _scaled(A)."""
    d = _fro(b - b.conj().swapaxes(-1, -2))
    if b.ndim == 2:
        return d / (s + fro)
    return list(map(truediv, d, map(add, _each(s, fro), fro)))


def _membership_residual(a: np.ndarray, metric: SignatureMetric):
    b, s, fro, _ = _scaled(a)
    return _gram_residual(b, s, fro, metric.signs)


def _hermitian_residual(a: np.ndarray):
    b, s, fro, _ = _scaled(a)
    return _skew_residual(b, s, fro)


def _unitary_residual(a: np.ndarray):
    b, s, fro, _ = _scaled(a)
    return _gram_residual(b, s, fro, np.ones(a.shape[-1]))


def _refusals(a: np.ndarray, metric: SignatureMetric, tol: float,
              hermitian: bool = True) -> tuple:
    """Validate a matrix, or each item of a (B, n, n) stack, as require_member does.

    Returns the list of MembershipError messages, one per item (one for a
    matrix), with None where the item is accepted, and the Frobenius norms
    of the items. A NaN residual is refused. Membership is not computed
    when no item is Hermitian.
    """
    b, s, fro, norms = _scaled(a)
    one = a.ndim == 2
    messages = [None] * (1 if one else len(a))
    if hermitian:
        skew = _skew_residual(b, s, fro)
        for i, hr in enumerate([skew] if one else skew):
            if not hr <= tol:
                messages[i] = f"matrix is not Hermitian: residual {hr:.3e} exceeds {tol:.3e}"
    if None in messages:
        gram = _gram_residual(b, s, fro, metric.signs)
        for i, r in enumerate([gram] if one else gram):
            if messages[i] is None and not r <= tol:
                messages[i] = (f"matrix is not in U({metric.p},{metric.q}): "
                               f"membership residual {r:.3e} exceeds {tol:.3e}")
    return messages, norms


def membership_residual(M, metric: SignatureMetric) -> float:
    """Relative Frobenius size of M* J M - J; zero exactly on members of U(p, q)."""
    return float(_membership_residual(as_matrix(M, (metric.n, metric.n)), metric))


def is_pseudo_unitary(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> bool:
    """True when the membership residual is at most tol."""
    return membership_residual(M, metric) <= tol


def hermitian_residual(M) -> float:
    """Relative Frobenius size of M - M*."""
    return float(_hermitian_residual(as_matrix(M)))


def is_hermitian(M, tol: float = DEFAULT_TOL) -> bool:
    """True when ||M - M*|| <= tol * (1 + ||M||) in the Frobenius norm."""
    return hermitian_residual(M) <= tol


def unitary_residual(M) -> float:
    """Relative Frobenius size of M* M - I."""
    return float(_unitary_residual(as_matrix(M)))


def block_identities_residual(M, metric: SignatureMetric) -> float:
    """Worst relative defect of the blockwise membership identities.

    Members satisfy, block by block:
        M11* M11 - M21* M21 = I_p
        M12* M12 - M22* M22 = -I_q
        M11* M12 - M21* M22 = 0
    These are the blocks of M* J M - J, so this residual never exceeds
    membership_residual (same normalization).
    """
    b, s, fro, _ = _scaled(as_matrix(M, (metric.n, metric.n)))
    s2 = float(s * s)
    m11, m12, m21, m22 = _blocks(b, metric.p)
    r1 = np.linalg.norm(m11.conj().T @ m11 - m21.conj().T @ m21 - s2 * np.eye(metric.p))
    r2 = np.linalg.norm(m12.conj().T @ m12 - m22.conj().T @ m22 + s2 * np.eye(metric.q))
    r3 = np.linalg.norm(m11.conj().T @ m12 - m21.conj().T @ m22)
    return float(max(r1, r2, r3) / (s2 + fro ** 2))


def fast_inverse(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Group inverse J M* J; valid only for members of U(p, q).

    Costs one conjugate transpose and two sign flips instead of a solve.
    """
    a = as_matrix(M, (metric.n, metric.n))
    (refusal,), _ = _refusals(a, metric, tol, hermitian=False)
    if refusal:
        raise MembershipError(refusal)
    j = metric.signs
    return (j[:, None] * a.conj().T) * j[None, :]


def require_member(M, metric: SignatureMetric, tol: float = DEFAULT_TOL,
                   hermitian: bool = True) -> np.ndarray:
    """Validate membership (and optionally Hermitian symmetry), returning the array."""
    a = as_matrix(M, (metric.n, metric.n))
    (refusal,), _ = _refusals(a, metric, tol, hermitian)
    if refusal:
        raise MembershipError(refusal)
    return a


def check_compact_intersection(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> bool:
    """True when M is within tol of both U(p, q) and the unitary group.

    Such matrices commute with the metric, hence are block diagonal: a unitary
    from the p block plus a unitary from the q block.
    """
    a = as_matrix(M, (metric.n, metric.n))
    return bool(_membership_residual(a, metric) <= tol and _unitary_residual(a) <= tol)
