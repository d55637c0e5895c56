"""Signature metrics, argument rules and membership checks for U(p, q).

A matrix M belongs to U(p, q) when M* J M = J, where J = diag{I_p, -I_q}.
Everything downstream (generators, block forms, exp/log) builds on the
predicates and residuals defined here.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Set
from dataclasses import dataclass
from operator import index

import numpy as np

# Default relative tolerance for membership-style predicates (dimensions <= 64).
DEFAULT_TOL = 1e-10


class MembershipError(ValueError):
    """The input is not (numerically) in the set an operation requires."""


def _checked_real(x, name: str) -> float:
    """float(x), the one check of every real argument: ValueError unless x is a finite
    nonnegative number. Ints, floats, numpy scalars and 0-d arrays pass; bools, strings,
    None, complex numbers and arrays with entries are refused."""
    if not (isinstance(x, float) and 0.0 <= x < math.inf):  # floats need no type test
        v = x[()] if isinstance(x, np.ndarray) else x  # a 0-d array as its scalar
        try:
            ok = not isinstance(v, (bool, np.bool_, np.complexfloating)) and math.isfinite(v)
        except (TypeError, OverflowError):
            ok = False
        if not (ok and v >= 0):
            raise ValueError(f"{name} must be a finite nonnegative number, got {x!r}")
    return float(x)


def _checked_reals(x, name: str) -> tuple:
    """The entries of an ordered collection by _checked_real; () for a set, a dict or a number."""
    if isinstance(x, (Set, Mapping)) or not np.iterable(x):
        return ()
    return tuple(_checked_real(v, name) for v in x)


def _checked_int(x, name: str, low: int = 0) -> int:
    """index(x), the one check of every integer argument: ValueError unless x is an integer
    at least low. Bools, floats (2.0 too), strings, None and arrays with entries are refused."""
    try:
        # True is not a count, though bool subclasses int; index refuses floats, np.bool_
        if not isinstance(x, bool) and index(x) >= low:
            return index(x)
    except TypeError:  # not an integer, as for a float or an array with entries
        pass
    raise ValueError(f"{name} must be an integer >= {low}, got {x!r}")


def _checked_sign(x, name: str) -> int:
    """1 or -1 as a plain int, the one check of every sign; a bool (0-d too) and an
    array with entries are refused."""
    if (isinstance(x, bool) or getattr(x, "dtype", None) == bool or getattr(x, "ndim", 0)
            or x not in (1, -1)):
        raise ValueError(f"{name} must be +1 or -1, got {x!r}")
    return 1 if x == 1 else -1


@dataclass(frozen=True)
class SignatureMetric:
    """Signature (p, q): p positive directions followed by q negative ones."""

    p: int
    q: int

    def __post_init__(self):
        p, q = _checked_int(self.p, "p"), _checked_int(self.q, "q")
        if p + q < 1:
            raise ValueError(f"invalid signature ({p}, {q}): need p + q >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

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

    Any integer type is accepted (numpy integers included) and stored as a
    plain int; booleans and floats raise ValueError instead of being truncated.
    """
    return SignatureMetric(p, q)


def _checked_metric(x) -> SignatureMetric:
    """x, the one check of every metric argument: ValueError unless it is a SignatureMetric."""
    if not isinstance(x, SignatureMetric):
        raise ValueError(f"metric must be a SignatureMetric, got {x!r}")
    return x


def _coerced(m, shape: tuple | None, name: str) -> np.ndarray:
    """m as a complex array of the shape, or square without one, by the rule of every
    matrix argument: bools, strings and objects are refused."""
    a = np.asarray(m)
    if a.dtype.kind not in "iufc":
        raise ValueError(f"{name} entries must be numbers, got dtype {a.dtype}")
    if shape is None:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"{name} must be square, got shape {a.shape}")
    elif a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if a.dtype.char in "gG":  # a longdouble past the float range casts to inf, which is refused
        with np.errstate(over="ignore"):
            return np.asarray(a, dtype=complex)
    return np.asarray(a, dtype=complex)


def as_matrix(m, shape: tuple | None = None, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex array of the given shape, rejecting non-finite entries: for
    the arrays that are not measured (lambdas, vectors, the matrix a file is written
    from). Matrices a public function validates take _measured instead."""
    a = _coerced(m, shape, name)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _phase_fixed_qr(z: np.ndarray, mode: str = "reduced") -> np.ndarray:
    """Q of the QR of each matrix of z, the columns paired with diag(R) turned by its phases."""
    q, r = np.linalg.qr(z, mode=mode)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    q[..., :d.shape[-1]] *= (d / np.abs(d))[..., None, :]
    return q


def _blocks(a: np.ndarray, p: int) -> tuple:
    return a[:p, :p], a[:p, p:], a[p:, :p], a[p:, p:]


def _block_diagonal(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.zeros((len(u) + len(v),) * 2, dtype=complex)
    out[:len(u), :len(u)], out[len(u):, len(u):] = u, v
    return out


# The helpers below trust a matrix that _measured has already coerced and
# checked; the public functions measure it once and then call them.


def _fro(x: np.ndarray):
    """Frobenius norm of a matrix as np.linalg.norm forms it: the real parts
    and the imaginary parts each dotted with themselves."""
    v = x.ravel(order="K")
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


# Below 2^(_SCALE_FROM + 1) in every real and imaginary part, no product or
# sum of squares the residuals form can overflow for n up to 2^20.
_SCALE_FROM = 200


def _scaled(a: np.ndarray, name: str = "matrix") -> tuple:
    """(b, s, ||b||, ||a||) with b = s a, s a power of two.

    With a real or imaginary part at or above 2^(_SCALE_FROM + 1), s is
    2^(_SCALE_FROM + 1 - k), 2^k the smallest power of two above the largest
    part. Below that bound s is the float 1 and a is used as it is, with no
    copy, so the residuals are bitwise those of the plain formulas. Scaling
    by a power of two is exact: the residuals are finite over the whole float
    range and agree with the plain formulas where those do not overflow, up
    to the rounding of the squared norm (numpy's x ** 2 is not always
    correctly rounded). A norm of a beyond the float range is inf. A NaN or
    an infinity fails the same bound and raises "<name> contains non-finite entries".
    """
    # reshape copies a matrix that view cannot take, such as a transpose
    big = np.abs(a.reshape(-1).view(float)).max()
    if big < 2.0 ** (_SCALE_FROM + 1):
        fro = _fro(a)
        return a, 1.0, fro, fro
    if not big < math.inf:  # NaN compares false too
        raise ValueError(f"{name} contains non-finite entries")
    # frexp writes big = m 2^k with m in [0.5, 1); big >= 2^_SCALE_FROM gives s <= 1
    s = np.ldexp(1.0, _SCALE_FROM + 1 - np.frexp(big)[1])
    b = a * s
    fro = _fro(b)
    with np.errstate(over="ignore"):
        return b, s, fro, fro / s


def _measured(m, metric: SignatureMetric | None, name: str = "matrix") -> tuple:
    """(a, b, s, ||b||, ||a||) of a matrix a public function validates: a is m by the
    matrix rule, n x n for a checked metric (square for None), and one read of its
    entries in _scaled decides finiteness, the overflow guard and the scale."""
    a = _coerced(m, None if metric is None else (metric.n, metric.n), name)
    return (a, *_scaled(a, name))


def _gram_defect(b: np.ndarray, s, j: np.ndarray) -> np.ndarray:
    """s^2 (A* diag(j) A - diag(j)), from _scaled(A)."""
    defect = (b.conj().T * j) @ b
    # s is the float 1 while nothing was scaled
    defect.reshape(-1)[:: j.size + 1] -= j if type(s) is float else np.square(s) * j
    return defect


def _gram_residual(b: np.ndarray, s, fro, j: np.ndarray):
    """||A* diag(j) A - diag(j)|| / (1 + ||A||^2), from _scaled(A)."""
    return _fro(_gram_defect(b, s, j)) / (s * s + fro ** 2)


def _skew_residual(b: np.ndarray, s, fro):
    """||A - A*|| / (1 + ||A||), from _scaled(A)."""
    return _fro(b - b.conj().T) / (s + fro)


def _validated(measured: tuple, metric: SignatureMetric, tol: float,
               hermitian: bool = True) -> np.ndarray:
    """The array of a _measured tuple, validated as require_member validates it:
    MembershipError unless it is accepted. A NaN residual is refused; membership
    is not computed for a matrix that is not Hermitian."""
    tol = _checked_real(tol, "tol")
    a, b, s, fro, _ = measured
    if hermitian:
        hr = _skew_residual(b, s, fro)
        if not hr <= tol:
            raise MembershipError(f"matrix is not Hermitian: residual {hr:.3e} exceeds {tol:.3e}")
    r = _gram_residual(b, s, fro, metric.signs)
    if not r <= tol:
        raise MembershipError(f"matrix is not in U({metric.p},{metric.q}): "
                              f"membership residual {r:.3e} exceeds {tol:.3e}")
    return a


def membership_residual(M, metric: SignatureMetric) -> float:
    """Relative Frobenius size of M* J M - J; zero exactly on members of U(p, q)."""
    _, b, s, fro, _ = _measured(M, _checked_metric(metric))
    return float(_gram_residual(b, s, fro, metric.signs))


def is_pseudo_unitary(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> bool:
    """True when the membership residual is at most tol."""
    return membership_residual(M, metric) <= _checked_real(tol, "tol")


def hermitian_residual(M) -> float:
    """Relative Frobenius size of M - M*."""
    _, b, s, fro, _ = _measured(M, None)
    return float(_skew_residual(b, s, fro))


def is_hermitian(M, tol: float = DEFAULT_TOL) -> bool:
    """True when ||M - M*|| <= tol * (1 + ||M||) in the Frobenius norm."""
    return hermitian_residual(M) <= _checked_real(tol, "tol")


def block_identities_residual(M, metric: SignatureMetric) -> float:
    """Worst relative defect of the blockwise membership identities.

    Members satisfy, block by block:
        M11* M11 - M21* M21 = I_p
        M12* M12 - M22* M22 = -I_q
        M11* M12 - M21* M22 = 0
    These are blocks of the M* J M - J that membership_residual measures, over
    its normalization: this residual exceeds it by no more than norm rounding.
    """
    _, b, s, fro, _ = _measured(M, _checked_metric(metric))
    d11, d12, _, d22 = _blocks(_gram_defect(b, s, metric.signs), metric.p)
    return float(max(_fro(d11), _fro(d22), _fro(d12)) / (s * s + fro ** 2))


def fast_inverse(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Group inverse J M* J; valid only for members of U(p, q).

    Costs one conjugate transpose and two sign flips instead of a solve.
    """
    a = require_member(M, metric, tol, hermitian=False)
    j = metric.signs
    return (j[:, None] * a.conj().T) * j[None, :]


def require_member(M, metric: SignatureMetric, tol: float = DEFAULT_TOL,
                   hermitian: bool = True) -> np.ndarray:
    """Validate membership (and optionally Hermitian symmetry), returning the array."""
    return _validated(_measured(M, _checked_metric(metric)), metric, tol, hermitian)


def check_compact_intersection(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> bool:
    """True when M is within tol of both U(p, q) and the unitary group.

    Such matrices commute with the metric, hence are block diagonal: a unitary
    from the p block plus a unitary from the q block.
    """
    tol = _checked_real(tol, "tol")
    _, b, s, fro, _ = _measured(M, _checked_metric(metric))
    return bool(_gram_residual(b, s, fro, metric.signs) <= tol
                and _gram_residual(b, s, fro, np.ones(metric.n)) <= tol)
