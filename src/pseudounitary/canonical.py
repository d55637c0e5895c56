"""2x2 block canonical form for Hermitian members at signature (p, p).

Every Hermitian member M of U(p, p) is conjugate, by a unitary of the form
U + V (one factor per signature block), to a direct sum of p canonical 2x2
pieces, each supported on one positive and one negative direction. A piece is
either a signed hyperbolic block

    sign * [[cosh t, sinh t], [sinh t, cosh t]],   t >= 0,

or a signed copy of diag(1, -1), called an iota block here. The multiset of
pieces, normalized for the global sign freedom, is a complete equivalence
invariant under M -> -M and M -> Q* M Q. At (p, q) the same frame holds
min(p, q) pieces and |p - q| unpaired +-1 entries on the larger side; the
generators of spectral.py are read off it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from operator import sub

import numpy as np

from .metric import (DEFAULT_TOL, MembershipError, SignatureMetric, _blocks, _checked_metric,
                     _checked_real, _checked_sign, _fro, _gram_residual, _measured,
                     _phase_fixed_qr, _refusals, _scaled, require_member)

HYPERBOLIC = "hyperbolic"
IOTA = "iota"

# Absolute tolerance for comparing hyperbolic parameters up to t = 20;
# beyond that the comparison is relative.
T_COMPARE_TOL = 1e-8
# block_decompose calls a coupling s weak at or below this times max |eig(M11)|:
# the SVD of M12 gives its V row only to about eps s_max / s, M22 to rounding
# at a backward error of about s, and sqrt(eps) keeps both below the bound.
WEAK_COUPLING = float(np.sqrt(np.finfo(float).eps))
_EPS = float(np.finfo(float).eps)
# Largest hyperbolic parameter with finite output, arccosh(float max / 2): past it
# a sum of two entries of size cosh t overflows, as (C + C*) / 2 in exp_us does.
_T_MAX = float(np.arccosh(np.finfo(float).max / 2.0))
# Times tol * max(1, ||M||_F): the reassembly gate of _frame, the spectra bound of _invariants.
_RESIDUAL_FACTOR = 1000.0


class HyperbolicBlock(namedtuple("HyperbolicBlock", "kind t sign", defaults=(0.0, 1))):
    """One canonical 2x2 piece, a signed hyperbolic or iota block: the (kind, t, sign)
    triple, checked when built."""

    __slots__ = ()

    def __new__(cls, kind: str, t: float = 0.0, sign: int = 1):
        if getattr(kind, "ndim", 0) or kind not in (HYPERBOLIC, IOTA):  # an array of kinds is none
            raise ValueError(f"unknown block kind {kind!r}")
        sign = _checked_sign(sign, "block sign")
        t = _checked_real(t, "block parameter")
        if kind == IOTA and t != 0.0:
            raise ValueError("iota blocks carry no hyperbolic parameter")
        # stored as the plain types every piece list holds: str, float, int
        return tuple.__new__(cls, (HYPERBOLIC if kind == HYPERBOLIC else IOTA, t, sign))

    @classmethod
    def _make(cls, iterable):
        # the namedtuple's _make, and _replace through it, would skip the checks
        return cls(*iterable)


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Canonical data for a Hermitian member of U(p, p): Q M Q* = sum of 2x2 pieces.

    q is block diagonal (one unitary per signature block); piece j of blocks
    occupies rows and columns (j, p + j). residual is the Frobenius norm of M
    minus the reassembly, as block_decompose measured it (0 for data M is built from).
    """

    q: np.ndarray
    blocks: tuple
    residual: float = 0.0

    def matrix(self) -> np.ndarray:
        """Reassemble the member this decomposition describes."""
        return assemble_blocks(self.blocks, self.q)


@dataclass(frozen=True)
class CanonicalInvariant:
    """Sorted, sign-normalized multiset of (kind, t, sign) block triples."""

    triples: tuple

    def matches(self, other: "CanonicalInvariant") -> bool:
        """Equality of invariants up to the global sign, within T_COMPARE_TOL in t.

        Parameters about T_COMPARE_TOL apart can sign-normalize two invariants
        of one member to opposite global signs, so the other invariant is
        also compared with its signs flipped.
        """
        flipped = sorted(((k, t, -s) for k, t, s in other.triples),
                         key=lambda x: (x[0], -x[2], x[1]))
        return _same_triples(self.triples, other.triples) or _same_triples(self.triples, flipped)


def _same_triples(a, b) -> bool:
    return len(a) == len(b) and all(k1 == k2 and s1 == s2 and _t_close(t1, t2)
                                    for (k1, t1, s1), (k2, t2, s2) in zip(a, b))


def _t_close(t1: float, t2: float) -> bool:
    return abs(t1 - t2) <= T_COMPARE_TOL * max(1.0, max(t1, t2) / 20.0)


def _require_block_unitary(unitary, p: int) -> np.ndarray:
    """The unitary of assemble_blocks as an array: ValueError unless block unitary at (p, p)."""
    Q, b, s, fro, norm = _measured(unitary, SignatureMetric(p, p), "unitary")
    res = _gram_residual(b, s, fro, np.ones(2 * p))
    if not res <= DEFAULT_TOL:
        raise ValueError(f"conjugating matrix is not unitary: residual {res:.3e}")
    _, q12, q21, _ = _blocks(Q, p)
    bound = DEFAULT_TOL * max(1.0, float(norm))
    if np.linalg.norm(q12) > bound or np.linalg.norm(q21) > bound:
        raise ValueError("conjugating matrix must be block diagonal for the signature")
    return Q


def _check_range(top: float) -> None:
    """The range rule of every route, on the largest hyperbolic parameter (a NaN fails it)."""
    if not top <= _T_MAX:
        raise ValueError(f"hyperbolic parameter t = {float(top)!r} is past the limit "
                         f"{_T_MAX!r} = arccosh(float max / 2) of finite entries")


def _block_form(hyp: np.ndarray, t: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The matrix with piece j at rows and columns (j, p + j), from the pieces'
    hyperbolic mask, parameters (0 for iota pieces) and signs."""
    _check_range(t.max(initial=0.0))
    p = t.size
    c = np.cosh(t)
    # entries (j, j), (j, p + j) = (p + j, j), (p + j, p + j), signed as sign * piece signs them
    v = np.array([c, np.where(hyp, np.sinh(t), 0.0), np.where(hyp, c, -1.0)], dtype=complex) * sign
    out = np.zeros((2 * p, 2 * p), dtype=complex)
    # entry (r p + j, k p + j) is at offset k p + j (2p + 1) of row r of this view
    rows = out.reshape(2, 2 * p * p)
    rows[:, ::2 * p + 1] = v[:2]
    rows[:, p::2 * p + 1] = v[1:]
    return out


def assemble_blocks(blocks, unitary=None) -> np.ndarray:
    """Place p 2x2 pieces at rows/columns (j, p + j), then conjugate by the unitary.

    Each piece is a (kind, t, sign) triple, checked as HyperbolicBlock checks
    it. With unitary Q, block diagonal at (p, p), returns Q* B Q where B is
    the block-form matrix, so the result decomposes back to the given pieces
    with the same Q. Raises ValueError for a parameter past arccosh(float max / 2).
    """
    blocks = [HyperbolicBlock(k, t, s) for k, t, s in blocks]
    p = len(blocks)
    if p == 0:
        raise ValueError("need at least one block")
    kind, t, sign = zip(*blocks)
    out = _block_form(np.array(kind) == HYPERBOLIC, np.array(t), np.array(sign))
    if unitary is not None:
        Q = _require_block_unitary(unitary, p)
        out = Q.conj().T @ out @ Q
    return out


def block_decompose(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> BlockDecomposition:
    """Decompose a Hermitian member of U(p, p) into canonical 2x2 pieces.

    Reads the pieces off the block spectra, as canonical_invariant does:
    eigh(M11) = X diag(lambda) X*, Y = X* M12, and per sign eigenspace of M11
    one SVD of its rows of Y. U holds those eigenspace columns turned by the
    left singular vectors, V the right singular vectors times the sign, and
    t = arcsinh(s). Weak couplings (see WEAK_COUPLING) take their V rows from
    eigh of M22 on the complement of the others, in sign and magnitude order:
    the same sign in M11 and M22 gives a hyperbolic piece, opposite signs an
    iota piece. Strong couplings take the leading slots by descending t. The
    result is verified by reassembly before it is returned.
    """
    if _checked_metric(metric).p != metric.q:
        raise ValueError("block decomposition is defined for signature (p, p)")
    q, hyp, t, d, residual = _frame(require_member(M, metric, tol), metric.p, tol)
    blocks = tuple(map(HyperbolicBlock, np.where(hyp, HYPERBOLIC, IOTA).tolist(), t.tolist(),
                       d[:metric.p].tolist()))
    return BlockDecomposition(q=q, blocks=blocks, residual=residual)


def _frame(a: np.ndarray, p: int, tol: float) -> tuple:
    """The canonical frame of a validated Hermitian member at signature (p, n - p).

    Returns (Q, hyp, t, d, residual) with M = Q* B Q. The block diagonal
    unitary Q puts piece j of the min(p, q) pieces on rows j and p + j, with
    its hyperbolic mask and parameter; the |p - q| rows of the larger side
    after its paired ones are unpaired. d holds the sign of the diagonal
    of B row by row, so a piece's sign is d[j], and an unpaired row's entry
    of B is d there. residual is the Frobenius norm of M minus the
    reassembly, which is checked before it is returned.
    """
    q = a.shape[0] - p
    if p > q:
        # the block swap [[M22, M21], [M12, M11]] is a member of U(q, p); its
        # frame with rows and columns swapped back is the frame of M
        swap, back = np.r_[p:p + q, :p], np.r_[q:p + q, :q]
        unitary, hyp, t, d, residual = _frame(a[np.ix_(swap, swap)], q, tol)
        return unitary[np.ix_(back, back)], hyp, t, d[back], residual
    m11, m12, _, m22 = _blocks(a, p)
    lam, x = np.linalg.eigh(m11)
    y = x.conj().T @ m12
    # eigh sorts ascending: the negative eigenspace of M11 comes first
    neg = int(np.count_nonzero(lam < 0))
    w0, v, s = np.empty((p, p), dtype=complex), np.empty((p, q), dtype=complex), np.empty(p)
    for rows in (slice(0, neg), slice(neg, p)):
        if rows.start < rows.stop:
            left, s[rows], v[rows] = np.linalg.svd(y[rows], full_matrices=False)
            w0[rows] = (x[:, rows] @ left).conj().T
    sign = np.where(lam < 0, -1, 1)
    strong = s > WEAK_COUPLING * np.abs(lam).max(initial=0.0)
    # strong couplings by descending s, then the weak ones of the negative side
    # by descending s and of the positive side by ascending s, which lines them
    # up with the eigenvalues of M22 on the complement, sorted ascending
    group = np.where(strong, 0, np.where(sign < 0, 1, 2))
    order = np.lexsort((np.where(group == 2, s, -s), group))
    w0, v, s, sign = w0[order], v[order] * sign[order, None], s[order], sign[order]
    k = int(np.count_nonzero(strong))
    # the strong V rows orthonormalized in slot order, then their complement
    w1 = np.eye(q, dtype=complex) if k == 0 else _phase_fixed_qr(v[:k].T, mode="complete").T
    hyp = np.ones(p, dtype=bool)
    unpaired = np.zeros(0, dtype=int)
    if k < q:
        mu, rot = np.linalg.eigh(w1[k:] @ m22 @ w1[k:].conj().T)
        # the weak rows of the negative side take the complement from the
        # front, those of the positive side from the back; the q - p rows
        # between them are the unpaired ones, and they go last
        front = int(np.count_nonzero(group == 1))
        slots = np.concatenate([np.arange(front), np.arange(front + q - p, q - k),
                                np.arange(front, front + q - p)])
        w1[k:] = (rot.conj().T @ w1[k:])[slots]
        mu = mu[slots]
        hyp[k:] = (mu[:p - k] > 0) == (sign[k:] > 0)
        unpaired = np.where(mu[p - k:] > 0, 1, -1)
    t = np.where(hyp & (s > 0), np.arcsinh(s), 0.0)
    _check_range(t.max(initial=0.0))
    # the largest entry of each U row real and positive, each hyperbolic V row
    # turned so that its coupling has the piece's sign, the other V rows by
    # the rule of U rows; row j of U M12 is s_j times SVD row j, which gives z
    pivot = w0[np.arange(p), np.abs(w0).argmax(axis=1)] if p else np.ones(0)
    w0 *= (pivot.conj() / np.abs(pivot))[:, None]
    z = pivot.conj() * s * np.einsum("ij,ij->i", v, w1[:p].conj())
    pivot = w1[np.arange(q), np.abs(w1).argmax(axis=1)]
    phase = pivot.conj() / np.abs(pivot)
    # the angle, not z / |z|, which overflows for a subnormal z
    phase[:p] = np.where(hyp & (z != 0), np.exp(1j * np.angle(z)), phase[:p])
    w1 *= phase[:, None]
    # M - Q* B Q block by block, B scaled by the power of two that keeps
    # ||a|| from overflowing
    b, scale, fro, _ = _scaled(a)
    d1 = scale * sign * np.cosh(t)
    b12 = (w0.conj().T * (scale * sign * np.sinh(t))) @ w1[:p]
    r = b.copy()
    r[:p, :p] -= (w0.conj().T * d1) @ w0
    r[:p, p:] -= b12
    r[p:, :p] -= b12.conj().T
    r[p:, p:] -= (w1.conj().T * np.concatenate([np.where(hyp, d1, -scale * sign),
                                                 scale * unpaired])) @ w1
    err = float(_fro(r))
    if err > _RESIDUAL_FACTOR * tol * max(scale, fro):
        raise MembershipError(f"block reduction failed: residual {err / scale:.3e}")
    unitary = np.zeros((p + q, p + q), dtype=complex)
    unitary[:p, :p], unitary[p:, p:] = w0, w1
    return unitary, hyp, t, np.concatenate([sign, np.where(hyp, sign, -sign), unpaired]), err / scale


def _normalized(triples: list) -> CanonicalInvariant:
    """Canonical invariant of (kind, t, sign) triples: merge iota pairs, fix the global sign, sort.

    An opposite-sign iota pair becomes a (t = 0, +-1) hyperbolic pair. The
    pairing between positive and negative directions inside zero-coupling
    pieces is not rigid: conjugation can permute the two sides independently,
    which turns an iota(+1) and an iota(-1) into a t = 0 hyperbolic block and
    its negative. Decomposition always emits iota pieces of a single sign, so
    this only changes invariants built from hand-made block lists.

    The global sign keeps the smaller of the sorted triples and the sorted
    flipped triples, parameters within T_COMPARE_TOL counting as equal.
    """
    plus, minus = triples.count((IOTA, 0.0, 1)), triples.count((IOTA, 0.0, -1))
    if plus and minus:
        m = min(plus, minus)
        triples = ([x for x in triples if x[0] != IOTA]
                   + [(IOTA, 0.0, 1)] * (plus - m) + [(IOTA, 0.0, -1)] * (minus - m)
                   + [(HYPERBOLIC, 0.0, 1)] * m + [(HYPERBOLIC, 0.0, -1)] * m)
    # sort keys (kind, -sign, t), and those of the flipped triples
    key = sorted([(k, -s, t) for k, t, s in triples])
    flip = sorted([(k, s, t) for k, t, s in triples])
    if _flip_is_smaller(key, flip):
        key = flip
    return CanonicalInvariant(tuple([(k, t, -s) for k, s, t in key]))


def _flip_is_smaller(base_key, flip_key) -> bool:
    # lexicographic walk, but parameter ties within T_COMPARE_TOL must not
    # decide the sign: rounding noise in t would otherwise flip it
    # nondeterministically. Both keys sort the same triples kind first, so
    # their kinds agree at every position.
    for (_, s1, t1), (_, s2, t2) in zip(base_key, flip_key):
        if s1 != s2:
            return s2 < s1
        if not _t_close(t1, t2):
            return t2 < t1
    return False


def invariant_from_blocks(blocks) -> CanonicalInvariant:
    """Canonical invariant of (kind, t, sign) pieces, each checked as
    HyperbolicBlock checks it: merge opposite-sign iota pairs, fix the global
    sign (parameters within T_COMPARE_TOL count as equal), sort."""
    return _normalized([HyperbolicBlock(k, t, s) for k, t, s in blocks])


def _require_resolvable(s: list, h: list, t: list) -> None:
    """The resolvability rule on pieces with couplings s, h = hypot(1, s) and t = arcsinh(s).

    Rounding of size eps * max(s) moves t_j = arccosh(h_j) by eps * max(s) / h_j;
    a piece is refused where that is not within T_COMPARE_TOL * max(1, t_j / 20),
    a NaN included. Raises the MembershipError naming the worst piece's
    measured value, its limit and their ratio.
    """
    # h_j >= 1 and every limit is at least T_COMPARE_TOL, so no piece is
    # refused while eps * sum(s) is within it; a NaN or inf in s fails this test
    if _EPS * sum(s) <= T_COMPARE_TOL:
        return
    c = _EPS * max(s)
    measured = [c / x for x in h]
    limit = [T_COMPARE_TOL * max(1.0, x / 20.0) for x in t]
    if all([m <= x for m, x in zip(measured, limit)]):
        return
    ratio = [m / x for m, x in zip(measured, limit)]
    j = ratio.index(max(ratio))
    raise MembershipError(
        f"hyperbolic parameters not resolvable: eps * s_max / h is {measured[j]:.3e} "
        f"against the limit {limit[j]:.3e}, a ratio of {ratio[j]:.3g}")


def _invariants(matrices, metric: SignatureMetric, tol: float) -> list:
    """Canonical invariants of the given members at (p, p), in order, from one stacked pass.

    Raises the MembershipError of the first refused matrix, in order, so a
    pair is refused with the message its first refused member gets alone.
    Every matrix is coerced and measured before any is validated, so a
    non-finite entry anywhere raises its ValueError first; validation, one
    matrix at a time as require_member validates it, stops at the first refusal.
    One eigh of the M11 stack, one eigvalsh of the M22 stack and one SVD
    serve the matrices accepted before it. The range rule of _check_range and
    the rules of canonical_invariant run item by item on Python floats and
    raise at their first refusal; the validation refusal is raised after
    them. _normalized reads each invariant off plain triples.
    """
    if _checked_metric(metric).p != metric.q:
        raise ValueError("the canonical invariant is defined for signature (p, p)")
    p = metric.p
    measured = [_measured(m, metric) for m in matrices]
    refusal, norms = None, []
    for item in measured:
        refusal = _refusals(item, metric, tol)
        if refusal:
            break
        norms.append(item[4])
    if not norms:
        raise MembershipError(refusal)
    stack = np.array([item[0] for item in measured[:len(norms)]])
    lam11, x = np.linalg.eigh(stack[:, :p, :p])
    lam22 = np.linalg.eigvalsh(stack[:, p:, p:])
    neg = lam11 < 0
    y = x.conj().swapaxes(-1, -2) @ stack[:, :p, p:]
    # side 0 keeps the rows of Y = X* M12 on the negative eigenspace of M11,
    # side 1 those on the positive one: the singular values of a masked Y
    # are those of M12 restricted to that eigenspace, padded with zeros
    s = np.linalg.svd(y * np.array([neg, ~neg])[..., None], compute_uv=False)
    # indexed [side][item][position]
    s_all, t_all, h_all = s.tolist(), np.arcsinh(s).tolist(), np.hypot(1.0, s).tolist()
    # a float, so that a numpy scalar tol does not set the precision of the bounds
    bound = float(_RESIDUAL_FACTOR * tol)
    out = []
    for k, (lam, lam2, norm) in enumerate(zip(lam11.tolist(), lam22.tolist(), norms)):
        # eigh sorts ascending, so |lambda| descends over the n negative
        # eigenvalues and over the reversed positive ones, as s does: the
        # couplings of a side are its leading positions, the rest padding
        n = bisect_left(lam, 0.0)
        t0, t1 = t_all[0][k][:n], t_all[1][k][:p - n]
        t = t0 + t1
        _check_range(max(t))
        h = h_all[0][k][:n] + h_all[1][k][:p - n]
        _require_resolvable(s_all[0][k][:n] + s_all[1][k][:p - n], h, t)
        # |eig(M11)| side by side, then the p values of |eig(M22)|,
        # descending, against h = sqrt(1 + s^2)
        mag = list(map(abs, lam))
        err = max(map(abs, map(sub, mag[:n] + mag[n:][::-1] + sorted(map(abs, lam2), reverse=True),
                               h + sorted(h, reverse=True))))
        if err > bound * max(1.0, norm):
            raise MembershipError(f"block spectra inconsistent: residual {err:.3e}")
        # hyperbolic pieces put the same sign into M11 and M22, iota pieces
        # opposite signs, so (after iota-pair merging) the iota count is the
        # excess of positive eigenvalues of M11 over M22, and its sign is the
        # sign of that excess; the iota pieces take the smallest couplings of
        # their sign
        excess = bisect_right(lam2, 0.0) - n
        if excess > 0:
            t1 = t1[:len(t1) - excess]
        elif excess < 0:
            t0 = t0[:n + excess]
        out.append(_normalized([(HYPERBOLIC, x, -1) for x in t0] + [(HYPERBOLIC, x, 1) for x in t1]
                               + [(IOTA, 0.0, 1 if excess > 0 else -1)] * abs(excess)))
    if refusal:
        raise MembershipError(refusal)
    return out


def canonical_invariant(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> CanonicalInvariant:
    """Equivalence invariant of a Hermitian member of U(p, p), read off block spectra.

    With M = Q* B Q and Q = U + V, the diagonal block M11 = U* B11 U carries the
    piece signs and M12 = U* B12 V the couplings sinh t_j, so the pieces follow
    from small eigenvalue problems and SVDs instead of a full decomposition:

    - members have |eig| >= 1 in both diagonal blocks, so sign counts are
      exact; hyperbolic pieces put the same sign into M11 and M22, iota
      pieces opposite signs, hence (after iota-pair merging) the iota count
      is |#pos(M11) - #pos(M22)| and its sign is the sign of the difference;
    - the positive and negative eigenspaces of M11 are a gap of at least 2
      apart, and the singular values of M12 restricted to each are the s_j
      of the pieces of that sign: t_j = arcsinh(s_j). The iota pieces take
      the smallest ones of their sign. Pairing eigenvalue magnitudes with
      the singular values of all of M12 instead would be ambiguous near
      t = 0, where cosh flattens differences in t below rounding.

    Raises MembershipError when rounding of size eps * ||M12||_2 could move
    some t_j past the comparison tolerance of CanonicalInvariant.matches (the
    zero couplings of iota pieces included, which also keeps the sign counts
    far from their gap), or when the paired spectra violate
    |lambda|^2 - s^2 = 1 beyond the reassembly bound of block_decompose.
    Raises ValueError, as block_decompose does, for a parameter past
    arccosh(float max / 2).
    """
    return _invariants([M], metric, tol)[0]


def are_equivalent(M1, M2, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> bool:
    """True when the two members agree up to global sign and block-unitary conjugation.

    Both invariants come from one stacked pass: one validation per matrix,
    then one eigh, one eigvalsh and one SVD call for the pair.
    """
    inv1, inv2 = _invariants([M1, M2], metric, tol)
    return inv1.matches(inv2)
