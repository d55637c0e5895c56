"""2x2 block canonical form for Hermitian members at signature (p, p).

Every Hermitian member M of U(p, p) is conjugate, by a unitary of the form
U + V (one factor per signature block), to a direct sum of p canonical 2x2
pieces, each supported on one positive and one negative direction. A piece is
either a signed hyperbolic block

    sign * [[cosh t, sinh t], [sinh t, cosh t]],   t >= 0,

or a signed copy of diag(1, -1), called an iota block here. The multiset of
pieces, normalized for the global sign freedom, is a complete equivalence
invariant under M -> -M and M -> Q* M Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import (
    DEFAULT_TOL,
    MembershipError,
    SignatureMetric,
    _blocks,
    _phase_fixed_qr,
    _refusals,
    _unitary_residual,
    as_matrix,
    make_metric,
    require_member,
)
from .spectral import SPLIT_CUTOFF, _generators

HYPERBOLIC = "hyperbolic"
IOTA = "iota"

# Absolute tolerance for comparing hyperbolic parameters up to t = 20;
# beyond that the comparison is relative.
T_COMPARE_TOL = 1e-8
# Canonical 2x2 entries are +-cosh(t) (magnitude at least 1) or +-1, so this
# margin cleanly separates the piece families.
CLASSIFY_MARGIN = 0.5
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class HyperbolicBlock:
    """One canonical 2x2 piece: a signed hyperbolic block or a signed iota block."""

    kind: str
    t: float = 0.0
    sign: int = 1

    def __post_init__(self):
        if self.kind not in (HYPERBOLIC, IOTA):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise ValueError("block sign must be +1 or -1")
        if not math.isfinite(self.t):
            raise ValueError("block parameter must be finite")
        if self.kind == IOTA and self.t != 0.0:
            raise ValueError("iota blocks carry no hyperbolic parameter")
        if self.t < 0:
            raise ValueError("hyperbolic parameter must be nonnegative")

    def matrix(self) -> np.ndarray:
        if self.kind == IOTA:
            return self.sign * np.diag([1.0 + 0j, -1.0 + 0j])
        c, s = np.cosh(self.t), np.sinh(self.t)
        return self.sign * np.array([[c, s], [s, c]], dtype=complex)

    def flipped(self) -> "HyperbolicBlock":
        return HyperbolicBlock(self.kind, self.t, -self.sign)


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Canonical data for a Hermitian member of U(p, p): Q M Q* = sum of 2x2 pieces.

    q is block diagonal (one unitary per signature block); piece j occupies
    rows and columns (j, p + j).
    """

    metric: SignatureMetric
    q: np.ndarray
    blocks: tuple

    def matrix(self) -> np.ndarray:
        """Reassemble the member this decomposition describes."""
        return assemble_blocks(self.blocks, self.q, self.metric)


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


def _require_block_unitary(Q: np.ndarray, metric: SignatureMetric) -> None:
    res = _unitary_residual(Q)
    if not res <= DEFAULT_TOL:
        raise ValueError(f"conjugating matrix is not unitary: residual {res:.3e}")
    _, q12, q21, _ = _blocks(Q, metric.p)
    scale = max(1.0, float(np.linalg.norm(Q)))
    bound = DEFAULT_TOL * scale
    if np.linalg.norm(q12) > bound or np.linalg.norm(q21) > bound:
        raise ValueError("conjugating matrix must be block diagonal for the signature")


def assemble_blocks(blocks, unitary=None, metric: SignatureMetric | None = None) -> np.ndarray:
    """Place 2x2 pieces at rows/columns (j, p + j), then conjugate by the unitary.

    With unitary Q, returns Q* B Q where B is the block-form matrix, so the
    result decomposes back to the given pieces with the same Q.
    """
    blocks = tuple(blocks)
    p = len(blocks)
    if metric is None:
        if p == 0:
            raise ValueError("need at least one block or an explicit metric")
        metric = make_metric(p, p)
    if metric.p != metric.q:
        raise ValueError("block assembly needs a (p, p) signature")
    if metric.p != p:
        raise ValueError(f"expected {metric.p} blocks for this metric, got {p}")
    n = metric.n
    out = np.zeros((n, n), dtype=complex)
    j = np.arange(p)
    idx = np.stack([j, p + j], axis=1)
    out[idx[:, :, None], idx[:, None, :]] = np.array([b.matrix() for b in blocks])
    if unitary is not None:
        Q = as_matrix(unitary, (n, n), "unitary")
        _require_block_unitary(Q, metric)
        out = Q.conj().T @ out @ Q
    return out


def _classify(a: np.ndarray, d: np.ndarray, s: np.ndarray) -> list:
    """Match numerical 2x2 pieces against the canonical vocabulary.

    Piece j is [[a_j, *], [*, d_j]] with coupling magnitude s_j.
    """
    margin = CLASSIFY_MARGIN
    small = s < margin
    iota_plus = small & (np.abs(a - 1.0) < margin) & (np.abs(d + 1.0) < margin)
    iota_minus = small & (np.abs(a + 1.0) < margin) & (np.abs(d - 1.0) < margin)
    hyp = ((np.abs(a - d) < margin) & (np.minimum(np.abs(a), np.abs(d)) > 1.0 - margin)
           & (a * d > 0))
    bad = np.flatnonzero(~(iota_plus | iota_minus | hyp))
    if bad.size:
        j = bad[0]
        raise MembershipError(
            f"2x2 piece {j} does not match any canonical block: "
            f"diagonal ({a[j]:.6g}, {d[j]:.6g}), coupling {s[j]:.6g}"
        )
    t = np.log(np.maximum((np.abs(a) + np.abs(d)) / 2.0, 1.0) + s)
    return [HyperbolicBlock(HYPERBOLIC, float(tj), 1 if aj > 0 else -1) if h
            else HyperbolicBlock(IOTA, 0.0, 1 if ip else -1)
            for h, ip, aj, tj in zip(hyp, iota_plus, a, t)]


def _standard_basis_map(cols: dict[int, np.ndarray], dim: int) -> np.ndarray:
    """Unitary sending each prescribed column to its standard basis slot.

    Prescribed columns are polished to exact orthonormality (they arrive
    orthonormal up to rounding); free slots are filled with an orthonormal
    completion.
    """
    if dim == 0:
        return np.zeros((0, 0), dtype=complex)
    slots = sorted(cols)
    m = len(slots)
    basis = np.eye(dim, dtype=complex)
    if m:
        c = np.column_stack([cols[s] for s in slots])
        qf = _phase_fixed_qr(c, mode="complete")
        free = [j for j in range(dim) if j not in cols]
        basis = np.empty((dim, dim), dtype=complex)
        for i, s in enumerate(slots):
            basis[:, s] = qf[:, i]
        for i, s in enumerate(free):
            basis[:, s] = qf[:, m + i]
    return basis.conj().T


def block_decompose(M, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> BlockDecomposition:
    """Decompose a Hermitian member of U(p, p) into canonical 2x2 pieces.

    Generators occupy the leading slots (sorted by descending eigenvalue);
    remaining slots hold the leftover signed iota pieces. The result is
    verified by reassembly before it is returned.
    """
    if metric.p != metric.q:
        raise ValueError("block decomposition is defined for signature (p, p)")
    p = metric.p
    a = require_member(M, metric, tol)
    gens = _generators(a, metric)
    # the rank check in _generators caps k at n // 2 = p
    plus_cols: dict[int, np.ndarray] = {}
    minus_cols: dict[int, np.ndarray] = {}
    for j in range(gens.k):
        zp = gens.vectors[j, :p]
        zm = gens.vectors[j, p:]
        # one norm per vector: a batched norm(..., axis=1) sums in another
        # order and moves q and the parameters t in the last bits
        al = np.linalg.norm(zp)
        be = np.linalg.norm(zm)
        if al > SPLIT_CUTOFF:
            plus_cols[j] = zp / al
        if be > SPLIT_CUTOFF:
            minus_cols[j] = zm / be
    u = _standard_basis_map(plus_cols, p)
    v = _standard_basis_map(minus_cols, p)
    q = np.zeros((2 * p, 2 * p), dtype=complex)
    q[:p, :p] = u
    q[p:, p:] = v
    b = q @ a @ q.conj().T
    blocks = _classify(np.diagonal(b[:p, :p]).real, np.diagonal(b[p:, p:]).real,
                       np.abs(np.diagonal(b[:p, p:])))
    rebuilt = assemble_blocks(blocks, None, metric)
    err = float(np.linalg.norm(b - rebuilt))
    if err > 1000.0 * tol * max(1.0, float(np.linalg.norm(a))):
        raise MembershipError(f"block reduction failed: residual {err:.3e}")
    return BlockDecomposition(metric=metric, q=q, blocks=tuple(blocks))


def _merge_iota_pairs(blocks) -> list[HyperbolicBlock]:
    """Canonicalize opposite-sign iota pairs into a (t = 0, +-1) hyperbolic pair.

    The pairing between positive and negative directions inside zero-coupling
    pieces is not rigid: conjugation can permute the two sides independently,
    which turns an iota(+1) and an iota(-1) into a t = 0 hyperbolic block and
    its negative. Decomposition always emits iota pieces of a single sign, so
    this only changes invariants built from hand-made block lists.
    """
    plus = sum(1 for b in blocks if b.kind == IOTA and b.sign == 1)
    minus = sum(1 for b in blocks if b.kind == IOTA and b.sign == -1)
    m = min(plus, minus)
    if m == 0:
        return list(blocks)
    out = [b for b in blocks if b.kind != IOTA]
    out.extend([HyperbolicBlock(IOTA, 0.0, 1)] * (plus - m))
    out.extend([HyperbolicBlock(IOTA, 0.0, -1)] * (minus - m))
    out.extend([HyperbolicBlock(HYPERBOLIC, 0.0, 1)] * m)
    out.extend([HyperbolicBlock(HYPERBOLIC, 0.0, -1)] * m)
    return out


def _sort_key(b: HyperbolicBlock, flip: bool = False) -> tuple:
    """Sort key of b, or of b.flipped() when flip is set (without building that block)."""
    return (b.kind, b.sign if flip else -b.sign, b.t)


def _flip_is_smaller(base_key, flip_key) -> bool:
    # lexicographic walk, but parameter ties within T_COMPARE_TOL must not
    # decide the sign: rounding noise in t would otherwise flip it
    # nondeterministically
    for (k1, s1, t1), (k2, s2, t2) in zip(base_key, flip_key):
        if k1 != k2:
            return k2 < k1
        if s1 != s2:
            return s2 < s1
        if not _t_close(t1, t2):
            return t2 < t1
    return False


def invariant_from_blocks(blocks) -> CanonicalInvariant:
    """Canonical invariant of a block list: merge iota pairs, fix the global sign, sort.

    The global sign is chosen by comparing the sorted list against the sorted
    list of the flipped blocks and keeping the smaller one, where parameters
    closer than the comparison tolerance count as equal.
    """
    base = _merge_iota_pairs(blocks)
    base_key = sorted(_sort_key(b) for b in base)
    flip_key = sorted(_sort_key(b, flip=True) for b in base)
    chosen = flip_key if _flip_is_smaller(base_key, flip_key) else base_key
    triples = tuple((kind, t, -negsign) for (kind, negsign, t) in chosen)
    return CanonicalInvariant(triples=triples)


def _resolvability(h: np.ndarray, t: np.ndarray, s_max) -> tuple:
    """The resolvability rule per piece: how far rounding of size eps * s_max moves
    t_j = arccosh(h_j), against T_COMPARE_TOL * max(1, t_j / 20); refused where above."""
    return _EPS * s_max / h, T_COMPARE_TOL * np.maximum(1.0, t / 20.0)


def _unresolvable_error(measured: np.ndarray, limit: np.ndarray) -> MembershipError:
    """The refusal naming the worst piece's measured value, its limit and their ratio."""
    j = np.argmax(measured / limit)
    return MembershipError(
        f"hyperbolic parameters not resolvable: eps * s_max / h is {measured[j]:.3e} "
        f"against the limit {limit[j]:.3e}, a ratio of {measured[j] / limit[j]:.3g}")


def _invariants(stack: np.ndarray, metric: SignatureMetric, tol: float) -> list:
    """Canonical invariants of the items of a (B, 2p, 2p) stack of coerced matrices.

    Returns, in item order, a CanonicalInvariant or the MembershipError that
    refuses the item, up to the first item validation refuses; the items
    after it are not computed and hold None, since every caller stops at the
    first refusal. One validation of the whole stack, one eigh of the M11
    stack, one eigvalsh of the M22 stack and one SVD serve the items; the
    rules of canonical_invariant are array expressions over them, and Python
    only assembles the triples.
    """
    p = metric.p
    refusals, norms = _refusals(stack, metric, tol)
    out = [None] * len(refusals)
    # the number of items before the first refused one
    b = next((i for i, r in enumerate(refusals) if r), len(refusals))
    if b < len(out):
        out[b] = MembershipError(refusals[b])
        stack, norms = stack[:b], norms[:b]
    if not b:
        return out
    lam11, x = np.linalg.eigh(stack[:, :p, :p])
    lam22 = np.linalg.eigvalsh(stack[:, p:, p:])
    neg = lam11 < 0
    pos = ~neg
    y = x.conj().swapaxes(-1, -2) @ stack[:, :p, p:]
    # side 0 keeps the rows of Y = X* M12 on the negative eigenspace of M11,
    # side 1 those on the positive one: the singular values of a masked Y
    # are those of M12 restricted to that eigenspace, padded with zeros
    s = np.linalg.svd(y * np.array([neg, pos])[..., None], compute_uv=False)
    # eigh sorts ascending, so |lambda| descends over the negative
    # eigenvalues and over the reversed positive ones, as s does; a position
    # holding an eigenvalue of its side holds a coupling, the rest padding
    real = np.array([neg, pos[:, ::-1]])
    t = np.arcsinh(s)
    h = np.hypot(1.0, s)
    s_max = np.where(real, s, 0.0).max(axis=(0, 2))
    measured, limit = _resolvability(h, t, s_max[:, None])
    unresolvable = (real & (measured > limit)).any(axis=(0, 2)).tolist()
    gap = np.where(real, np.abs(np.array([-lam11, lam11[:, ::-1]]) - h), 0.0).max(axis=(0, 2))
    # each item's p values of sqrt(1 + s^2), descending, against |eig(M22)|
    h_all = np.sort(np.where(real, h, 0.0).swapaxes(0, 1).reshape(b, 2 * p))[:, :-p - 1:-1]
    err = np.maximum(gap, np.abs(np.sort(np.abs(lam22))[:, ::-1] - h_all).max(axis=1))
    inconsistent = (err > 1000.0 * tol * np.maximum(1.0, norms)).tolist()
    n_neg = neg.sum(axis=1).tolist()
    excess = (pos.sum(axis=1) - (lam22 > 0).sum(axis=1)).tolist()
    t = t.tolist()
    for k in range(b):
        ts = (t[0][k][:n_neg[k]], t[1][k][:p - n_neg[k]])
        if unresolvable[k]:
            out[k] = _unresolvable_error(measured[:, k][real[:, k]], limit[:, k][real[:, k]])
        elif inconsistent[k]:
            out[k] = MembershipError(f"block spectra inconsistent: residual {err[k]:.3e}")
        else:
            out[k] = invariant_from_blocks(_pieces(ts, excess[k]))
    return out


def _pieces(t_sides: tuple, excess: int) -> list:
    """Blocks of one member from its parameters on the negative and the positive side.

    Hyperbolic pieces put the same sign into M11 and M22, iota pieces
    opposite signs, so (after iota-pair merging) the iota count is the
    excess of positive eigenvalues of M11 over M22, and its sign is the sign
    of that excess. The iota pieces take the smallest couplings of their sign.
    """
    n_iota = abs(excess)
    iota_sign = 1 if excess > 0 else -1
    blocks = []
    for sign, ts in zip((-1, 1), t_sides):
        if sign == iota_sign:
            ts = ts[:len(ts) - n_iota]
        blocks.extend(HyperbolicBlock(HYPERBOLIC, tj, sign) for tj in ts)
    blocks.extend([HyperbolicBlock(IOTA, 0.0, iota_sign)] * n_iota)
    return blocks


def _checked_invariants(matrices, metric: SignatureMetric, tol: float) -> list:
    """Invariants of the given members from one stacked pass.

    Raises the MembershipError of the first refused matrix, in order, so a
    pair is refused with the message its first refused member gets alone.
    """
    if metric.p != metric.q:
        raise ValueError("the canonical invariant is defined for signature (p, p)")
    shape = (metric.n, metric.n)
    out = _invariants(np.array([as_matrix(m, shape) for m in matrices]), metric, tol)
    for inv in out:
        if isinstance(inv, MembershipError):
            raise inv
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
    """
    return _checked_invariants([M], metric, tol)[0]


def are_equivalent(M1, M2, metric: SignatureMetric, tol: float = DEFAULT_TOL) -> bool:
    """True when the two members agree up to global sign and block-unitary conjugation.

    Both invariants come from one stacked pass: one validation, one eigh, one
    eigvalsh and one SVD call for the pair.
    """
    inv1, inv2 = _checked_invariants([M1, M2], metric, tol)
    return inv1.matches(inv2)
