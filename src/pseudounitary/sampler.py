"""Seeded samplers: Haar unitaries, Hermitian members, and generic group elements.

All draws run through numpy's PCG64 generator, so a given seed reproduces the
same output bit for bit across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import HYPERBOLIC, IOTA, BlockDecomposition, HyperbolicBlock, _block_form
from .lie import LieElement, exp_us
from .metric import (SignatureMetric, _checked_int, _checked_metric, _checked_real, _checked_reals,
                     _phase_fixed_qr)

# One entry per block species: hyperbolic +, hyperbolic -, iota +, iota -.
_KINDS = ((HYPERBOLIC, 1), (HYPERBOLIC, -1), (IOTA, 1), (IOTA, -1))
DEFAULT_KIND_WEIGHTS = (0.4, 0.2, 0.2, 0.2)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_checked_int(seed, "seed")))


def _haar(rng: np.random.Generator, n: int, count: int = 1) -> np.ndarray:
    """A stack of count n x n Haar unitaries, drawn one after the other: QR of
    complex Gaussians with the R-diagonal phase correction."""
    g = rng.standard_normal((count, 2, n, n))
    return _phase_fixed_qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed n x n unitary; same seed gives the same matrix."""
    return _haar(_rng(seed), _checked_int(n, "n", 1))[0]


@dataclass(frozen=True)
class SampleSpec:
    """Recipe for drawing a Hermitian member of U(p, p) with known block data.

    block_kind_weights orders the species as (hyperbolic +, hyperbolic -,
    iota +, iota -). t_values, when given, fixes the hyperbolic parameters by
    slot instead of drawing them uniformly from [0, t_max].
    """

    metric: SignatureMetric
    seed: int
    t_max: float = 3.0
    block_kind_weights: tuple = DEFAULT_KIND_WEIGHTS
    t_values: tuple | None = None

    def __post_init__(self):
        if _checked_metric(self.metric).p != self.metric.q:
            raise ValueError("block sampling needs a (p, p) signature")
        w = _checked_reals(self.block_kind_weights, "block_kind_weights entry")
        if len(w) != 4 or not abs(sum(w) - 1.0) <= 1e-9:
            raise ValueError("block_kind_weights must be four nonnegative numbers summing to 1")
        object.__setattr__(self, "block_kind_weights", w)
        if not _checked_real(self.t_max, "t_max") > 0:
            raise ValueError(f"t_max must be finite and positive, got {self.t_max!r}")
        if self.t_values is not None:
            tv = _checked_reals(self.t_values, "t_values entry")
            if len(tv) != self.metric.p:
                raise ValueError(f"t_values must have one entry per slot ({self.metric.p})")
            object.__setattr__(self, "t_values", tv)


def sample_us_pp(spec: SampleSpec) -> tuple[np.ndarray, BlockDecomposition]:
    """Draw a Hermitian member of U(p, p) together with its ground-truth data.

    Draw order (fixed for reproducibility): block kinds, hyperbolic
    parameters, then the two Haar factors of the conjugating unitary.
    """
    p = spec.metric.p
    rng = _rng(spec.seed)
    kind_idx = rng.choice(len(_KINDS), size=p, p=spec.block_kind_weights)
    ts = np.asarray(spec.t_values) if spec.t_values is not None else rng.uniform(
        0.0, spec.t_max, size=p
    )
    blocks = []
    for j in range(p):
        kind, sign = _KINDS[kind_idx[j]]
        blocks.append(HyperbolicBlock(kind, float(ts[j]) if kind == HYPERBOLIC else 0.0, sign))
    q = np.zeros((2 * p, 2 * p), dtype=complex)
    q[:p, :p], q[p:, p:] = _haar(rng, p, 2)
    # the product assemble_blocks forms, without a second check of what was built here
    kind, t, sign = zip(*blocks)
    m = q.conj().T @ _block_form(np.array(kind) == HYPERBOLIC, np.array(t), np.array(sign)) @ q
    return m, BlockDecomposition(q=q, blocks=tuple(blocks))


def sample_us_lie(metric: SignatureMetric, seed: int, scale: float = 1.0) -> LieElement:
    """Hermitian tangent direction with independent complex Gaussian entries."""
    scale = _checked_real(scale, "scale")
    rng = _rng(seed)
    shape = (_checked_metric(metric).p, metric.q)
    b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (scale / np.sqrt(2.0))
    return LieElement(metric=metric, block=b)


def sample_upq(metric: SignatureMetric, seed: int) -> np.ndarray:
    """Generic member of U(p, q): a block-diagonal unitary times an exponential.

    Draw order: the two Haar factors, then the tangent draw. The tangent
    entries have scale 1/sqrt(n), which keeps the hyperbolic angles at desk scale.
    """
    rng = _rng(seed)
    p, q = _checked_metric(metric).p, metric.q
    scale = 1.0 / np.sqrt(metric.n)
    u = _haar(rng, p)[0]
    v = _haar(rng, q)[0]
    shape = (p, q)
    b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (scale / np.sqrt(2.0))
    factor = np.zeros((metric.n, metric.n), dtype=complex)
    factor[:p, :p] = u
    factor[p:, p:] = v
    return factor @ exp_us(LieElement(metric=metric, block=b))
