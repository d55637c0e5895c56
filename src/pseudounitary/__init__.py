"""Numerical toolkit for the pseudo-unitary group U(p, q) and its Hermitian members."""

from .metric import (
    DEFAULT_TOL,
    MembershipError,
    SignatureMetric,
    block_identities_residual,
    check_compact_intersection,
    fast_inverse,
    hermitian_residual,
    indefinite_form,
    is_hermitian,
    is_pseudo_unitary,
    make_metric,
    membership_residual,
    quadratic_form,
    require_member,
    split_blocks,
    unitary_residual,
)
from .spectral import (
    CLUSTER_RTOL,
    RANK_THRESHOLD,
    SPECTRAL_GAP_TOL,
    ZERO_EIGENVALUE_TOL,
    GeneratorSet,
    construct_from_generators,
    extract_generators,
    validate_generators,
)
from .canonical import (
    HYPERBOLIC,
    IOTA,
    T_COMPARE_TOL,
    BlockDecomposition,
    CanonicalInvariant,
    HyperbolicBlock,
    are_equivalent,
    assemble_blocks,
    block_decompose,
    canonical_invariant,
    invariant_from_blocks,
)
from .lie import (
    LieElement,
    exp_us,
    is_in_exp_image,
    log_us,
    validate_lie_algebra,
)
from .sampler import (
    SampleSpec,
    haar_unitary,
    sample_upq,
    sample_us_lie,
    sample_us_pp,
)
from .matrixfile import (
    FORMAT_VERSION,
    KIND_BLOCK,
    KIND_SQUARE,
    MatrixDocument,
    dumps_matrix,
    loads_matrix,
)

__version__ = "0.1.0"
