"""Schatten p-norms and the induced super-operator norms built on them.

The package computes ``||Phi||_{q->p}`` and its Hermitian-restricted and
ancilla-stabilized variants for super-operators in generalized Kraus form,
provides a brute-force oracle for qubit-input instances, and ships
verification suites for the norm identities, inequalities, and
counterexample constructions the library is organized around.
"""

from .errors import (
    InvalidExponentError,
    InvalidInputError,
    PreconditionError,
    UnsupportedInstanceError,
)
from .linalg import (
    SpectralData,
    as_matrix,
    inner,
    is_hermitian,
    psd_sqrt,
    schmidt,
    svd,
)
from .schatten import (
    block_norm_bounds,
    dual_exponent,
    duality_witness,
    format_exponent,
    hoelder_gap,
    holder_weights,
    parse_exponent,
    pnorm,
    require_exponent,
    schatten_norm,
    singular_values,
)
from .superop import (
    SuperOp,
    adjoint_apply,
    apply,
    choi_matrix,
    difference,
    identity_superop,
    is_completely_positive,
    is_trace_preserving,
    left_cp_map,
    remix,
    right_cp_map,
    tensor_identity,
)
from .channels import (
    EXAMPLE_NAMES,
    build_example,
    random_cp_channel,
    random_superop,
    random_unitary,
)
from .optimize import (
    NormEstimate,
    NormQuery,
    OptimizerConfig,
    cp_norm,
    factorization_bound,
    norm_1_to_p,
    norm_q_to_p,
    stabilized_norm,
)
from .oracle import brute_force_oracle
from .explore import explore_open_question
from .serialize import (
    channel_from_json,
    channel_from_obj,
    channel_to_json,
    channel_to_obj,
    load_channel,
    load_matrix,
    matrix_from_json,
    matrix_from_obj,
    matrix_to_json,
    matrix_to_obj,
)
from .verify import VerificationReport, claim_ids, claim_tolerance, verify

__version__ = "0.1.0"
