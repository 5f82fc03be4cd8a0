"""Exact quadratic decomposition of 2-orthogonal polynomial sequences.

The package splits a monic polynomial sequence W through a monic
quadratic omega(x) = x^2 + p x + q anchored at a point a,

    W_{2n}(x)   = P_n(omega(x)) + (x - a) a_{n-1}(omega(x)),
    W_{2n+1}(x) = b_n(omega(x)) + (x - a) R_n(omega(x)),

entirely over the rationals, detects d-orthogonality and the classical
character of sequences from their structure coefficients, and verifies
the closed-form component tables of a two-parameter family of
2-orthogonal sequences and its low-order perturbations.
"""

from .analysis import (
    BandWitness,
    OrthoReport,
    RegularityFail,
    check_hahn_classical,
    detect_orthogonality_order,
)
from .decomposition import (
    NormalizedSecondary,
    QdComponents,
    QuadMap,
    anchor_split,
    decompose,
    decompose_oracle,
    mixed_relation_violations,
    normalize_secondary,
    third_order_violations,
)
from .errors import (
    DegenerateCaseError,
    DispatchError,
    InvalidSequenceError,
    MathDomainError,
    NotNormalizableError,
    ParseError,
    QuadmpsError,
    RangeError,
    RegularityError,
)
from .families import (
    CASE_IDS,
    CaseClaims,
    CaseParams,
    case_claims,
    expected_sc,
    family_corecursive,
    family_main,
    family_pert2_I,
    family_pert2_II,
    partner_term_cancellations,
    require_case,
)
from .polynomials import (
    Poly,
    basis_coordinates,
    format_poly,
    lincomb,
    poly_from_strings,
    poly_to_strings,
)
from .rationals import format_rational, parse_rational
from .sequences import (
    BandedRule,
    StructureCoefficients,
    derivative_sequence,
    extract_sc,
    generate_mps,
)
from .verification import (
    CaseVerdict,
    ComponentReport,
    EarlyViolation,
    Identity,
    SweepResult,
    TableMismatch,
    sample_params,
    verify_case,
    verify_sampled,
)

__version__ = "0.1.0"

__all__ = [
    "BandWitness",
    "BandedRule",
    "CASE_IDS",
    "CaseClaims",
    "CaseParams",
    "CaseVerdict",
    "ComponentReport",
    "DegenerateCaseError",
    "DispatchError",
    "EarlyViolation",
    "Identity",
    "InvalidSequenceError",
    "MathDomainError",
    "NormalizedSecondary",
    "NotNormalizableError",
    "OrthoReport",
    "ParseError",
    "Poly",
    "QdComponents",
    "QuadMap",
    "QuadmpsError",
    "RangeError",
    "RegularityError",
    "RegularityFail",
    "StructureCoefficients",
    "SweepResult",
    "TableMismatch",
    "anchor_split",
    "basis_coordinates",
    "case_claims",
    "check_hahn_classical",
    "decompose",
    "decompose_oracle",
    "derivative_sequence",
    "expected_sc",
    "extract_sc",
    "family_corecursive",
    "family_main",
    "family_pert2_I",
    "family_pert2_II",
    "format_poly",
    "format_rational",
    "generate_mps",
    "lincomb",
    "mixed_relation_violations",
    "normalize_secondary",
    "partner_term_cancellations",
    "parse_rational",
    "poly_from_strings",
    "poly_to_strings",
    "require_case",
    "sample_params",
    "third_order_violations",
    "verify_case",
    "verify_sampled",
]
