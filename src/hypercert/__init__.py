"""hypercert: exact-arithmetic certificates for hyperbolic polynomials.

Construct and verify, over Q and Q(i): sampled hyperbolicity and interlacer
tests with exact refutation witnesses, definite symmetric/hermitian
determinantal representations (pencil and companion form), sum-of-squares
decompositions extracted from involutive matrices, the Clifford-algebra
bridge from sums of squares back to representations, and the end-to-end
pipeline for quadratic hyperbolic polynomials.
"""

from .clifford import CliffordGenerators, build_Q, clifford_generators, sos_to_detrep
from .detrep import (
    CheckFailure,
    DetRepReport,
    PolyMatrix,
    SosDecomposition,
    detrep_to_sos,
    plucker_line,
    poly_det,
    polymatrix_from_json,
    polymatrix_to_pencil,
    pencil_to_polymatrix,
    verify_companion,
    verify_pencil,
)
from .hyperbolicity import (
    CertificationError,
    PencilCertificate,
    SampledVerdict,
    Witness,
    certify_from_pencil,
    interlaces_sampled,
    is_hyperbolic_sampled,
)
from .polyring import (
    MultiPoly,
    ParseError,
    Ring,
    UniPoly,
    directional_derivative,
    parse,
    real_square_factorization,
    restrict_to_line,
)
from .quadratic import (
    IndefiniteFormError,
    PipelineError,
    QuadraticDetRep,
    QuadraticNormalForm,
    diagonalize_quadratic_form,
    normalize_at_direction,
    quadratic_detrep,
    rational_sos_quadratic,
)
from .realroots import (
    DegreeMismatchError,
    NotRealRootedError,
    count_distinct_roots,
    interlaces_univariate,
    is_real_rooted,
)
from .scalars import (
    ConstMatrix,
    GaussianRational,
    four_square_decompose,
    is_positive_definite,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "CheckFailure",
    "CliffordGenerators",
    "ConstMatrix",
    "DegreeMismatchError",
    "DetRepReport",
    "GaussianRational",
    "IndefiniteFormError",
    "MultiPoly",
    "NotRealRootedError",
    "ParseError",
    "PencilCertificate",
    "PipelineError",
    "PolyMatrix",
    "QuadraticDetRep",
    "QuadraticNormalForm",
    "Ring",
    "SampledVerdict",
    "SosDecomposition",
    "UniPoly",
    "Witness",
    "build_Q",
    "certify_from_pencil",
    "clifford_generators",
    "count_distinct_roots",
    "detrep_to_sos",
    "diagonalize_quadratic_form",
    "directional_derivative",
    "four_square_decompose",
    "interlaces_sampled",
    "interlaces_univariate",
    "is_hyperbolic_sampled",
    "is_positive_definite",
    "is_real_rooted",
    "normalize_at_direction",
    "parse",
    "pencil_to_polymatrix",
    "plucker_line",
    "poly_det",
    "polymatrix_from_json",
    "polymatrix_to_pencil",
    "quadratic_detrep",
    "rational_sos_quadratic",
    "real_square_factorization",
    "restrict_to_line",
    "sos_to_detrep",
    "verify_companion",
    "verify_pencil",
]
