"""hypercert: exact-arithmetic certificates for hyperbolic polynomials.

Construct and verify, over Q and Q(i): sampled hyperbolicity and interlacer
tests with exact refutation witnesses, definite symmetric/hermitian
determinantal representations (pencil and companion form), sum-of-squares
decompositions extracted from involutive matrices, the Clifford-algebra
bridge from sums of squares back to representations, and the end-to-end
pipeline for quadratic hyperbolic polynomials.

The package exports the types and one call per CLI command; everything
else stays importable from its own module.  A definite pencil certifies
that h is hyperbolic with respect to e when
``verify_pencil(pencil, h, r, e, up_to_scalar=True).ok`` holds.
"""

from .clifford import sos_to_detrep
from .detrep import PolyMatrix, detrep_to_sos, verify_companion, verify_pencil
from .hyperbolicity import interlaces_sampled, is_hyperbolic_sampled
from .polyring import MultiPoly, ParseError, Ring, parse
from .quadratic import PipelineError, quadratic_detrep
from .scalars import ConstMatrix, GaussianRational

__version__ = "0.1.0"

__all__ = [
    "ConstMatrix",
    "GaussianRational",
    "MultiPoly",
    "ParseError",
    "PipelineError",
    "PolyMatrix",
    "Ring",
    "detrep_to_sos",
    "interlaces_sampled",
    "is_hyperbolic_sampled",
    "parse",
    "quadratic_detrep",
    "sos_to_detrep",
    "verify_companion",
    "verify_pencil",
]
