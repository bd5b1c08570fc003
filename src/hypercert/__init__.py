"""hypercert: exact-arithmetic certificates for hyperbolic polynomials.

Construct and verify, over Q and Q(i): sampled hyperbolicity and interlacer
tests with exact refutation witnesses, definite symmetric/hermitian
determinantal representations (pencil and companion form), sum-of-squares
decompositions extracted from involutive matrices, the Clifford-algebra
bridge from sums of squares back to representations, and the end-to-end
pipeline for quadratic hyperbolic polynomials.

The package exports the types and one call per CLI command, each read from
its home module on first access (PEP 562): ``import hypercert`` loads no
submodule, so a fresh process compiles only what it runs, as each CLI
command does (see ``cli``).  Everything else stays importable from its own
module.  A definite pencil certifies that h is hyperbolic with respect to e
when ``verify_pencil(pencil, h, r, e, up_to_scalar=True).ok`` holds.
"""

import importlib

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

_HOME = {name: module for module, names in (  # each export's home module
    ("clifford", "sos_to_detrep"),
    ("detrep", "PolyMatrix detrep_to_sos verify_companion verify_pencil"),
    ("hyperbolicity", "interlaces_sampled is_hyperbolic_sampled"),
    ("polyring", "MultiPoly ParseError Ring parse"),
    ("quadratic", "PipelineError quadratic_detrep"),
    ("scalars", "ConstMatrix GaussianRational"),
) for name in names.split()}


def __getattr__(name: str):
    if name in _HOME:  # not cached: each access reads the home module's current binding
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
