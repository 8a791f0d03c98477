"""Exact computer algebra for polynomial vector-field Lie algebras over
hyperelliptic curve families of genus 1, 2 and 3.

The package constructs, entirely in exact rational arithmetic:

* the curve polynomial, its discriminant resultant and the tangent vector
  fields on the parameter space,
* the defining relations of the generator variety and the polynomial map
  from generator space to parameter space,
* the lifted vector fields on generator space, their auxiliary polynomials
  and full commutator tables,

and mechanically verifies every identity among them.
"""

from .exactpoly import (
    GradedVar,
    Poly,
    PolyMap,
    PolyMatrix,
    Ring,
    RingMismatchError,
    cast,
    det_minor_expansion,
)
from .derivation import BracketRelation, Derivation, ladder_complete

__version__ = "0.1.0"

__all__ = [
    "BracketRelation",
    "Derivation",
    "GradedVar",
    "Poly",
    "PolyMap",
    "PolyMatrix",
    "Ring",
    "RingMismatchError",
    "cast",
    "det_minor_expansion",
    "ladder_complete",
    "__version__",
]
