"""Exact computational algebra for quadratic pairs and their compositions.

The package computes Clifford algebras of quadratic forms and quadratic
pairs, 2-torsion Brauer invariants with the constant-Brauer metric,
minimal composition degrees, and explicit machine-verified composition
homomorphisms.  All arithmetic is exact: a rational is an int when it is
integral and a stdlib Fraction otherwise, and finite fields use
polynomial arithmetic mod p.
"""

from .errors import (
    CliffcompError,
    InputTooLargeError,
    CertificationError,
    SaturationError,
    NotCoveredError,
    UnsupportedInputError,
)

__all__ = [
    "CliffcompError",
    "InputTooLargeError",
    "CertificationError",
    "SaturationError",
    "NotCoveredError",
    "UnsupportedInputError",
]

__version__ = "0.1.0"
