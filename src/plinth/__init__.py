"""Exact symbolic workbench for image ideals of locally nilpotent
derivations on polynomial rings over Q and Q[t_1..t_k], with a
degree-bounded linear-algebra oracle that independently verifies every
generator formula."""

from .polyring import (
    ExactDivisionError,
    MultiPoly,
    PlinthError,
    PolyParseError,
    PolyRing,
    RingMismatchError,
)
from .derivation import Derivation, StructureReport
from .imageideals import (
    ImageIdealResult,
    image_ideal,
    min_exponent,
    nice3var_reduce,
    strictness_decompose,
)
from .oracle import verify_image_ideal

__version__ = "1.0.0"

__all__ = [
    "Derivation",
    "ExactDivisionError",
    "ImageIdealResult",
    "MultiPoly",
    "PlinthError",
    "PolyParseError",
    "PolyRing",
    "RingMismatchError",
    "StructureReport",
    "image_ideal",
    "min_exponent",
    "nice3var_reduce",
    "strictness_decompose",
    "verify_image_ideal",
]
