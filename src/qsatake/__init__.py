"""Exact computational engine for the signed character calculus, quantum sl2
at a primitive fourth root of unity, and the zigzag-algebra comparison."""

__version__ = "0.1.0"

from .characters import (
    CellDescriptor,
    SignedCharacter,
    WeightCharacter,
    conv,
    intersection_cells,
    jh_decompose,
    psi_double,
    sign_twist,
    simple_char,
    standard_char,
    standard_char_from_cells,
)
from .linalg import QMatrix, kernel, rank
from .qsl2 import QMod, canonical_map, char, dual_weyl, frobenius_simple, simple, tensor, weyl
from .scalars import GaussianRational, gauss_binomial, qint

__all__ = [
    "CellDescriptor",
    "GaussianRational",
    "QMatrix",
    "QMod",
    "SignedCharacter",
    "WeightCharacter",
    "canonical_map",
    "char",
    "conv",
    "dual_weyl",
    "frobenius_simple",
    "gauss_binomial",
    "intersection_cells",
    "jh_decompose",
    "kernel",
    "psi_double",
    "qint",
    "rank",
    "sign_twist",
    "simple",
    "simple_char",
    "standard_char",
    "standard_char_from_cells",
    "tensor",
    "weyl",
]
