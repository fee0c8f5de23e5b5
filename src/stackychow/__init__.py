"""Exact Chow ring presentations for toric Deligne-Mumford stacks.

The package computes, from a stacky fan and an equivariant vector bundle on
it, the box of the fan, the integral Chow ring of the associated stack, and
generators-and-relations presentations of the inertial Chow rings attached to
the orbifold, virtual, bundle-twisted and asymptotic products.
"""

from stackychow.lattice import (
    AbGroup,
    IntMatrix,
    SnfDecomposition,
    smith_normal_form,
)
from stackychow.gradedpoly import (
    Elimination,
    GradedPieceReport,
    Poly,
    RingPresentation,
    eliminate,
    format_poly,
    hilbert_table,
)
from stackychow.stackyfan import (
    BoxElement,
    GroupElement,
    StackyFan,
    weighted_projective_fan,
)
from stackychow.charring import (
    CharacterData,
    character_data,
    linear_ideal,
    nonface_monomials,
    sr_ring,
)
from stackychow.inertial import (
    Bundle,
    MINUS_INFINITY,
    ORBIFOLD,
    PLUS_INFINITY,
    ProductKind,
    StarCalculator,
    VIRTUAL,
    associativity_witnesses,
    br_ideal,
    inertial_presentation,
    sector_labels,
    star_exponents,
    star_product,
)

__all__ = [
    "AbGroup",
    "IntMatrix",
    "SnfDecomposition",
    "smith_normal_form",
    "Elimination",
    "GradedPieceReport",
    "Poly",
    "RingPresentation",
    "eliminate",
    "format_poly",
    "hilbert_table",
    "BoxElement",
    "GroupElement",
    "StackyFan",
    "weighted_projective_fan",
    "CharacterData",
    "character_data",
    "linear_ideal",
    "nonface_monomials",
    "sr_ring",
    "Bundle",
    "MINUS_INFINITY",
    "ORBIFOLD",
    "PLUS_INFINITY",
    "ProductKind",
    "StarCalculator",
    "VIRTUAL",
    "associativity_witnesses",
    "br_ideal",
    "inertial_presentation",
    "sector_labels",
    "star_exponents",
    "star_product",
]

__version__ = "0.1.0"
