"""Exact construction and cone-Lorentzian certification of the interval
polynomials of graded sub-posets, with matroid characteristic polynomials
and an independent volume-polynomial cross-check."""

from .cone import (
    IntervalCoords,
    IntervalVector,
    alpha_vector,
    beta_vector,
    canonical_interior_point,
    is_modular,
    is_strictly_submodular,
)
from .chow import ChowRing
from .intervalpoly import (
    IntervalPolynomials,
    alpha_beta_restriction,
    interval_polynomial,
    reduced_charpoly_via_interval_poly,
)
from .lorentz import (
    InertiaTriple,
    LorentzianCertificate,
    certify_cone_lorentzian,
    inertia,
    sample_direction_tuples,
)
from .matroid import (
    FlatLattice,
    GroundSet,
    Matroid,
    characteristic_polynomial,
    fano,
    flats_lattice,
    graphic_matroid,
    reduced_characteristic_polynomial,
    uniform_matroid,
)
from .multipoly import (
    MultiPoly,
    dir_derivative,
    hessian_of_quadratic,
    restrict_to_directions,
    substitute_affine,
)
from .poset import (
    GradedSubposet,
    MobiusTable,
    is_balanced,
    is_interval_connected,
    is_one_balanced,
    is_semimodular_lattice,
    mobius,
)
from .unipoly import UniPoly, is_log_concave

__all__ = [name for name in dir() if not name.startswith("_")]
