"""Exact rational polyhedral divisors and fansy divisors of torus varieties."""

from .divisors import (
    FansyDivisor,
    FormalDivisor,
    Label,
    PPDivisor,
    check_fansy_condition1,
    check_subdivision_structure,
    evaluate,
    fansy_equal,
)
from .lattice import (
    LatticeMap,
    RationalMap,
    check_retraction,
    integral_section,
    kernel_basis,
    quotient_projection,
    smith_normal_form,
)
from .polyhedra import (
    Cone,
    Fan,
    Polyhedron,
    Subdivision,
    common_refinement_fan,
    face_minimizing,
    induced_subdivision,
    intersect,
    linear_image,
    min_value,
)
from .chow import WeightSetup, boundary_face, build_setup, pp_from_weights, projectivize

__version__ = "0.1.0"
BACKEND = "python"  # the one double description kernel, `ppfan._ddpure.process`

__all__ = [
    "BACKEND",
    "Cone",
    "Fan",
    "FansyDivisor",
    "FormalDivisor",
    "Label",
    "LatticeMap",
    "PPDivisor",
    "Polyhedron",
    "RationalMap",
    "Subdivision",
    "WeightSetup",
    "boundary_face",
    "build_setup",
    "check_fansy_condition1",
    "check_retraction",
    "check_subdivision_structure",
    "common_refinement_fan",
    "evaluate",
    "face_minimizing",
    "fansy_equal",
    "induced_subdivision",
    "integral_section",
    "intersect",
    "kernel_basis",
    "linear_image",
    "min_value",
    "pp_from_weights",
    "projectivize",
    "quotient_projection",
    "smith_normal_form",
]
