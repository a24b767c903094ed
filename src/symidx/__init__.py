"""Index of symmetry computations for compact homogeneous Riemannian spaces.

The index of symmetry of a homogeneous space measures how many tangent
directions at a point are values of Killing fields that are parallel
there; the space is symmetric exactly when every direction qualifies.
This package computes the index, its codimension, and the associated
algebraic data (the transvection-like pair generated by the parallel
fields, the ideal split of the Killing algebra, curvature operators and
field equations along homogeneous geodesics) from structure constants,
and cross-checks everything against finite difference oracles in an
exponential coordinate chart.
"""

from .catalog import (
    cp2_centriole,
    from_name,
    orbit_space,
    product_of_spheres,
    round_sphere,
    so4_so2,
    spin3_berger,
    spin3_metric,
    spin3_one_parameter,
)
from .homspace import (
    BoundReport,
    HomogeneousSpace,
    JacobiSpectrum,
    TransvectionReport,
    augment_left_invariant,
    closed_geodesic_length,
    jacobi_field,
    jacobi_operator,
    perpendicular_killing_space,
    symmetry_ideal,
    transvection_space,
)
from .liealg import (
    DEFAULT_TOL,
    BilinearForm,
    LieAlgebra,
    Subspace,
    bi_invariant_directions,
    bracket,
    brackets,
    derived_subalgebra,
    direct_sum,
    killing_form_positive,
    largest_invariant_subspace,
    matrix_algebra,
    preset,
    reference_form,
    so_elementary,
    spin3_quaternion,
)
from .numcheck import ExponentialChart, integrate_field_equation
from .serialize import (
    SpaceFormatError,
    load_space,
    space_from_dict,
    space_to_dict,
)
from .verify import VerificationOutcome, run_checks

__version__ = "0.1.0"

__all__ = [
    "BilinearForm",
    "BoundReport",
    "DEFAULT_TOL",
    "ExponentialChart",
    "HomogeneousSpace",
    "JacobiSpectrum",
    "LieAlgebra",
    "SpaceFormatError",
    "Subspace",
    "TransvectionReport",
    "VerificationOutcome",
    "augment_left_invariant",
    "bi_invariant_directions",
    "bracket",
    "brackets",
    "closed_geodesic_length",
    "cp2_centriole",
    "derived_subalgebra",
    "direct_sum",
    "from_name",
    "integrate_field_equation",
    "jacobi_field",
    "jacobi_operator",
    "killing_form_positive",
    "largest_invariant_subspace",
    "load_space",
    "matrix_algebra",
    "orbit_space",
    "perpendicular_killing_space",
    "preset",
    "product_of_spheres",
    "reference_form",
    "round_sphere",
    "run_checks",
    "so4_so2",
    "so_elementary",
    "space_from_dict",
    "space_to_dict",
    "spin3_berger",
    "spin3_metric",
    "spin3_one_parameter",
    "spin3_quaternion",
    "symmetry_ideal",
    "transvection_space",
]
