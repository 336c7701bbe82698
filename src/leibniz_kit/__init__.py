"""Exact-arithmetic toolkit for Leibniz algebras.

Structure constants over the rationals; skew-symmetrization into a two-term
graded algebra; representations and their cohomology; omni algebras, naive
representations and degree-by-degree cohomology comparisons.  Everything is
computed exactly with arbitrary-precision rationals.
"""

from .algebra import (
    IdentityReport,
    LeibnizAlgebra,
    Refused,
    Witness,
    check_leibniz,
    derived_subalgebra,
    is_lie,
    left_center,
    quotient_by_left_center,
    square_in_center_check,
)
from .cohomology import (
    DEFAULT_CAP,
    BettiReport,
    Representation,
    ResourceCapExceeded,
    adjoint_rep,
    betti,
    check_representation,
    coboundary,
    coboundary_columns,
    coboundary_matrix,
    cocycle_check,
    conjugation_rep,
    dual_rep,
    maurer_cartan_check,
    rbar,
    right_action_cochain,
    semidirect,
    trivial_rep,
)
from .lie2 import (
    Lie2Algebra,
    build_lie2,
    check_jacobiator_identities,
    skew_bracket,
    verify_lie2,
)
from .linalg import (
    Matrix,
    Subspace,
    integer_rank,
    kernel_basis,
    rank,
    rref,
    solve,
)
from .omni import (
    ComparisonReport,
    GraphMap,
    NaiveRepresentation,
    adjoint_naive,
    compare_adjoint,
    compare_trivial,
    graph_check,
    graph_rep_cohomology,
    image_representation,
    induced_leibniz,
    matching_naive_image,
    naive_betti,
    naive_check,
    naive_coboundary,
    naive_from_rep,
    omni_lie,
    tautological_rep,
    to_naive_cochain,
    trivial_naive_rep,
    trivial_naive_space,
)

__version__ = "0.1.0"
