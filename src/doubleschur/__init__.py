"""Exact equivariant Schubert calculus on Grassmannians.

Double Schur polynomials over Z[t1, t2, ...], the truncated ring carrying
the equivariant Schubert basis, Graham-positive structure constants with
certificates, and the wedge-power model with its cross-checked
multiplication action.
"""

from .poly import (
    ArityMismatch,
    DegreeOverflow,
    NotDivisible,
    NotShiftInvariant,
    Poly,
    poly_from_obj,
    poly_to_obj,
    to_difference_basis,
)
from .schur import (
    SchurExpansion,
    add_staircase,
    alternant,
    double_monomial,
    double_schur,
    expand_in_double_schur,
    expansion_to_poly,
    partition,
    pieri_multiply,
    remove_staircase,
    staircase,
    strict_sequence,
    x_sum,
)
from .grass import (
    GrassContext,
    PositivityReport,
    SizeGuardExceeded,
    StructureTable,
    check_graham_positivity,
    full_structure_table,
    schubert_product,
    schubert_product_by_expansion,
    sigma1_power_expansion,
    truncate,
)
from .wedge import (
    GLMatrix,
    PathDisagreement,
    WedgeVector,
    centralizer_action,
    coweight_to_lambda,
    from_wedge_coordinates,
    gl_action_on_wedge,
    lambda_to_coweight,
    multiplication_matrix,
    symmetric_multiplier,
    to_wedge_coordinates,
    x_matrix,
)
from .oracles import (
    enumerate_syt,
    lr_coefficient,
    syt_count,
    syt_count_hook,
)
from .verify import SUITES, run_suite

__version__ = "0.1.0"
