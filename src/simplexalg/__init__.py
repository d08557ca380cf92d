"""simplexalg: exact symmetry algebra of Jacobi polynomials on the simplex.

Everything is computed over arbitrary-precision rationals: the polynomial
family P_nu(x; gamma), the second-order differential generators L_{i,j} and
their Jucys-Murphy sums, the Racah-type difference operators that represent
them on the degree indices, and a verification layer that checks every
identity of the construction as an exact matrix or operator equality.
"""

from .diffops import (
    DiffOp,
    anticommutator,
    commutator,
    f_combination,
    l_operator,
    l_total,
    m_operator,
)
from .errors import (
    DegenerateParameter,
    DimensionMismatch,
    ExactAlgebraError,
    InvalidParameter,
    InvariantViolation,
    SingularSystem,
)
from .jacobi import a_param, jacobi_simplex, graded_indices, level_indices
from .linalg import ExactMatrix, SpanBasis
from .moments import inner_product, simplex_moment
from .params import ParamVector, check_gamma, require_valid
from .poly import MultiPoly
from .racah import (
    RacahOp,
    RacahParamVector,
    b12_operator,
    b123_operator,
    b134_operator,
    b23_operator,
    certificate_2d,
    parameter_maps,
    predicted_m_action,
)
from .scalar import Rat, as_rat, pochhammer, rat_str
from .verify import (
    CheckResult,
    ModuleContext,
    VerificationReport,
    eigenvalue,
    generator_rank,
    irreducibility_check,
    reachable_counts,
    run_suites,
    submodule_diagnostic,
    verify_difference_action,
    verify_f_relation,
    verify_kd,
    verify_matrix_commutation,
    verify_relations,
    verify_selfadjoint_orthogonal,
    verify_separation,
    verify_spectral,
)

__version__ = "0.1.0"
