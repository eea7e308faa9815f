"""Exact Fourier-Jacobi coefficient machinery for Hermitian modular forms
over the five norm-Euclidean imaginary quadratic fields.

Everything is computed in exact rational arithmetic; all values are
immutable and every operation is pure, so the whole library is safe for
concurrent use.
"""

from .bounds import (
    BoundReport,
    dimension_exponents,
    jacobi_index_threshold,
    slope_lower_bound,
    trace_formula_constant,
    truncation_budget,
    vanishing_threshold,
)
from .errors import ConsistencyError, ParseError
from .ffj import (
    FJFamily,
    assemble,
    check_family,
    disassemble,
    extract_psi0,
    formal_theta_coeffs,
    partial_decomposition_check,
    rearrange_cogenus,
)
from .field import (
    NORM_EUCLIDEAN_D,
    EuclideanConstant,
    FieldElement,
    FieldTag,
    euclidean_constant,
    euclidean_round,
    make_field,
    unit_group,
)
from .hermitian import (
    CosetClass,
    HermMatrix,
    UnitMatrix,
    delta_classes,
    enumerate_semi_integral,
    gl_action,
    min_represented,
    reduce_class,
    small_rep,
)
from .jacobi import (
    JacobiTable,
    ThetaComponentVector,
    series_times_theta,
    theta_coeffs,
    theta_decompose,
    theta_recompose,
)
from .series import FourierSeries, check_symmetry, gl_generators
from .unitary import (
    HeisenbergElement,
    UnitaryElement,
    diag_embed,
    heisenberg_mul,
    is_unitary,
    jacobi_embed,
    rot,
)

__version__ = "0.1.0"
