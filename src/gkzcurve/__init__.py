"""Hypergeometric systems of affine monomial curves.

Construction of GKZ-type systems for one-row integer matrices, Gamma-series
solution bases with exact rational coefficients, Gevrey-index and slope
data along the singular locus, solution-space dimension tables, and
restriction / homogenization isomorphisms — all at desk scale, backed by
frontier-truncated exact series.
"""

from .errors import InvalidInputError, ResourceLimitError
from .gamma import (
    gamma_coefficient,
    gamma_series,
    generic_exponents,
    has_minimal_nsupp,
    lift,
    modified_exponent,
    modified_series,
    nsupp,
    restrict_series_x0,
    singular_exponents,
)
from .gevrey import (
    DimensionTable,
    SlopeReport,
    dimension_table,
    gevrey_index_estimate,
    polynomial_solution,
    slope_report,
    slope_threshold,
)
from .lattice import (
    CurveMatrix,
    curve_matrix,
    delta_j_set,
    enumerate_offsets,
    homogenize_matrix,
    in_semigroup,
    minimal_delta,
    semigroup_contains,
)
from .rationals import format_rational, parse_rational
from .restriction import (
    BFunction,
    Homogenization,
    RestrictionDecomposition,
    b_function_1kakb,
    ext1_generator,
    ext1_recurrence_solve,
    gevrey_envelope_fit,
    homogenize,
    recurrence_series,
    restrict_decomposition,
)
from .series import (
    AnnihilationReport,
    TruncatedSeries,
    TruncationFrontier,
    WeylOperator,
    apply_operator,
    series_equal,
    verify_annihilation,
)
from .system import HypergeometricSystem, build_system

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
