"""Computational verification kit for the diagonal coefficients of Szego-type
and Toeplitz kernel expansions on strictly pseudoconvex CR model charts.

The kit computes the first two expansion coefficients of a Toeplitz kernel
two independent ways (a stationary-phase composition pipeline and the closed
diagonal formulas) and checks agreement to numerical tolerance, together with
the geometric identities feeding both routes.
"""

from ._version import __version__
from .errors import (
    BranchError,
    CenteringError,
    ChartError,
    CompatibilityError,
    ConfigError,
    CRKernelError,
    HessianError,
    NumericalError,
    OracleFitError,
    OrderShortfallError,
    SymbolError,
)
from .jets import Jet, max_coeff_difference
from .charts import (
    CRModelChart,
    christoffel_at,
    heisenberg_chart,
    kohn_laplacian_at0,
    perturbed_chart,
    random_perturbation,
    reeb_derivative_at0,
    tw_scalar_curvature,
)
from .symbols import (
    ClassicalSymbol,
    divergence,
    euler_check,
    hamiltonian_vector_field,
    homogeneity_extend,
    identity_symbol,
    make_multiplication_symbol,
    p_operator_canonical,
    p_operator_geometric,
    random_classical_symbol,
    subprincipal_symbol,
    transform_density,
    transform_symbol_under_diffeo,
)
from .stationary import (
    PhaseCriticalData,
    apply_L,
    build_phase_data,
    expansion_coeffs,
    numeric_expansion_oracle,
    oracle_sweep,
)
from .pipeline import (
    KernelAmplitude,
    compose_amplitudes_closed,
    compose_amplitudes_sp,
    qe_amplitude,
    szego_amplitude,
    toeplitz_b1_closed_form,
    toeplitz_b1_pipeline,
)
from .harness import (
    ExpansionReport,
    Scenario,
    default_config,
    emit_report,
    parse_config,
    run_scenarios,
)

__all__ = [name for name in dir() if not name.startswith("_")]
