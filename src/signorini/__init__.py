"""Numerical laboratory for the degenerate thin obstacle (Signorini) problem

    div(|y|^a A(x) grad U) = |y|^a f  in the upper half box,
    min{U - psi, -d_y^a U} = 0        on the thin set {y = 0},

with 0 <= a < 1 and a Lipschitz block coefficient A(x) = B(x) (+) 1.
Solves the discrete complementarity problem and computes the radial
frequency/energy diagnostics used in free-boundary analysis.
"""

__version__ = "0.1.0"

from .grid import Grid, SphereRule, ball_cells, ball_sums, build_grid, sphere_quadrature
from .coefficients import (
    CoefficientField,
    ProblemSpec,
    build_coefficients,
    ellipticity_report,
    make_problem,
    normalize_at,
)
from .operator import (
    SymmetricForm,
    apply_operator,
    assemble_energy,
    neumann_trace,
    residual_l2,
)
from .solver import (
    SolutionField,
    complementarity_report,
    penalty,
    penalty_derivative,
    solve_penalized,
    solve_psor,
)
from .functionals import (
    FieldSampler,
    GeometryFields,
    RadialProfile,
    ball_integrals,
    campanato_decay,
    conjugate_variable,
    default_r_grid,
    frequency_columns,
    identity_checks,
    integrate_psi_sigma,
    oscillation_decay,
    radial_profile,
    sphere_heights,
    surface_cross_check,
    total_energy_surface,
    weiss,
)
from .freeboundary import (
    FreeBoundaryReport,
    blowup,
    classify,
    classify_from_frequency,
    contact_set,
    decay_fit,
    free_boundary_report,
    graph_fit,
    reduce_obstacle,
)
from .oracle import (
    AngularProfile,
    ReferenceSolution,
    exact_solution,
    homogeneous_functionals,
    profile_ode,
)

__all__ = [name for name in dir() if not name.startswith("_")]
