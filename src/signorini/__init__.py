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
    make_problem,
    normalize_at,
)
from .operator import SymmetricForm, assemble_energy, neumann_trace
from .solver import (
    SolutionField,
    complementarity_report,
    solve_active_set,
)
from .functionals import (
    FieldSampler,
    RadialProfile,
    ball_integrals,
    campanato_decay,
    conjugate_variable,
    default_r_grid,
    identity_checks,
    integrate_psi_sigma,
    oscillation_decay,
    radial_profile,
    sphere_columns,
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
from .oracle import ReferenceSolution, exact_solution

__all__ = [name for name in dir() if not name.startswith("_")]
