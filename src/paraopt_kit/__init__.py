"""Time-parallel optimal control of linear diffusion-type equations.

Inexact-Newton multiple shooting on the state/adjoint matching conditions,
with alpha-circulant diagonalization preconditioners for the inner linear
systems and an executable convergence-analysis layer.
"""

from paraopt_kit.problem import (
    ObjectiveKind,
    LinearControlProblem,
    PeriodicStencil,
    SeparableTarget,
    TimeDecomposition,
    make_heat_problem,
    make_advection_diffusion_problem,
    make_scalar_problem,
)
from paraopt_kit.propagators import (
    AffinePropagator,
    build_implicit_euler_propagator,
    build_exact_propagator,
    linear_action,
)
from paraopt_kit.core import (
    PairedTrajectory,
    NewtonConfig,
    SolveLog,
    matching_residual,
    apply_jacobian,
    paraopt_solve,
)
from paraopt_kit.preconditioner import (
    PreconditionerPlan,
    build_plan,
    alpha_circulant_eigenvalues,
)
from paraopt_kit.numerics import GmresConfig, GmresReport, gmres
from paraopt_kit.analysis import (
    PhiPsi,
    SsigmaSpec,
    exact_rho,
    rho_bound_tracking,
    rho_bound_terminal,
    bound_grid_sweep,
)

__all__ = [
    "PhiPsi",
    "SsigmaSpec",
    "exact_rho",
    "rho_bound_tracking",
    "rho_bound_terminal",
    "bound_grid_sweep",
    "ObjectiveKind",
    "LinearControlProblem",
    "PeriodicStencil",
    "SeparableTarget",
    "TimeDecomposition",
    "make_heat_problem",
    "make_advection_diffusion_problem",
    "make_scalar_problem",
    "AffinePropagator",
    "build_implicit_euler_propagator",
    "build_exact_propagator",
    "linear_action",
    "PairedTrajectory",
    "NewtonConfig",
    "SolveLog",
    "matching_residual",
    "apply_jacobian",
    "paraopt_solve",
    "PreconditionerPlan",
    "build_plan",
    "alpha_circulant_eigenvalues",
    "GmresConfig",
    "GmresReport",
    "gmres",
]
