"""Benchmark workloads: inputs from a seed, set-up, the timed operation and
its correctness check.

The solve workloads call the package's public functions in the order
``cli.solve_case`` does: problem and decomposition, fine and coarse
propagators, preconditioner plan, then ``paraopt_solve``. NOTES.md records
why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from paraopt_kit import analysis, core, preconditioner, problem, propagators
from paraopt_kit.analysis import PhiPsi, PropagatorDescription, PropagatorKind, SsigmaSpec
from paraopt_kit.core import NewtonConfig, PairedTrajectory
from paraopt_kit.numerics import GmresConfig
from paraopt_kit.preconditioner import InversionMethod
from paraopt_kit.problem import ObjectiveKind
from paraopt_kit.propagators import Discretization

TR = ObjectiveKind.TRACKING
TC = ObjectiveKind.TERMINAL_COST

# the CLI's RunConfig defaults, so `paraopt-kit solve` with the same flags
# reports the same iteration counts
GAMMA, HORIZON = 0.05, 2.0
OUTER_TOL, INNER_TOL, MAX_OUTER, MAX_INNER = 1e-6, 1e-4, 100, 1000

# a seed other than 0 adds a smooth field of this size, relative to
# max |y_init|; K, gamma and T stay as they are, so each iteration does
# the same work
PERTURBATION = 0.01


@dataclass(frozen=True)
class SolveSpec:
    objective: ObjectiveKind
    n: int
    L: int
    fine: str  # "ie" | "exact"
    coarse_variant: Discretization
    method: Optional[InversionMethod]  # None: no preconditioner
    alpha: float = -1.0
    J_fine: int = 10
    J_coarse: int = 1


@dataclass(frozen=True)
class SweepSpec:
    grid_count: int  # per axis of each BoundContours panel
    tuples: int  # seeded (fine, coarse) coefficient pairs per pass
    L_hat: int


@dataclass(frozen=True)
class Workload:
    name: str
    spec: object  # SolveSpec | SweepSpec
    setup_reps: int
    # wrapped boundaries the traced run must see called at least once
    reaches: tuple[str, ...]
    # further timed set-ups after each operation, so that set-up samples
    # span the whole run and not only its first moments
    setups_per_op: int = 0


_SOLVE_PATH = ("core.matching_residual", "core.apply_jacobian", "numerics.gmres")
_ANALYSIS_PATH = ("analysis.rho_bound_at", "analysis.exact_rho")

WORKLOADS = {w.name: w for w in [
    Workload("heat-track-pc",
             SolveSpec(TR, n=16, L=101, fine="ie",
                       coarse_variant=Discretization.FOTD,
                       method=InversionMethod.GENERAL, alpha=-1.0),
             setup_reps=3,
             reaches=_SOLVE_PATH + ("preconditioner.apply_inverse",)),
    Workload("heat-track-nopc",
             SolveSpec(TR, n=16, L=101, fine="ie",
                       coarse_variant=Discretization.FOTD, method=None),
             setup_reps=3, reaches=_SOLVE_PATH),
    Workload("heat-tc-tri",
             SolveSpec(TC, n=16, L=100, fine="exact",
                       coarse_variant=Discretization.FDTO,
                       method=InversionMethod.TRIANGULAR, alpha=0.1),
             setup_reps=3,
             reaches=_SOLVE_PATH + ("preconditioner.apply_inverse",)),
    # set-up is only grids and seeded tuples, well under a millisecond and
    # so exposed to whatever the machine does at that moment: its samples
    # are spread over the run
    Workload("analysis-sweep", SweepSpec(grid_count=50, tuples=4, L_hat=100),
             setup_reps=10, reaches=_ANALYSIS_PATH, setups_per_op=10),
]}


def tiny(w: Workload) -> Workload:
    """The same workload at smoke-test size: n=4, L_hat=10."""
    s = w.spec
    if isinstance(s, SolveSpec):
        spec = dataclasses.replace(s, n=4, L=11 if s.objective is TR else 10)
    else:
        spec = SweepSpec(grid_count=5, tuples=2, L_hat=10)
    return dataclasses.replace(w, spec=spec, setup_reps=2,
                               setups_per_op=min(w.setups_per_op, 1))


class _NoTrace:
    @staticmethod
    def span(name):
        return contextlib.nullcontext()


NO_TRACE = _NoTrace()


# ---------------------------------------------------------------------------
# solve workloads

@dataclass
class SolveCase:
    problem: problem.LinearControlProblem
    decomp: problem.TimeDecomposition
    fine: propagators.AffinePropagator
    coarse: propagators.AffinePropagator
    newton: NewtonConfig


def perturbed(prob: problem.LinearControlProblem, n: int,
              seed: int) -> problem.LinearControlProblem:
    """Seed 0 returns the paper's fields; another seed adds a seeded smooth
    (low-wavenumber, periodic) field to y_init."""
    if seed == 0:
        return prob
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    X1, X2 = np.meshgrid(x, x, indexing="ij")  # the problem's x1-major order
    delta = np.zeros_like(X1)
    for k1 in range(3):
        for k2 in range(3):
            a, b = rng.standard_normal(2) / (1 + k1 * k1 + k2 * k2)
            phase = 2 * np.pi * (k1 * X1 + k2 * X2)
            delta += a * np.cos(phase) + b * np.sin(phase)
    delta *= PERTURBATION * np.max(np.abs(prob.y_init)) / np.max(np.abs(delta))
    return dataclasses.replace(prob, y_init=prob.y_init + delta.ravel())


def setup_solve(spec: SolveSpec, seed: int, tracer=NO_TRACE) -> SolveCase:
    with tracer.span("problem.build"):
        prob = perturbed(problem.make_heat_problem(spec.n, GAMMA, HORIZON,
                                                   spec.objective),
                         spec.n, seed)
        decomp = problem.make_decomposition(prob, spec.L, spec.J_fine,
                                            spec.J_coarse)
    with tracer.span("propagators.fine_build"):
        if spec.fine == "exact":
            fine = propagators.build_exact_propagator(prob, decomp.DT)
        else:
            fine = propagators.build_implicit_euler_propagator(
                prob, decomp.DT, decomp.J_fine)
    with tracer.span("propagators.coarse_build"):
        coarse = propagators.build_implicit_euler_propagator(
            prob, decomp.DT, decomp.J_coarse, spec.coarse_variant)
    with tracer.span("preconditioner.plan_build"):
        plan = None
        if spec.method is not None:
            plan = preconditioner.build_plan(coarse, decomp, spec.alpha,
                                             spec.method)
    newton = NewtonConfig(
        outer_tolerance=OUTER_TOL, max_outer=MAX_OUTER,
        inner=GmresConfig(rel_tolerance=INNER_TOL, max_iterations=MAX_INNER),
        preconditioner=plan)
    return SolveCase(prob, decomp, fine, coarse, newton)


def run_solve(case: SolveCase):
    return core.paraopt_solve(case.problem, case.decomp, case.fine,
                              case.coarse, case.newton)


def check_solve(case: SolveCase, result) -> tuple[Optional[str], tuple[int, int]]:
    """Returns (failure reason or None, (outer_iters, inner_iters)).

    The residual is recomputed here with the fine propagator, so a solver
    that claims convergence without reaching it is caught.
    """
    traj, log = result
    counts = (len(log.records) - 1, sum(r.inner_iters for r in log.records))
    if not log.converged:
        return "not converged", counts
    if log.aborted:
        return f"aborted: {log.aborted}", counts
    p, d = case.problem, case.decomp
    r0 = np.linalg.norm(core.matching_residual(
        case.fine, p, d, PairedTrajectory.zeros(d.L_hat, p.M)))
    r = np.linalg.norm(core.matching_residual(case.fine, p, d, traj))
    if not r <= OUTER_TOL * max(1.0, r0):
        return f"residual {r:.3e} above {OUTER_TOL:g} * max(1, {r0:.3e})", counts
    return None, counts


# ---------------------------------------------------------------------------
# analysis sweep

# the six BoundContours panels: (objective, coarse J, coarse variant), all
# against the exact fine propagator
PANELS = [(TR, 1, Discretization.FOTD), (TR, 10, Discretization.FOTD),
          (TC, 1, Discretization.FOTD), (TC, 10, Discretization.FOTD),
          (TC, 1, Discretization.FDTO), (TC, 10, Discretization.FDTO)]

# the terminal-cost bound holds up to rounding (acceptance criterion 2)
TERMINAL_SLACK = 1e-10


@dataclass
class SweepCase:
    grid: np.ndarray
    panels: list
    specs: list  # (SsigmaSpec tracking, SsigmaSpec terminal) per tuple


def setup_sweep(spec: SweepSpec, seed: int, tracer=NO_TRACE) -> SweepCase:
    with tracer.span("analysis.setup"):
        grid = analysis.log_grid(1e-4, 1e4, spec.grid_count)
        exact = PropagatorDescription(PropagatorKind.EXACT)
        panels = [(obj, exact, PropagatorDescription(
            PropagatorKind.IMPLICIT_EULER, J=J, variant=v))
            for obj, J, v in PANELS]
        # the coefficient ranges of acceptance criterion 2
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(spec.tuples):
            fine = PhiPsi(rng.uniform(0.02, 0.98), rng.uniform(0.02, 2.0))
            coarse = PhiPsi(rng.uniform(0.02, 0.98), rng.uniform(0.02, 2.0))
            specs.append((SsigmaSpec(spec.L_hat, fine, coarse, TR),
                          SsigmaSpec(spec.L_hat, fine, coarse, TC)))
    return SweepCase(grid, panels, specs)


def run_sweep(case: SweepCase):
    grids = [analysis.bound_grid_sweep(obj, fine, coarse, case.grid, case.grid)
             for obj, fine, coarse in case.panels]
    oracle = []
    for tr, tc in case.specs:
        oracle.append((analysis.exact_rho(tr),
                       analysis.rho_bound_tracking(tr.fine, tr.coarse),
                       analysis.exact_rho(tc),
                       analysis.rho_bound_terminal(tc.fine, tc.coarse)))
    return grids, oracle


def check_sweep(case: SweepCase, result) -> tuple[Optional[str], tuple[int, int]]:
    grids, oracle = result
    n = len(case.grid) ** 2
    for (obj, _, _), rows in zip(case.panels, grids):
        values = np.array([r[2] for r in rows])
        if values.shape != (n,) or not np.all(np.isfinite(values)):
            return "bound grid has missing or non-finite values", (0, 0)
        if obj is TR and not np.all(values < 1.0):
            return f"tracking rho* reaches {values.max():.6f} >= 1", (0, 0)
    for er_tr, bd_tr, er_tc, bd_tc in oracle:
        if not er_tr < bd_tr:
            return f"tracking exact_rho {er_tr} not below rho* {bd_tr}", (0, 0)
        if not er_tc <= bd_tc + TERMINAL_SLACK:
            return f"terminal exact_rho {er_tc} above rho* {bd_tc}", (0, 0)
    return None, (0, 0)


def operations(w: Workload):
    """(setup, run, check) for a workload."""
    if isinstance(w.spec, SolveSpec):
        return setup_solve, run_solve, check_solve
    return setup_sweep, run_sweep, check_sweep

