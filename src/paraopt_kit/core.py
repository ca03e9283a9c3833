"""ParaOpt outer loop: matching conditions, Jacobian actions, Newton-GMRES.

The stacked unknown is x = [y_1..y_Lhat, lam_1..lam_Lhat] (each block of
size M). For affine propagators the matching system is linear, f(x) = A x - b,
and each inexact-Newton step solves the coarse Jacobian system
A_tilde * delta = -f(x). The solver applies the Jacobians matrix-free; their
dense matrices, for oracle-sized tests, come from
:func:`paraopt_kit.analysis.assemble_block_system`.

Where the solve runs: a propagator lives in its own basis. For a problem
that declares its K as a :class:`paraopt_kit.problem.PeriodicStencil`
(every built-in problem), the propagators hold the eigenvalues of their
maps, their offsets as real coefficients of the grid's
:class:`paraopt_kit.propagators.FourierBasis`, and no M x M map; every map
acts one mode at a time (:class:`paraopt_kit.propagators.ModeMap`). The
problem always holds grid values. :func:`paraopt_solve` runs GMRES, the
fine residual, A_tilde and P(alpha)^{-1} on flat real coefficient vectors,
moving y_init and y_target into the basis in each fine residual, and
moves only the final trajectory back to the grid. The basis is real and
orthonormal, so the vectors stay real, GMRES sees the norms and inner
products of the grid solve, and the iterates agree with it up to rounding.
A dense K is solved on the grid with the dense maps, its propagators' basis.
:func:`apply_jacobian` and the dense oracles act in the propagator's basis;
:func:`matching_residual` takes a grid :class:`PairedTrajectory` and gives
a grid residual, or a flat vector in the propagator's basis and gives one
there. Grid values enter and leave only through those two doors. The dense
Jacobians of the oracles take their maps from
:func:`paraopt_kit.propagators.dense_maps`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from paraopt_kit.analysis import assemble_block_system
from paraopt_kit.numerics import GmresConfig, GmresWorkspace, gmres
from paraopt_kit.problem import LinearControlProblem, ObjectiveKind, TimeDecomposition
from paraopt_kit.propagators import AffinePropagator, dense_maps


@dataclass
class PairedTrajectory:
    """Interval-boundary unknowns: y and rescaled-adjoint blocks 1..Lhat."""

    y: np.ndarray  # (L_hat, M)
    lam_hat: np.ndarray  # (L_hat, M)

    @classmethod
    def zeros(cls, L_hat: int, M: int) -> "PairedTrajectory":
        return cls(np.zeros((L_hat, M)), np.zeros((L_hat, M)))

    @classmethod
    def from_vector(cls, v: np.ndarray, L_hat: int, M: int) -> "PairedTrajectory":
        half = L_hat * M
        return cls(v[:half].reshape(L_hat, M).copy(),
                   v[half:].reshape(L_hat, M).copy())


@dataclass
class NewtonConfig:
    """Settings of :func:`paraopt_solve`: it stops once the residual norm
    is below outer_tolerance, in (0, 1), times max(1, initial residual),
    or after max_outer >= 1 Newton steps. inner holds the GMRES settings,
    which check themselves. Raises ValueError for an outer_tolerance or a
    max_outer out of range."""

    outer_tolerance: float = 1e-6
    max_outer: int = 100
    inner: GmresConfig = field(default_factory=lambda: GmresConfig(rel_tolerance=1e-4))
    preconditioner: Optional[object] = None  # PreconditionerPlan or None

    def __post_init__(self):
        if not 0.0 < self.outer_tolerance < 1.0:
            raise ValueError(f"outer_tolerance must be in (0, 1), got "
                             f"{self.outer_tolerance}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")


@dataclass
class OuterRecord:
    iteration: int
    residual: float
    inner_iters: int
    seconds: float


@dataclass
class SolveLog:
    records: list[OuterRecord] = field(default_factory=list)
    converged: bool = False
    aborted: Optional[str] = None

    def csv_rows(self) -> list[tuple]:
        return [(r.iteration, r.residual, r.inner_iters, r.seconds)
                for r in self.records]


def _apply_maps(prop, objective: ObjectiveKind,
                y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Linear part of the matching conditions on all L_hat blocks at once;
    y and lam are (L_hat, M) stacks in the basis of prop, returned as one
    (2, L_hat, M) array of the (state, adjoint) rows."""
    Phi_P, Psi_P, Phi_Q, Psi_Q = prop.actions
    out = np.empty((2,) + y.shape)
    out_y, out_l = out
    np.add(y, Psi_P(lam), out=out_y)
    out_y[1:] -= Phi_P(y[:-1])
    np.subtract(lam, Psi_Q(y), out=out_l)
    if objective is ObjectiveKind.TERMINAL_COST:
        out_l[-1] = lam[-1] - y[-1]
    out_l[:-1] -= Phi_Q(lam[1:])
    return out


def _require(what: str, got, want_what: str, want) -> None:
    """Raise ValueError naming both sizes unless they agree."""
    if got != want:
        raise ValueError(f"{what} is {got}, but {want_what} is {want}")


def matching_residual(fine: AffinePropagator, problem: LinearControlProblem,
                      decomp: TimeDecomposition,
                      x: PairedTrajectory | np.ndarray) -> np.ndarray:
    """Stacked continuity defects of state and adjoint at interval boundaries,
    evaluated as A x - b. problem holds grid values. x is a PairedTrajectory
    of grid values, which gives the residual on the grid, or the flat
    [y | lam] vector in the basis of fine, which gives it in that basis (the
    vector GMRES iterates on); y_init and y_target move into the basis on
    each call.

    The type of x selects its basis: for a propagator with a FourierBasis
    (every stencil problem) a flat vector holds real coefficients, not grid
    values, and ``PairedTrajectory.from_vector(v, ...)`` of the same numbers
    is a different point. Pass grid data as a PairedTrajectory; a flat
    vector of grid values is read, without an error, as coefficients."""
    Lh, M = decomp.L_hat, problem.M
    _require("the fine propagator's (M, L)", (fine.M, len(fine.b_P)),
             "(problem.M, decomp.L)", (M, decomp.L))
    basis = fine.basis
    to_basis = (lambda v: v) if basis is None else basis.coefficients
    on_grid = isinstance(x, PairedTrajectory)
    if on_grid:
        for name in ("y", "lam_hat"):
            _require(f"the shape of the trajectory's {name}",
                     getattr(x, name).shape, "the decomposition's", (Lh, M))
        x = to_basis(np.stack([x.y, x.lam_hat]))
    else:
        _require("the length of x", len(x), "2 L_hat M", 2 * Lh * M)
    y, lam = x.reshape(2, Lh, M)
    # b collects the offsets of P on intervals 1..Lhat and of Q on intervals
    # 2..Lhat+1, the known y_init entering the first interval, and the
    # terminal condition (zero adjoint for tracking, y - y_target otherwise)
    b_y = fine.b_P[:Lh].copy()
    b_y[0] += fine.actions[0](to_basis(problem.y_init))
    b_l = np.empty((Lh, M))
    b_l[:-1] = fine.b_Q[1:Lh]
    if problem.objective is ObjectiveKind.TRACKING:
        b_l[-1] = fine.b_Q[Lh]
    else:
        b_l[-1] = -to_basis(problem.y_target)
    out = _apply_maps(fine, problem.objective, y, lam)
    out[0] -= b_y
    out[1] -= b_l
    if on_grid and basis is not None:
        out = basis.grid(out)
    return out.ravel()


def apply_jacobian(prop: AffinePropagator, objective: ObjectiveKind,
                   decomp: TimeDecomposition, v: np.ndarray) -> np.ndarray:
    """Matrix-free product with the matching-condition Jacobian built from
    the given propagator (offsets do not enter a Jacobian of an affine map),
    on a flat vector in its basis, the result in that basis too. For a
    propagator with a FourierBasis (every stencil problem) v and the result
    are real coefficients, not grid values; move grid data in with
    ``prop.basis.coefficients`` and back with ``prop.basis.grid``, one
    (2 L_hat, M) stack each way. Raises ValueError unless v has
    2 L_hat M entries for the M of prop."""
    _require("the length of v", len(v), "2 L_hat M", 2 * decomp.L_hat * prop.M)
    y, lam = v.reshape(2, decomp.L_hat, prop.M)
    return _apply_maps(prop, objective, y, lam).ravel()


def assemble_jacobian(prop: AffinePropagator, objective: ObjectiveKind,
                      decomp: TimeDecomposition) -> np.ndarray:
    """Dense matching-condition Jacobian, the matrix of apply_jacobian, in
    the basis of prop; oracle-sized problems only."""
    return assemble_block_system(dense_maps(prop), decomp.L_hat, objective)


def assemble_system(fine: AffinePropagator, problem: LinearControlProblem,
                    decomp: TimeDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, b), in the basis of fine, with A x - b the flat form of
    matching_residual; oracle helper."""
    A = assemble_jacobian(fine, problem.objective, decomp)
    b = -matching_residual(fine, problem, decomp, np.zeros(len(A)))
    return A, b


def paraopt_solve(problem: LinearControlProblem, decomp: TimeDecomposition,
                  fine: AffinePropagator, coarse: AffinePropagator,
                  cfg: NewtonConfig,
                  ) -> tuple[PairedTrajectory, SolveLog]:
    """Inexact-Newton iteration on the matching conditions.

    Each outer step solves A_tilde * delta = -f(x) with GMRES (right
    preconditioning when a plan is configured) and stops once the residual
    norm drops below outer_tolerance relative to max(1, initial residual).
    A non-finite residual, r0 included, or one that grew 10x over five
    steps aborts the solve with the reason in ``log.aborted``. Propagators
    or a plan of another basis, M or L_hat than the problem and the
    decomposition raise ValueError.

    The iteration runs on flat vectors in the basis of the propagators,
    which the preconditioner plan acts in too: the real coefficients of
    their FourierBasis when they have one, grid values otherwise. Only the
    returned trajectory is on the grid. The GMRES calls share the first
    blocks of their Krylov bases
    (:class:`paraopt_kit.numerics.GmresWorkspace`).
    """
    Lh, M = decomp.L_hat, problem.M
    plan = cfg.preconditioner
    basis = coarse.basis
    if (fine.basis is None) != (basis is None):
        raise ValueError("the fine and coarse propagators must both carry "
                         "per-mode coefficients or neither")
    _require("the coarse propagator's M", coarse.M, "the problem's M", M)
    if plan is not None:
        if (plan.basis is None) != (basis is None):
            raise ValueError("the preconditioner plan was built for a coarse "
                             "propagator of another basis")
        _require("the preconditioner plan's (M, L_hat)", (plan.M, plan.L_hat),
                 "(problem.M, decomp.L_hat)", (M, Lh))
    x = np.zeros(2 * Lh * M)
    log = SolveLog()
    workspace = GmresWorkspace()

    op = lambda v: apply_jacobian(coarse, coarse.objective, decomp, v)
    residual = lambda x: matching_residual(fine, problem, decomp, x)
    precond = None if plan is None else plan.apply_inverse

    r = residual(x)
    rnorm = np.linalg.norm(r)
    scale = max(1.0, rnorm)
    log.records.append(OuterRecord(0, rnorm, 0, 0.0))
    recent: list[float] = [rnorm]

    # one pass more than max_outer steps, so that the same checks cover
    # r0 and the residual after every step, the last one included
    for k in range(1, cfg.max_outer + 2):
        if not np.isfinite(rnorm):
            log.aborted = "residual is non-finite"
            break
        if len(recent) == 6 and recent[-1] > 10.0 * recent[0]:
            log.aborted = "residual grew 10x over 5 iterations"
            break
        if rnorm <= cfg.outer_tolerance * scale:
            log.converged = True
            break
        if k > cfg.max_outer:
            break
        t0 = time.perf_counter()
        try:
            delta, rep = gmres(op, -r, precond=precond, cfg=cfg.inner,
                               workspace=workspace)
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            log.aborted = f"inner solver failure: {exc}"
            break
        x += delta
        r = residual(x)
        rnorm = np.linalg.norm(r)
        log.records.append(OuterRecord(k, rnorm, rep.iterations,
                                       time.perf_counter() - t0))
        recent = (recent + [rnorm])[-6:]
    if basis is not None:
        x = basis.grid(x.reshape(2 * Lh, M)).ravel()
    return PairedTrajectory.from_vector(x, Lh, M), log
