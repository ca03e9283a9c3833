"""ParaOpt outer loop: matching conditions, Jacobian actions, Newton-GMRES.

The stacked unknown is x = [y_1..y_Lhat, lam_1..lam_Lhat] (each block of
size M). For affine propagators the matching system is linear, f(x) = A x - b,
and each inexact-Newton step solves the coarse Jacobian system
A_tilde * delta = -f(x). The solver applies the Jacobians matrix-free; their
dense matrices, for oracle-sized tests, come from
:func:`paraopt_kit.analysis.assemble_block_system`.

Where the solve runs: for a problem that declares its K as a
:class:`paraopt_kit.problem.PeriodicStencil` (every built-in problem), the
propagators hold the eigenvalues of their maps and the grid's
:class:`paraopt_kit.propagators.FourierBasis`, and no M x M map.
:func:`paraopt_solve` moves the right-hand side (the fine offsets, y_init
and y_target) into the real coefficients of that basis once, runs GMRES,
the fine residual, A_tilde and P(alpha)^{-1} on real coefficient vectors,
and moves only the final trajectory back to the grid. There every map acts
one mode at a time (:class:`paraopt_kit.propagators.ModeMap`), with no
M x M product. The basis is real and orthonormal, so the vectors stay real,
GMRES sees the norms and inner products of the grid solve, and the iterates
agree with it up to rounding. A dense K is solved on the grid with the
dense maps. :func:`matching_residual` and :func:`apply_jacobian` act in the
basis of the propagator they are given: grid values for an AffinePropagator
(per mode between the basis's two transforms when it has one), coefficients
for its ModalPropagator. The dense Jacobians of the oracles take their maps
from :func:`paraopt_kit.propagators.dense_maps`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from paraopt_kit.analysis import assemble_block_system
from paraopt_kit.numerics import GmresConfig, gmres
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
    outer_tolerance: float = 1e-6
    max_outer: int = 100
    inner: GmresConfig = field(default_factory=lambda: GmresConfig(rel_tolerance=1e-4))
    preconditioner: Optional[object] = None  # PreconditionerPlan or None

    def __post_init__(self):
        if self.outer_tolerance <= 0:
            raise ValueError("outer_tolerance must be positive")


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


def matching_residual(fine, problem: LinearControlProblem,
                      decomp: TimeDecomposition, x: PairedTrajectory) -> np.ndarray:
    """Stacked continuity defects of state and adjoint at interval boundaries,
    evaluated as A x - b, in the basis of fine (an AffinePropagator or a
    ModalPropagator), in which x, problem.y_init and problem.y_target are
    given too."""
    Lh, M = decomp.L_hat, problem.M
    if x.y.shape != (Lh, M):
        raise ValueError("trajectory shape does not match the decomposition")
    # b collects the offsets of P on intervals 1..Lhat and of Q on intervals
    # 2..Lhat+1, the known y_init entering the first interval, and the
    # terminal condition (zero adjoint for tracking, y - y_target otherwise)
    b_y = fine.b_P[:Lh].copy()
    b_y[0] += fine.actions[0](problem.y_init)
    b_l = np.empty((Lh, M))
    b_l[:-1] = fine.b_Q[1:Lh]
    if problem.objective is ObjectiveKind.TRACKING:
        b_l[-1] = fine.b_Q[Lh]
    else:
        b_l[-1] = -problem.y_target
    out = _apply_maps(fine, problem.objective, x.y, x.lam_hat)
    out[0] -= b_y
    out[1] -= b_l
    return out.ravel()


def apply_jacobian(prop, objective: ObjectiveKind,
                   decomp: TimeDecomposition, v: np.ndarray) -> np.ndarray:
    """Matrix-free product with the matching-condition Jacobian built from
    the given propagator (offsets do not enter a Jacobian of an affine map),
    in its basis (see :func:`matching_residual`)."""
    y, lam = v.reshape(2, decomp.L_hat, prop.M)
    return _apply_maps(prop, objective, y, lam).ravel()


def assemble_jacobian(prop: AffinePropagator, objective: ObjectiveKind,
                      decomp: TimeDecomposition) -> np.ndarray:
    """Dense matching-condition Jacobian, the matrix of apply_jacobian;
    oracle-sized problems only."""
    return assemble_block_system(dense_maps(prop), decomp.L_hat, objective)


def assemble_system(fine: AffinePropagator, problem: LinearControlProblem,
                    decomp: TimeDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, b) with matching_residual(x) = A x - b; oracle helper."""
    A = assemble_jacobian(fine, problem.objective, decomp)
    zero = PairedTrajectory.zeros(decomp.L_hat, problem.M)
    b = -matching_residual(fine, problem, decomp, zero)
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
    steps aborts the solve with the reason in ``log.aborted``.

    When both propagators have a FourierBasis, the iteration runs on the
    real coefficients of the coarse one's, the basis the preconditioner
    plan then acts in too, and only the returned trajectory is on the grid.
    """
    Lh, M = decomp.L_hat, problem.M
    plan = cfg.preconditioner
    basis = coarse.basis
    if (fine.basis is None) != (basis is None):
        raise ValueError("the fine and coarse propagators must both carry "
                         "per-mode coefficients or neither")
    if basis is not None:
        coefficients = lambda y: None if y is None else basis.coefficients(y)
        problem = dataclasses.replace(problem,
                                      y_init=coefficients(problem.y_init),
                                      y_target=coefficients(problem.y_target))
        fine = fine.in_basis()
        coarse = coarse.in_basis(offsets=False)
    if plan is not None and (plan.basis is None) != (basis is None):
        raise ValueError("the preconditioner plan was built for a coarse "
                         "propagator of another basis")
    # x stays one flat vector; the residual sees (L_hat, M) views of it
    x = np.zeros(2 * Lh * M)
    log = SolveLog()

    def op(v):
        return apply_jacobian(coarse, coarse.objective, decomp, v)

    def residual(x):
        y, lam_hat = x.reshape(2, Lh, M)
        return matching_residual(fine, problem, decomp,
                                 PairedTrajectory(y, lam_hat))

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
            delta, rep = gmres(op, -r, precond=precond, cfg=cfg.inner)
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
