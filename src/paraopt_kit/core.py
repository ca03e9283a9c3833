"""ParaOpt outer loop: matching conditions, Jacobian actions, Newton-GMRES.

The stacked unknown is x = [y_1..y_Lhat, lam_1..lam_Lhat] (each block of
size M). For affine propagators the matching system is linear, f(x) = A x - b
= A x + f(0), and each inexact-Newton step solves the coarse Jacobian system
A_tilde * delta = -f(x). The solver applies the Jacobians matrix-free; their
dense matrices, for oracle-sized tests, come from
:func:`paraopt_kit.analysis.assemble_block_system`.

Where the solve runs: a propagator lives in its own basis. For a problem
that declares its K as a :class:`paraopt_kit.problem.PeriodicStencil`
(every built-in problem), the propagators hold the eigenvalues of their
maps and their offsets on the half spectrum of the grid's
:class:`paraopt_kit.propagators.FourierBasis`, and no M x M map; every map
acts as one product with its eigenvalues. The problem always holds grid
values. :func:`paraopt_solve` runs GMRES, the fine residual, A_tilde and
P(alpha)^{-1} on one flat real vector, the real view (``.view(float)``)
of the (2, L_hat, len(half)) stack of half spectra, 2 L_hat (M + s)
entries long, s = ``basis.self_count``; each operator views it as that
stack, with no conversion (:func:`paraopt_kit.propagators.stack` and
:func:`paraopt_kit.propagators.flat`, which own the layout). The s slots
per row for the imaginary parts of the self-conjugate modes are 0 for
real data, and every operator keeps them 0. The solve calls
:func:`matching_residual` once, on the zero trajectory, moves that f(0)
into the basis, takes every later residual as :func:`apply_jacobian`
with the fine propagator plus f(0), and moves only the final trajectory
back to the grid. The basis is orthonormal and its real view real, so
GMRES sees the norms and inner products of the grid solve, and the
iterates agree with it up to rounding.
A dense K is solved on the grid with the dense maps, its propagators' basis.
:func:`apply_jacobian` and the dense oracles act in the propagator's basis;
:func:`matching_residual` takes only a grid :class:`PairedTrajectory` and
gives a grid residual. Grid values enter and leave only through it and
:func:`paraopt_solve`. The dense Jacobians of the oracles take their maps
from :func:`paraopt_kit.propagators.dense_maps`.

Mismatched inputs raise ValueError, naming both values, before anything
is computed. :func:`matching_residual` checks the fine propagator and the
decomposition, whose L_hat must be L - 1 for tracking and L for terminal
cost; :func:`paraopt_solve` and :func:`assemble_system` call it before
their first computation. :func:`apply_jacobian` and
:func:`assemble_jacobian` refuse an objective other than the one their
propagator was built for. Every operator reads its vector through
:func:`paraopt_kit.propagators.stack`, which refuses a complex one.

With a plan in a FourierBasis, whose blocks are solved in closed form or
black-box, the coarse maps act one mode at a time, and the preconditioned
inner solve runs GMRES on T, the action of A_tilde P(alpha)^{-1} in the
(1 + 2 (M + s))-dimensional space that right-preconditioned GMRES from
zero never leaves (:class:`_SliceSpace`): an isometry carries one onto
the other, so the logged inner counts and residuals are the same
minimization as flexible GMRES on (A_tilde, P(alpha)^{-1}), up to
rounding. Flexible GMRES runs without a plan, for a plan on grid values
(a dense K, LU or black-box blocks), and where P(alpha)^{-1} is not exact to
SLICE_LEAK_RTOL; ``SolveLog.inner_solve`` and ``fallback_steps`` say
which ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from paraopt_kit.analysis import assemble_block_system
from paraopt_kit.numerics import GmresConfig, gmres
from paraopt_kit.problem import (LinearControlProblem, ObjectiveKind,
                                 TimeDecomposition, require_int)
from paraopt_kit.propagators import AffinePropagator, dense_maps, flat, stack


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
    max_outer out of range, and for a max_outer that is not an integer (a
    bool or a float)."""

    outer_tolerance: float = 1e-6
    max_outer: int = 100
    inner: GmresConfig = field(default_factory=lambda: GmresConfig(rel_tolerance=1e-4))
    preconditioner: Optional[object] = None  # PreconditionerPlan or None

    def __post_init__(self):
        if not 0.0 < self.outer_tolerance < 1.0:
            raise ValueError(f"outer_tolerance must be in (0, 1), got "
                             f"{self.outer_tolerance}")
        require_int("max_outer", self.max_outer)
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
    """The outer records and the outcome of a solve. ``inner_solve`` names
    the space of its inner GMRES: "reduced" for a plan in a FourierBasis
    whose A_tilde P(alpha)^{-1} keeps to the slice structure, "flexible"
    otherwise; ``fallback_steps`` counts the outer steps of such a plan
    that ran flexible GMRES instead."""

    records: list[OuterRecord] = field(default_factory=list)
    converged: bool = False
    aborted: Optional[str] = None
    inner_solve: str = "flexible"
    fallback_steps: int = 0


# N(u) = A_tilde P(alpha)^{-1} u - u writes outside the slices y_1 and
# lam_Lhat only by rounding when P(alpha)^{-1} is exact; a share of ||u||
# above this sends the step, or the whole solve when G's probes show it, to
# flexible GMRES (cf. preconditioner.IMAG_RESIDUE_RTOL)
SLICE_LEAK_RTOL = 1e-8


def _apply_maps(prop, y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Linear part of the matching conditions of prop's objective on all
    L_hat blocks at once; y and lam are (L_hat, M) stacks in the basis of
    prop, returned as one (2, L_hat, M) array of the (state, adjoint)
    rows."""
    Phi_P, Psi_P, Phi_Q, Psi_Q = prop.actions
    out = np.empty((2,) + y.shape, y.dtype)
    out_y, out_l = out
    np.add(y, Psi_P(lam), out=out_y)
    out_y[1:] -= Phi_P(y[:-1])
    np.subtract(lam, Psi_Q(y), out=out_l)
    if prop.objective is ObjectiveKind.TERMINAL_COST:
        out_l[-1] = lam[-1] - y[-1]
    out_l[:-1] -= Phi_Q(lam[1:])
    return out


def _require(what: str, got, want_what: str, want) -> None:
    """Raise ValueError naming both values unless they agree."""
    if got != want:
        raise ValueError(f"{what} is {got}, but {want_what} is {want}")


def matching_residual(fine: AffinePropagator, problem: LinearControlProblem,
                      decomp: TimeDecomposition,
                      x: PairedTrajectory) -> np.ndarray:
    """Stacked continuity defects of state and adjoint at interval boundaries,
    evaluated as A x - b on the grid: x is a PairedTrajectory of grid
    values, as problem holds, and the flat [y | lam] residual is on the grid
    too; x and the result move through the basis of fine. Raises TypeError
    for any other x, and ValueError for a fine propagator of another M, L
    or objective than the problem and the decomposition, or a decomposition
    whose L_hat is not L - 1 (tracking) or L (terminal cost)."""
    if not isinstance(x, PairedTrajectory):
        raise TypeError(f"x must be a PairedTrajectory of grid values, got "
                        f"{type(x).__name__}")
    Lh, M = decomp.L_hat, problem.M
    _require("the fine propagator's (M, L)", (fine.M, len(fine.b_P)),
             "(problem.M, decomp.L)", (M, decomp.L))
    _require("the fine propagator's objective", fine.objective.value,
             "the problem's", problem.objective.value)
    tracking = problem.objective is ObjectiveKind.TRACKING
    _require("the decomposition's L_hat", Lh, "L - 1 for tracking"
             if tracking else "L for terminal cost", decomp.L - tracking)
    for name in ("y", "lam_hat"):
        _require(f"the shape of the trajectory's {name}",
                 getattr(x, name).shape, "the decomposition's", (Lh, M))
    basis = fine.basis
    to_basis = (lambda v: v) if basis is None else basis.coefficients
    y, lam = to_basis(np.stack([x.y, x.lam_hat]))
    # b collects the offsets of P on intervals 1..Lhat and of Q on intervals
    # 2..Lhat+1, the known y_init entering the first interval, and the
    # terminal condition (zero adjoint for tracking, y - y_target otherwise)
    b_y = fine.b_P[:Lh].copy()
    b_y[0] += fine.actions[0](to_basis(problem.y_init))
    b_l = np.empty_like(b_y)
    b_l[:-1] = fine.b_Q[1:Lh]
    if problem.objective is ObjectiveKind.TRACKING:
        b_l[-1] = fine.b_Q[Lh]
    else:
        b_l[-1] = -to_basis(problem.y_target)
    out = _apply_maps(fine, y, lam)
    out[0] -= b_y
    out[1] -= b_l
    if basis is not None:
        out = basis.grid(out)
    return out.ravel()


def _residual_at_zero(fine: AffinePropagator, problem: LinearControlProblem,
                      decomp: TimeDecomposition) -> np.ndarray:
    """f(0) = -b of the matching conditions, flat, in the basis of fine:
    one call of matching_residual on the zero trajectory."""
    zero = PairedTrajectory.zeros(decomp.L_hat, problem.M)
    f0 = matching_residual(fine, problem, decomp, zero)
    if fine.basis is None:
        return f0
    return flat(fine.basis.coefficients(f0.reshape(-1, problem.M)))


def apply_jacobian(prop: AffinePropagator, objective: ObjectiveKind,
                   decomp: TimeDecomposition, v: np.ndarray) -> np.ndarray:
    """Matrix-free product with the matching-condition Jacobian built from
    the given propagator (offsets do not enter a Jacobian of an affine map),
    on a flat vector in its basis, the result in that basis too: A_tilde v
    with the coarse propagator, and with the fine one the A of
    f(x) = A x + f(0), the residual paraopt_solve iterates on. For a
    propagator with a FourierBasis (every stencil problem) v and the result
    are the real view of half spectra, not grid values; move grid data in
    with ``flat(prop.basis.coefficients(...))`` and back with
    ``prop.basis.grid(stack(...))`` (:func:`paraopt_kit.propagators.flat`,
    :func:`paraopt_kit.propagators.stack`). Raises ValueError unless v
    is real and has 2 L_hat (M + s) entries for the M and basis of prop,
    and unless objective is the one prop was built for."""
    _require("the objective", objective.value, "the propagator's",
             prop.objective.value)
    y, lam = stack(prop.basis, v, (2, decomp.L_hat), prop.M)
    return flat(_apply_maps(prop, y, lam))


def assemble_jacobian(prop: AffinePropagator, objective: ObjectiveKind,
                      decomp: TimeDecomposition) -> np.ndarray:
    """Dense matching-condition Jacobian, the matrix of apply_jacobian, in
    the basis of prop; oracle-sized problems only. Raises ValueError
    unless objective is the one prop was built for."""
    _require("the objective", objective.value, "the propagator's",
             prop.objective.value)
    return assemble_block_system(dense_maps(prop), decomp.L_hat, objective)


def assemble_system(fine: AffinePropagator, problem: LinearControlProblem,
                    decomp: TimeDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, b) in the basis of fine, the matching conditions as
    A x - b on flat [y | lam] vectors in that basis: A is the matrix of
    apply_jacobian and b = -f(0), from one matching_residual call on the
    zero trajectory moved into the basis, which checks the inputs first;
    oracle helper."""
    b = -_residual_at_zero(fine, problem, decomp)
    return assemble_jacobian(fine, problem.objective, decomp), b


class _SliceSpace:
    """Right-preconditioned GMRES on A_tilde P(alpha)^{-1}, run in the space
    where it acts, for a plan in a FourierBasis. P(alpha) differs from A_tilde only
    in the rows of the time slices y_1 and lam_Lhat, so
    N(u) = A_tilde P^{-1} u - u lies in range(S), S the 2 (M + self_count)
    coordinates of those two slices, and the Krylov space of GMRES from
    zero on b stays in span{b_hat} + range(S), b_hat being b with the
    slices zeroed, normalized. In the orthonormal coordinates (gamma, s)
    of that space A_tilde P^{-1} is T(gamma, s) = (gamma, s + gamma q + G s), with
    q = S^T N(b_hat) and G = S^T N S, one complex 2 x 2 block per mode of
    the half spectrum. GMRES on T therefore minimizes the residual over the
    same Krylov space, in the same norm, as on A_tilde P^{-1}, with O(M)
    work per step, and delta = gamma z + Z s, z = P^{-1} b_hat: one
    application of P^{-1} per outer step.

    G and Z = P^{-1} S, the columns of P^{-1} for the two slices, one
    (2 L_hat) x 2 block per mode, are read off two probes, ones on every
    mode of one slice, mapped through P^{-1} and N. ``exact`` says whether
    N kept them to the slices within SLICE_LEAK_RTOL, as it does when
    P^{-1} is exact."""

    def __init__(self, plan, op):
        self.plan, self.op, basis = plan, op, plan.basis
        probe = flat(np.ones(len(basis.half), complex))
        # the columns of the slices y_1 and lam_Lhat, mode by mode:
        # rows x slice x mode
        self.G = np.empty((2, 2, len(basis.half)), complex)
        self.Z = np.empty((2 * plan.L_hat, 2, len(basis.half)), complex)
        leak = 0.0
        for j in range(2):
            u = np.zeros(2 * plan.L_hat * len(probe))
            self._slices(u)[j] = probe
            z, w = self._image(u)
            self.Z[:, j] = stack(basis, z, (2 * plan.L_hat,), plan.M)
            self.G[:, j] = stack(basis, self._slices(w), (2,), plan.M)
            # np.maximum keeps a NaN leak, which then fails the check
            leak = np.maximum(leak, self._leak(w) / np.linalg.norm(probe))
        self.exact = bool(leak <= SLICE_LEAK_RTOL)

    def _slices(self, v: np.ndarray) -> np.ndarray:
        """The view of the slices y_1 and lam_Lhat of a flat v: rows 0 and
        2 L_hat - 1 of its stack of 2 L_hat rows."""
        Lh2 = 2 * self.plan.L_hat
        return v.reshape(Lh2, -1)[::Lh2 - 1]

    def _leak(self, w: np.ndarray) -> float:
        """Norm of a flat w outside its two slices."""
        return np.linalg.norm(w.reshape(2 * self.plan.L_hat, -1)[1:-1])

    def _image(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P^{-1} u, N(u)) of a flat u."""
        z = self.plan.apply_inverse(u)
        w = self.op(z)
        w -= u
        return z, w

    def _combine(self, cols: np.ndarray, s: np.ndarray) -> np.ndarray:
        """cols s, mode by mode, for the coordinates s of the two slices,
        the flat real view of their half spectra, and the columns cols of
        those slices: G s for G, P^{-1} S s for Z."""
        h = stack(self.plan.basis, s, (2,), self.plan.M)
        return flat(cols[:, 0] * h[0] + cols[:, 1] * h[1])

    def solve(self, b: np.ndarray, cfg: GmresConfig):
        """(delta, report) of GMRES on A_tilde delta = b through T, or None
        when P^{-1} is not exact: its probes or N(b_hat) leave the
        slices."""
        if not self.exact:
            return None
        b_hat = b.copy()
        self._slices(b_hat)[:] = 0.0
        nb = np.linalg.norm(b_hat)
        # a b on the slices alone, as f(0) of terminal cost is, has no
        # b_hat: gamma stays 0, and T acts as s -> s + G s
        z = q = 0.0
        if nb > 0.0:
            b_hat /= nb
            z, q = self._image(b_hat)
            if not self._leak(q) <= SLICE_LEAK_RTOL:
                return None
            q = self._slices(q).ravel()

        def T(v):
            out = v.copy()
            out[1:] += v[0] * q + self._combine(self.G, v[1:])
            return out
        gs, rep = gmres(T, np.concatenate([[nb], self._slices(b).ravel()]),
                        cfg=cfg)
        delta = self._combine(self.Z, gs[1:])
        delta += gs[0] * z
        return delta, rep


def paraopt_solve(problem: LinearControlProblem, decomp: TimeDecomposition,
                  fine: AffinePropagator, coarse: AffinePropagator,
                  cfg: NewtonConfig,
                  ) -> tuple[PairedTrajectory, SolveLog]:
    """Inexact-Newton iteration on the matching conditions.

    Each outer step solves A_tilde * delta = -f(x) with GMRES (right
    preconditioning when a plan is configured: on T in the slice space of a
    plan in a FourierBasis, built at the first step, else flexible GMRES on
    (A_tilde, P(alpha)^{-1})) and stops once the residual
    norm drops below outer_tolerance relative to max(1, initial residual).
    A non-finite residual, r0 included, one that grew 10x over five
    steps, or five residuals in a row above 10 max(1, r0) abort the solve
    with the reason in ``log.aborted``. Propagators
    or a plan of another basis, M or L_hat, propagators of another
    objective, than the problem and the decomposition, and a decomposition
    whose L_hat does not fit the objective raise ValueError before the
    first computation (matching_residual checks the fine propagator and
    the decomposition).

    The iteration runs on flat vectors in the basis of the propagators,
    which the preconditioner plan acts in too: the real view of the half
    spectra of their FourierBasis when they have one, grid values
    otherwise. The residual is f(x) = A x + f(0): one matching_residual
    call on the zero trajectory gives f(0), moved into the basis, and each
    step adds it to apply_jacobian of the fine propagator at x. Only the
    returned trajectory is on the grid.
    """
    Lh, M = decomp.L_hat, problem.M
    plan = cfg.preconditioner
    basis = coarse.basis
    if (fine.basis is None) != (basis is None):
        raise ValueError("the fine and coarse propagators must both carry "
                         "per-mode coefficients or neither")
    _require("the coarse propagator's M", coarse.M, "the problem's M", M)
    _require("the coarse propagator's objective", coarse.objective.value,
             "the problem's", problem.objective.value)
    if plan is not None:
        if (plan.basis is None) != (basis is None):
            raise ValueError("the preconditioner plan was built for a coarse "
                             "propagator of another basis")
        _require("the preconditioner plan's (M, L_hat)", (plan.M, plan.L_hat),
                 "(problem.M, decomp.L_hat)", (M, Lh))
    log = SolveLog()

    op = lambda v: apply_jacobian(coarse, problem.objective, decomp, v)
    precond = None if plan is None else plan.apply_inverse
    reduced = plan is not None and plan.basis is not None
    log.inner_solve = "reduced" if reduced else "flexible"
    slices = None  # the _SliceSpace of the plan, from the first step

    r = f0 = _residual_at_zero(fine, problem, decomp)
    x = np.zeros_like(f0)
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
        if len(recent) == 6 and min(recent[-5:]) > 10.0 * scale:
            log.aborted = "residual above 10x max(1, r0) for 5 iterations"
            break
        if rnorm <= cfg.outer_tolerance * scale:
            log.converged = True
            break
        if k > cfg.max_outer:
            break
        t0 = time.perf_counter()
        try:
            step = None
            if reduced:
                if slices is None:
                    slices = _SliceSpace(plan, op)
                    if not slices.exact:
                        log.inner_solve = "flexible"
                step = slices.solve(-r, cfg.inner)
                log.fallback_steps += step is None
            if step is None:
                step = gmres(op, -r, precond=precond, cfg=cfg.inner)
            delta, rep = step
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            log.aborted = f"inner solver failure: {exc}"
            break
        x += delta
        r = apply_jacobian(fine, problem.objective, decomp, x)
        r += f0
        rnorm = np.linalg.norm(r)
        log.records.append(OuterRecord(k, rnorm, rep.iterations,
                                       time.perf_counter() - t0))
        recent = (recent + [rnorm])[-6:]
    if basis is not None:
        x = basis.grid(stack(basis, x, (2 * Lh,), M)).ravel()
    return PairedTrajectory.from_vector(x, Lh, M), log
