"""Alpha-circulant preconditioners for the coarse-grid-correction systems.

P(alpha) replaces the lower-shift coupling matrix B of the coarse Jacobian
by the alpha-circulant C(alpha) (and drops the terminal corner term), which
diagonalizes in a scaled Fourier basis. Applying P(alpha)^{-1} then reduces
to FFTs in time plus independent per-frequency solves: L_hat 2M x 2M solves
for the general method, two rounds of L_hat M x M solves for the triangular
one. Every path reads its input as the (2, L_hat, m) stack of state and
adjoint rows that the whole solve uses, with time on the second to last
axis, the one the FFTs run along: grid values (m = M), or half spectra
(m = len(basis.half)). The 2M x 2M block H_l of frequency l,
[[I + d_l Phi_P, Psi_P], [-Psi_Q, I + conj(d_l) Phi_Q]] with d_l the l-th
eigenvalue of C(alpha), is the one-interval P(-d_l). alpha is real and
finite: for any other alpha, P(alpha)^{-1} of a real vector is complex.
The dense P(alpha) that the inversion is checked against, and every block
that the dense path inverts (H_l, or its two diagonal blocks for the
triangular method), come from the same block assembly as the coarse
Jacobian, :func:`paraopt_kit.analysis.assemble_block_system`; the oracle
takes its dense maps from :func:`paraopt_kit.propagators.dense_maps`, in
the basis of the coarse propagator, which is the one the plan acts in.

The method is fixed when the plan is built, and so is the composition:
:func:`build_plan` composes P(alpha)^{-1} of the stack once from the
Fourier weights and the block solves of its method, and the plan applies
that one solve. The triangular method couples its two rounds by Psi_P z,
the coarse propagator's own action on a stack (``coarse.actions[1]``),
the same on every block kind.

How the frequency blocks are solved is chosen from the coarse maps, with no
option. A coarse propagator built for a problem whose K is a
:class:`paraopt_kit.problem.PeriodicStencil` (the built-in problems) is the
eigenvalues of its four maps on the half spectrum of the grid's
Fourier basis (:class:`paraopt_kit.propagators.FourierBasis`), which it
carries in ``basis`` and lives in, with no M x M map. Its plan acts on
the real view of half spectra, as the propagator and the whole solve do
(:func:`paraopt_kit.core.paraopt_solve`): each application views its
input as the stack of half spectra, about M/2 + 2 complex modes per row,
does the FFTs in time and closed-form 2 x 2 (general) or scalar
(triangular) solves per (frequency, mode) over the whole stack, and
returns the real view of the result, with no spatial FFT.
For a dense K, normal or not, the coarse propagator holds dense maps, and
the plan acts on grid values and inverts the stack of its blocks once,
with numpy's LU (``np.linalg.inv``), as the whole package runs on numpy. A
block singular to rounding raises ValueError in the build: on the
spectral path a pivot below PIVOT_RTOL of its scale, on the dense one a
1-norm reciprocal condition number below PIVOT_RTOL, taken from the
inverse it keeps (np.linalg.cond runs only to name an exactly singular
block, for which np.linalg.inv refuses the stack).
The general method can instead solve its blocks matrix-free by inner GMRES,
through the actions of the coarse maps in their basis: in a FourierBasis a
block vector is the two half spectra of one frequency, M + s complex
entries. The plan names its
path in ``PreconditionerPlan.blocks``; the CLI writes it to
``summary.json`` as ``preconditioner_blocks``.

A_tilde P(alpha)^{-1} is the identity plus a term that writes only the
time slices y_1 and lam_Lhat, since P(alpha) differs from A_tilde only in
their rows. With a plan in a FourierBasis, spectral or black-box, the
solve therefore runs its inner GMRES in the (1 + 2 (M + s))-dimensional
space that this leaves (:class:`paraopt_kit.core._SliceSpace`), at one
application of the plan per outer step and the same inner counts and
residuals: delta = gamma z + Z s, with Z the plan's columns for those two
slices, kept from two probes; a plan on grid values (a dense K), and a
P(alpha)^{-1} that is not exact, keep flexible GMRES with the plan
applied at every inner step.

A real alpha makes P(alpha) real, so P(alpha)^{-1} of real data is real;
real data are the only input. A complex vector raises ValueError, and so
does a finite nonzero imaginary part of a self-conjugate mode of a half
spectrum, which real data do not have; inf and NaN are left to the
solve's finiteness checks. Any imaginary part of the result is rounding,
amplified by an ill-conditioned solve. Above IMAG_RESIDUE_RTOL of the
result's norm it raises FloatingPointError. On the half spectrum each
paired mode stands for the real data of its pair by construction, so
that imaginary part is, by Parseval, exactly the imaginary part of the
self-conjugate modes: the check is evaluated there, and those parts are
then set to 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from paraopt_kit.analysis import assemble_block_system
from paraopt_kit.numerics import GmresConfig, gmres
from paraopt_kit.problem import TimeDecomposition, require_int
from paraopt_kit.propagators import (
    AffinePropagator,
    FourierBasis,
    dense_maps,
    flat,
    linear_action,
    stack,
)


class InversionMethod(enum.Enum):
    GENERAL = "general"        # requires |alpha| = 1
    TRIANGULAR = "triangular"  # requires Psi_Q_tilde = 0, any alpha != 0


class SmallSystemMethod(enum.Enum):
    BLACK_BOX_ITERATIVE = "black_box_iterative"
    EXPLICIT_DIRECT = "explicit_direct"


IMAG_RESIDUE_RTOL = 1e-9
# a closed-form pivot below this share of its scale (the sum of the
# magnitudes of its terms, at least 1) is zero to rounding, and so is a
# dense block's 1-norm reciprocal condition number below it, read off the
# block's inverse: the block is singular
PIVOT_RTOL = 1e-12


def alpha_circulant_eigenvalues(L_hat: int, alpha: complex) -> np.ndarray:
    """Eigenvalues of C(alpha): the lower-shift matrix B (-1 on the first
    sub-diagonal) with an extra -alpha in the top-right corner. An L_hat
    below 1, or an alpha that is not finite and nonzero, raises
    ValueError, as does an L_hat that is not an integer (a bool or a
    float)."""
    require_int("L_hat", L_hat)
    if L_hat < 1:
        raise ValueError(f"L_hat must be at least 1, got {L_hat}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if alpha == 0:
        raise ValueError("alpha must be non-zero")
    c1 = np.zeros(L_hat, dtype=complex)
    if L_hat == 1:
        c1[0] = -alpha
    else:
        c1[1] = -1.0
    gamma = _gamma_diag(L_hat, alpha)
    return L_hat * np.fft.ifft(gamma * c1)


def _gamma_diag(L_hat: int, alpha: complex) -> np.ndarray:
    # principal branch of alpha^(1/L_hat)
    root = np.exp(np.log(complex(alpha)) / L_hat)
    return root ** np.arange(L_hat)


def _diagonal_solve(blocks: np.ndarray, scale: np.ndarray,
                    solve: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Solve with (diag(scale)^{-1} F^* kron I) blockdiag_l(H_l)
    (F diag(scale) kron I) on an (L_hat, m) or (2, L_hat, m) block stack,
    whose time axis is the second to last: scale, FFT along time, one
    batched solve(rhs) that applies H_l^{-1} to the rows l of rhs, inverse
    FFT, unscale. F uses the positive-exponent unitary convention."""
    rhs = np.fft.ifft(scale[:, None] * blocks, axis=-2, norm="ortho")
    # C-ordered, so that an action may view its last axis as real
    return np.ascontiguousarray(
        np.fft.fft(solve(rhs), axis=-2, norm="ortho") / scale[:, None])


def solve_block_blackbox(P: Callable, Q: Callable, d_l: complex,
                         rhs: np.ndarray) -> np.ndarray:
    """Solve the H_l system using only the callbacks (P, Q) of the linear
    part of the coarse maps (see ``propagators.linear_action``):
    H_l [x; z] = [x + P(d_l x, -z); z + Q(-x, conj(d_l) z)].
    Solved tightly (relative residual 1e-12) with inner GMRES so the
    preconditioner stays a fixed linear operator; a block that misses the
    tolerance raises LinAlgError.
    """
    M = len(rhs) // 2

    def op(u):
        x, z = u[:M], u[M:]
        return np.concatenate([x + P(d_l * x, -z),
                               z + Q(-x, np.conj(d_l) * z)])

    cfg = GmresConfig(rel_tolerance=1e-12, max_iterations=max(50, 8 * M))
    sol, rep = gmres(op, rhs.astype(complex), cfg=cfg)
    if not rep.converged:
        raise np.linalg.LinAlgError(
            f"black-box block solve did not reach {cfg.rel_tolerance:g} "
            f"(residual {rep.final_relative_residual:g})")
    return sol


@dataclass
class PreconditionerPlan:
    """Prepared P(alpha)^{-1}: one solve on the (2, L_hat, m) stack,
    composed once by :func:`build_plan` for its method from the Fourier
    weight diagonal Gamma and the batched per-frequency block solves, which
    hold the circulant eigenvalues d_l, and reused across all outer Newton
    iterations.

    ``basis`` is the space apply_inverse acts in: the half spectra of the
    coarse propagator's FourierBasis when it has one, grid values when it
    is None. A vector is real and is read as the (2, L_hat, m) stack of
    its state and adjoint rows: grid values of length ``M``, or the half
    spectra of which it is the real view. ``blocks`` names how the
    frequency blocks are solved:

    - ``"spectral"``: the coarse maps are diagonal in ``basis``, so every
      block splits into independent 2 x 2 (general method) or scalar
      (triangular method) solves per (frequency, mode) of its half
      spectrum, done in closed form for the whole stack. Only the four
      diagonals of the half spectrum are stored.
    - ``"lu"``: a coarse propagator with dense maps (a dense K); the
      stack of the H_l (general), or of each of their two diagonal blocks
      (triangular), is inverted once by numpy's LU, and each application
      multiplies row l by inverse l.
    - ``"black_box"``: each H_l is solved matrix-free by inner GMRES through
      the propagator callbacks, in ``basis`` (general method only), on the
      two half spectra of its frequency in a FourierBasis. The
      blocks are solved to 1e-12, far below core.SLICE_LEAK_RTOL, so in a
      FourierBasis the solve runs its slice-space inner GMRES with this
      plan as with a spectral one.
    """

    M: int
    L_hat: int
    blocks: str
    basis: Optional[FourierBasis]
    # P(alpha)^{-1} of a complex (2, L_hat, m) stack, the composed solve
    _solve: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """P(alpha)^{-1} v, v and the result real and in the plan's basis,
        read as the (2, L_hat, m) stack of state and adjoint rows: grid
        values, or the half spectra of which v is the real view. On half
        spectra the FFT acts on the time index and the basis on the space
        index, so they commute. Raises ValueError unless v is real data: a
        real vector of 2 L_hat (M + s) entries for the plan's L_hat and M
        (see propagators.stack), whose self-conjugate modes have no finite
        nonzero imaginary part."""
        vw = stack(self.basis, v, (2, self.L_hat), self.M)
        if self.basis is not None:
            imag = vw[..., :self.basis.self_count].imag
            if np.any(imag[np.isfinite(imag)]):
                raise ValueError("v is not real data: a self-conjugate mode "
                                 "has an imaginary part")
        xz = self._solve(vw)
        if self.basis is None:
            _check_real(xz, xz.imag)
            return xz.real.ravel()
        # real data have no imaginary part on the self-conjugate modes, so
        # that part of the result is rounding, as the whole of it on the grid
        s = self.basis.self_count
        _check_real(xz, xz[..., :s].imag)
        xz[..., :s].imag = 0.0
        return flat(xz)


def _require_nonsingular(values: np.ndarray, scales, what: Callable) -> None:
    """Raise ValueError naming the first frequency l, and what(l, j), whose
    value j is below PIVOT_RTOL times its scale, which is positive: a
    closed-form pivot, or a dense block's reciprocal condition number (of
    scale 1). Row l of values and of scales holds those of block l. An
    infinite value is not small, and a NaN one is left to the solve's
    finiteness checks."""
    small = abs(values) < PIVOT_RTOL * scales
    if small.any():
        l, j = np.argwhere(small)[0]
        raise ValueError(f"P(alpha) is singular: the block of frequency "
                         f"l = {l} has {what(l, j)}")


def _spectral_solves(method: InversionMethod, d: np.ndarray, diagonals,
                     basis: FourierBasis) -> tuple:
    """Closed-form per-(frequency, mode) solves on stacks of half spectra
    of basis, the common eigenbasis of the four maps, whose eigenvalues
    there diagonals holds: (H_l,) on the (2, L_hat, m) stack for the
    general method, (I + d_l Phi_P, I + conj(d_l) Phi_Q) on (L_hat, m)
    ones for the triangular. A solve singular to rounding raises
    ValueError."""
    phi_P, psi_P, phi_Q, psi_Q = diagonals
    a = 1.0 + np.outer(d, phi_P)           # (I + d_l Phi_P) per mode
    e = 1.0 + np.outer(np.conj(d), phi_Q)  # (I + conj(d_l) Phi_Q) per mode
    mode = lambda l, j: (f"a zero pivot at mode k = "
                         f"{divmod(int(basis.half[j]), basis.n)}")
    # the magnitudes of the terms of a and e
    a_terms = 1.0 + np.outer(abs(d), abs(phi_P))
    e_terms = 1.0 + np.outer(abs(d), abs(phi_Q))
    if method is InversionMethod.TRIANGULAR:
        _require_nonsingular(a, a_terms, mode)
        _require_nonsingular(e, e_terms, mode)
        return lambda rhs: rhs / a, lambda rhs: rhs / e
    # inverse of [[a, psi_P], [-psi_Q, e]] per (l, mode)
    det = a * e + psi_P * psi_Q
    _require_nonsingular(det, a_terms * e_terms + abs(psi_P * psi_Q), mode)
    i11, i12, i21, i22 = e / det, -psi_P / det, psi_Q / det, a / det

    def solve(rhs):
        r1, r2 = rhs
        return np.stack([i11 * r1 + i12 * r2, i21 * r1 + i22 * r2])
    return (solve,)


def _per_frequency(solve_l: Callable[[int, np.ndarray], np.ndarray]):
    """Batched solve from a per-frequency one, looping over l: solve_l(l, r)
    gets the rows l of the stack's blocks flattened, [v_l | w_l] for a
    (2, L_hat, m) stack, and returns H_l^{-1} r in the same order."""
    return lambda rhs: np.moveaxis(np.stack(
        [solve_l(l, r.ravel()).reshape(r.shape)
         for l, r in enumerate(np.moveaxis(rhs, -2, 0))]), 0, -2)


def _dense_solves(blocks) -> tuple:
    """Invert the blocks that blocks yields for each frequency l, a tuple
    of them per frequency, once, as one (L_hat, k, k) stack per place in
    the tuple: one batched solve per place, whose row l is multiplied by
    inverse l. A block whose 1-norm reciprocal condition number,
    1 / (||H||_1 ||H^{-1}||_1) as read off the kept inverse, is below
    PIVOT_RTOL, singular to rounding, raises ValueError. np.linalg.inv
    refuses the whole stack when a block is exactly singular; only then is
    np.linalg.cond called, to name that block, whose cond is inf."""
    stacks = [np.array(Hs) for Hs in zip(*blocks)]
    norm = lambda X: np.linalg.norm(X, 1, axis=(-2, -1))
    what = lambda l, j: f"the reciprocal condition number {rcond[l, j]:.1e}"
    try:
        inverses = [np.linalg.inv(H) for H in stacks]
    except np.linalg.LinAlgError:
        # cond is inf, so its reciprocal 0, for an exactly singular block
        rcond = np.stack([1.0 / np.linalg.cond(H, 1) for H in stacks], -1)
        _require_nonsingular(rcond, 1.0, what)
        raise
    rcond = np.stack([1.0 / (norm(H) * norm(X))
                      for H, X in zip(stacks, inverses)], -1)
    _require_nonsingular(rcond, 1.0, what)
    return tuple(_per_frequency(lambda l, rhs, X=X: X[l] @ rhs)
                 for X in inverses)


def build_plan(coarse: AffinePropagator, decomp: TimeDecomposition,
               alpha: float, method: InversionMethod,
               small_system_method: SmallSystemMethod = SmallSystemMethod.EXPLICIT_DIRECT,
               ) -> PreconditionerPlan:
    """Validate the (method, alpha, coarse) combination, prepare the
    L_hat block solves: spectral on the eigenvalues in ``coarse.maps``
    when it has a basis, by the inverses of the blocks of its dense maps,
    formed once by numpy, otherwise, or black-box when asked for, and
    compose them into the plan's one solve.
    General method (|alpha| = 1): one diagonalized solve of the whole
    stack. Triangular method (Psi_Q_tilde = 0, any alpha != 0): the
    bottom-right block first, then the top-left block on the right-hand
    side corrected by the coupling Psi_P z, the action
    ``coarse.actions[1]``, fetched at the first application. A block
    singular to rounding, or an alpha that is not finite, real and nonzero,
    raises ValueError; alpha_circulant_eigenvalues, called first, checks
    that it is finite and nonzero."""
    Lh = decomp.L_hat
    d = alpha_circulant_eigenvalues(Lh, alpha)
    if np.imag(alpha) != 0:
        # P(alpha)^{-1} of a real vector is complex then, which _check_real
        # would refuse with a FloatingPointError in the first application
        raise ValueError(f"alpha must be real, got {alpha}")
    if method is InversionMethod.GENERAL and abs(abs(alpha) - 1.0) > 1e-12:
        raise ValueError("the general method requires |alpha| = 1")
    # the eigenvalues of Psi_Q or its matrix: zero together
    psi_q_norm = np.linalg.norm(coarse.maps[3])
    if method is InversionMethod.TRIANGULAR and psi_q_norm != 0.0:
        raise ValueError("the triangular method requires Psi_Q_tilde = 0")
    if (method is InversionMethod.TRIANGULAR
            and small_system_method is not SmallSystemMethod.EXPLICIT_DIRECT):
        raise ValueError("the triangular method solves its M x M blocks "
                         "directly; the black-box small-system method "
                         "applies to the general method only")

    g = _gamma_diag(Lh, alpha)
    basis = coarse.basis
    if small_system_method is SmallSystemMethod.BLACK_BOX_ITERATIVE:
        blocks = "black_box"
        P, Q = linear_action(coarse)
        solves = (_per_frequency(
            lambda l, rhs: solve_block_blackbox(P, Q, d[l], rhs)),)
    elif basis is not None:
        blocks = "spectral"
        solves = _spectral_solves(method, d, coarse.maps, basis)
    else:  # H_l is the one-interval P(-d_l) of the block assembly
        blocks, M = "lu", coarse.M
        H_l = (assemble_block_system(coarse.maps, 1, coarse.objective,
                                     alpha=-dl) for dl in d)
        solves = _dense_solves(  # H_l, or its two diagonal blocks
            [H] if method is InversionMethod.GENERAL
            else [H[:M, :M], H[M:, M:]] for H in H_l)
    if method is InversionMethod.GENERAL:
        solve = lambda vw: _diagonal_solve(vw, g, solves[0])
    else:
        # the adjoint rows first; solves: of I + d_l Phi_P, then of
        # I + conj(d_l) Phi_Q
        def solve(vw):
            z = _diagonal_solve(vw[1], 1.0 / np.conj(g), solves[1])
            x = _diagonal_solve(vw[0] - coarse.actions[1](z), g, solves[0])
            return np.stack([x, z])
    return PreconditionerPlan(M=coarse.M, L_hat=Lh, blocks=blocks,
                              basis=basis, _solve=solve)


def _check_real(xz: np.ndarray, imag: np.ndarray) -> None:
    """Raise if imag, the imaginary part that the complex xz leaves in a
    real result, exceeds IMAG_RESIDUE_RTOL ||xz||."""
    nrm = np.linalg.norm(xz)
    residue = np.linalg.norm(imag)
    if nrm > 0 and residue > IMAG_RESIDUE_RTOL * nrm:
        raise FloatingPointError(
            f"imaginary residue {residue / nrm:.3e} exceeds threshold; "
            "check |alpha| and the block assembly")


def assemble_P_alpha(coarse: AffinePropagator, decomp: TimeDecomposition,
                     alpha: complex) -> np.ndarray:
    """Dense P(alpha) in the basis of coarse, the one its plan acts in;
    oracle for the inversion procedures."""
    return assemble_block_system(dense_maps(coarse), decomp.L_hat,
                                 coarse.objective, alpha)
