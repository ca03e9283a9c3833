"""Alpha-circulant preconditioners for the coarse-grid-correction systems.

P(alpha) replaces the lower-shift coupling matrix B of the coarse Jacobian
by the alpha-circulant C(alpha) (and drops the terminal corner term), which
diagonalizes in a scaled Fourier basis. Applying P(alpha)^{-1} then reduces
to FFTs plus L_hat independent 2M x 2M solves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from paraopt_kit.numerics import GmresConfig, gmres
from paraopt_kit.problem import TimeDecomposition
from paraopt_kit.propagators import AffinePropagator, black_box_view


class InversionMethod(enum.Enum):
    GENERAL = "general"        # requires |alpha| = 1
    TRIANGULAR = "triangular"  # requires Psi_Q_tilde = 0, any alpha != 0


class SmallSystemMethod(enum.Enum):
    BLACK_BOX_ITERATIVE = "black_box_iterative"
    EXPLICIT_DIRECT = "explicit_direct"


IMAG_RESIDUE_RTOL = 1e-9


def alpha_circulant_eigenvalues(L_hat: int, alpha: complex) -> np.ndarray:
    """Eigenvalues of C(alpha): the lower-shift matrix B (-1 on the first
    sub-diagonal) with an extra -alpha in the top-right corner."""
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


def _fwd(blocks: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(F diag(scale) kron I) applied to (L_hat, M) block stacks; F uses the
    positive-exponent unitary convention."""
    return np.fft.ifft(scale[:, None] * blocks, axis=0, norm="ortho")


def _bwd(blocks: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(diag(scale) F^* kron I) applied to (L_hat, M) block stacks."""
    return scale[:, None] * np.fft.fft(blocks, axis=0, norm="ortho")


def assemble_H_block(coarse: AffinePropagator, d_l: complex) -> np.ndarray:
    """The 2M x 2M frequency block [[I + d_l Phi_P, Psi_P],
    [-Psi_Q, I + conj(d_l) Phi_Q]], written into one Fortran-ordered array
    so that LAPACK can factorize it in place."""
    M = coarse.M
    H = np.empty((2 * M, 2 * M), dtype=complex, order="F")
    np.multiply(d_l, coarse.Phi_P, out=H[:M, :M])
    H[:M, M:] = coarse.Psi_P
    np.negative(coarse.Psi_Q, out=H[M:, :M])
    np.multiply(np.conj(d_l), coarse.Phi_Q, out=H[M:, M:])
    H[np.diag_indices(2 * M)] += 1.0
    return H


def solve_block_blackbox(view, d_l: complex, rhs: np.ndarray,
                         rel_tolerance: float = 1e-12) -> np.ndarray:
    """Solve the H_l system using only affine propagator callbacks.

    H_l [x; z] = [x + P(d_l x, -z) - P(0,0); z + Q(-x, conj(d_l) z) - Q(0,0)].
    Solved tightly with inner GMRES so the preconditioner stays a fixed
    linear operator.
    """
    M = len(view.P0)

    def op(u):
        x, z = u[:M], u[M:]
        top = x + view.P(d_l * x, -z) - view.P0
        bot = z + view.Q(-x, np.conj(d_l) * z) - view.Q0
        return np.concatenate([top, bot])

    cfg = GmresConfig(rel_tolerance=rel_tolerance, max_iterations=max(50, 8 * M))
    sol, rep = gmres(op, rhs.astype(complex), cfg=cfg)
    if not rep.converged:
        raise RuntimeError(
            f"black-box block solve did not reach {rel_tolerance:g} "
            f"(residual {rep.final_relative_residual:g})")
    return sol


@dataclass
class PreconditionerPlan:
    """Prepared data for applying P(alpha)^{-1}: the circulant eigenvalues,
    the Fourier/weight diagonals, and per-block solvers (factorized once and
    reused across all outer Newton iterations)."""

    alpha: complex
    method: InversionMethod
    small_system_method: SmallSystemMethod
    d: np.ndarray
    coarse: AffinePropagator
    L_hat: int
    gamma_diag: np.ndarray = field(repr=False)
    _lu_blocks: Optional[list] = field(default=None, repr=False)
    _tri_lu_P: Optional[list] = field(default=None, repr=False)
    _tri_lu_Q: Optional[list] = field(default=None, repr=False)
    _bbox_view: Optional[object] = field(default=None, repr=False)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        if self.method is InversionMethod.GENERAL:
            return apply_inverse_general(self, v)
        return apply_inverse_triangular(self, v)

    def _solve_block(self, l: int, rhs: np.ndarray) -> np.ndarray:
        if self.small_system_method is SmallSystemMethod.BLACK_BOX_ITERATIVE:
            return solve_block_blackbox(self._bbox_view, self.d[l], rhs)
        return scipy.linalg.lu_solve(self._lu_blocks[l], rhs)


def build_plan(coarse: AffinePropagator, decomp: TimeDecomposition,
               alpha: complex, method: InversionMethod,
               small_system_method: SmallSystemMethod = SmallSystemMethod.EXPLICIT_DIRECT,
               ) -> PreconditionerPlan:
    """Validate the (method, alpha, coarse) combination and factorize the
    L_hat block systems."""
    if alpha == 0:
        raise ValueError("alpha must be non-zero")
    if method is InversionMethod.GENERAL and abs(abs(alpha) - 1.0) > 1e-12:
        raise ValueError("the general method requires |alpha| = 1")
    psi_q_norm = np.linalg.norm(coarse.Psi_Q)
    if method is InversionMethod.TRIANGULAR and psi_q_norm != 0.0:
        raise ValueError("the triangular method requires Psi_Q_tilde = 0")

    Lh = decomp.L_hat
    d = alpha_circulant_eigenvalues(Lh, alpha)
    plan = PreconditionerPlan(alpha=complex(alpha), method=method,
                              small_system_method=small_system_method,
                              d=d, coarse=coarse, L_hat=Lh,
                              gamma_diag=_gamma_diag(Lh, alpha))

    if method is InversionMethod.TRIANGULAR:
        I = np.eye(coarse.M)
        plan._tri_lu_P = [scipy.linalg.lu_factor(I + dl * coarse.Phi_P)
                          for dl in d]
        plan._tri_lu_Q = [scipy.linalg.lu_factor(I + np.conj(dl) * coarse.Phi_Q)
                          for dl in d]
        return plan

    if small_system_method is SmallSystemMethod.BLACK_BOX_ITERATIVE:
        plan._bbox_view = black_box_view(coarse)
        return plan

    plan._lu_blocks = [scipy.linalg.lu_factor(assemble_H_block(coarse, dl),
                                              overwrite_a=True)
                       for dl in d]
    return plan


def _split(v: np.ndarray, Lh: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    half = Lh * M
    return (v[:half].reshape(Lh, M).astype(complex),
            v[half:].reshape(Lh, M).astype(complex))


def _realize(x: np.ndarray, z: np.ndarray, input_real: bool) -> np.ndarray:
    out = np.concatenate([x.ravel(), z.ravel()])
    if not input_real:
        return out
    nrm = np.linalg.norm(out)
    residue = np.linalg.norm(out.imag)
    if nrm > 0 and residue > IMAG_RESIDUE_RTOL * nrm:
        raise FloatingPointError(
            f"imaginary residue {residue / nrm:.3e} exceeds threshold; "
            "check |alpha| and the block assembly")
    return out.real


def apply_inverse_general(plan: PreconditionerPlan, v: np.ndarray) -> np.ndarray:
    """P(alpha)^{-1} v via simultaneous diagonalization (needs |alpha| = 1):
    forward F*Gamma transforms, L_hat independent H_l solves, inverse
    Gamma^{-1}*F^* transforms."""
    if plan.method is not InversionMethod.GENERAL:
        raise ValueError("plan was not built for the general method")
    Lh, M = plan.L_hat, plan.coarse.M
    input_real = not np.iscomplexobj(v)
    vb, wb = _split(v, Lh, M)
    g = plan.gamma_diag
    rhs = np.concatenate([_fwd(vb, g), _fwd(wb, g)], axis=1)
    sol = np.empty_like(rhs)
    for l in range(Lh):
        sol[l] = plan._solve_block(l, rhs[l])
    ginv = 1.0 / g
    return _realize(_bwd(sol[:, :M], ginv), _bwd(sol[:, M:], ginv), input_real)


def apply_inverse_triangular(plan: PreconditionerPlan, v: np.ndarray) -> np.ndarray:
    """P(alpha)^{-1} v for block-triangular P (Psi_Q_tilde = 0): invert the
    bottom-right block first, then the top-left block on the corrected
    right-hand side. Any alpha != 0 is admissible."""
    if plan.method is not InversionMethod.TRIANGULAR:
        raise ValueError("plan was not built for the triangular method")
    Lh, M = plan.L_hat, plan.coarse.M
    input_real = not np.iscomplexobj(v)
    vb, wb = _split(v, Lh, M)
    g = plan.gamma_diag

    # phase 1: bottom-right block
    s1 = _fwd(wb, 1.0 / np.conj(g))
    s2 = np.empty_like(s1)
    for l in range(Lh):
        s2[l] = scipy.linalg.lu_solve(plan._tri_lu_Q[l], s1[l])
    z = _bwd(s2, np.conj(g))

    # phase 2: top-left block on the corrected right-hand side
    r2 = _fwd(vb - z @ plan.coarse.Psi_P.T, g)
    r3 = np.empty_like(r2)
    for l in range(Lh):
        r3[l] = scipy.linalg.lu_solve(plan._tri_lu_P[l], r2[l])
    x = _bwd(r3, 1.0 / g)
    return _realize(x, z, input_real)


def assemble_P_alpha(coarse: AffinePropagator, decomp: TimeDecomposition,
                     alpha: complex) -> np.ndarray:
    """Dense P(alpha); oracle for the inversion procedures."""
    Lh, M = decomp.L_hat, coarse.M
    B = np.zeros((Lh, Lh))
    for l in range(1, Lh):
        B[l, l - 1] = -1.0
    C = B.astype(complex)
    C[0, Lh - 1] = -alpha
    I_L = np.eye(Lh)
    I_M = np.eye(M)
    top = np.hstack([np.kron(I_L, I_M) + np.kron(C, coarse.Phi_P),
                     np.kron(I_L, coarse.Psi_P)])
    bot = np.hstack([-np.kron(I_L, coarse.Psi_Q),
                     np.kron(I_L, I_M) + np.kron(C.conj().T, coarse.Phi_Q)])
    return np.vstack([top, bot])
