"""Alpha-circulant preconditioners for the coarse-grid-correction systems.

P(alpha) replaces the lower-shift coupling matrix B of the coarse Jacobian
by the alpha-circulant C(alpha) (and drops the terminal corner term), which
diagonalizes in a scaled Fourier basis. Applying P(alpha)^{-1} then reduces
to FFTs in time plus independent per-frequency solves: L_hat 2M x 2M solves
for the general method, two rounds of L_hat M x M solves for the triangular
one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

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


def _diagonal_solve(blocks: np.ndarray, scale: np.ndarray,
                    solve: Callable[[int, np.ndarray], np.ndarray]) -> np.ndarray:
    """Solve with (diag(scale)^{-1} F^* kron I) blockdiag_l(H_l)
    (F diag(scale) kron I) on an (L_hat, m) block stack: scale, FFT along
    time, one solve(l, rhs_l) = H_l^{-1} rhs_l per frequency, inverse FFT,
    unscale. F uses the positive-exponent unitary convention."""
    rhs = np.fft.ifft(scale[:, None] * blocks, axis=0, norm="ortho")
    sol = np.empty_like(rhs)
    for l in range(len(rhs)):
        sol[l] = solve(l, rhs[l])
    return np.fft.fft(sol, axis=0, norm="ortho") / scale[:, None]


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
    the Fourier weight diagonal Gamma, and the per-frequency block solves
    (factorized once and reused across all outer Newton iterations): H_l
    for the general method; I + d_l Phi_P and I + conj(d_l) Phi_Q for the
    triangular one."""

    alpha: complex
    method: InversionMethod
    d: np.ndarray
    coarse: AffinePropagator
    L_hat: int
    gamma_diag: np.ndarray = field(repr=False)
    _solves: tuple = field(repr=False)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """P(alpha)^{-1} v. General method (|alpha| = 1): one diagonalized
        solve of the whole [v | w] stack. Triangular method (Psi_Q_tilde =
        0, any alpha != 0): the bottom-right block first, then the top-left
        block on the corrected right-hand side."""
        M = self.coarse.M
        input_real = not np.iscomplexobj(v)
        vb, wb = np.asarray(v).reshape(2, self.L_hat, M)
        g = self.gamma_diag
        if self.method is InversionMethod.GENERAL:
            u = _diagonal_solve(np.concatenate([vb, wb], axis=1), g,
                                self._solves[0])
            return _realize(u[:, :M], u[:, M:], input_real)
        solve_P, solve_Q = self._solves
        z = _diagonal_solve(wb, 1.0 / np.conj(g), solve_Q)
        x = _diagonal_solve(vb - z @ self.coarse.Psi_P.T, g, solve_P)
        return _realize(x, z, input_real)


def _lu_solves(blocks) -> Callable[[int, np.ndarray], np.ndarray]:
    """Factorize each frequency block once; solve(l, rhs) reuses factor l."""
    lus = [scipy.linalg.lu_factor(H, overwrite_a=True) for H in blocks]
    return lambda l, rhs: scipy.linalg.lu_solve(lus[l], rhs)


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
    if (method is InversionMethod.TRIANGULAR
            and small_system_method is not SmallSystemMethod.EXPLICIT_DIRECT):
        raise ValueError("the triangular method solves its M x M blocks "
                         "directly; the black-box small-system method "
                         "applies to the general method only")

    Lh = decomp.L_hat
    d = alpha_circulant_eigenvalues(Lh, alpha)
    if method is InversionMethod.TRIANGULAR:
        I = np.eye(coarse.M)
        solves = (_lu_solves(I + dl * coarse.Phi_P for dl in d),
                  _lu_solves(I + np.conj(dl) * coarse.Phi_Q for dl in d))
    elif small_system_method is SmallSystemMethod.BLACK_BOX_ITERATIVE:
        view = black_box_view(coarse)
        solves = (lambda l, rhs: solve_block_blackbox(view, d[l], rhs),)
    else:
        solves = (_lu_solves(assemble_H_block(coarse, dl) for dl in d),)
    return PreconditionerPlan(alpha=complex(alpha), method=method, d=d,
                              coarse=coarse, L_hat=Lh,
                              gamma_diag=_gamma_diag(Lh, alpha),
                              _solves=solves)


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
