"""Alpha-circulant preconditioners for the coarse-grid-correction systems.

P(alpha) replaces the lower-shift coupling matrix B of the coarse Jacobian
by the alpha-circulant C(alpha) (and drops the terminal corner term), which
diagonalizes in a scaled Fourier basis. Applying P(alpha)^{-1} then reduces
to FFTs in time plus independent per-frequency solves: L_hat 2M x 2M solves
for the general method, two rounds of L_hat M x M solves for the triangular
one. alpha is real: for any other alpha, P(alpha)^{-1} of a real vector is
complex. The dense P(alpha) that the inversion is checked against comes
from the same block assembly as the coarse Jacobian,
:func:`paraopt_kit.analysis.assemble_block_system`.

How the frequency blocks are solved is chosen from the coarse maps, with no
option. When K is normal (symmetric heat, periodic advection-diffusion),
one unitary U, the complex Schur basis of Phi_P + Psi_P, diagonalizes all
four coarse maps; it is accepted only if every map keeps an off-diagonal
part of at most SPECTRAL_RTOL ||X||_F in it. The basis change acts on the
space index and commutes with the FFT in time, so each application is one
product into the basis, closed-form 2 x 2 (general) or scalar (triangular)
solves per (frequency, mode) over the whole stack, and one product back.
When the check fails (non-normal K), each block is LU-factorized once. The
general method can instead solve its blocks matrix-free by inner GMRES. The
plan names its path in ``PreconditionerPlan.blocks``; the CLI writes it to
``summary.json`` as ``preconditioner_blocks``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from paraopt_kit.analysis import assemble_block_system
from paraopt_kit.numerics import GmresConfig, gmres
from paraopt_kit.problem import TimeDecomposition
from paraopt_kit.propagators import AffinePropagator, linear_action


class InversionMethod(enum.Enum):
    GENERAL = "general"        # requires |alpha| = 1
    TRIANGULAR = "triangular"  # requires Psi_Q_tilde = 0, any alpha != 0


class SmallSystemMethod(enum.Enum):
    BLACK_BOX_ITERATIVE = "black_box_iterative"
    EXPLICIT_DIRECT = "explicit_direct"


IMAG_RESIDUE_RTOL = 1e-9
# largest off-diagonal part, relative to ||X||_F, a map X may keep in the
# shared eigenbasis of the spectral block solves
SPECTRAL_RTOL = 1e-12


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
                    solve: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Solve with (diag(scale)^{-1} F^* kron I) blockdiag_l(H_l)
    (F diag(scale) kron I) on an (L_hat, m) block stack: scale, FFT along
    time, one batched solve(rhs) whose row l is H_l^{-1} rhs[l], inverse
    FFT, unscale. F uses the positive-exponent unitary convention."""
    rhs = np.fft.ifft(scale[:, None] * blocks, axis=0, norm="ortho")
    return np.fft.fft(solve(rhs), axis=0, norm="ortho") / scale[:, None]


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


def solve_block_blackbox(P: Callable, Q: Callable, d_l: complex,
                         rhs: np.ndarray,
                         rel_tolerance: float = 1e-12) -> np.ndarray:
    """Solve the H_l system using only the callbacks (P, Q) of the linear
    part of the coarse maps (see ``propagators.linear_action``):
    H_l [x; z] = [x + P(d_l x, -z); z + Q(-x, conj(d_l) z)].
    Solved tightly with inner GMRES so the preconditioner stays a fixed
    linear operator; a block that misses the tolerance raises LinAlgError.
    """
    M = len(rhs) // 2

    def op(u):
        x, z = u[:M], u[M:]
        return np.concatenate([x + P(d_l * x, -z),
                               z + Q(-x, np.conj(d_l) * z)])

    cfg = GmresConfig(rel_tolerance=rel_tolerance, max_iterations=max(50, 8 * M))
    sol, rep = gmres(op, rhs.astype(complex), cfg=cfg)
    if not rep.converged:
        raise np.linalg.LinAlgError(
            f"black-box block solve did not reach {rel_tolerance:g} "
            f"(residual {rep.final_relative_residual:g})")
    return sol


@dataclass
class PreconditionerPlan:
    """Prepared data for applying P(alpha)^{-1}: the Fourier weight diagonal
    Gamma and the batched per-frequency block solves, which hold the
    circulant eigenvalues d_l, prepared once and reused across all outer
    Newton iterations.

    ``blocks`` names how the frequency blocks are solved:

    - ``"spectral"``: a unitary U diagonalizes all four coarse maps, so
      every block splits into independent 2 x 2 (general method) or scalar
      (triangular method) solves per (frequency, mode), done in closed form
      for the whole stack. Only U and four length-M diagonals are stored.
    - ``"lu"``: no such basis passed the off-diagonal check (non-normal K);
      each H_l (general), or I + d_l Phi_P and I + conj(d_l) Phi_Q
      (triangular), is LU-factorized once.
    - ``"black_box"``: each H_l is solved matrix-free by inner GMRES through
      the propagator callbacks (general method only).
    """

    method: InversionMethod
    coarse: AffinePropagator
    L_hat: int
    blocks: str
    gamma_diag: np.ndarray = field(repr=False)
    # general: (solve,); triangular: (solve_P, solve_Q, couple) with
    # couple(z) = Psi_P z row by row. All act on coefficients in _basis.
    _solves: tuple = field(repr=False)
    _basis: Optional[np.ndarray] = field(default=None, repr=False)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """P(alpha)^{-1} v. General method (|alpha| = 1): one diagonalized
        solve of the whole [v | w] stack. Triangular method (Psi_Q_tilde =
        0, any alpha != 0): the bottom-right block first, then the top-left
        block on the corrected right-hand side. The change into the basis U
        acts on the space index and the FFT on the time index, so they
        commute: the spectral path changes basis once on the way in and
        once on the way out."""
        M, U = self.coarse.M, self._basis
        input_real = not np.iscomplexobj(v)
        vw = np.asarray(v).reshape(2, self.L_hat, M)
        if U is not None:
            vw = vw @ U.conj()
        g = self.gamma_diag
        if self.method is InversionMethod.GENERAL:
            u = _diagonal_solve(np.concatenate(vw, axis=1), g, self._solves[0])
            xz = u.reshape(self.L_hat, 2, M).transpose(1, 0, 2)
        else:
            solve_P, solve_Q, couple = self._solves
            z = _diagonal_solve(vw[1], 1.0 / np.conj(g), solve_Q)
            xz = np.stack([_diagonal_solve(vw[0] - couple(z), g, solve_P), z])
        if U is not None:
            xz = xz @ U.T
        return _realize(xz, input_real)


def _shared_eigenbasis(coarse: AffinePropagator):
    """(U, diagonals): a unitary U with U^H X U diagonal for each coarse map
    X in (Phi_P, Psi_P, Phi_Q, Psi_Q), or None when the complex Schur basis
    of Phi_P + Psi_P leaves an off-diagonal part above SPECTRAL_RTOL ||X||_F
    in any of them (non-normal K). The sum separates eigenvalues that Phi_P
    alone collapses towards 0 for many coarse steps. The maps are real, so
    the complex Schur form is reached through the real one, in less than
    half the time of a complex Schur decomposition."""
    maps = (coarse.Phi_P, coarse.Psi_P, coarse.Phi_Q, coarse.Psi_Q)
    _, U = scipy.linalg.rsf2csf(*scipy.linalg.schur(maps[0] + maps[1]))
    diagonals = []
    for X in maps:
        D = U.conj().T @ X @ U
        diagonal = np.diag(D).copy()
        np.fill_diagonal(D, 0.0)
        if np.linalg.norm(D) > SPECTRAL_RTOL * np.linalg.norm(X):
            return None
        diagonals.append(diagonal)
    return U, diagonals


def _spectral_solves(method: InversionMethod, d: np.ndarray,
                     diagonals) -> tuple:
    """Closed-form per-(frequency, mode) solves on (L_hat, m) stacks of
    coefficients in the shared eigenbasis."""
    phi_P, psi_P, phi_Q, psi_Q = diagonals
    a = 1.0 + np.outer(d, phi_P)           # (I + d_l Phi_P) per mode
    e = 1.0 + np.outer(np.conj(d), phi_Q)  # (I + conj(d_l) Phi_Q) per mode
    if method is InversionMethod.TRIANGULAR:
        return (lambda rhs: rhs / a, lambda rhs: rhs / e,
                lambda z: z * psi_P)
    # inverse of [[a, psi_P], [-psi_Q, e]] per (l, mode)
    det = a * e + psi_P * psi_Q
    i11, i12, i21, i22 = e / det, -psi_P / det, psi_Q / det, a / det
    M = len(phi_P)

    def solve(rhs):
        r1, r2 = rhs[:, :M], rhs[:, M:]
        return np.concatenate([i11 * r1 + i12 * r2, i21 * r1 + i22 * r2],
                              axis=1)
    return (solve,)


def _per_frequency(solve_l: Callable[[int, np.ndarray], np.ndarray]):
    """Batched solve from a per-frequency one, looping over l."""
    return lambda rhs: np.stack([solve_l(l, r) for l, r in enumerate(rhs)])


def _lu_solves(blocks) -> Callable[[np.ndarray], np.ndarray]:
    """Factorize each frequency block once; row l reuses factor l."""
    lus = [scipy.linalg.lu_factor(H, overwrite_a=True) for H in blocks]
    return _per_frequency(lambda l, rhs: scipy.linalg.lu_solve(lus[l], rhs))


def build_plan(coarse: AffinePropagator, decomp: TimeDecomposition,
               alpha: float, method: InversionMethod,
               small_system_method: SmallSystemMethod = SmallSystemMethod.EXPLICIT_DIRECT,
               ) -> PreconditionerPlan:
    """Validate the (method, alpha, coarse) combination and prepare the
    L_hat block solves: spectral when the coarse maps share a unitary
    eigenbasis, per-block LU otherwise, or black-box when asked for."""
    if alpha == 0:
        raise ValueError("alpha must be non-zero")
    if np.imag(alpha) != 0:
        # P(alpha)^{-1} of a real vector is complex then, which _realize
        # would refuse in the first application
        raise ValueError(f"alpha must be real, got {alpha}")
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
    basis = None
    if small_system_method is SmallSystemMethod.BLACK_BOX_ITERATIVE:
        blocks = "black_box"
        P, Q = linear_action(coarse)
        solves = (_per_frequency(
            lambda l, rhs: solve_block_blackbox(P, Q, d[l], rhs)),)
    elif (eigen := _shared_eigenbasis(coarse)) is not None:
        blocks = "spectral"
        basis, diagonals = eigen
        solves = _spectral_solves(method, d, diagonals)
    elif method is InversionMethod.TRIANGULAR:
        blocks = "lu"
        I = np.eye(coarse.M)
        solves = (_lu_solves(I + dl * coarse.Phi_P for dl in d),
                  _lu_solves(I + np.conj(dl) * coarse.Phi_Q for dl in d),
                  lambda z: z @ coarse.Psi_P.T)
    else:
        blocks = "lu"
        solves = (_lu_solves(assemble_H_block(coarse, dl) for dl in d),)
    return PreconditionerPlan(method=method, coarse=coarse, L_hat=Lh,
                              blocks=blocks, gamma_diag=_gamma_diag(Lh, alpha),
                              _solves=solves, _basis=basis)


def _realize(xz: np.ndarray, input_real: bool) -> np.ndarray:
    out = xz.ravel()
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
    return assemble_block_system(
        (coarse.Phi_P, coarse.Psi_P, coarse.Phi_Q, coarse.Psi_Q),
        decomp.L_hat, coarse.objective, alpha)
