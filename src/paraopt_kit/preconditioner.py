"""Alpha-circulant preconditioners for the coarse-grid-correction systems.

P(alpha) replaces the lower-shift coupling matrix B of the coarse Jacobian
by the alpha-circulant C(alpha) (and drops the terminal corner term), which
diagonalizes in a scaled Fourier basis. Applying P(alpha)^{-1} then reduces
to FFTs in time plus independent per-frequency solves: L_hat 2M x 2M solves
for the general method, two rounds of L_hat M x M solves for the triangular
one. Every path reads its input as the (2, L_hat, M) stack of state and
adjoint rows that the whole solve uses, with time on the second to last
axis, the one the FFTs run along. The 2M x 2M block H_l of frequency l,
[[I + d_l Phi_P, Psi_P], [-Psi_Q, I + conj(d_l) Phi_Q]] with d_l the l-th
eigenvalue of C(alpha), is the one-interval P(-d_l). alpha is real: for any
other alpha, P(alpha)^{-1} of a real vector is complex. The dense P(alpha)
that the inversion is checked against, and the H_l that the LU path
factorizes, come from the same block assembly as the coarse Jacobian,
:func:`paraopt_kit.analysis.assemble_block_system`; the oracle takes its
dense maps from :func:`paraopt_kit.propagators.dense_maps`, in the basis
of the coarse propagator, which is the one the plan acts in.

How the frequency blocks are solved is chosen from the coarse maps, with no
option. A coarse propagator built for a problem whose K is a
:class:`paraopt_kit.problem.PeriodicStencil` (the built-in problems) is the
eigenvalues of its four maps on the half spectrum of the grid's real
Fourier basis (:class:`paraopt_kit.propagators.FourierBasis`), which it
carries in ``basis`` and lives in, with no M x M map. Its plan acts on real
coefficients in that basis, as the propagator and the whole solve do
(:func:`paraopt_kit.core.paraopt_solve`): each application reads them as
the half spectrum, about M/2 + 2 complex modes, does the FFTs in time and
closed-form 2 x 2 (general) or scalar (triangular) solves per (frequency,
mode) over the whole stack, and reads the result back, with no spatial FFT.
For a dense K, normal or not, the coarse propagator holds dense maps, and
the plan acts on grid values and LU-factorizes each block once. A block
with a pivot below PIVOT_RTOL of its scale, singular to rounding, of
either path, raises ValueError in the build.
The general method can instead solve its blocks matrix-free by inner GMRES,
through the actions of the coarse maps in their basis. The plan names its
path in ``PreconditionerPlan.blocks``; the CLI writes it to
``summary.json`` as ``preconditioner_blocks``.

A_tilde P(alpha)^{-1} is the identity plus a term that writes only the
time slices y_1 and lam_Lhat, since P(alpha) differs from A_tilde only in
their rows. With a plan in a FourierBasis, spectral or black-box, the
solve therefore runs its inner GMRES in the (1 + 2M)-dimensional space
that this leaves (:class:`paraopt_kit.core._SliceSpace`), at two
applications of the plan per outer step and the same inner counts and
residuals; a plan on grid values (a dense K), and a P(alpha)^{-1} that is
not exact, keep flexible GMRES with the plan applied at every inner step.

A real alpha makes P(alpha) real, so P(alpha)^{-1} of real data is real;
real data are the only input, and a complex vector raises ValueError. Any
imaginary part of the result is rounding, amplified by an
ill-conditioned solve. Above IMAG_RESIDUE_RTOL of the result's norm it
raises FloatingPointError. On the half spectrum each paired mode stands
for the real data of its pair by construction, so that imaginary part is,
by Parseval, exactly the imaginary part of the self-conjugate modes, and
the check is evaluated there.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from paraopt_kit.analysis import assemble_block_system
from paraopt_kit.core import _require
from paraopt_kit.numerics import GmresConfig, gmres
from paraopt_kit.problem import TimeDecomposition
from paraopt_kit.propagators import (
    AffinePropagator,
    FourierBasis,
    dense_maps,
    linear_action,
)


class InversionMethod(enum.Enum):
    GENERAL = "general"        # requires |alpha| = 1
    TRIANGULAR = "triangular"  # requires Psi_Q_tilde = 0, any alpha != 0


class SmallSystemMethod(enum.Enum):
    BLACK_BOX_ITERATIVE = "black_box_iterative"
    EXPLICIT_DIRECT = "explicit_direct"


IMAG_RESIDUE_RTOL = 1e-9
# a pivot below this share of its scale (the largest entry of an LU block;
# the sum of the magnitudes of the terms of a closed-form one, at least 1)
# is zero to rounding, and the block singular
PIVOT_RTOL = 1e-12


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
    (F diag(scale) kron I) on an (L_hat, m) or (2, L_hat, m) block stack,
    whose time axis is the second to last: scale, FFT along time, one
    batched solve(rhs) that applies H_l^{-1} to the rows l of rhs, inverse
    FFT, unscale. F uses the positive-exponent unitary convention."""
    rhs = np.fft.ifft(scale[:, None] * blocks, axis=-2, norm="ortho")
    return np.fft.fft(solve(rhs), axis=-2, norm="ortho") / scale[:, None]


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
    """Prepared data for applying P(alpha)^{-1}: the Fourier weight diagonal
    Gamma and the batched per-frequency block solves, which hold the
    circulant eigenvalues d_l, prepared once and reused across all outer
    Newton iterations.

    ``basis`` is the space apply_inverse acts in: the real coefficients of
    the coarse propagator's FourierBasis when it has one, grid values when
    it is None. A vector is real and is read as the (2, L_hat, M) stack of
    its state and adjoint rows, ``M`` the length of one row. ``blocks``
    names how the frequency blocks are solved:

    - ``"spectral"``: the coarse maps are diagonal in ``basis``, so every
      block splits into independent 2 x 2 (general method) or scalar
      (triangular method) solves per (frequency, mode) of its half
      spectrum, done in closed form for the whole stack. Only the four
      diagonals of the half spectrum are stored.
    - ``"lu"``: a coarse propagator with dense maps (a dense K);
      each H_l (general), or I + d_l Phi_P and I + conj(d_l) Phi_Q
      (triangular), is LU-factorized once.
    - ``"black_box"``: each H_l is solved matrix-free by inner GMRES through
      the propagator callbacks, in ``basis`` (general method only). The
      blocks are solved to 1e-12, far below core.SLICE_LEAK_RTOL, so in a
      FourierBasis the solve runs its slice-space inner GMRES with this
      plan as with a spectral one.
    """

    method: InversionMethod
    M: int
    L_hat: int
    blocks: str
    basis: Optional[FourierBasis]
    gamma_diag: np.ndarray = field(repr=False)
    # general: (solve,) on the (2, L_hat, m) stack; triangular: (solve_P,
    # solve_Q, couple) on (L_hat, m) stacks, with couple(z) = Psi_P z row
    # by row; on the half spectrum when spectral
    _solves: tuple = field(repr=False)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """P(alpha)^{-1} v, v and the result real and in the plan's basis,
        read as the (2, L_hat, M) stack of state and adjoint rows. General
        method (|alpha| = 1): one diagonalized solve of the whole stack.
        Triangular method (Psi_Q_tilde = 0, any alpha != 0): the
        bottom-right block first, then the top-left block on the corrected
        right-hand side. The spectral path runs on the half spectrum of
        the basis: its change acts on the space index and the FFT on the
        time index, so they commute. Raises ValueError unless v is real
        and has 2 L_hat M entries for the plan's L_hat and M."""
        _require("the length of v", len(v), "2 L_hat M",
                 2 * self.L_hat * self.M)
        if np.iscomplexobj(v):
            raise ValueError(f"v must be real, as P(alpha) is; got {v.dtype}")
        spectral = self.blocks == "spectral"
        g = self.gamma_diag
        vw = np.reshape(v, (2, self.L_hat, self.M))
        if spectral:
            vw = self.basis.to_half(vw)
        if self.method is InversionMethod.GENERAL:
            xz = _diagonal_solve(vw, g, self._solves[0])
        else:
            solve_P, solve_Q, couple = self._solves
            z = _diagonal_solve(vw[1], 1.0 / np.conj(g), solve_Q)
            xz = np.stack([_diagonal_solve(vw[0] - couple(z), g, solve_P), z])
        if spectral:
            _check_real(xz, xz[..., :self.basis.self_count].imag)
            return self.basis.from_half(xz).ravel()
        _check_real(xz, xz.imag)
        return xz.real.ravel()


def _require_nonsingular(pivots: np.ndarray, scales: np.ndarray,
                         where: Callable) -> None:
    """Raise ValueError naming the first frequency l, and where(j), whose
    pivot j is below PIVOT_RTOL times its scale, which is positive; row l
    of pivots and of scales holds those of block l. An infinite pivot is
    not small, and a NaN one is left to the solve's finiteness checks."""
    small = abs(pivots) < PIVOT_RTOL * scales
    if small.any():
        l, j = np.argwhere(small)[0]
        raise ValueError(f"P(alpha) is singular: the block of frequency "
                         f"l = {l} has a zero pivot at {where(j)}")


def _spectral_solves(method: InversionMethod, d: np.ndarray, diagonals,
                     basis: FourierBasis) -> tuple:
    """Closed-form per-(frequency, mode) solves on stacks of coefficients
    in the common eigenbasis of the four maps, whose eigenvalues on the
    half spectrum of basis diagonals holds: the (2, L_hat, m) stack for
    the general method, (L_hat, m) ones for the triangular. A solve
    singular to rounding raises ValueError."""
    phi_P, psi_P, phi_Q, psi_Q = diagonals
    a = 1.0 + np.outer(d, phi_P)           # (I + d_l Phi_P) per mode
    e = 1.0 + np.outer(np.conj(d), phi_Q)  # (I + conj(d_l) Phi_Q) per mode
    mode = lambda j: f"mode k = {divmod(int(basis.half[j]), basis.n)}"
    # the magnitudes of the terms of a and e
    a_terms = 1.0 + np.outer(abs(d), abs(phi_P))
    e_terms = 1.0 + np.outer(abs(d), abs(phi_Q))
    if method is InversionMethod.TRIANGULAR:
        _require_nonsingular(a, a_terms, mode)
        _require_nonsingular(e, e_terms, mode)
        return (lambda rhs: rhs / a, lambda rhs: rhs / e,
                lambda z: z * psi_P)
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


def _lu_solves(blocks) -> Callable[[np.ndarray], np.ndarray]:
    """Factorize each frequency block once; row l reuses factor l. A block
    singular to rounding raises ValueError."""
    lus, scales = [], []
    with warnings.catch_warnings():
        # scipy warns of a zero pivot, which is refused below instead
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        for H in blocks:
            scales.append(np.max(abs(H)))
            lus.append(scipy.linalg.lu_factor(H, overwrite_a=True))
    _require_nonsingular(np.array([np.diagonal(lu) for lu, _ in lus]),
                         np.array(scales)[:, None],
                         lambda i: f"row {i} of its LU factors")
    return _per_frequency(lambda l, rhs: scipy.linalg.lu_solve(lus[l], rhs))


def build_plan(coarse: AffinePropagator, decomp: TimeDecomposition,
               alpha: float, method: InversionMethod,
               small_system_method: SmallSystemMethod = SmallSystemMethod.EXPLICIT_DIRECT,
               ) -> PreconditionerPlan:
    """Validate the (method, alpha, coarse) combination and prepare the
    L_hat block solves: spectral on the eigenvalues in ``coarse.maps``
    when it has a basis, per-block LU of its dense maps otherwise, or
    black-box when asked for. A block singular to rounding raises
    ValueError."""
    if alpha == 0:
        raise ValueError("alpha must be non-zero")
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

    Lh = decomp.L_hat
    d = alpha_circulant_eigenvalues(Lh, alpha)
    basis = coarse.basis
    if small_system_method is SmallSystemMethod.BLACK_BOX_ITERATIVE:
        blocks = "black_box"
        P, Q = linear_action(coarse)
        solves = (_per_frequency(
            lambda l, rhs: solve_block_blackbox(P, Q, d[l], rhs)),)
    elif basis is not None:
        blocks = "spectral"
        solves = _spectral_solves(method, d, coarse.maps, basis)
    elif method is InversionMethod.TRIANGULAR:
        blocks = "lu"
        I = np.eye(coarse.M)
        Phi_P, Psi_P, Phi_Q, _ = coarse.maps
        solves = (_lu_solves(I + dl * Phi_P for dl in d),
                  _lu_solves(I + np.conj(dl) * Phi_Q for dl in d),
                  lambda z: z @ Psi_P.T)
    else:
        blocks = "lu"
        solves = (_lu_solves(assemble_block_system(
            coarse.maps, 1, coarse.objective, alpha=-dl) for dl in d),)
    return PreconditionerPlan(method=method, M=coarse.M, L_hat=Lh,
                              blocks=blocks, basis=basis,
                              gamma_diag=_gamma_diag(Lh, alpha),
                              _solves=solves)


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
