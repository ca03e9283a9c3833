"""Scalar convergence analysis of the coupled Newton iteration.

For a normal system matrix K the iteration matrix decouples, per eigenvalue
sigma of K, into a 2*L_hat x 2*L_hat matrix S_sigma built from four scalar
propagation coefficients: phi/psi for the fine propagator and
phi_tilde/psi_tilde for the coarse one. This module provides the coefficient
catalog (closed forms for implicit-Euler and exact sub-interval solvers),
L_hat-independent contraction bounds rho_star, the exact spectral radius of
S_sigma as an oracle, and grid sweeps producing contour-plot data.

It also holds the one dense assembly of the ParaOpt block system,
:func:`assemble_block_system`: with 1 x 1 maps it gives the two systems
behind S_sigma; with M x M maps it is the dense coarse Jacobian of
:mod:`paraopt_kit.core` and, given alpha, the dense P(alpha) of
:mod:`paraopt_kit.preconditioner`, the oracles their fast paths are tested
against. It lives here, the lowest layer, because the other two import it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from paraopt_kit.problem import Discretization, ObjectiveKind


@dataclass(frozen=True)
class PhiPsi:
    """One propagator's scalar coefficients at a single eigenvalue sigma:
    y-component decays by phi per sub-interval and picks up -psi times the
    rescaled adjoint."""

    phi: float
    psi: float


def _require_valid(pp: PhiPsi, sigma: float, where: str) -> PhiPsi:
    # contraction requires 0 < phi < 1 and psi > 0 once sigma > 0;
    # phi == 0.0 is tolerated as the underflow of a positive quantity
    # (exp(-sigma_hat) for sigma_hat beyond ~745)
    if sigma > 0 and not (0.0 <= pp.phi < 1.0 and pp.psi > 0.0):
        raise ValueError(f"{where}: coefficients ({pp.phi}, {pp.psi}) leave "
                         f"the admissible range at sigma={sigma}")
    return pp


def _sinhc_scaled(s: float) -> float:
    """exp(-s)*sinh(s)/s for s >= 0, overflow-free (limit 1 at s = 0)."""
    if s == 0.0:
        return 1.0
    return -np.expm1(-2.0 * s) / (2.0 * s)


def phi_psi_tracking_ie(sigma: float, gamma: float, tau: float, J: int) -> PhiPsi:
    """Coefficients of the J-step implicit-Euler propagator for the tracking
    objective, via the per-step Riccati-style recursion started from the
    identity map (phi=1, psi=0)."""
    if J < 1 or tau <= 0 or gamma <= 0:
        raise ValueError("need J >= 1, tau > 0, gamma > 0")
    zeta = 1.0 + sigma * tau
    g = tau / np.sqrt(gamma)
    phi, psi = 1.0, 0.0
    for _ in range(J):
        psi_new = (g + (1.0 + g * g) * psi / zeta) / (zeta + g * psi)
        phi = phi * (1.0 / zeta - g * (psi_new - g / zeta))
        psi = psi_new
    return _require_valid(PhiPsi(phi, psi), sigma, "tracking IE")


def _tracking_exact(sh: float, gh: float) -> PhiPsi:
    """Unchecked exact tracking coefficients in hatted variables."""
    s = np.hypot(sh, gh)
    if s == 0.0:
        return PhiPsi(1.0, 0.0)
    # scaled by exp(-s) to stay finite for large s:
    # cosh(s) = exp(s)*a, sinh(s)/s = exp(s)*b
    a = (1.0 + np.exp(-2.0 * s)) / 2.0
    b = _sinhc_scaled(s)
    den = a + sh * b
    return PhiPsi(np.exp(-s) / den, gh * b / den)


def phi_psi_tracking_exact(sigma: float, gamma: float, DT: float) -> PhiPsi:
    """Coefficients of the exact sub-interval solver for tracking:
    with s = sqrt(sigma_hat^2 + gamma_hat^2),
    phi = 1/(cosh s + sigma_hat*sinh(s)/s) and psi = gamma_hat*sinhc(s)*phi."""
    if DT <= 0 or gamma <= 0:
        raise ValueError("need DT > 0, gamma > 0")
    return _require_valid(_tracking_exact(DT * sigma, DT / np.sqrt(gamma)),
                          sigma, "tracking exact")


def phi_psi_tc_ie(sigma: float, gamma: float, tau: float, J: int,
                  variant: Discretization = Discretization.FOTD) -> PhiPsi:
    """Coefficients of the J-step implicit-Euler propagator for the
    terminal-cost objective. The two discretization orders
    (discretize-then-optimize vs. optimize-then-discretize) share
    phi = (1+sigma*tau)^(-J) but differ in psi by a factor (1+sigma*tau)."""
    if J < 1 or tau <= 0 or gamma <= 0:
        raise ValueError("need J >= 1, tau > 0, gamma > 0")
    st = sigma * tau
    if st <= -1:
        raise ValueError("sigma*tau must exceed -1")
    phi = (1.0 + st) ** (-J)
    if sigma == 0.0:
        psi = J * tau / gamma
    else:
        one_minus_phi2 = -np.expm1(-2.0 * J * np.log1p(st))
        psi = one_minus_phi2 / (gamma * sigma * (2.0 + st))
    if variant is Discretization.FOTD:
        psi *= 1.0 + st
    return _require_valid(PhiPsi(phi, psi), sigma, "terminal-cost IE")


def _tc_exact(sh: float, gh: float) -> PhiPsi:
    """Unchecked exact terminal-cost coefficients in hatted variables."""
    # sinhc(sh)*exp(-sh) computed in scaled form to avoid overflow
    return PhiPsi(np.exp(-sh), gh * _sinhc_scaled(sh))


def phi_psi_tc_exact(sigma: float, gamma: float, DT: float) -> PhiPsi:
    """Coefficients of the exact sub-interval solver for terminal cost:
    phi = exp(-sigma_hat), psi = gamma_hat*sinhc(sigma_hat)*exp(-sigma_hat)."""
    if DT <= 0 or gamma <= 0:
        raise ValueError("need DT > 0, gamma > 0")
    return _require_valid(_tc_exact(DT * sigma, DT / gamma), sigma,
                          "terminal-cost exact")


def rho_bound_tracking(fine: PhiPsi, coarse: PhiPsi) -> float:
    """L_hat-independent contraction bound for the tracking objective:
    sqrt(((phi_t-phi)^2 + (psi_t-psi)^2) / ((1-phi_t)^2 + psi_t^2))."""
    num = (coarse.phi - fine.phi) ** 2 + (coarse.psi - fine.psi) ** 2
    den = (1.0 - coarse.phi) ** 2 + coarse.psi ** 2
    return float(np.sqrt(num / den))


def x_star_candidates(fine: PhiPsi, coarse: PhiPsi) -> list[float]:
    """All admissible roots of the limiting characteristic function used by
    the terminal-cost bound (largest magnitude wins; ties go positive).

    The function is f(x) = (psi_t - psi)/(psi_t + 1/S(x)) - x with
    S(x) = sum over l >= 0 of q(x)^(2l), q(x) = phi_t + (phi - phi_t)/x.
    If the geometric series diverges at x = (psi_t - psi)/psi_t (|q| within
    rounding of 1 counts), that value is the root; otherwise replacing S by
    (1 - q^2)^(-1) turns the root condition into the quadratic
    (psi_t + 1 - phi_t^2) x^2 - (2 phi_t (phi - phi_t) + psi_t - psi) x
    - (phi - phi_t)^2 = 0, of which only roots with |q(x)| < 1 count.
    """
    phi, psi = fine.phi, fine.psi
    phi_t, psi_t = coarse.phi, coarse.psi
    dphi = phi - phi_t
    x_div = (psi_t - psi) / psi_t
    if x_div != 0.0 and abs(phi_t + dphi / x_div) >= 1.0 - 1e-12:
        return [x_div]
    if x_div == 0.0 and dphi == 0.0:
        return [0.0]

    a = psi_t + 1.0 - phi_t * phi_t
    b = 2.0 * phi_t * dphi + (psi_t - psi)
    disc = b * b + 4.0 * a * dphi * dphi  # always >= 0
    roots = [(b + np.sqrt(disc)) / (2.0 * a), (b - np.sqrt(disc)) / (2.0 * a)]
    valid = [r for r in roots if r != 0.0 and abs(phi_t + dphi / r) < 1.0]
    if x_div == 0.0:
        valid.append(0.0)
    return valid


def rho_bound_terminal(fine: PhiPsi, coarse: PhiPsi) -> float:
    """L_hat-independent contraction bound for the terminal-cost objective:
    max(|phi - phi_t|/(1 - phi_t), |x_star|)."""
    candidates = x_star_candidates(fine, coarse)
    if not candidates:
        raise ValueError(
            f"no admissible root for coefficients fine={fine}, coarse={coarse}"
            " (coefficient-range assumption violated?)")
    x_star = max(candidates, key=lambda r: (abs(r), r > 0))
    return float(max(abs(fine.phi - coarse.phi) / (1.0 - coarse.phi),
                     abs(x_star)))


@dataclass(frozen=True)
class SsigmaSpec:
    """One decoupled 2*L_hat x 2*L_hat eigenvalue problem."""

    L_hat: int
    fine: PhiPsi
    coarse: PhiPsi
    objective: ObjectiveKind

    def __post_init__(self):
        if self.L_hat < 1:
            raise ValueError("L_hat must be >= 1")


def assemble_block_system(maps: Sequence[np.ndarray], L_hat: int,
                          objective: ObjectiveKind,
                          alpha: Optional[complex] = None) -> np.ndarray:
    """Dense ParaOpt block system of the maps (Phi_P, Psi_P, Phi_Q, Psi_Q),
    each M x M (1 x 1 at one eigenvalue sigma), on the stacked unknown
    [y_1..y_Lhat, lam_1..lam_Lhat]. Sized for the scalar analysis and for
    oracle-sized problems.

    Without alpha, the matching-condition Jacobian
    [[I + B kron Phi_P, I kron Psi_P], [-I kron Psi_Q, I + B^T kron Phi_Q]],
    B the L_hat x L_hat lower shift with -1 on its first sub-diagonal; for
    terminal cost the last adjoint row is lam_Lhat - y_Lhat. With alpha, the
    preconditioner P(alpha): the alpha-circulant C(alpha) (B with -alpha in
    its top-right corner) and C(alpha)^H take the places of B and B^T, and
    there is no terminal row.
    """
    Phi_P, Psi_P, Phi_Q, Psi_Q = maps
    M = Phi_P.shape[0]
    B = -np.eye(L_hat, k=-1)
    if alpha is not None:
        B = B.astype(complex)
        B[0, -1] = -alpha
    I_L, n = np.eye(L_hat), L_hat * M
    A = np.eye(2 * n, dtype=B.dtype)
    A[:n, :n] += np.kron(B, Phi_P)
    A[:n, n:] += np.kron(I_L, Psi_P)
    A[n:, :n] -= np.kron(I_L, Psi_Q)
    A[n:, n:] += np.kron(B.conj().T, Phi_Q)
    if alpha is None and objective is ObjectiveKind.TERMINAL_COST:
        # the row's other blocks are I at lam_Lhat and -Psi_Q at y_Lhat
        A[-M:, (L_hat - 1) * M:L_hat * M] = -np.eye(M)
    return A


def assemble_S_sigma(spec: SsigmaSpec) -> np.ndarray:
    def system(pp: PhiPsi) -> np.ndarray:
        psi_Q = pp.psi if spec.objective is ObjectiveKind.TRACKING else 0.0
        maps = [np.array([[c]]) for c in (pp.phi, pp.psi, pp.phi, psi_Q)]
        return assemble_block_system(maps, spec.L_hat, spec.objective)

    A, A_tilde = system(spec.fine), system(spec.coarse)
    # A_tilde^{-1} (A_tilde - A), not I - A_tilde^{-1} A: the latter's
    # rounding (about 1e-16) swamps an S near 1e-18 when fine and coarse
    # differ only in their last digits
    return np.linalg.solve(A_tilde, A_tilde - A)


def exact_rho(spec: SsigmaSpec) -> float:
    """Spectral radius of the decoupled iteration matrix (dense oracle)."""
    return float(np.max(np.abs(scipy.linalg.eigvals(assemble_S_sigma(spec)))))


class PropagatorKind(enum.Enum):
    EXACT = "exact"
    IMPLICIT_EULER = "ie"


@dataclass(frozen=True)
class PropagatorDescription:
    """What to evaluate on a hatted-variable grid: exact solves, or J
    implicit-Euler steps (with a discretization-order variant for the
    terminal-cost objective)."""

    kind: PropagatorKind
    J: int = 1
    variant: Discretization = Discretization.FOTD

    def __post_init__(self):
        if self.kind is PropagatorKind.IMPLICIT_EULER and self.J < 1:
            raise ValueError("J must be >= 1")


def coefficients_at(objective: ObjectiveKind, desc: PropagatorDescription,
                    sigma_hat: float, gamma_hat: float) -> PhiPsi:
    """Evaluate a described propagator at grid coordinates (sigma_hat,
    gamma_hat). The grid fixes DT = 1, so sigma = sigma_hat and gamma is
    recovered from gamma_hat per the objective's scaling."""
    DT = 1.0
    sigma = sigma_hat
    if objective is ObjectiveKind.TRACKING:
        gamma = 1.0 / gamma_hat ** 2
        if desc.kind is PropagatorKind.EXACT:
            return phi_psi_tracking_exact(sigma, gamma, DT)
        if desc.variant is Discretization.FDTO:
            raise ValueError("tracking has a single implicit-Euler variant; "
                             "the two discretization orders coincide only "
                             "for terminal cost")
        return phi_psi_tracking_ie(sigma, gamma, DT / desc.J, desc.J)
    gamma = 1.0 / gamma_hat
    if desc.kind is PropagatorKind.EXACT:
        return phi_psi_tc_exact(sigma, gamma, DT)
    return phi_psi_tc_ie(sigma, gamma, DT / desc.J, desc.J, desc.variant)


def rho_bound_at(objective: ObjectiveKind, fine_desc: PropagatorDescription,
                 coarse_desc: PropagatorDescription,
                 sigma_hat: float, gamma_hat: float) -> float:
    fine = coefficients_at(objective, fine_desc, sigma_hat, gamma_hat)
    coarse = coefficients_at(objective, coarse_desc, sigma_hat, gamma_hat)
    if objective is ObjectiveKind.TRACKING:
        return rho_bound_tracking(fine, coarse)
    return rho_bound_terminal(fine, coarse)


def bound_grid_sweep(objective: ObjectiveKind,
                     fine_desc: PropagatorDescription,
                     coarse_desc: PropagatorDescription,
                     sigma_hat_grid: Sequence[float],
                     gamma_hat_grid: Sequence[float],
                     ) -> list[tuple[float, float, float]]:
    """rho_star over a (sigma_hat, gamma_hat) grid; rows are row-major with
    sigma_hat as the slow axis. Output order is deterministic."""
    rows = []
    for sh in sigma_hat_grid:
        for gh in gamma_hat_grid:
            rows.append((float(sh), float(gh),
                         rho_bound_at(objective, fine_desc, coarse_desc, sh, gh)))
    return rows


def log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """Logarithmically spaced grid including both endpoints."""
    if lo <= 0 or hi <= lo or count < 1:
        raise ValueError("need 0 < lo < hi and count >= 1")
    return np.logspace(np.log10(lo), np.log10(hi), count)
