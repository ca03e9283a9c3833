"""Scalar convergence analysis of the coupled Newton iteration.

For a normal system matrix K the iteration matrix decouples, per eigenvalue
sigma of K, into a 2*L_hat x 2*L_hat matrix S_sigma built from four scalar
propagation coefficients: phi/psi for the fine propagator and
phi_tilde/psi_tilde for the coarse one. This module provides the coefficient
catalog, L_hat-independent contraction bounds rho_star, the exact spectral
radius of S_sigma as an oracle, grid sweeps producing contour-plot data, and
the observed geometric rate of a residual history to set against a bound.
The catalog and the bounds work elementwise on arrays, so a grid sweep is
one evaluation per panel.

It holds the one composition of implicit-Euler steps,
:func:`implicit_euler_maps`, for K of shape (..., m, m): the dense M x M
propagators of :mod:`paraopt_kit.propagators` and a stack of eigenvalues
alike; 1 x 1 matrices compose by division, elementwise, and only a
larger K calls LAPACK. The implicit-Euler catalog entries are that
composition at one eigenvalue, K = [[sigma]]; the exact-solver entries are
overflow-safe closed forms.

It also holds the one dense assembly of the ParaOpt block system,
:func:`assemble_block_system`: with 1 x 1 maps it gives the two systems
behind S_sigma; with M x M maps it is the dense coarse Jacobian of
:mod:`paraopt_kit.core` and, given alpha, the dense P(alpha) of
:mod:`paraopt_kit.preconditioner`, the oracles their fast paths are tested
against. Both live here, the lowest layer, because the modules above
import them.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from paraopt_kit.problem import (Discretization, ObjectiveKind,
                                 require_int)


@dataclass(frozen=True)
class PhiPsi:
    """One propagator's scalar coefficients at a single eigenvalue sigma:
    y-component decays by phi per sub-interval and picks up -psi times the
    rescaled adjoint. Given arrays, the catalog fills both elementwise."""

    phi: float
    psi: float


def _require_valid(pp: PhiPsi, sigma, where: str) -> PhiPsi:
    # contraction requires 0 < phi < 1 and psi > 0 once sigma > 0;
    # phi == 0.0 is tolerated as the underflow of a positive quantity
    # (exp(-sigma_hat) for sigma_hat beyond ~745)
    ok = (0.0 <= pp.phi) & (pp.phi < 1.0) & (pp.psi > 0.0)
    bad = (np.asarray(sigma) > 0) & ~ok
    if bad.any():
        s, phi, psi = (float(v[bad][0]) for v in
                       np.broadcast_arrays(sigma, pp.phi, pp.psi))
        raise ValueError(f"{where}: coefficients ({phi}, {psi}) leave "
                         f"the admissible range at sigma={s}")
    return pp


def _sinhc_scaled(s):
    """exp(-s)*sinh(s)/s for s >= 0, elementwise and overflow-free (limit 1
    at s = 0)."""
    s = np.asarray(s, dtype=float)
    return np.divide(-np.expm1(-2.0 * s), 2.0 * s, out=np.ones_like(s),
                     where=s != 0.0)


def _compose(a: tuple, b: tuple) -> tuple:
    """Maps of segment a followed by segment b.

    Each argument is (Phi_P, Psi_P, Phi_Q, Psi_Q, b_P, b_Q) in the
    AffinePropagator convention, with maps of shape (..., m, m) and offsets
    of shape (..., m, L), all with the same batch shape. The interface
    unknowns (y at the end of a, lam at the start of b) are eliminated with
    one m x m solve per batch entry, or, for 1 x 1 maps (one eigenvalue
    per entry), with one division, elementwise over the batch.
    """
    Phi_Pa, Psi_Pa, Phi_Qa, Psi_Qa, b_Pa, b_Qa = a
    Phi_Pb, Psi_Pb, Phi_Qb, Psi_Qb, b_Pb, b_Qb = b
    m = Phi_Pa.shape[-1]
    # [U | V | c] = N [Phi_P^a | Psi_P^a Phi_Q^b | b_P^a - Psi_P^a b_Q^b]
    # with N = (I + Psi_P^a Psi_Q^b)^-1; the right-hand side is a matrix per
    # batch entry, as 1-D ones broadcast differently across numpy versions
    D = np.eye(m) + Psi_Pa @ Psi_Qb
    R = np.concatenate([Phi_Pa, Psi_Pa @ Phi_Qb, b_Pa - Psi_Pa @ b_Qb],
                       axis=-1)
    UVc = R / D if m == 1 else np.linalg.solve(D, R)
    U, V, c = UVc[..., :m], UVc[..., m:2 * m], UVc[..., 2 * m:]
    return (Phi_Pb @ U,
            Psi_Pb + Phi_Pb @ V,
            Phi_Qa @ (Phi_Qb - Psi_Qb @ V),
            Psi_Qa + Phi_Qa @ (Psi_Qb @ U),
            Phi_Pb @ c + b_Pb,
            Phi_Qa @ (Psi_Qb @ c + b_Qb) + b_Qa)


def implicit_euler_maps(K: np.ndarray, tau: float, gh, J: int,
                        objective: ObjectiveKind,
                        variant: Discretization = Discretization.FOTD,
                        target: Optional[Callable[[int], np.ndarray]] = None,
                        ) -> tuple:
    """Maps (Phi_P, Psi_P, Phi_Q, Psi_Q, b_P, b_Q) of J implicit-Euler steps
    of length tau, for K of shape (..., m, m): a dense K, or a stack of
    eigenvalues as 1 x 1 matrices.

    gh is the gamma-scaled step (tau/sqrt(gamma) for tracking, tau/gamma
    for terminal cost) and broadcasts against K. One step inverts
    Z = I + tau K and maps (y_{j-1}, lam_j) to (y_j, lam_{j-1}) by
    Phi_P = Z^-1, Phi_Q = Z^-T, Psi_P = gh Z^-1 (gh Z^-1 Z^-T for FDTO) and
    Psi_Q = gh Z^-T for tracking (0 otherwise); the J steps are folded
    with :func:`_compose`. Z^-T is taken as the conjugate transpose Z^-H:
    the same matrix for a real K, and the conjugate for a complex
    eigenvalue, since a real K = V diag(sigma) V^H has K^T = V diag(conj
    sigma) V^H. A 1 x 1 K (one eigenvalue sigma per batch entry) takes
    Z^-1 = 1/(1 + tau sigma) and composes by division, elementwise; a
    larger one inverts Z and solves at each interface with LAPACK.
    target(j), if given, is the tracking target at the left end of step
    j = 0..J-1, of shape (..., m, L), and adds the offset
    b_Q = -gh Z^-T target(j) to that step; without it the offsets have no
    columns. Raises ValueError unless J is an integer >= 1 (a bool
    or a float is refused), and for a singular I + tau K.
    """
    require_int("J", J)
    if J < 1:
        raise ValueError(f"need J >= 1 implicit-Euler steps, got J = {J}")
    Z = np.eye(K.shape[-1]) + tau * K
    singular = ("singular implicit-Euler step matrix I + tau*K at "
                f"tau = {tau:g}")
    if Z.shape[-1] == 1:
        if not Z.all():  # checked before the division, so it never warns
            raise ValueError(f"{singular} (1 + tau*sigma = 0)")
        Zi = 1.0 / Z
    else:
        try:
            Zi = np.linalg.inv(Z)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"{singular} ({exc})") from exc
    ZiT = np.swapaxes(Zi, -1, -2).conj()
    Psi_P = gh * (Zi @ ZiT) if variant is Discretization.FDTO else gh * Zi
    tracking = objective is ObjectiveKind.TRACKING
    Psi_Q = gh * ZiT if tracking else np.zeros_like(Zi)
    no_offsets = np.zeros(Zi.shape[:-1] + (0,))

    def step(j):
        b_Q = no_offsets if target is None else -gh * (ZiT @ target(j))
        # one step has no b_P: a zero-stride view, so no step allocates one
        return (Zi, Psi_P, ZiT, Psi_Q, np.broadcast_to(0.0, b_Q.shape), b_Q)

    return functools.reduce(_compose, map(step, range(J)))


def _ie_at(sigma, tau: float, gh, J: int, objective: ObjectiveKind,
           variant: Discretization = Discretization.FOTD) -> PhiPsi:
    """(phi, psi) of :func:`implicit_euler_maps` at K = [[sigma]],
    elementwise over arrays of sigma and gh."""
    K, gh = (v[..., None, None] for v in np.broadcast_arrays(sigma, gh))
    Phi_P, Psi_P = implicit_euler_maps(K, tau, gh, J, objective, variant)[:2]
    return PhiPsi(Phi_P[..., 0, 0], Psi_P[..., 0, 0])


def phi_psi_tracking_ie(sigma: float, gamma: float, tau: float, J: int) -> PhiPsi:
    """Coefficients of the J-step implicit-Euler propagator for the tracking
    objective: the composed maps at the one eigenvalue sigma, elementwise
    over arrays of sigma and gamma."""
    if J < 1 or tau <= 0 or np.any(gamma <= 0):
        raise ValueError("need J >= 1, tau > 0, gamma > 0")
    return _require_valid(_ie_at(sigma, tau, tau / np.sqrt(gamma), J,
                                 ObjectiveKind.TRACKING),
                          sigma, "tracking IE")


def _tracking_exact(sh, gh) -> PhiPsi:
    """Unchecked exact tracking coefficients in hatted variables,
    elementwise."""
    s = np.hypot(sh, gh)
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
    if DT <= 0 or np.any(gamma <= 0):
        raise ValueError("need DT > 0, gamma > 0")
    return _require_valid(_tracking_exact(DT * sigma, DT / np.sqrt(gamma)),
                          sigma, "tracking exact")


def phi_psi_tc_ie(sigma: float, gamma: float, tau: float, J: int,
                  variant: Discretization = Discretization.FOTD) -> PhiPsi:
    """Coefficients of the J-step implicit-Euler propagator for the
    terminal-cost objective: the composed maps at the one eigenvalue sigma,
    elementwise over arrays of sigma and gamma. The two discretization
    orders (discretize-then-optimize vs. optimize-then-discretize) share
    phi = (1+sigma*tau)^(-J) but differ in psi by a factor (1+sigma*tau)."""
    if J < 1 or tau <= 0 or np.any(gamma <= 0):
        raise ValueError("need J >= 1, tau > 0, gamma > 0")
    if np.any(sigma * tau <= -1):
        raise ValueError("sigma*tau must exceed -1")
    return _require_valid(_ie_at(sigma, tau, tau / gamma, J,
                                 ObjectiveKind.TERMINAL_COST, variant),
                          sigma, "terminal-cost IE")


def _tc_exact(sh, gh) -> PhiPsi:
    """Unchecked exact terminal-cost coefficients in hatted variables,
    elementwise."""
    # sinhc(sh)*exp(-sh) computed in scaled form to avoid overflow
    return PhiPsi(np.exp(-sh), gh * _sinhc_scaled(sh))


def phi_psi_tc_exact(sigma: float, gamma: float, DT: float) -> PhiPsi:
    """Coefficients of the exact sub-interval solver for terminal cost:
    phi = exp(-sigma_hat), psi = gamma_hat*sinhc(sigma_hat)*exp(-sigma_hat)."""
    if DT <= 0 or np.any(gamma <= 0):
        raise ValueError("need DT > 0, gamma > 0")
    return _require_valid(_tc_exact(DT * sigma, DT / gamma), sigma,
                          "terminal-cost exact")


def rho_bound_tracking(fine: PhiPsi, coarse: PhiPsi) -> float:
    """L_hat-independent contraction bound for the tracking objective:
    sqrt(((phi_t-phi)^2 + (psi_t-psi)^2) / ((1-phi_t)^2 + psi_t^2)),
    elementwise: a scalar for scalar coefficients, else an array of their
    broadcast shape."""
    num = (coarse.phi - fine.phi) ** 2 + (coarse.psi - fine.psi) ** 2
    den = (1.0 - coarse.phi) ** 2 + coarse.psi ** 2
    return np.sqrt(num / den)


def rho_bound_terminal(fine: PhiPsi, coarse: PhiPsi) -> float:
    """L_hat-independent contraction bound for the terminal-cost objective:
    max(|phi - phi_t|/(1 - phi_t), |x_star|), elementwise like
    :func:`rho_bound_tracking`.

    x_star is the admissible root of largest magnitude of the limiting
    characteristic function f(x) = (psi_t - psi)/(psi_t + 1/S(x)) - x with
    S(x) = sum over l >= 0 of q(x)^(2l), q(x) = phi_t + (phi - phi_t)/x.
    If the geometric series diverges at x_div = (psi_t - psi)/psi_t (|q|
    within rounding of 1 counts), x_div is the root; otherwise replacing S
    by (1 - q^2)^(-1) turns the root condition into the quadratic
    (psi_t + 1 - phi_t^2) x^2 - (2 phi_t (phi - phi_t) + psi_t - psi) x
    - (phi - phi_t)^2 = 0, of which only roots r != 0 with |q(r)| < 1
    count, and x = 0 is a root when psi = psi_t. Raises ValueError naming
    the first point without an admissible root.
    """
    phi, psi, phi_t, psi_t = (np.asarray(v, dtype=float) for v in
                              (fine.phi, fine.psi, coarse.phi, coarse.psi))
    dphi = phi - phi_t
    with np.errstate(divide="ignore", invalid="ignore"):
        x_div = (psi_t - psi) / psi_t
        diverges = (x_div != 0.0) & (abs(phi_t + dphi / x_div) >= 1.0 - 1e-12)
        a = psi_t + 1.0 - phi_t * phi_t
        b = 2.0 * phi_t * dphi + (psi_t - psi)
        sq = np.sqrt(b * b + 4.0 * a * dphi * dphi)  # a > 0
        roots = np.stack([(b + sq) / (2.0 * a), (b - sq) / (2.0 * a)])
        valid = (roots != 0.0) & (abs(phi_t + dphi / roots) < 1.0)
    bad = ~(diverges | valid.any(axis=0) | (x_div == 0.0))
    if bad.any():
        p = [float(v[bad][0]) for v in np.broadcast_arrays(phi, psi, phi_t,
                                                           psi_t)]
        raise ValueError(
            f"no admissible root for coefficients fine={PhiPsi(*p[:2])}, "
            f"coarse={PhiPsi(*p[2:])} (coefficient-range assumption "
            "violated?)")
    x_star = np.where(diverges, abs(x_div),
                      np.where(valid, abs(roots), 0.0).max(axis=0))
    return np.maximum(abs(dphi) / (1.0 - phi_t), x_star)[()]


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
        for name, pp in (("fine", self.fine), ("coarse", self.coarse)):
            # math.isfinite: np.isfinite of a list costs ten times more
            if not (math.isfinite(pp.phi) and math.isfinite(pp.psi)):
                raise ValueError(f"{name} coefficients (phi, psi) = "
                                 f"({pp.phi}, {pp.psi}) are not finite")


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
    A = np.eye(2 * n, dtype=np.result_type(B, *maps))
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
    """Spectral radius of the decoupled iteration matrix (dense oracle).

    S_sigma is assembled and its eigenvalues computed in numpy's LAPACK,
    as all of the package's linear algebra is; it never imports scipy. A
    second BLAS library (scipy bundles its own OpenBLAS) called right
    after numpy's makes each call wait for the other library's idle
    threads."""
    return float(np.max(np.abs(np.linalg.eigvals(assemble_S_sigma(spec)))))


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
    gamma_hat), elementwise over arrays. The grid fixes DT = 1, so
    sigma = sigma_hat and gamma is recovered from gamma_hat per the
    objective's scaling."""
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
    """rho_star at grid coordinates (sigma_hat, gamma_hat), elementwise
    over arrays."""
    fine = coefficients_at(objective, fine_desc, sigma_hat, gamma_hat)
    coarse = coefficients_at(objective, coarse_desc, sigma_hat, gamma_hat)
    bound = (rho_bound_tracking if objective is ObjectiveKind.TRACKING
             else rho_bound_terminal)
    return bound(fine, coarse)


def bound_grid_sweep(objective: ObjectiveKind,
                     fine_desc: PropagatorDescription,
                     coarse_desc: PropagatorDescription,
                     sigma_hat_grid: Sequence[float],
                     gamma_hat_grid: Sequence[float],
                     ) -> list[tuple[float, float, float]]:
    """rho_star over a (sigma_hat, gamma_hat) grid, in one elementwise
    evaluation; rows are row-major with sigma_hat as the slow axis. Output
    order is deterministic."""
    sh, gh = (g.ravel().astype(float) for g in np.meshgrid(
        sigma_hat_grid, gamma_hat_grid, indexing="ij"))
    rho = rho_bound_at(objective, fine_desc, coarse_desc, sh, gh)
    return list(zip(sh.tolist(), gh.tolist(), rho.tolist()))


def log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """count logarithmically spaced values from lo to hi, both included.
    Values must be positive and finite. A grid of two or more points needs
    lo < hi; a one-point grid needs lo == hi and is exactly [lo], which
    np.logspace would round (0.3 to 0.30000000000000004). Raises
    ValueError otherwise."""
    for x in (lo, hi):
        if not 0.0 < x < np.inf:  # nan too
            raise ValueError(f"grid values must be positive and finite, "
                             f"got {x}")
    if count < 1 or hi < lo or (count == 1) != (lo == hi):
        raise ValueError(f"need lo < hi and count >= 2, or lo == hi and "
                         f"count 1; got {lo}:{hi}:{count}")
    if count == 1:
        return np.array([lo], dtype=float)
    return np.logspace(np.log10(lo), np.log10(hi), count)


def fit_geometric_rate(residuals: Sequence[float]) -> float:
    """Least-squares geometric contraction rate of a residual history,
    ignoring the stagnation tail near machine precision."""
    r = np.asarray(residuals, dtype=float)
    keep = r > max(1e-13 * r[0], 0.0)
    r = r[keep]
    if len(r) < 3:
        raise ValueError("need at least three residuals above the noise floor")
    k = np.arange(len(r))
    slope = np.polyfit(k, np.log(r), 1)[0]
    return float(np.exp(slope))
