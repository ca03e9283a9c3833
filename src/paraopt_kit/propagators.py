"""Fine and coarse sub-interval propagators for the coupled state/adjoint BVP.

Each propagator maps interval boundary data (y at the left end, rescaled
adjoint at the right end) to (y at the right end, adjoint at the left end).
Implicit-Euler propagators are the composition of J one-step maps by
:func:`paraopt_kit.analysis.implicit_euler_maps`, the same composition that
gives the implicit-Euler (phi, psi) of the analysis at one eigenvalue. Each
composition eliminates the interface unknowns with one M x M solve, so a
build costs O(J M^3) for any K and carries the tracking offsets of all
sub-intervals as columns. Exact propagators come from the
eigendecomposition of K, with the (phi, psi) coefficients of all
eigenvalues taken at once from the overflow-safe closed forms of the exact
sub-interval solver in :mod:`paraopt_kit.analysis`.
Their tracking offsets are exact for a target y_d that is affine in t on
each sub-interval (all built-in targets are): they come from the affine
particular solution of the state/adjoint system, in closed form per
eigenvalue with the same (phi, psi), and any other y_d is rejected.
The dense coupled J-step system survives only as the brute-force oracle
behind :func:`extract_phi_psi_scalar`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from paraopt_kit.analysis import _tc_exact, _tracking_exact, implicit_euler_maps
from paraopt_kit.problem import Discretization, LinearControlProblem, ObjectiveKind


@dataclass(frozen=True)
class AffinePropagator:
    """Explicit affine sub-interval maps.

    P(y, lam) = Phi_P y - Psi_P lam + b_P[l],
    Q(y, lam) = Psi_Q y + Phi_Q lam + b_Q[l].
    Offsets are indexed by sub-interval (length L); the matrices are
    interval-independent.
    """

    Phi_P: np.ndarray
    Psi_P: np.ndarray
    Phi_Q: np.ndarray
    Psi_Q: np.ndarray
    b_P: np.ndarray  # (L, M)
    b_Q: np.ndarray  # (L, M)
    objective: ObjectiveKind

    @property
    def M(self) -> int:
        return self.Phi_P.shape[0]


def build_implicit_euler_propagator(problem: LinearControlProblem, DT: float,
                                    J: int,
                                    variant: Discretization = Discretization.FOTD,
                                    ) -> AffinePropagator:
    """J-step implicit-Euler propagator pair on sub-intervals of length DT.

    Tracking supports FOTD only (an FDTO tracking discretization breaks the
    shared-eigenvector structure the analysis relies on).
    """
    obj = problem.objective
    tracking = obj is ObjectiveKind.TRACKING
    if tracking and variant is Discretization.FDTO:
        raise ValueError("tracking propagators support FOTD only")
    if J < 1:
        raise ValueError("need at least one implicit-Euler step")
    tau = DT / J
    L = int(round(problem.T / DT))
    if abs(L * DT - problem.T) > 1e-10 * problem.T:
        raise ValueError("DT must divide the horizon T")

    gh = tau / np.sqrt(problem.gamma) if tracking else tau / problem.gamma
    # y_d sampled at each step's left end, on every interval
    target = (lambda j: np.array([problem.y_d(l * DT + j * tau)
                                  for l in range(L)]).T) if tracking else None
    maps = implicit_euler_maps(problem.K, tau, gh, J, obj, variant, target)
    # maps, then offsets, in the order of the AffinePropagator fields
    offsets = ([b.T.copy() for b in maps[4:]] if tracking
               else np.zeros((2, L, problem.M)))
    return AffinePropagator(*maps[:4], *offsets, objective=obj)


def _exact_tracking_offsets(problem: LinearControlProblem, DT: float, L: int,
                            w: np.ndarray, Q: np.ndarray, phi: np.ndarray,
                            psi: np.ndarray) -> np.ndarray:
    """Offsets (b_P, b_Q), stacked into one (2, L, M) array, of the exact
    tracking maps with coefficients (phi, psi) at the eigenpairs (w, Q) of
    K, for a target y_d that is affine in t on each sub-interval.

    With g = 1/sqrt(gamma), z = [y; lam] solves z' = H z + [0; g y_d] with
    H = [[-K, -g I], [-g I, K]], which splits per eigenvalue sigma of K. On
    a sub-interval where the mode of y_d is affine with slope y_d', the
    affine particular solution is, with r = hypot(sigma, g),
    y_p = (g/r)^2 y_d and lam_p = -(g/r) ((sigma/r) y_d + y_d'/r), and the
    offsets are what the exact maps leave of it:
    b_P = y_p(DT) - phi y_p(0) + psi lam_p(DT) and
    b_Q = lam_p(0) - psi y_p(0) - phi lam_p(DT). r never vanishes, and hypot
    keeps it finite for any sigma. y_p is of the size of y_d, so offsets
    much smaller than y_d (DT/sqrt(gamma) << 1) lose digits to cancellation.
    """
    # y_d at the ends (even columns) and midpoints (odd) of all sub-intervals
    yd = np.array([problem.y_d(s) for s in DT / 2 * np.arange(2 * L + 1)]).T
    ends = yd[:, ::2]
    if (np.abs(yd[:, 1::2] - (ends[:, :-1] + ends[:, 1:]) / 2).max()
            > 1e-12 * np.abs(yd).max()):
        raise ValueError("exact tracking offsets need a target y_d that is "
                         "affine in t on each sub-interval")
    g = 1.0 / np.sqrt(problem.gamma)
    w, phi, psi = (v[:, None] for v in (w, phi, psi))  # one row per mode
    r = np.hypot(w, g)
    e = Q.T @ ends  # modes of y_d at the sub-interval ends
    e0, e1, slope = e[:, :-1], e[:, 1:], np.diff(e) / DT
    y0, y1 = (g / r) ** 2 * e0, (g / r) ** 2 * e1
    lam0, lam1 = (-(g / r) * (w / r * ek + slope / r) for ek in (e0, e1))
    b_P, b_Q = y1 - phi * y0 + psi * lam1, lam0 - psi * y0 - phi * lam1
    return (Q @ np.stack([b_P, b_Q])).transpose(0, 2, 1)


def build_exact_propagator(problem: LinearControlProblem,
                           DT: float) -> AffinePropagator:
    """Exact-in-time propagator pair, built through the eigendecomposition
    of a symmetric K: one eigh gives the (phi, psi) of every eigenvalue,
    and the maps and the tracking offsets are both formed from them.

    Tracking offsets are exact for a y_d that is affine in t on each
    sub-interval (see :func:`_exact_tracking_offsets`); any other y_d raises
    ValueError, since y_d is checked at each sub-interval midpoint against
    the mean of its ends.
    """
    K = problem.K
    # scaled by max |K|, so that the norms cannot overflow
    Ks = K / max(np.abs(K).max(), np.finfo(float).tiny)
    if np.linalg.norm(Ks - Ks.T) > 1e-12 * np.linalg.norm(Ks):
        raise ValueError("exact propagators require a symmetric K")
    M = K.shape[0]
    L = int(round(problem.T / DT))
    if abs(L * DT - problem.T) > 1e-10 * problem.T:
        raise ValueError("DT must divide the horizon T")

    w, Q = np.linalg.eigh(K)
    tracking = problem.objective is ObjectiveKind.TRACKING
    gh = DT / np.sqrt(problem.gamma) if tracking else DT / problem.gamma
    closed_form = _tracking_exact if tracking else _tc_exact
    # unchecked forms: a propagator exists for every eigenvalue, also outside
    # the range the analysis bounds assume (phi = 1 at a vanishing one)
    pp = closed_form(DT * w, gh)
    Phi, Psi = (Q * pp.phi) @ Q.T, (Q * pp.psi) @ Q.T
    Psi_Q = Psi if tracking else np.zeros((M, M))

    b_P, b_Q = (_exact_tracking_offsets(problem, DT, L, w, Q, pp.phi, pp.psi)
                if tracking else np.zeros((2, L, M)))

    return AffinePropagator(Phi_P=Phi, Psi_P=Psi, Phi_Q=Phi, Psi_Q=Psi_Q,
                            b_P=b_P, b_Q=b_Q, objective=problem.objective)


def linear_action(prop: AffinePropagator):
    """Callbacks (P, Q) of the linear part of the maps, offsets dropped:
    P(y, lam) = Phi_P y - Psi_P lam, Q(y, lam) = Psi_Q y + Phi_Q lam."""
    return (lambda y, lam: prop.Phi_P @ y - prop.Psi_P @ lam,
            lambda y, lam: prop.Psi_Q @ y + prop.Phi_Q @ lam)


def _coupled_system(K: np.ndarray, gamma: float, tau: float, J: int,
                    objective: ObjectiveKind, variant: Discretization):
    """Dense 2MJ x 2MJ coupled implicit-Euler system on one sub-interval.

    Returns (A, R) with A x = R [y_0; lam_J] for the unknowns
    x = (y_1..y_J, lam_0..lam_{J-1}); R holds the y_0 and lam_J columns.
    Tracking sources enter the adjoint rows. Brute-force oracle only.
    """
    M = K.shape[0]
    I, E, S = np.eye(M), np.eye(J), np.eye(J, k=-1)
    first, last = E[:, :1], E[:, -1:]
    Z = I + tau * K
    tracking = objective is ObjectiveKind.TRACKING
    gh = tau / np.sqrt(gamma) if tracking else tau / gamma
    g_y = gh if tracking else 0.0  # state feedback into the adjoint rows
    fdto = variant is Discretization.FDTO  # control couples to lam_{j-1}
    A = np.block([
        [np.kron(E, Z) - np.kron(S, I), gh * np.kron(E if fdto else S.T, I)],
        [-g_y * np.kron(S, I), np.kron(E, Z.T) - np.kron(S.T, I)]])
    R = np.block([
        [np.kron(first, I), (0.0 if fdto else -gh) * np.kron(last, I)],
        [g_y * np.kron(first, I), np.kron(last, I)]])
    return A, R


def extract_phi_psi_scalar(sigma: float, gamma: float, tau: float, J: int,
                           objective: ObjectiveKind,
                           variant: Discretization = Discretization.FOTD,
                           ) -> tuple[float, float]:
    """Brute-force eigen-coefficients of a J-step implicit-Euler propagator,
    obtained by assembling and solving the scalar sub-interval system.

    Serves as the independent oracle for the closed-form coefficient catalog.
    """
    A, R = _coupled_system(np.array([[float(sigma)]]), gamma, tau, J,
                           objective, variant)
    sol = np.linalg.solve(A, R)
    # row J - 1 holds y_J, row J holds lam_0; columns are y_0 and lam_J
    phi, psi_P = float(sol[J - 1, 0]), -float(sol[J - 1, 1])
    phi_Q = float(sol[J, 1])
    if abs(phi - phi_Q) > 1e-10 * max(1.0, abs(phi)):
        raise AssertionError("propagator pair lost the shared Phi structure")
    if objective is ObjectiveKind.TRACKING:
        psi_Q = float(sol[J, 0])
        if abs(psi_P - psi_Q) > 1e-10 * max(1.0, abs(psi_P)):
            raise AssertionError("tracking propagator lost Psi_P = Psi_Q")
    return phi, psi_P
