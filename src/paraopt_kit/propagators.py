"""Fine and coarse sub-interval propagators for the coupled state/adjoint BVP.

Each propagator maps interval boundary data (y at the left end, rescaled
adjoint at the right end) to (y at the right end, adjoint at the left end).
Implicit-Euler propagators are built by assembling the coupled J-step system
on one sub-interval, factorizing it once, and extracting the affine form;
exact propagators come from the eigendecomposition of K, with the (phi, psi)
coefficients of each eigenvalue taken from the overflow-safe closed forms of
the exact sub-interval solver in :mod:`paraopt_kit.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from paraopt_kit.analysis import _tc_exact, _tracking_exact
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

    @property
    def L(self) -> int:
        return self.b_P.shape[0]


def _coupled_system(K: np.ndarray, gamma: float, tau: float, J: int,
                    objective: ObjectiveKind, variant: Discretization):
    """Assemble the 2MJ x 2MJ coupled implicit-Euler system on one
    sub-interval, together with the boundary-data injection operators.

    Unknowns are (y_1..y_J, lam_0..lam_{J-1}); boundary data are y_0 and
    lam_J. Returns (lu, R_y0, R_lam, source_rows) where source_rows lists
    the (row-block, step-index) pairs receiving the tracking source.
    """
    M = K.shape[0]
    I = sp.identity(M, format="coo")
    Zeta = sp.coo_matrix(sp.identity(M) + tau * sp.csr_matrix(K))
    ZetaT = sp.coo_matrix(sp.identity(M) + tau * sp.csr_matrix(K.T))
    if objective is ObjectiveKind.TRACKING:
        gh = tau / np.sqrt(gamma)
    else:
        gh = tau / gamma

    n = 2 * M * J

    def y_col(j):  # y_j, j = 1..J
        return j - 1

    def lam_col(j):  # lam_j, j = 0..J-1
        return J + j

    a_r, a_c, a_v = [], [], []
    y0_r, y0_c, y0_v = [], [], []
    lam_r, lam_c, lam_v = [], [], []

    def add(triplets, row_block, col_block, mat, scale=1.0):
        r, c, v = triplets
        r.append(mat.row + row_block * M)
        c.append(mat.col + col_block * M)
        v.append(scale * mat.data)

    A_t = (a_r, a_c, a_v)
    for j in range(1, J + 1):
        row = j - 1  # state row block
        add(A_t, row, y_col(j), Zeta)
        if j >= 2:
            add(A_t, row, y_col(j - 1), I, -1.0)
        else:
            add((y0_r, y0_c, y0_v), row, 0, I)
        # control coupling through the adjoint
        if objective is ObjectiveKind.TERMINAL_COST and variant is Discretization.FDTO:
            add(A_t, row, lam_col(j - 1), I, gh)
        else:  # FOTD couples to lam_j
            if j < J:
                add(A_t, row, lam_col(j), I, gh)
            else:
                add((lam_r, lam_c, lam_v), row, 0, I, -gh)

    for j in range(1, J + 1):
        row = J + j - 1  # adjoint row block
        add(A_t, row, lam_col(j - 1), ZetaT)
        if j < J:
            add(A_t, row, lam_col(j), I, -1.0)
        else:
            add((lam_r, lam_c, lam_v), row, 0, I)
        if objective is ObjectiveKind.TRACKING:
            if j >= 2:
                add(A_t, row, y_col(j - 1), I, -gh)
            else:
                add((y0_r, y0_c, y0_v), row, 0, I, gh)

    def collect(triplets, shape):
        r, c, v = triplets
        return sp.coo_matrix((np.concatenate(v),
                              (np.concatenate(r), np.concatenate(c))),
                             shape=shape)

    A = collect(A_t, (n, n))
    R_y0 = collect((y0_r, y0_c, y0_v), (n, M)).tocsr()
    R_lam = collect((lam_r, lam_c, lam_v), (n, M)).tocsr()
    lu = spla.splu(A.tocsc())
    return lu, R_y0, R_lam, gh


def _extract_maps(lu, R_y0, R_lam, M: int, J: int):
    yJ = slice(M * (J - 1), M * J)
    lam0 = slice(M * J, M * (J + 1))
    sol_y = lu.solve(R_y0.toarray())
    sol_l = lu.solve(R_lam.toarray())
    Phi_P = sol_y[yJ, :]
    Psi_Q = sol_y[lam0, :]
    Psi_P = -sol_l[yJ, :]
    Phi_Q = sol_l[lam0, :]
    return Phi_P, Psi_P, Phi_Q, Psi_Q, yJ, lam0


def build_implicit_euler_propagator(problem: LinearControlProblem, DT: float,
                                    J: int,
                                    variant: Discretization = Discretization.FOTD,
                                    ) -> AffinePropagator:
    """J-step implicit-Euler propagator pair on sub-intervals of length DT.

    Tracking supports FOTD only (an FDTO tracking discretization breaks the
    shared-eigenvector structure the analysis relies on).
    """
    obj = problem.objective
    if obj is ObjectiveKind.TRACKING and variant is Discretization.FDTO:
        raise ValueError("tracking propagators support FOTD only")
    if J < 1:
        raise ValueError("need at least one implicit-Euler step")
    tau = DT / J
    K = problem.K
    M = K.shape[0]
    L = int(round(problem.T / DT))
    if abs(L * DT - problem.T) > 1e-10 * problem.T:
        raise ValueError("DT must divide the horizon T")

    try:
        lu, R_y0, R_lam, gh = _coupled_system(K, problem.gamma, tau, J, obj,
                                              variant)
    except RuntimeError as exc:  # splu: "Factor is exactly singular"
        raise ValueError(
            f"singular implicit-Euler step matrix I + tau*K at tau = {tau:g} "
            f"({exc})") from exc
    Phi_P, Psi_P, Phi_Q, Psi_Q, yJ, lam0 = _extract_maps(lu, R_y0, R_lam, M, J)

    b_P = np.zeros((L, M))
    b_Q = np.zeros((L, M))
    if obj is ObjectiveKind.TRACKING:
        # y_d sampled at the left endpoint of each fine step; all sub-interval
        # offset problems share the factorization, so solve them in one batch
        rhs = np.zeros((2 * M * J, L))
        for l in range(L):
            t0 = l * DT
            samples = np.array([problem.y_d(t0 + j * tau) for j in range(J)])
            rhs[M * J:, l] = -gh * samples.ravel()
        sol = lu.solve(rhs)
        b_P = sol[yJ, :].T.copy()
        b_Q = sol[lam0, :].T.copy()

    return AffinePropagator(Phi_P=Phi_P, Psi_P=Psi_P, Phi_Q=Phi_Q, Psi_Q=Psi_Q,
                            b_P=b_P, b_Q=b_Q, objective=obj)


def build_exact_propagator(problem: LinearControlProblem, DT: float,
                           offset_steps: int = 10_000) -> AffinePropagator:
    """Exact-in-time propagator pair, built through the eigendecomposition
    of a symmetric K.

    Tracking offsets have no convenient closed form for general y_d; they are
    approximated by one high-resolution implicit-Euler solve (offset_steps
    steps per sub-interval).
    """
    K = problem.K
    nrm = np.linalg.norm(K)
    if nrm > 0 and np.linalg.norm(K - K.T) > 1e-12 * nrm:
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
    pairs = [closed_form(DT * sigma, gh) for sigma in w]
    Phi = (Q * np.array([pp.phi for pp in pairs])) @ Q.T
    Psi = (Q * np.array([pp.psi for pp in pairs])) @ Q.T
    Psi_Q = Psi if tracking else np.zeros((M, M))

    b_P = np.zeros((L, M))
    b_Q = np.zeros((L, M))
    if tracking:
        ref = build_implicit_euler_propagator(problem, DT, offset_steps,
                                              Discretization.FOTD)
        b_P, b_Q = ref.b_P, ref.b_Q

    return AffinePropagator(Phi_P=Phi, Psi_P=Psi, Phi_Q=Phi, Psi_Q=Psi_Q,
                            b_P=b_P, b_Q=b_Q, objective=problem.objective)


def propagate(prop: AffinePropagator, l: int, y_prev: np.ndarray,
              lam_next: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (P, Q) on sub-interval l (1-based)."""
    y_next = prop.Phi_P @ y_prev - prop.Psi_P @ lam_next + prop.b_P[l - 1]
    lam_prev = prop.Psi_Q @ y_prev + prop.Phi_Q @ lam_next + prop.b_Q[l - 1]
    return y_next, lam_prev


@dataclass(frozen=True)
class BlackBoxView:
    """Propagator access restricted to affine evaluation callbacks."""

    P: Callable[[np.ndarray, np.ndarray], np.ndarray]
    Q: Callable[[np.ndarray, np.ndarray], np.ndarray]
    P0: np.ndarray  # cached P(0, 0)
    Q0: np.ndarray  # cached Q(0, 0)


def black_box_view(prop: AffinePropagator, l: int = 1) -> BlackBoxView:
    M = prop.M
    zero = np.zeros(M)

    def P(y, lam):
        return propagate(prop, l, y, lam)[0]

    def Q(y, lam):
        return propagate(prop, l, y, lam)[1]

    return BlackBoxView(P=P, Q=Q, P0=P(zero, zero), Q0=Q(zero, zero))


def extract_phi_psi_scalar(sigma: float, gamma: float, tau: float, J: int,
                           objective: ObjectiveKind,
                           variant: Discretization = Discretization.FOTD,
                           ) -> tuple[float, float]:
    """Brute-force eigen-coefficients of a J-step implicit-Euler propagator,
    obtained by assembling and solving the scalar sub-interval system.

    Serves as the independent oracle for the closed-form coefficient catalog.
    """
    K = np.array([[float(sigma)]])
    lu, R_y0, R_lam, _ = _coupled_system(K, gamma, tau, J, objective, variant)
    Phi_P, Psi_P, Phi_Q, Psi_Q, _, _ = _extract_maps(lu, R_y0, R_lam, 1, J)
    phi = float(Phi_P[0, 0])
    psi_P = float(Psi_P[0, 0])
    phi_Q = float(Phi_Q[0, 0])
    if abs(phi - phi_Q) > 1e-10 * max(1.0, abs(phi)):
        raise AssertionError("propagator pair lost the shared Phi structure")
    if objective is ObjectiveKind.TRACKING:
        psi_Q = float(Psi_Q[0, 0])
        if abs(psi_P - psi_Q) > 1e-10 * max(1.0, abs(psi_P)):
            raise AssertionError("tracking propagator lost Psi_P = Psi_Q")
    return phi, psi_P
