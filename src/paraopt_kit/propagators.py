"""Fine and coarse sub-interval propagators for the coupled state/adjoint BVP.

Each propagator maps interval boundary data (y at the left end, rescaled
adjoint at the right end) to (y at the right end, adjoint at the left end).
Implicit-Euler propagators are the composition of J one-step maps by
:func:`paraopt_kit.analysis.implicit_euler_maps`, the same composition that
gives the implicit-Euler (phi, psi) of the analysis at one eigenvalue.
Exact propagators take the (phi, psi) coefficients of all eigenvalues at
once from the overflow-safe closed forms of the exact sub-interval solver
in :mod:`paraopt_kit.analysis`. Their tracking offsets are exact for a
target y_d that is affine in t on each sub-interval (all built-in targets
are): they come from the affine particular solution of the state/adjoint
system, in closed form per eigenvalue with the same (phi, psi), and any
other y_d is rejected.

Where the basis comes from: a K that is block-circulant with circulant
blocks (BCCB) on the x1-major n x n grid, as the periodic heat and
advection-diffusion operators are, is diagonal in the unitary 2-D DFT of
the grid, and its eigenvalues are the 2-D FFT of its first column
(:func:`fourier_symbol`). Both builders then work per mode, on those
eigenvalues as a stack of 1 x 1 matrices, with targets and offsets moved
by 2-D FFTs. The per-mode coefficients of the four maps are kept in
``AffinePropagator.modes``, and each dense map, BCCB again, is formed from
them by one gather, in O(M^2). For any other K the implicit-Euler
composition runs on the dense K, each of its J steps eliminating the
interface unknowns with one M x M solve, O(J M^3), and the exact build
diagonalizes a symmetric K with eigh.
The dense coupled J-step system survives only as the brute-force oracle
behind :func:`extract_phi_psi_scalar`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from paraopt_kit.analysis import _tc_exact, _tracking_exact, implicit_euler_maps
from paraopt_kit.problem import Discretization, LinearControlProblem, ObjectiveKind


@dataclass(frozen=True)
class AffinePropagator:
    """Explicit affine sub-interval maps.

    P(y, lam) = Phi_P y - Psi_P lam + b_P[l],
    Q(y, lam) = Psi_Q y + Phi_Q lam + b_Q[l].
    Offsets are indexed by sub-interval (length L); the matrices are
    interval-independent. For a K with a :func:`fourier_symbol`, ``modes``
    holds the coefficients of (Phi_P, Psi_P, Phi_Q, Psi_Q) per mode of the
    2-D DFT, shape (4, M), in the order of :func:`grid_to_modes`; it is
    None otherwise.
    """

    Phi_P: np.ndarray
    Psi_P: np.ndarray
    Phi_Q: np.ndarray
    Psi_Q: np.ndarray
    b_P: np.ndarray  # (L, M)
    b_Q: np.ndarray  # (L, M)
    objective: ObjectiveKind
    modes: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def M(self) -> int:
        return self.Phi_P.shape[0]


def _interval_count(problem: LinearControlProblem, DT: float) -> int:
    """The number L of sub-intervals of length DT in the horizon T."""
    L = int(round(problem.T / DT))
    if abs(L * DT - problem.T) > 1e-10 * problem.T:
        raise ValueError("DT must divide the horizon T")
    return L


def _on_grid(transform, x: np.ndarray) -> np.ndarray:
    """transform over the last axis of x, read as an x1-major n x n grid."""
    n = math.isqrt(x.shape[-1])
    grid = x.reshape(x.shape[:-1] + (n, n))
    return transform(grid, axes=(-2, -1), norm="ortho").reshape(x.shape)


def _hermitian(c: np.ndarray) -> np.ndarray:
    """(c(k) + conj c(-k)) / 2 over the last axis of c, read as the modes of
    an n x n grid: exactly Hermitian, as the coefficients of real data are.
    The FFT of real data can miss that in the last bit (numpy's fft2 does
    at n = 16), and a conjugate pair that differs there can leave an
    imaginary part of any size after an ill-conditioned per-mode solve."""
    n = math.isqrt(c.shape[-1])
    neg = -np.arange(n) % n
    return (c + c[..., (neg[:, None] * n + neg).ravel()].conj()) / 2


def grid_to_modes(x: np.ndarray) -> np.ndarray:
    """Coefficients in the unitary 2-D DFT (k1-major) of the values on the
    last axis of x, an x1-major n x n grid: the basis of fourier_symbol.
    For real x they are exactly Hermitian (:func:`_hermitian`)."""
    c = _on_grid(np.fft.fft2, x)
    return c if np.iscomplexobj(x) else _hermitian(c)


def modes_to_grid(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`grid_to_modes`; complex, like its input."""
    return _on_grid(np.fft.ifft2, c)


def _circulant(c: np.ndarray) -> np.ndarray:
    """The real M x M map with coefficients c (length M) in the basis of
    grid_to_modes. It is block-circulant with circulant blocks: entry
    ((i1, i2), (j1, j2)) is x[i1 - j1, i2 - j2] (indices mod n) with x its
    first column, so one gather forms it."""
    n = math.isqrt(len(c))
    x = np.fft.ifft2(c.reshape(n, n)).real
    d = (np.arange(n)[:, None] - np.arange(n)) % n
    return x[d[:, None, :, None], d[None, :, None, :]].reshape(n * n, n * n)


# an FFT that overflows gives inf or NaN, which the match test rejects
@np.errstate(over="ignore", invalid="ignore")
def fourier_symbol(K: np.ndarray) -> Optional[np.ndarray]:
    """Eigenvalues of K, length M in the order of :func:`grid_to_modes`, if
    K is block-circulant with circulant blocks on an x1-major n x n grid;
    None for any other K.

    Such a K is the circular convolution with its first column, so its
    eigenvalues are the 2-D FFT of that column, made exactly Hermitian, as
    the eigenvalues of a real map are (:func:`_hermitian`), so that
    per-mode results of real data keep their conjugate pairs to the last
    bit. K is accepted when the map of these eigenvalues matches it to
    rounding, in O(M^2).
    """
    M = K.shape[0]
    n = math.isqrt(M)
    if n * n != M:
        return None
    s = _hermitian(np.fft.fft2(K[:, 0].reshape(n, n)).ravel())
    # written so that NaN fails the test too
    if not np.abs(_circulant(s) - K).max() <= 1e-12 * np.abs(K).max():
        return None
    return s


def _maps_from_modes(modes: np.ndarray) -> list:
    """The dense maps with the per-mode coefficients of each row of modes,
    with one gather per distinct row: a row equal to an earlier one shares
    its map, and a row equal to an earlier one's conjugate takes its
    transpose (the conjugate coefficients of a real map are those of its
    transpose)."""
    maps = []
    for c in modes:
        for c0, X in zip(modes, maps):  # the rows before c
            if np.array_equal(c, c0):
                maps.append(X)
                break
            if np.array_equal(c, c0.conj()):
                maps.append(X.T)
                break
        else:
            maps.append(_circulant(c))
    return maps


def build_implicit_euler_propagator(problem: LinearControlProblem, DT: float,
                                    J: int,
                                    variant: Discretization = Discretization.FOTD,
                                    ) -> AffinePropagator:
    """J-step implicit-Euler propagator pair on sub-intervals of length DT,
    per mode of K's :func:`fourier_symbol` when it has one.

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
    L = _interval_count(problem, DT)
    gh = tau / np.sqrt(problem.gamma) if tracking else tau / problem.gamma
    symbol = fourier_symbol(problem.K)
    # y_d sampled at each step's left end, on every interval, as (L, M)
    sample = lambda j: np.array([problem.y_d(l * DT + j * tau)
                                 for l in range(L)])
    if symbol is None:
        K, target = problem.K, lambda j: sample(j).T
    else:  # one 1 x 1 K per mode, and the targets' modes as its columns
        K = symbol.reshape(-1, 1, 1)
        target = lambda j: grid_to_modes(sample(j)).T[:, None, :]
    maps = implicit_euler_maps(K, tau, gh, J, obj, variant,
                               target if tracking else None)
    offsets = np.zeros((2, L, problem.M))
    if symbol is None:
        if tracking:
            offsets = [b.T.copy() for b in maps[4:]]
        # maps, then offsets, in the order of the AffinePropagator fields
        return AffinePropagator(*maps[:4], *offsets, objective=obj)
    modes = np.stack([X[:, 0, 0] for X in maps[:4]])
    if tracking:
        offsets = [modes_to_grid(b[:, 0, :].T).real.copy() for b in maps[4:]]
    return AffinePropagator(*_maps_from_modes(modes), *offsets, objective=obj,
                            modes=modes)


def _exact_tracking_offsets(problem: LinearControlProblem, DT: float, L: int,
                            w: np.ndarray, phi: np.ndarray, psi: np.ndarray,
                            to_modes, to_grid) -> np.ndarray:
    """Offsets (b_P, b_Q), stacked into one (2, L, M) array, of the exact
    tracking maps with coefficients (phi, psi) at the eigenvalues w of K,
    for a target y_d that is affine in t on each sub-interval. to_modes
    and to_grid change the last axis of a stack into K's eigenbasis and
    back.

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
    # y_d at the ends (even rows) and midpoints (odd) of all sub-intervals
    yd = np.array([problem.y_d(s) for s in DT / 2 * np.arange(2 * L + 1)])
    ends = yd[::2]
    if (np.abs(yd[1::2] - (ends[:-1] + ends[1:]) / 2).max()
            > 1e-12 * np.abs(yd).max()):
        raise ValueError("exact tracking offsets need a target y_d that is "
                         "affine in t on each sub-interval")
    g = 1.0 / np.sqrt(problem.gamma)
    r = np.hypot(w, g)
    e = to_modes(ends)  # modes of y_d at the sub-interval ends, one per row
    e0, e1, slope = e[:-1], e[1:], np.diff(e, axis=0) / DT
    y0, y1 = (g / r) ** 2 * e0, (g / r) ** 2 * e1
    lam0, lam1 = (-(g / r) * (w / r * ek + slope / r) for ek in (e0, e1))
    b_P, b_Q = y1 - phi * y0 + psi * lam1, lam0 - psi * y0 - phi * lam1
    return to_grid(np.stack([b_P, b_Q]))


def build_exact_propagator(problem: LinearControlProblem,
                           DT: float) -> AffinePropagator:
    """Exact-in-time propagator pair for a symmetric K: the closed forms
    give the (phi, psi) of every eigenvalue, and the maps and the tracking
    offsets are both formed from them. The eigenvalues are K's
    :func:`fourier_symbol` when it has one, and come from one eigh of K
    otherwise.

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
    L = _interval_count(problem, DT)

    symbol = fourier_symbol(K)
    if symbol is None:
        w, Q = np.linalg.eigh(K)
        to_modes, to_grid = (lambda x: x @ Q), (lambda c: c @ Q.T)
        to_matrix = lambda c: (Q * c) @ Q.T
    else:
        # a symmetric K has a real symbol
        w = symbol.real
        to_modes, to_grid = grid_to_modes, lambda c: modes_to_grid(c).real
        to_matrix = _circulant
    tracking = problem.objective is ObjectiveKind.TRACKING
    gh = DT / np.sqrt(problem.gamma) if tracking else DT / problem.gamma
    closed_form = _tracking_exact if tracking else _tc_exact
    # unchecked forms: a propagator exists for every eigenvalue, also outside
    # the range the analysis bounds assume (phi = 1 at a vanishing one)
    pp = closed_form(DT * w, gh)
    Phi, Psi = to_matrix(pp.phi), to_matrix(pp.psi)
    Psi_Q = Psi if tracking else np.zeros_like(Psi)
    modes = None
    if symbol is not None:
        modes = np.stack([pp.phi, pp.psi, pp.phi,
                          pp.psi if tracking else np.zeros_like(pp.psi)])

    b_P, b_Q = (_exact_tracking_offsets(problem, DT, L, w, pp.phi, pp.psi,
                                        to_modes, to_grid)
                if tracking else np.zeros((2, L, problem.M)))

    return AffinePropagator(Phi_P=Phi, Psi_P=Psi, Phi_Q=Phi, Psi_Q=Psi_Q,
                            b_P=b_P, b_Q=b_Q, objective=problem.objective,
                            modes=modes)


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
