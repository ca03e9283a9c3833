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

Where the basis comes from: a problem whose K is a
:class:`paraopt_kit.problem.PeriodicStencil` (every built-in problem)
carries K's eigenvalues on the grid's 2-D DFT
(:attr:`LinearControlProblem.symbol`). Both builders then work per mode of
the half spectrum of the grid's :class:`FourierBasis`, on its eigenvalues
as a stack of 1 x 1 matrices, with the targets moved in by 2-D FFTs.
Such a propagator lives in that basis: it is the eigenvalues of its four
maps there, its offsets as half spectra and the basis, with no M x M map,
and each of its actions is one product with the eigenvalues of a map. A
dense K, block-circulant or not, takes the dense path: the
implicit-Euler composition runs on it, one M x M solve per step,
O(J M^3), and the exact build diagonalizes a symmetric K with eigh; those
propagators hold the dense maps and grid offsets, so grid values are their
basis. A dense map of either kind, in the propagator's basis, for the
oracles and tests, comes from :func:`dense_maps`: M x M on grid values,
(M + s) x (M + s) on the real view of the half spectrum. Grid values
enter and leave a per-mode propagator only through
:func:`paraopt_kit.core.paraopt_solve` and
:func:`paraopt_kit.core.matching_residual`. The dense coupled
J-step system survives only as the brute-force oracle behind
:func:`extract_phi_psi_scalar`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from paraopt_kit.analysis import _tc_exact, _tracking_exact, implicit_euler_maps
from paraopt_kit.problem import Discretization, LinearControlProblem, ObjectiveKind


@dataclass(frozen=True)
class AffinePropagator:
    """Explicit affine sub-interval maps, in the basis the propagator holds.

    P(y, lam) = Phi_P y - Psi_P lam + b_P[l],
    Q(y, lam) = Psi_Q y + Phi_Q lam + b_Q[l].
    Offsets are indexed by sub-interval (length L); the maps are
    interval-independent. With ``basis`` None, ``maps`` holds
    (Phi_P, Psi_P, Phi_Q, Psi_Q) as M x M matrices and the offsets hold
    grid values, (L, M). For a problem with a ``symbol``, ``basis`` is the
    grid's :class:`FourierBasis`, ``maps`` holds their eigenvalues on its
    half spectrum, one row per map, shape (4, len(basis.half)), and the
    offsets hold half spectra, (L, len(basis.half)): no M x M map is
    formed (:func:`dense_maps` forms them on demand, in that basis).
    """

    maps: object  # (Phi_P, Psi_P, Phi_Q, Psi_Q): M x M, or rows of modes
    b_P: np.ndarray  # (L, M), or (L, len(basis.half)) half spectra
    b_Q: np.ndarray
    objective: ObjectiveKind
    basis: Optional[FourierBasis] = field(default=None, repr=False)

    @property
    def M(self) -> int:
        return self.b_P.shape[-1] if self.basis is None else self.basis.M

    @functools.cached_property
    def actions(self) -> tuple:
        """(Phi_P, Psi_P, Phi_Q, Psi_Q) as actions on the rows of a stack
        in the propagator's basis, grid values or half spectra: products
        with the matrices, or with the eigenvalues; built on first use and
        kept. Real eigenvalues scale the real view of a half spectrum, so
        that no 0 * inf of a complex product turns an overflow into NaN."""
        if self.basis is None:
            return tuple((lambda v, X=X: v @ X.T) for X in self.maps)
        return tuple(_mode_action(x) for x in self.maps)


def _mode_action(x: np.ndarray):
    """The product with eigenvalues x on the rows of a stack of half
    spectra, a complex array contiguous along its last axis."""
    if np.imag(x).any():
        return lambda v: v * x
    x = np.repeat(np.real(x), 2)
    return lambda v: (v.view(float) * x).view(complex)


def dense_maps(prop: AffinePropagator) -> tuple:
    """(Phi_P, Psi_P, Phi_Q, Psi_Q) of an AffinePropagator as dense
    matrices in its basis, for the dense oracles and tests: the M x M maps
    of grid values, or, with a FourierBasis, the (M + s) x (M + s) maps of
    the real view of its half spectra (s = basis.self_count), formed from
    the actions on the unit vectors."""
    if prop.basis is None:
        return tuple(prop.maps)
    I = np.eye(2 * len(prop.basis.half))
    return tuple(act(I.view(complex)).view(float).T for act in prop.actions)


def _interval_count(problem: LinearControlProblem, DT: float) -> int:
    """The number L of sub-intervals of length DT in the horizon T."""
    L = int(round(problem.T / DT))
    if abs(L * DT - problem.T) > 1e-10 * problem.T:
        raise ValueError("DT must divide the horizon T")
    return L


class FourierBasis:
    """Orthonormal Fourier basis of real data on the x1-major n x n grid,
    M = n^2: the half spectrum.

    The coefficients c(k) of real grid data in the unitary 2-D DFT come in
    conjugate pairs, c(-k) = conj c(k), so one representative k of each
    pair {k, -k} carries both, and the self-conjugate modes (k = -k: the
    mean, and for even n the three Nyquist modes) are real. The half
    spectrum of real data is the complex vector

        [c(k), k self-conjugate | sqrt2 c(k), k in pairs]

    of length about M/2 + 2 (:meth:`coefficients`, :meth:`grid`); a map
    with DFT eigenvalues x acts on it as the product with x[half], one
    mode at a time. Its real view (``.view(float)``), of length M + s, is
    the coordinate vector the solve runs on (:func:`stack` and
    :func:`flat` convert between the two): the change is orthogonal, so
    norms and inner products are those of the grid. Its s slots for the
    imaginary parts of the self-conjugate modes are 0 for real data.
    ``half`` indexes the modes in the k1-major order of the DFT
    (np.fft.fft2 of the grid), self-conjugate ones first, and
    ``self_count`` is their number s: one for odd n, four for even n.
    """

    def __init__(self, M: int):
        n = math.isqrt(M)
        if n * n != M:
            raise ValueError(f"M = {M} is not the size of a square grid")
        neg = -np.arange(n) % n
        neg = (neg[:, None] * n + neg).ravel()  # the mode -k of each mode k
        k = np.arange(M)
        self.n, self.M = n, M
        self.self_count = int(np.sum(neg == k))
        pairs = k[k < neg]
        self.half = np.concatenate([k[neg == k], pairs])
        partners = neg[pairs]
        # the real FFT's half plane, rows k1 = 0..n//2 of the DFT, holds
        # every mode of half at its own index, and the partners -k of the
        # pairs in rows k1 = 0 and n/2, which its inverse needs as well
        self._plane = (n // 2 + 1, n)
        inside = partners < self._plane[0] * n
        self._inside = (np.flatnonzero(inside) + self.self_count,
                        partners[inside])

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Half spectra of real grid values, over the last axis, with the
        imaginary parts of the self-conjugate modes exactly 0."""
        batch, n = x.shape[:-1], self.n
        # the real transform runs over x1, so that the plane is k1-major
        c = np.fft.rfftn(x.reshape(batch + (n, n)), axes=(-1, -2),
                         norm="ortho").reshape(batch + (self._plane[0] * n,))
        c = np.take(c, self.half, axis=-1)  # contiguous, to view as real
        c[..., :self.self_count].imag = 0.0
        c[..., self.self_count:] *= np.sqrt(2.0)
        return c

    def grid(self, h: np.ndarray) -> np.ndarray:
        """Real grid values of half spectra, over the last axis: the
        imaginary parts of their self-conjugate modes, which real data do
        not have, are dropped."""
        batch, n = h.shape[:-1], self.n
        h = h.copy()
        h[..., self.self_count:] /= np.sqrt(2.0)
        plane = np.zeros(batch + (self._plane[0] * n,), complex)
        plane[..., self.half] = h
        pairs, partners = self._inside
        plane[..., partners] = h[..., pairs].conj()
        return np.fft.irfftn(plane.reshape(batch + self._plane), s=(n, n),
                             axes=(-1, -2),
                             norm="ortho").reshape(batch + (self.M,))


def stack(basis: Optional[FourierBasis], v: np.ndarray, shape: tuple,
          M: int) -> np.ndarray:
    """The stack, of shape ``shape`` + (m,), of the rows that a real
    vector v of the solve holds: grid values (m = M) without a basis, else
    the half spectra (m = len(basis.half)) of which v is the real view.
    Raises ValueError unless v is real and has prod(shape) (M + s)
    entries, s = ``basis.self_count`` (0 without a basis): every operator
    of the solve reads its vector through here. The inverse of
    :func:`flat`."""
    if np.iscomplexobj(v):
        raise ValueError(f"v must be real, as the solve's vectors are; got "
                         f"{v.dtype}")
    s = 0 if basis is None else basis.self_count
    rows = math.prod(shape)
    if np.size(v) != rows * (M + s):
        raise ValueError(f"the length of v is {np.size(v)}, but {rows} rows "
                         f"of M + s = {M + s} are {rows * (M + s)}")
    v = np.ascontiguousarray(v).reshape(shape + (M + s,))
    return v if basis is None else v.view(complex)


def flat(h: np.ndarray) -> np.ndarray:
    """The flat real vector of the solve that holds a stack of rows: the
    real view of half spectra (complex h), else grid values. h is copied
    first when its last axis is not contiguous, as in the output of an FFT
    along another axis on numpy 1.x. The inverse of :func:`stack`."""
    h = np.ascontiguousarray(h)
    return (h.view(float) if np.iscomplexobj(h) else h).ravel()


def build_implicit_euler_propagator(problem: LinearControlProblem, DT: float,
                                    J: int,
                                    variant: Discretization = Discretization.FOTD,
                                    ) -> AffinePropagator:
    """J-step implicit-Euler propagator pair on sub-intervals of length DT,
    per mode of the problem's ``symbol`` when it has one.

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
    symbol = problem.symbol
    # y_d sampled at each step's left end, on every interval, as (L, M)
    sample = lambda j: np.array([problem.y_d(l * DT + j * tau)
                                 for l in range(L)])
    if symbol is None:
        K, target = problem.K, lambda j: sample(j).T
    else:  # one 1 x 1 K per mode of the half spectrum, and the targets'
        basis = FourierBasis(problem.M)  # modes as its columns
        K = symbol[basis.half].reshape(-1, 1, 1)
        target = lambda j: basis.coefficients(sample(j)).T[:, None, :]
    maps = implicit_euler_maps(K, tau, gh, J, obj, variant,
                               target if tracking else None)
    dtype = float if symbol is None else complex  # grid values, half spectra
    offsets = np.zeros((2, L, len(K)), dtype)
    if tracking:  # b_P of one step is a real zero
        offsets = [b.reshape(len(K), L).T.astype(dtype, order="C")
                   for b in maps[4:]]
    if symbol is None:
        return AffinePropagator(tuple(maps[:4]), *offsets, objective=obj)
    return AffinePropagator(np.stack([X[:, 0, 0] for X in maps[:4]]),
                            *offsets, objective=obj, basis=basis)


def _exact_tracking_offsets(problem: LinearControlProblem, DT: float, L: int,
                            w: np.ndarray, phi: np.ndarray, psi: np.ndarray,
                            to_modes, from_modes) -> np.ndarray:
    """Offsets (b_P, b_Q), stacked into one (2, L, m) array, of the exact
    tracking maps with coefficients (phi, psi) at the eigenvalues w of K,
    for a target y_d that is affine in t on each sub-interval. to_modes
    changes the last axis of a stack of grid values into K's eigenbasis,
    and from_modes changes it from there into the propagator's basis.

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
    return from_modes(np.stack([b_P, b_Q]))


def build_exact_propagator(problem: LinearControlProblem,
                           DT: float) -> AffinePropagator:
    """Exact-in-time propagator pair for a symmetric K: the closed forms
    give the (phi, psi) of every eigenvalue, and the maps and the tracking
    offsets are both formed from them. The eigenvalues are the problem's
    ``symbol`` when it has one, and then the maps are kept as they are;
    otherwise they come from one eigh of the dense K, and the maps are
    formed in its eigenbasis.

    Tracking offsets are exact for a y_d that is affine in t on each
    sub-interval (see :func:`_exact_tracking_offsets`); any other y_d raises
    ValueError, since y_d is checked at each sub-interval midpoint against
    the mean of its ends.
    """
    K, symbol = problem.K, problem.symbol
    # K^T has the conjugate symbol, and the Frobenius norm of a BCCB K is
    # the 2-norm of its symbol, so the symbol is tested as K would be;
    # scaled by its largest entry, so that the norms cannot overflow
    x, transpose = (K, np.transpose) if symbol is None else (symbol, np.conj)
    xs = x / max(np.abs(x).max(), np.finfo(float).tiny)
    if np.linalg.norm(xs - transpose(xs)) > 1e-12 * np.linalg.norm(xs):
        raise ValueError("exact propagators require a symmetric K")
    L = _interval_count(problem, DT)

    if symbol is None:
        basis, (w, Q) = None, np.linalg.eigh(K)
        to_modes, from_modes = (lambda x: x @ Q), (lambda c: c @ Q.T)
    else:
        basis = FourierBasis(problem.M)
        # a symmetric K has a real symbol
        w = symbol[basis.half].real
        to_modes, from_modes = basis.coefficients, (lambda c: c)
    tracking = problem.objective is ObjectiveKind.TRACKING
    gh = DT / np.sqrt(problem.gamma) if tracking else DT / problem.gamma
    closed_form = _tracking_exact if tracking else _tc_exact
    # unchecked forms: a propagator exists for every eigenvalue, also outside
    # the range the analysis bounds assume (phi = 1 at a vanishing one)
    pp = closed_form(DT * w, gh)
    pair = lambda phi, psi: (phi, psi, phi,
                             psi if tracking else np.zeros_like(psi))
    if basis is None:  # the maps of coefficients (phi, psi) in K's eigenbasis
        maps = pair(*((Q * c) @ Q.T for c in (pp.phi, pp.psi)))
    else:
        maps = np.stack(pair(pp.phi, pp.psi))

    dtype = float if basis is None else complex  # grid values, half spectra
    b_P, b_Q = (_exact_tracking_offsets(problem, DT, L, w, pp.phi, pp.psi,
                                        to_modes, from_modes)
                if tracking else np.zeros((2, L, len(w)), dtype))
    return AffinePropagator(maps, b_P, b_Q, problem.objective, basis)


def linear_action(prop: AffinePropagator):
    """Callbacks (P, Q) of the linear part of the maps of an
    AffinePropagator, offsets dropped, on vectors in its basis:
    P(y, lam) = Phi_P y - Psi_P lam, Q(y, lam) = Psi_Q y + Phi_Q lam."""
    Phi_P, Psi_P, Phi_Q, Psi_Q = prop.actions
    return (lambda y, lam: Phi_P(y) - Psi_P(lam),
            lambda y, lam: Psi_Q(y) + Phi_Q(lam))


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
