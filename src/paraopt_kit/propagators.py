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
the half spectrum of the grid's real :class:`FourierBasis`, on its
eigenvalues as a stack of 1 x 1 matrices, with the targets moved in by
2-D FFTs. Such a propagator lives in that basis: it is the eigenvalues of
its four maps there, its offsets as real coefficients and the basis, with
no M x M map, and it acts on coefficients only, one product per mode
(:class:`ModeMap`). A dense K, block-circulant or not, takes the dense
path: the implicit-Euler composition runs on it, one M x M solve per step,
O(J M^3), and the exact build diagonalizes a symmetric K with eigh; those
propagators hold the dense maps and grid offsets, so grid values are their
basis. A dense map of either kind, in the propagator's basis, for the
oracles and tests, comes from :func:`dense_maps`, which applies the
actions to the unit vectors. Grid values enter and leave a per-mode
propagator only through :func:`paraopt_kit.core.paraopt_solve` and
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
    grid values. For a problem with a ``symbol``, ``basis`` is the grid's
    :class:`FourierBasis`, ``maps`` holds their eigenvalues on its half
    spectrum, one row per map, shape (4, len(basis.half)), and the offsets
    hold its real coefficients: no M x M map is formed (:func:`dense_maps`
    forms them on demand, in that basis).
    """

    maps: object  # (Phi_P, Psi_P, Phi_Q, Psi_Q): M x M, or rows of modes
    b_P: np.ndarray  # (L, M)
    b_Q: np.ndarray  # (L, M)
    objective: ObjectiveKind
    basis: Optional[FourierBasis] = field(default=None, repr=False)

    @property
    def M(self) -> int:
        return self.b_P.shape[-1]

    @functools.cached_property
    def actions(self) -> tuple:
        """(Phi_P, Psi_P, Phi_Q, Psi_Q) as actions on the rows of a stack
        in the propagator's basis: products with the matrices, or one
        :class:`ModeMap` per map; built on first use and kept."""
        if self.basis is None:
            return tuple((lambda v, X=X: v @ X.T) for X in self.maps)
        return tuple(ModeMap(self.basis, x) for x in self.maps)


def dense_maps(prop: AffinePropagator) -> tuple:
    """(Phi_P, Psi_P, Phi_Q, Psi_Q) of an AffinePropagator as dense M x M
    matrices in its basis (grid values, or the real coefficients of its
    FourierBasis), formed from its actions on the unit vectors: O(M^2)
    memory each, for the dense oracles and tests."""
    I = np.eye(prop.M)
    return tuple(act(I).T for act in prop.actions)


def _interval_count(problem: LinearControlProblem, DT: float) -> int:
    """The number L of sub-intervals of length DT in the horizon T."""
    L = int(round(problem.T / DT))
    if abs(L * DT - problem.T) > 1e-10 * problem.T:
        raise ValueError("DT must divide the horizon T")
    return L


class FourierBasis:
    """Real orthonormal Fourier basis of the x1-major n x n grid, M = n^2.

    The coefficients c(k) of real grid data in the unitary 2-D DFT come in
    conjugate pairs, c(-k) = conj c(k), so one representative k of each
    pair {k, -k} carries both, and the self-conjugate modes (k = -k: the
    mean, and for even n the three Nyquist modes) are real. A real vector
    of length M holds them as

        [c(k), k self-conjugate | sqrt2 Re c(k) | sqrt2 Im c(k), k in pairs]

    (:meth:`coefficients`, :meth:`grid`). The change is orthogonal, so
    norms and inner products are those of the grid. The half spectrum is
    the complex vector [c(k), k self-conjugate | sqrt2 c(k), k in pairs],
    of length about M/2 + 2 and of the same norm (:meth:`to_half`,
    :meth:`from_half`); a map with DFT eigenvalues x acts on it as the
    product with x[half], one mode at a time. Real data are the only
    input: a complex vector would need both members of each pair.
    ``half`` indexes those modes in the k1-major order of the DFT
    (np.fft.fft2 of the grid), self-conjugate ones first, and
    ``self_count`` is their number: one for odd n, four for even n.
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
        self._partners = neg[pairs]
        # the real FFT's half plane, rows k1 = 0..n//2 of the DFT, holds
        # every mode of half at its own index, and the partners -k of the
        # pairs in rows k1 = 0 and n/2, which its inverse needs as well
        self._plane = (n // 2 + 1, n)
        inside = self._partners < self._plane[0] * n
        self._inside = (np.flatnonzero(inside) + self.self_count,
                        self._partners[inside])

    def to_half(self, c: np.ndarray) -> np.ndarray:
        """Half spectrum of real coefficients, over the last axis."""
        s, p = self.self_count, len(self._partners)
        h = np.empty(c.shape[:-1] + (s + p,), complex)
        h[..., :s] = c[..., :s]
        h[..., s:].real = c[..., s:s + p]
        h[..., s:].imag = c[..., s + p:]
        return h

    def from_half(self, h: np.ndarray) -> np.ndarray:
        """Real coefficients of a half spectrum, over the last axis: the
        imaginary part of its self-conjugate modes, which real data do not
        have, is dropped."""
        s = self.self_count
        return np.concatenate([h[..., :s].real, h[..., s:].real,
                               h[..., s:].imag], axis=-1)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Real coefficients of real grid values, over the last axis."""
        batch, n = x.shape[:-1], self.n
        # the real transform runs over x1, so that the plane is k1-major
        c = np.fft.rfftn(x.reshape(batch + (n, n)), axes=(-1, -2),
                         norm="ortho").reshape(batch + (self._plane[0] * n,))
        c = c[..., self.half]
        c[..., self.self_count:] *= np.sqrt(2.0)
        return self.from_half(c)

    def grid(self, c: np.ndarray) -> np.ndarray:
        """Real grid values of real coefficients, over the last axis."""
        batch, n = c.shape[:-1], self.n
        h = self.to_half(c)
        h[..., self.self_count:] /= np.sqrt(2.0)
        plane = np.zeros(batch + (self._plane[0] * n,), complex)
        plane[..., self.half] = h
        pairs, partners = self._inside
        plane[..., partners] = h[..., pairs].conj()
        return np.fft.irfftn(plane.reshape(batch + self._plane), s=(n, n),
                             axes=(-1, -2), norm="ortho").reshape(c.shape)


class ModeMap:
    """The action of a real map with eigenvalues x (its half spectrum, in
    the order of FourierBasis.half) on real coefficients, over the last
    axis: per pair, sqrt2 (Re, Im) c(k) goes to sqrt2 (Re, Im) x(k) c(k),
    so the imaginary part of x couples the two halves; a real x (a
    symmetric map) skips that step."""

    def __init__(self, basis: FourierBasis, x: np.ndarray):
        s = basis.self_count
        self._re = np.concatenate([x.real, x[s:].real])
        im = x[s:].imag
        self._im = im if im.any() else None
        self._s = s

    def __call__(self, v: np.ndarray) -> np.ndarray:
        out = v * self._re
        if self._im is not None:
            s, p = self._s, len(self._im)
            out[..., s:s + p] -= self._im * v[..., s + p:]
            out[..., s + p:] += self._im * v[..., s:s + p]
        return out


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
        target = lambda j: basis.to_half(
            basis.coefficients(sample(j))).T[:, None, :]
    maps = implicit_euler_maps(K, tau, gh, J, obj, variant,
                               target if tracking else None)
    offsets = np.zeros((2, L, problem.M))
    if symbol is None:
        if tracking:
            offsets = [b.T.copy() for b in maps[4:]]
        return AffinePropagator(tuple(maps[:4]), *offsets, objective=obj)
    if tracking:
        offsets = [basis.from_half(b[:, 0, :].T) for b in maps[4:]]
    return AffinePropagator(np.stack([X[:, 0, 0] for X in maps[:4]]),
                            *offsets, objective=obj, basis=basis)


def _exact_tracking_offsets(problem: LinearControlProblem, DT: float, L: int,
                            w: np.ndarray, phi: np.ndarray, psi: np.ndarray,
                            to_modes, from_modes) -> np.ndarray:
    """Offsets (b_P, b_Q), stacked into one (2, L, M) array, of the exact
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
        to_modes = lambda x: basis.to_half(basis.coefficients(x))
        from_modes = basis.from_half
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

    b_P, b_Q = (_exact_tracking_offsets(problem, DT, L, w, pp.phi, pp.psi,
                                        to_modes, from_modes)
                if tracking else np.zeros((2, L, problem.M)))
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
