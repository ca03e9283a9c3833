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
(:func:`fourier_symbol`). Real data have conjugate pairs of DFT
coefficients, so :class:`FourierBasis` keeps one of each pair: its real
coefficients are laid out as [self-conjugate modes | sqrt2 Re c(k) |
sqrt2 Im c(k)], k over one representative per pair, an orthonormal real
basis, and its half spectrum is the complex [c(k) self-conjugate |
sqrt2 c(k) paired], about M/2 + 2 modes. Both builders work per mode of
the half spectrum, on its eigenvalues as a stack of 1 x 1 matrices, with
targets and offsets moved by 2-D FFTs. Such a propagator is the
eigenvalues of its four maps there, its grid offsets and its basis, with
no M x M map: it acts on coefficients as a :class:`ModeMap`, one product
per mode (:meth:`AffinePropagator.in_basis`), and on grid values through
the basis's transforms. For any other K the implicit-Euler composition
runs on the dense K, each of its J steps eliminating the interface
unknowns with one M x M solve, O(J M^3), and the exact build
diagonalizes a symmetric K with eigh; those propagators hold the dense
maps. A dense map of either kind, for the oracles and tests, comes from
:func:`dense_maps`, which applies the actions to the unit vectors.
The dense coupled J-step system survives only as the brute-force oracle
behind :func:`extract_phi_psi_scalar`.
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
    """Explicit affine sub-interval maps.

    P(y, lam) = Phi_P y - Psi_P lam + b_P[l],
    Q(y, lam) = Psi_Q y + Phi_Q lam + b_Q[l].
    Offsets are indexed by sub-interval (length L) and hold grid values;
    the maps are interval-independent. With ``basis`` None, ``maps`` holds
    (Phi_P, Psi_P, Phi_Q, Psi_Q) as M x M matrices. For a K with a
    :func:`fourier_symbol`, ``basis`` is the grid's :class:`FourierBasis`
    and ``maps`` holds their eigenvalues on its half spectrum, one row per
    map, shape (4, len(basis.half)): no M x M map is formed
    (:func:`dense_maps` forms them on demand).
    """

    maps: object  # (Phi_P, Psi_P, Phi_Q, Psi_Q): M x M, or rows of modes
    b_P: np.ndarray  # (L, M)
    b_Q: np.ndarray  # (L, M)
    objective: ObjectiveKind
    basis: Optional[FourierBasis] = field(default=None, repr=False)

    @property
    def M(self) -> int:
        return self.b_P.shape[-1]

    @property
    def actions(self) -> tuple:
        """(Phi_P, Psi_P, Phi_Q, Psi_Q) as actions on the rows of a stack
        of grid values: products with the matrices, or per mode between
        the basis's two transforms."""
        if self.basis is None:
            return tuple(functools.partial(_on_rows, X) for X in self.maps)
        return tuple(functools.partial(_on_grid, self.basis,
                                       ModeMap(self.basis, x))
                     for x in self.maps)

    def in_basis(self, offsets: bool = True) -> "ModalPropagator":
        """The same maps in the real coefficients of ``basis``: per-mode
        actions, and the offsets transformed once, or left out (None) for
        a propagator whose Jacobian alone is applied."""
        basis = self.basis
        b = ((basis.coefficients(self.b_P), basis.coefficients(self.b_Q))
             if offsets else (None, None))
        return ModalPropagator(tuple(ModeMap(basis, x) for x in self.maps),
                               *b, self.objective, self.M)


@dataclass(frozen=True)
class ModalPropagator:
    """An AffinePropagator in the real coefficients of a FourierBasis
    (:meth:`AffinePropagator.in_basis`): ``actions`` act on the rows of
    coefficient stacks one mode at a time, with no M x M map, and the
    offsets are coefficients."""

    actions: tuple  # (Phi_P, Psi_P, Phi_Q, Psi_Q) as ModeMaps
    b_P: Optional[np.ndarray]  # (L, M)
    b_Q: Optional[np.ndarray]  # (L, M)
    objective: ObjectiveKind
    M: int


def _on_rows(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v @ X.T


def _on_grid(basis: FourierBasis, act: ModeMap, v: np.ndarray) -> np.ndarray:
    return basis.grid(act(basis.coefficients(v)))


def dense_maps(prop) -> tuple:
    """(Phi_P, Psi_P, Phi_Q, Psi_Q) of an AffinePropagator or a
    ModalPropagator as dense M x M matrices in its basis, formed from its
    actions on the unit vectors: O(M^2) memory each, for the dense oracles
    and tests."""
    I = np.eye(prop.M)
    return tuple(act(I).T for act in prop.actions)


def _interval_count(problem: LinearControlProblem, DT: float) -> int:
    """The number L of sub-intervals of length DT in the horizon T."""
    L = int(round(problem.T / DT))
    if abs(L * DT - problem.T) > 1e-10 * problem.T:
        raise ValueError("DT must divide the horizon T")
    return L


def _hermitian(c: np.ndarray) -> np.ndarray:
    """(c(k) + conj c(-k)) / 2 over the last axis of c, read as the modes of
    an n x n grid: exactly Hermitian, as the eigenvalues of a real map are.
    The FFT of real data can miss that in the last bit (numpy's fft2 does
    at n = 16)."""
    n = math.isqrt(c.shape[-1])
    neg = -np.arange(n) % n
    return (c + c[..., (neg[:, None] * n + neg).ravel()].conj()) / 2


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


def _circulant(c: np.ndarray) -> np.ndarray:
    """The real M x M map with eigenvalues c, length M in the k1-major
    order of the 2-D DFT. It is block-circulant with circulant blocks:
    entry ((i1, i2), (j1, j2)) is x[i1 - j1, i2 - j2] (indices mod n) with
    x its first column, so one gather forms it."""
    n = math.isqrt(len(c))
    x = np.fft.ifft2(c.reshape(n, n)).real
    d = (np.arange(n)[:, None] - np.arange(n)) % n
    return x[d[:, None, :, None], d[None, :, None, :]].reshape(n * n, n * n)


# an FFT that overflows gives inf or NaN, which the match test rejects
@np.errstate(over="ignore", invalid="ignore")
def fourier_symbol(K: np.ndarray) -> Optional[np.ndarray]:
    """Eigenvalues of K, length M in the k1-major order of the 2-D DFT, if
    K is block-circulant with circulant blocks on an x1-major n x n grid;
    None for any other K.

    Such a K is the circular convolution with its first column, so its
    eigenvalues are the 2-D FFT of that column, made exactly Hermitian, as
    the eigenvalues of a real map are (:func:`_hermitian`), so that a
    self-conjugate mode has a real one. K is accepted when the map of
    these eigenvalues matches it to rounding, in O(M^2).
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
        offsets = [basis.grid(basis.from_half(b[:, 0, :].T))
                   for b in maps[4:]]
    return AffinePropagator(np.stack([X[:, 0, 0] for X in maps[:4]]),
                            *offsets, objective=obj, basis=basis)


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
    :func:`fourier_symbol` when it has one, and then the maps are kept as
    they are; otherwise they come from one eigh of K, and the maps are
    formed in its eigenbasis.

    Tracking offsets are exact for a y_d that is affine in t on each
    sub-interval (see :func:`_exact_tracking_offsets`); any other y_d raises
    ValueError, since y_d is checked at each sub-interval midpoint against
    the mean of its ends.
    """
    K = problem.K
    symbol = fourier_symbol(K)
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
        to_modes, to_grid = (lambda x: x @ Q), (lambda c: c @ Q.T)
    else:
        basis = FourierBasis(K.shape[0])
        # a symmetric K has a real symbol
        w = symbol[basis.half].real
        to_modes = lambda x: basis.to_half(basis.coefficients(x))
        to_grid = lambda h: basis.grid(basis.from_half(h))
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
                                        to_modes, to_grid)
                if tracking else np.zeros((2, L, problem.M)))
    return AffinePropagator(maps, b_P, b_Q, problem.objective, basis)


def linear_action(prop):
    """Callbacks (P, Q) of the linear part of the maps of an AffinePropagator
    or a ModalPropagator, offsets dropped, in its basis:
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
