"""Optimal-control problem instances, objective scalings, and spatial grids."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np


class ObjectiveKind(enum.Enum):
    TRACKING = "tracking"
    TERMINAL_COST = "terminal_cost"


class Discretization(enum.Enum):
    FOTD = "fotd"  # first optimize, then discretize
    FDTO = "fdto"  # first discretize, then optimize


def _require_positive(name: str, value: float) -> None:
    # written so that NaN fails the test too
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _finite_array(name: str, x, shape=None) -> np.ndarray:
    """x as a float array with finite entries, of the given shape, or
    square when shape is None."""
    x = np.asarray(x, dtype=float)
    if shape is None and x.ndim == 2 and x.shape[0] == x.shape[1]:
        shape = x.shape
    if x.shape != shape:
        raise ValueError(f"{name} must have shape {shape or '(n, n)'}, "
                         f"got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def _hermitian(c: np.ndarray) -> np.ndarray:
    """(c(k) + conj c(-k)) / 2 for the modes c of an n x n grid: exactly
    Hermitian, as the eigenvalues of a real map are. The FFT of real data
    can miss that in the last bit (numpy's fft2 does at n = 16)."""
    return (c + np.roll(c[::-1, ::-1], 1, (0, 1)).conj()) / 2


@dataclass(frozen=True)
class PeriodicStencil:
    """A periodic K on the x1-major n x n grid, M = n^2, declared by its
    first column as n x n grid values: the circular convolution with it,
    diagonal in the grid's unitary 2-D DFT. ``symbol``, its eigenvalues in
    the k1-major order of that DFT, is the FFT of the column made exactly
    Hermitian (:func:`_hermitian`), computed once, in O(M log M)."""

    column: np.ndarray
    symbol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        column = _finite_array("a stencil's column", self.column)
        # an FFT that overflows gives inf or NaN, which is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            symbol = _hermitian(np.fft.fft2(column)).ravel()
        if not np.all(np.isfinite(symbol)):
            raise ValueError("the symbol of the periodic stencil overflows")
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "symbol", symbol)


@dataclass(frozen=True)
class LinearControlProblem:
    """Linear-dynamics control problem y' = -K y + u on [0, T].

    The adjoint convention lambda = -gamma*u couples the control to the
    costate; tracking problems carry a target trajectory ``y_d(t)``,
    terminal-cost problems a target state ``y_target``. K is a dense
    M x M matrix, which takes the dense paths whatever its structure, or a
    :class:`PeriodicStencil`, which forms no M x M matrix.
    """

    K: Union[np.ndarray, PeriodicStencil]
    gamma: float
    T: float
    y_init: np.ndarray
    objective: ObjectiveKind
    y_target: Optional[np.ndarray] = None
    y_d: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        # a stencil was checked when it was made, and dataclasses.replace,
        # which runs this again, keeps it and its symbol as they are
        if self.symbol is None:
            object.__setattr__(self, "K", _finite_array("K", self.K))
        _require_positive("gamma", self.gamma)
        _require_positive("T", self.T)
        for name in ("y_init", "y_target"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _finite_array(
                    name, getattr(self, name), (self.M,)))
        if self.objective is ObjectiveKind.TERMINAL_COST and self.y_target is None:
            raise ValueError("terminal-cost problems need y_target")
        if self.objective is ObjectiveKind.TRACKING and self.y_d is None:
            raise ValueError("tracking problems need y_d")

    @property
    def M(self) -> int:
        return self.K.shape[0] if self.symbol is None else len(self.symbol)

    @property
    def symbol(self) -> Optional[np.ndarray]:
        """The eigenvalues of a PeriodicStencil K; None for a dense K."""
        return self.K.symbol if isinstance(self.K, PeriodicStencil) else None


@dataclass(frozen=True)
class TimeDecomposition:
    """Uniform splitting of [0, T] into L sub-intervals of length DT.

    L_hat counts the interval-boundary unknown blocks: L-1 for tracking
    (the terminal adjoint is fixed to zero) and L for terminal cost.
    """

    L: int
    T: float
    L_hat: int
    J_fine: int
    J_coarse: int

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("need at least two sub-intervals")
        if not (self.J_fine >= self.J_coarse >= 1):
            raise ValueError("need J_fine >= J_coarse >= 1")

    @property
    def DT(self) -> float:
        return self.T / self.L


def make_decomposition(problem: LinearControlProblem, L: int, J_fine: int,
                       J_coarse: int) -> TimeDecomposition:
    L_hat = L - 1 if problem.objective is ObjectiveKind.TRACKING else L
    return TimeDecomposition(L=L, T=problem.T, L_hat=L_hat,
                             J_fine=J_fine, J_coarse=J_coarse)


def _difference_columns(n: int):
    """First columns of the periodic central-difference Laplacian and
    gradients d/dx1, d/dx2 on the n x n grid, h = 1/n: the operators
    applied to the unit impulse at grid point (0, 0)."""
    if n < 2:
        raise ValueError("need n >= 2 grid points per dimension")
    h = 1.0 / n
    e = np.zeros((n, n))
    e[0, 0] = 1.0
    d2 = [(np.roll(e, 1, a) + np.roll(e, -1, a) - 2.0 * e) / (h * h)
          for a in (0, 1)]
    d1 = [(np.roll(e, -1, a) - np.roll(e, 1, a)) / (2.0 * h) for a in (0, 1)]
    return d2[0] + d2[1], d1[0], d1[1]


def _periodic_problem(column: np.ndarray, gamma: float, T: float,
                      objective: ObjectiveKind) -> LinearControlProblem:
    """The problem of the stencil K with first column ``column`` on the
    periodic unit square, with closed-form initial value, target state and
    target trajectory evaluated at the grid vertices (x1-major order)."""
    _require_positive("gamma", gamma)  # before the fields divide by it
    n = column.shape[0]
    x = np.arange(n) / n  # cell vertices with periodic wrap
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    s1 = np.sin(2 * np.pi * X1)
    s2 = np.sin(2 * np.pi * X2)
    c = 12 * np.pi ** 2
    y_init = (1.0 / (c * gamma)) * (1 - T) * np.sign(s1) * s2 ** 2
    y_target = s1 * s2
    shape = s1 * s2

    def y_d(t: float) -> np.ndarray:
        coef = (c + 1.0 / (c * gamma)) * (t - T) - (1.0 + 1.0 / (c ** 2 * gamma))
        return (coef * shape).ravel()

    return LinearControlProblem(K=PeriodicStencil(column), gamma=gamma, T=T,
                                y_init=y_init.ravel(), objective=objective,
                                y_target=y_target.ravel(), y_d=y_d)


def make_heat_problem(n: int, gamma: float, T: float,
                      objective: ObjectiveKind) -> LinearControlProblem:
    """2-D periodic heat equation dy/dt = Lap(y) + u on [0,1]^2, central
    differences on an n-by-n vertex grid, so K = -Lap_h (symmetric PSD),
    declared as its stencil."""
    return _periodic_problem(-_difference_columns(n)[0], gamma, T, objective)


def make_advection_diffusion_problem(n: int, gamma: float, T: float,
                                     objective: ObjectiveKind) -> LinearControlProblem:
    """dy/dt = Lap(y)/10 - dy/dx1 - dy/dx2 + u, periodic central differences;
    K is non-symmetric, so only the solver path applies."""
    lap, Dx1, Dx2 = _difference_columns(n)
    return _periodic_problem(-(lap / 10.0 - Dx1 - Dx2), gamma, T, objective)


def make_scalar_problem(sigma: float, gamma: float, T: float,
                        objective: ObjectiveKind,
                        y_init: float = 1.0,
                        y_d: Optional[Callable[[float], float]] = None,
                        y_target: Optional[float] = None) -> LinearControlProblem:
    """Scalar test equation y' = -sigma*y + u, K the 1 x 1 stencil sigma;
    y_d is 1 for tracking and y_target 1 for terminal cost unless given."""
    if y_d is None and objective is ObjectiveKind.TRACKING:
        y_d = lambda t: 1.0
    if y_target is None and objective is ObjectiveKind.TERMINAL_COST:
        y_target = 1.0
    yd_vec = None if y_d is None else (
        lambda t: np.atleast_1d(np.asarray(y_d(t), dtype=float)))
    return LinearControlProblem(
        K=PeriodicStencil([[sigma]]), gamma=gamma, T=T, y_init=[y_init],
        objective=objective, y_target=None if y_target is None else [y_target],
        y_d=yd_vec)
