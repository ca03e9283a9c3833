"""Optimal-control problem instances, objective scalings, and spatial grids."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

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


@dataclass(frozen=True)
class LinearControlProblem:
    """Linear-dynamics control problem y' = -K y + u on [0, T].

    The adjoint convention lambda = -gamma*u couples the control to the
    costate; tracking problems carry a target trajectory ``y_d(t)``,
    terminal-cost problems a target state ``y_target``.
    """

    K: np.ndarray
    gamma: float
    T: float
    y_init: np.ndarray
    objective: ObjectiveKind
    y_target: Optional[np.ndarray] = None
    y_d: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "y_init", np.asarray(self.y_init, dtype=float))
        _require_positive("gamma", self.gamma)
        _require_positive("T", self.T)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("K must be square")
        if self.y_init.shape != (K.shape[0],):
            raise ValueError("y_init size must match K")
        if not (np.all(np.isfinite(K)) and np.all(np.isfinite(self.y_init))):
            raise ValueError("K and y_init must be finite")
        if self.objective is ObjectiveKind.TERMINAL_COST and self.y_target is None:
            raise ValueError("terminal-cost problems need y_target")
        if self.objective is ObjectiveKind.TRACKING and self.y_d is None:
            raise ValueError("tracking problems need y_d")

    @property
    def M(self) -> int:
        return self.K.shape[0]


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


def _grid_1d(n: int) -> np.ndarray:
    # cell-vertex placement with periodic wrap: x_i = i/n, i = 0..n-1
    return np.arange(n) / n


def _periodic_laplacian_2d(n: int) -> np.ndarray:
    h = 1.0 / n
    D2 = np.zeros((n, n))
    for i in range(n):
        D2[i, i] = -2.0
        D2[i, (i - 1) % n] += 1.0
        D2[i, (i + 1) % n] += 1.0
    D2 /= h * h
    I = np.eye(n)
    return np.kron(D2, I) + np.kron(I, D2)


def _periodic_central_gradient_2d(n: int) -> tuple[np.ndarray, np.ndarray]:
    h = 1.0 / n
    D1 = np.zeros((n, n))
    for i in range(n):
        D1[i, (i + 1) % n] += 1.0
        D1[i, (i - 1) % n] -= 1.0
    D1 /= 2.0 * h
    I = np.eye(n)
    return np.kron(D1, I), np.kron(I, D1)  # d/dx1, d/dx2


def _heat_fields(n: int, gamma: float, T: float):
    """Closed-form initial value, target state, and target trajectory on the
    periodic unit square, evaluated at the grid vertices (x1-major order)."""
    _require_positive("gamma", gamma)  # before the fields divide by it
    x = _grid_1d(n)
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

    return y_init.ravel(), y_target.ravel(), y_d


def make_heat_problem(n: int, gamma: float, T: float,
                      objective: ObjectiveKind) -> LinearControlProblem:
    """2-D periodic heat equation dy/dt = Lap(y) + u on [0,1]^2, central
    differences on an n-by-n vertex grid, so K = -Lap_h (symmetric PSD)."""
    if n < 2:
        raise ValueError("need n >= 2 grid points per dimension")
    K = -_periodic_laplacian_2d(n)
    y_init, y_target, y_d = _heat_fields(n, gamma, T)
    return LinearControlProblem(K=K, gamma=gamma, T=T, y_init=y_init,
                                objective=objective, y_target=y_target, y_d=y_d)


def make_advection_diffusion_problem(n: int, gamma: float, T: float,
                                     objective: ObjectiveKind) -> LinearControlProblem:
    """dy/dt = Lap(y)/10 - dy/dx1 - dy/dx2 + u, periodic central differences;
    K is non-symmetric, so only the solver path applies."""
    if n < 2:
        raise ValueError("need n >= 2 grid points per dimension")
    Dx1, Dx2 = _periodic_central_gradient_2d(n)
    K = -(_periodic_laplacian_2d(n) / 10.0 - Dx1 - Dx2)
    y_init, y_target, y_d = _heat_fields(n, gamma, T)
    return LinearControlProblem(K=K, gamma=gamma, T=T, y_init=y_init,
                                objective=objective, y_target=y_target, y_d=y_d)


def make_scalar_problem(sigma: float, gamma: float, T: float,
                        objective: ObjectiveKind,
                        y_init: float = 1.0,
                        y_d: Optional[Callable[[float], float]] = None,
                        y_target: Optional[float] = None) -> LinearControlProblem:
    """Scalar test equation y' = -sigma*y + u."""
    K = np.array([[float(sigma)]])
    yd_vec = None
    if y_d is not None:
        yd_vec = lambda t: np.atleast_1d(np.asarray(y_d(t), dtype=float))
    elif objective is ObjectiveKind.TRACKING:
        yd_vec = lambda t: np.array([1.0])
    yt_vec = None
    if y_target is not None:
        yt_vec = np.array([float(y_target)])
    elif objective is ObjectiveKind.TERMINAL_COST:
        yt_vec = np.array([1.0])
    return LinearControlProblem(K=K, gamma=gamma, T=T,
                                y_init=np.array([float(y_init)]),
                                objective=objective, y_target=yt_vec, y_d=yd_vec)
