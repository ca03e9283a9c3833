"""GMRES, the inner solver of the Newton steps and of the black-box block
solves.

GMRES is full (unrestarted) and always starts from x = 0, the only start
the Newton steps need. Matrices are plain numpy arrays (real or complex).
All norms are Euclidean and reductions happen in a fixed sequential order,
so repeated runs on the same data are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class GmresConfig:
    rel_tolerance: float = 1e-8
    max_iterations: int = 1000

    def __post_init__(self):
        if not 0.0 < self.rel_tolerance < 1.0:
            raise ValueError(f"rel_tolerance must be in (0, 1), got {self.rel_tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class GmresReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)


def gmres(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    cfg: GmresConfig = GmresConfig(),
) -> tuple[np.ndarray, GmresReport]:
    """Solve A x = b with full (unrestarted) GMRES from x = 0, optionally
    right-preconditioned.

    With right preconditioning the reported residuals are true residuals of
    the unpreconditioned system, so iteration counts with and without a
    preconditioner are directly comparable. Supports real and complex data.
    Convergence is judged on the true residual b - A x of the final iterate;
    if that misses the tolerance while iterations remain (after a lucky
    breakdown, or when the recurrence residual drifted from it), a new
    Arnoldi process starts from the current iterate.

    Returns (x, report); non-convergence is reported via report.converged,
    a NaN in b or produced by the operator raises.
    """
    b = np.asarray(b)
    n = b.shape[0]
    if precond is None:
        precond = lambda v: v
    _check_finite(b, "gmres right-hand side")

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), GmresReport(0, 0.0, True, [0.0])

    tol = cfg.rel_tolerance
    history: list[float] = [1.0]
    total_iters = 0
    x = np.zeros_like(b)
    r = b  # b - A 0

    while True:
        beta = np.linalg.norm(r)
        m = min(cfg.max_iterations - total_iters, n)
        dtype = complex if np.iscomplexobj(r) else float
        # Krylov basis: one contiguous vector per Arnoldi step
        V = [r / beta]
        H = np.zeros((m + 1, m), dtype=dtype)
        cs = np.zeros(m, dtype=dtype)
        sn = np.zeros(m, dtype=dtype)
        g = np.zeros(m + 1, dtype=dtype)
        g[0] = beta

        for j in range(m):
            w = matvec(precond(V[j]))
            _check_finite(w, "gmres operator output")
            if np.iscomplexobj(w) and not np.iscomplexobj(V[0]):
                V = [v.astype(complex) for v in V]
                H, cs, sn, g = (a.astype(complex) for a in (H, cs, sn, g))
            w = w.astype(V[0].dtype, copy=True)
            # modified Gram-Schmidt
            for i, v in enumerate(V):
                H[i, j] = np.vdot(v, w)
                w -= H[i, j] * v
            H[j + 1, j] = np.linalg.norm(w)
            # lucky breakdown: the Krylov space is invariant, so this step
            # is the last one of the cycle (Saad, Iterative Methods, 6.5)
            breakdown = abs(H[j + 1, j]) <= 1e-14 * beta
            if not breakdown:
                V.append(w / H[j + 1, j])
            # apply accumulated Givens rotations, then form a new one
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -np.conj(sn[i]) * H[i, j] + np.conj(cs[i]) * H[i + 1, j]
                H[i, j] = t
            denom = np.sqrt(abs(H[j, j]) ** 2 + abs(H[j + 1, j]) ** 2)
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j] = np.conj(H[j, j]) / denom
                sn[j] = np.conj(H[j + 1, j]) / denom
            H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
            H[j + 1, j] = 0.0
            g[j + 1] = -np.conj(sn[j]) * g[j]
            g[j] = cs[j] * g[j]
            total_iters += 1
            rel = abs(g[j + 1]) / norm_b
            history.append(min(rel, history[-1]))
            if rel <= tol or breakdown:
                break

        k = j + 1
        y = scipy.linalg.solve_triangular(H[:k, :k], g[:k])
        x = x + precond(sum(yi * v for yi, v in zip(y, V)))

        r = b - matvec(x)
        _check_finite(r, "gmres operator output")
        rel = np.linalg.norm(r) / norm_b
        if rel <= tol or total_iters >= cfg.max_iterations:
            return x, GmresReport(total_iters, rel, rel <= tol, history)


def _check_finite(v: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(v)):
        raise FloatingPointError(f"non-finite values in {what}")
