"""GMRES and the dense eigenvalue kernel shared by the solver layers.

Matrices are plain numpy arrays (real or complex). All norms are Euclidean
and reductions happen in a fixed sequential order, so repeated runs on the
same data are bitwise reproducible.
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
    restart: Optional[int] = None  # None = full (unrestarted) GMRES

    def __post_init__(self):
        if not 0.0 < self.rel_tolerance < 1.0:
            raise ValueError(f"rel_tolerance must be in (0, 1), got {self.rel_tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.restart is not None and self.restart < 1:
            raise ValueError("restart must be >= 1 when given")


@dataclass
class GmresReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)


def gmres(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    cfg: GmresConfig = GmresConfig(),
) -> tuple[np.ndarray, GmresReport]:
    """Solve A x = b with (optionally right-preconditioned) GMRES.

    With right preconditioning the reported residuals are true residuals of
    the unpreconditioned system, so iteration counts with and without a
    preconditioner are directly comparable. Supports real and complex data.

    Returns (x, report); non-convergence is reported via report.converged,
    a NaN produced by the operator raises.
    """
    b = np.asarray(b)
    n = b.shape[0]
    if x0 is None:
        x0 = np.zeros_like(b)
    x = np.array(x0, copy=True)
    if precond is None:
        precond = lambda v: v

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), GmresReport(0, 0.0, True, [0.0])

    cycle = cfg.restart if cfg.restart is not None else cfg.max_iterations
    tol = cfg.rel_tolerance
    history: list[float] = []
    total_iters = 0
    complex_mode = np.iscomplexobj(b) or np.iscomplexobj(x)

    while True:
        r = b - matvec(x)
        _check_finite(r, "gmres operator output")
        complex_mode = complex_mode or np.iscomplexobj(r)
        beta = np.linalg.norm(r)
        if not history:
            history.append(beta / norm_b)
        if beta / norm_b <= tol:
            return x, GmresReport(total_iters, beta / norm_b, True, history)
        if total_iters >= cfg.max_iterations:
            return x, GmresReport(total_iters, beta / norm_b, False, history)

        m = min(cycle, cfg.max_iterations - total_iters, n)
        dtype = complex if complex_mode else float
        # the Krylov basis grows on demand to avoid large upfront allocation
        V = np.zeros((n, min(m + 1, 65)), dtype=dtype)
        H = np.zeros((m + 1, m), dtype=dtype)
        cs = np.zeros(m, dtype=dtype)
        sn = np.zeros(m, dtype=dtype)
        g = np.zeros(m + 1, dtype=dtype)
        V[:, 0] = r / beta
        g[0] = beta

        j_done = 0
        for j in range(m):
            if j + 2 > V.shape[1]:
                extra = min(V.shape[1], m + 1 - V.shape[1])
                V = np.hstack([V, np.zeros((n, extra), dtype=V.dtype)])
            w = matvec(precond(V[:, j]))
            _check_finite(w, "gmres operator output")
            if np.iscomplexobj(w) and not complex_mode:
                complex_mode = True
                V = V.astype(complex)
                H = H.astype(complex)
                cs = cs.astype(complex)
                sn = sn.astype(complex)
                g = g.astype(complex)
            w = w.astype(V.dtype, copy=True)
            # modified Gram-Schmidt
            for i in range(j + 1):
                H[i, j] = np.vdot(V[:, i], w)
                w -= H[i, j] * V[:, i]
            H[j + 1, j] = np.linalg.norm(w)
            # lucky breakdown: the Krylov space is invariant, so this step
            # is the last one of the cycle (Saad, Iterative Methods, 6.5)
            breakdown = abs(H[j + 1, j]) <= 1e-14 * beta
            if not breakdown:
                V[:, j + 1] = w / H[j + 1, j]
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
            j_done = j + 1
            total_iters += 1
            rel = abs(g[j + 1]) / norm_b
            history.append(min(rel, history[-1]))
            if rel <= tol or breakdown:
                break

        if j_done > 0:
            y = scipy.linalg.solve_triangular(H[:j_done, :j_done], g[:j_done])
            x = x + precond(V[:, :j_done] @ y)

        r = b - matvec(x)
        rel = np.linalg.norm(r) / norm_b
        if rel <= tol:
            return x, GmresReport(total_iters, rel, True, history)
        if total_iters >= cfg.max_iterations:
            return x, GmresReport(total_iters, rel, False, history)
        # otherwise restart from the current iterate


def _check_finite(v: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(v)):
        raise FloatingPointError(f"non-finite values in {what}")


def eigenvalues_general(A: np.ndarray) -> np.ndarray:
    """Full complex spectrum of a square matrix."""
    A = np.asarray(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return scipy.linalg.eigvals(A)
