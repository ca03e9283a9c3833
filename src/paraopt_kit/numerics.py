"""GMRES, the inner solver of the Newton steps (on the slice space of a
Fourier-basis plan, or flexible) and of the black-box block solves.

GMRES is full (unrestarted) and always starts from x = 0, the only start
the Newton steps need. Matrices are plain numpy arrays (real or complex).
All norms are Euclidean.

The Arnoldi step orthogonalizes with classical Gram–Schmidt applied twice
(CGS2), which is as stable as modified Gram–Schmidt (Giraud, Langou &
Rozložník, Comput. Math. Appl. 2005) and runs as matrix–vector products on
the Krylov basis, kept as the rows of contiguous blocks of a few dozen
vectors, which each call allocates as its basis grows. With a
preconditioner the method is flexible GMRES (Saad, SIAM J. Sci. Comput.
1993): it stores z_j = P⁻¹v_j and updates x by Z y, so P⁻¹ is applied once
per iteration and never to form the update. Those products, and the
triangular solve of the rotated Hessenberg matrix, run in numpy's BLAS and
LAPACK, whose rounding may depend on the BLAS thread count, so repeated
runs on the same data are bitwise reproducible only for a fixed BLAS
thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from paraopt_kit.problem import require_int

# rows of the first basis block and of every later one. Preconditioned
# inner solves take a few iterations per call and stay in the first block,
# so they allocate little; long runs get larger blocks, whose products run
# faster
_FIRST_ROWS, _BLOCK_ROWS = 8, 32


@dataclass(frozen=True)
class GmresConfig:
    """rel_tolerance in (0, 1) and an integer max_iterations >= 1 (a bool
    or a float raises ValueError, as a value out of range does)."""

    rel_tolerance: float = 1e-8
    max_iterations: int = 1000

    def __post_init__(self):
        require_int("max_iterations", self.max_iterations)
        if not 0.0 < self.rel_tolerance < 1.0:
            raise ValueError(f"rel_tolerance must be in (0, 1), got {self.rel_tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class GmresReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)


class _RowBlocks:
    """Vectors of length n kept as the rows of contiguous blocks: a first
    one of _FIRST_ROWS rows, and then blocks of _BLOCK_ROWS rows, each
    allocated when the last one is full. A complex vector switches the
    storage to complex."""

    def __init__(self, n: int, dtype):
        self.n = n
        self.dtype = np.dtype(dtype)
        self.blocks: list[np.ndarray] = [np.empty((_FIRST_ROWS, n), dtype)]
        self.size = 0

    def __getitem__(self, j: int) -> np.ndarray:
        if j < _FIRST_ROWS:
            return self.blocks[0][j]
        i, row = divmod(j - _FIRST_ROWS, _BLOCK_ROWS)
        return self.blocks[i + 1][row]

    def append(self, v: np.ndarray) -> None:
        if np.iscomplexobj(v) and self.dtype.kind != "c":
            self.dtype = np.dtype(complex)
            self.blocks = [blk.astype(complex) for blk in self.blocks]
        if self.size == sum(len(blk) for blk in self.blocks):
            self.blocks.append(np.empty((_BLOCK_ROWS, self.n), self.dtype))
        self[self.size][:] = v
        self.size += 1

    def filled(self, k: int) -> list[tuple[int, np.ndarray]]:
        """(index of the first row, rows) of each block among the first k
        rows."""
        out, start = [], 0
        for blk in self.blocks:
            if start >= k:
                break
            out.append((start, blk[:k - start]))
            start += len(blk)
        return out

    def combine(self, y: np.ndarray) -> np.ndarray:
        """sum_i y_i v_i over the first len(y) rows."""
        return sum(y[start:start + len(blk)] @ blk
                   for start, blk in self.filled(len(y)))

    def orthogonalize(self, w: np.ndarray) -> np.ndarray:
        """Remove from w, in place, its components along every row, by
        classical Gram–Schmidt applied twice; return the h with
        w (given) = sum_i h_i v_i + w (returned)."""
        blocks = [blk for _, blk in self.filled(self.size)]
        h = np.zeros(self.size, w.dtype)
        for _ in range(2):
            if w.dtype.kind == "c":
                # conj(B @ conj(w)) = conj(B) @ w without copying a block
                wc = w.conj()
                parts = [(blk @ wc).conj() for blk in blocks]
            else:
                parts = [blk @ w for blk in blocks]
            for blk, hb in zip(blocks, parts):
                w -= hb @ blk
            h += np.concatenate(parts)
        return h


def gmres(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    cfg: GmresConfig = GmresConfig(),
) -> tuple[np.ndarray, GmresReport]:
    """Solve A x = b with full (unrestarted) GMRES from x = 0, optionally
    right-preconditioned (flexible GMRES: P⁻¹ may differ between calls).

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
        # Krylov basis V and, when preconditioned, Z with z_j = P⁻¹ v_j
        V = _RowBlocks(n, dtype)
        V.append(r / beta)
        Z = _RowBlocks(n, dtype) if precond else V
        # column j of the Hessenberg matrix, once rotated, is R[:j+1, j];
        # g is the rotated right-hand side beta e_1
        R_cols: list[np.ndarray] = []
        cs: list = []
        sn: list = []
        g: list = [beta]

        for j in range(m):
            z = V[j]
            if precond is not None:
                z = precond(z)
                Z.append(z)
            w = matvec(z)
            _check_finite(w, "gmres operator output")
            w = w.astype(np.result_type(w, V.dtype), copy=True)
            h = np.append(V.orthogonalize(w), np.linalg.norm(w))
            # lucky breakdown: the Krylov space is invariant, so this step
            # is the last one of the cycle (Saad, Iterative Methods, 6.5)
            breakdown = abs(h[j + 1]) <= 1e-14 * beta
            if not breakdown:
                V.append(w / h[j + 1])
            # apply accumulated Givens rotations, then form a new one
            for i in range(j):
                h[i], h[i + 1] = (cs[i] * h[i] + sn[i] * h[i + 1],
                                  -np.conj(sn[i]) * h[i] + np.conj(cs[i]) * h[i + 1])
            # hypot: squaring the entries would overflow for |h| > 1e154
            denom = np.hypot(abs(h[j]), abs(h[j + 1]))
            if denom == 0.0:
                cs.append(1.0)
                sn.append(0.0)
            else:
                cs.append(np.conj(h[j]) / denom)
                sn.append(np.conj(h[j + 1]) / denom)
            h[j] = cs[j] * h[j] + sn[j] * h[j + 1]
            R_cols.append(h[:j + 1])
            g.append(-np.conj(sn[j]) * g[j])
            g[j] = cs[j] * g[j]
            total_iters += 1
            rel = abs(g[j + 1]) / norm_b
            history.append(min(rel, history[-1]))
            if rel <= tol or breakdown:
                break

        k = j + 1
        R = np.zeros((k, k), dtype=np.result_type(*R_cols))
        for i, col in enumerate(R_cols):
            R[:i + 1, i] = col
        g = np.array(g[:k])
        # the rotations overflow to NaN on huge operator output
        _check_finite(np.column_stack([R, g]), "gmres Hessenberg matrix")
        zero = np.flatnonzero(np.diagonal(R) == 0)
        if zero.size:
            raise np.linalg.LinAlgError(
                f"gmres Hessenberg matrix is singular: rotated column "
                f"{zero[0]} has a zero diagonal")
        # R is upper triangular with a nonzero diagonal, so the LU of
        # np.linalg.solve swaps no rows
        y = np.linalg.solve(R, g)
        x = x + Z.combine(y)

        r = b - matvec(x)
        _check_finite(r, "gmres operator output")
        rel = np.linalg.norm(r) / norm_b
        if rel <= tol or total_iters >= cfg.max_iterations:
            return x, GmresReport(total_iters, rel, rel <= tol, history)


def _check_finite(v: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(v)):
        raise FloatingPointError(f"non-finite values in {what}")
