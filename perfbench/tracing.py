"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own code: around the set-up calls it
makes itself, and around the solver's public functions, which it wraps by
replacing the module attributes the solver looks up at call time. Nothing in
``paraopt_kit`` is edited; the wrappers are removed again when tracing ends.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from paraopt_kit import analysis, core, preconditioner


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: bool = False
    unconverged: bool = False
    mem_bytes: int = 0  # tracemalloc growth over the span, when tracing memory
    children_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # single-threaded, so children never overlap each other
        return self.seconds - self.children_s

    FIELDS = ("id", "name", "parent", "start", "end", "error", "unconverged",
              "mem_bytes")

    def as_row(self) -> list:
        return [getattr(self, f) for f in self.FIELDS]


def _gmres_unconverged(result) -> bool:
    return not result[1].converged


# (owner, attribute, span name, result inspector). Every call site in the
# solver resolves these names through the owner at call time, so replacing
# the attribute reaches it: paraopt_solve calls core.matching_residual,
# core.gmres and core.apply_A_tilde -> core.apply_jacobian; bound_grid_sweep
# calls analysis.rho_bound_at.
BOUNDARIES: list[tuple[object, str, str, Optional[Callable]]] = [
    (core, "matching_residual", "core.matching_residual", None),
    (core, "apply_jacobian", "core.apply_jacobian", None),
    (core, "gmres", "numerics.gmres", _gmres_unconverged),
    (preconditioner.PreconditionerPlan, "apply_inverse",
     "preconditioner.apply_inverse", None),
    (analysis, "rho_bound_at", "analysis.rho_bound_at", None),
    (analysis, "exact_rho", "analysis.exact_rho", None),
]


class Tracer:
    """Records spans with their parent. Wrapped solver calls are recorded
    only inside an explicit span, so correctness checks made between timed
    operations do not show up in the trace."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        if tracemalloc.is_tracing():
            span.mem_bytes = -tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if tracemalloc.is_tracing():
            span.mem_bytes += tracemalloc.get_traced_memory()[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1].children_s += span.seconds

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)

    def _wrap(self, fn: Callable, name: str, inspect: Optional[Callable]):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if inspect is not None:
                    span.unconverged = inspect(result)
                return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every boundary in BOUNDARIES; restore the originals on exit."""
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in BOUNDARIES]
        try:
            for owner, attr, name, inspect in BOUNDARIES:
                setattr(owner, attr,
                        self._wrap(getattr(owner, attr), name, inspect))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def descendants(self, root: Span) -> list[Span]:
        """Spans opened while ``root`` was open. With one thread these are
        exactly its subtree, stored right after it."""
        out = []
        for i in range(root.id + 1, len(self.spans)):
            if self.spans[i].start >= root.end:
                break
            out.append(self.spans[i])
        return out


class TraceGuardError(RuntimeError):
    """A traced run recorded no call at a boundary the workload must reach."""


MIB = 1024.0 * 1024.0


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float,
                  iterations: tuple[int, int]) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Build times and retained memory are medians over the traced set-ups;
    calls and per-operation totals are medians over the traced operations
    (calls repeat exactly, since the solver is deterministic); latency
    percentiles pool every call of every traced operation.
    """
    ops = tracer.named("op")
    per_op = [tracer.descendants(op) for op in ops]

    def setup_s(name):
        return _median([s.seconds for s in tracer.named(name)])

    def retained_mb(*names):
        per_setup = zip(*(tracer.named(n) for n in names))
        return _median([sum(s.mem_bytes for s in group) / MIB
                        for group in per_setup])

    def calls(name):
        return int(_median([sum(s.name == name for s in d) for d in per_op]))

    def total_s(name, attr="seconds"):
        return _median([sum(getattr(s, attr) for s in d if s.name == name)
                        for d in per_op])

    def pct(name, q, scale):
        return _percentile([s.seconds * scale for s in tracer.named(name)], q)

    op_s = _median([op.seconds for op in ops])
    p_inv = tracer.named("preconditioner.apply_inverse")
    gmres = tracer.named("numerics.gmres")
    return {
        "problem.build_s": (setup_s("problem.build"), "s"),
        "propagators.fine_build_s": (setup_s("propagators.fine_build"), "s"),
        "propagators.coarse_build_s": (setup_s("propagators.coarse_build"), "s"),
        "propagators.retained_mb": (retained_mb("propagators.fine_build",
                                                "propagators.coarse_build"), "MB"),
        "preconditioner.plan_build_s": (setup_s("preconditioner.plan_build"), "s"),
        "preconditioner.plan_retained_mb": (
            retained_mb("preconditioner.plan_build"), "MB"),
        "preconditioner.apply_inverse.calls": (
            calls("preconditioner.apply_inverse"), "count"),
        "preconditioner.apply_inverse_ms.p50": (
            pct("preconditioner.apply_inverse", 50, 1e3), "ms"),
        "preconditioner.apply_inverse_ms.p90": (
            pct("preconditioner.apply_inverse", 90, 1e3), "ms"),
        "preconditioner.apply_inverse_s": (
            total_s("preconditioner.apply_inverse"), "s"),
        "preconditioner.apply_inverse.share": (
            _median([sum(s.seconds for s in d
                         if s.name == "preconditioner.apply_inverse")
                     / op.seconds for op, d in zip(ops, per_op)]), "ratio"),
        "preconditioner.apply_inverse.errors": (
            sum(s.error for s in p_inv), "count"),
        "core.apply_jacobian.calls": (calls("core.apply_jacobian"), "count"),
        "core.apply_jacobian_ms.p50": (pct("core.apply_jacobian", 50, 1e3), "ms"),
        "core.apply_jacobian_s": (total_s("core.apply_jacobian"), "s"),
        "core.matching_residual.calls": (calls("core.matching_residual"), "count"),
        "core.matching_residual_ms.p50": (
            pct("core.matching_residual", 50, 1e3), "ms"),
        "core.matching_residual_s": (total_s("core.matching_residual"), "s"),
        "numerics.gmres.calls": (calls("numerics.gmres"), "count"),
        "numerics.gmres_s": (total_s("numerics.gmres"), "s"),
        "numerics.gmres.self_s": (total_s("numerics.gmres", "self_s"), "s"),
        "numerics.gmres.unconverged": (sum(s.unconverged for s in gmres), "count"),
        "analysis.rho_bound.calls": (calls("analysis.rho_bound_at"), "count"),
        "analysis.rho_bound_us.p50": (pct("analysis.rho_bound_at", 50, 1e6), "us"),
        "analysis.exact_rho.calls": (calls("analysis.exact_rho"), "count"),
        "analysis.exact_rho_ms.p50": (pct("analysis.exact_rho", 50, 1e3), "ms"),
        "outer_iters": (iterations[0], "count"),
        "inner_iters": (iterations[1], "count"),
        "trace.solve_s": (op_s, "s"),
        "trace.accounted_share": (
            _median([op.children_s / op.seconds for op in ops]), "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    }
