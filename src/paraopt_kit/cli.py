"""Command-line front end: bound sweeps, single solves, and experiment suites.

Subcommands:
  bound       evaluate rho_star over a (sigma_hat, gamma_hat) grid -> CSV
  solve       run one ParaOpt solve -> solve_log.csv + summary.json; the
              preconditioner P(alpha) takes a real alpha (--alpha-real)
  experiment  regenerate the data behind one or more figure families -> CSVs
              + manifest.json; with several ids, each writes to <output>/<id>/

Exit codes: 0 success, 1 solver non-convergence or abort, 2 configuration
error: a field of the wrong type, a non-finite float or an unknown choice
(RunConfig.validate), an unreadable --config file, an output folder that
cannot be created or written, or a ValueError the library raises while a
command sets up. `solve` sets up, then creates its output folder, then
solves, so neither kind of error waits for the solve, and a bad
configuration leaves no folder.
All CSV files start with the version line `# paraopt-kit v1`, use LF endings,
and print floats at full precision (%.17g).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from paraopt_kit import analysis
from paraopt_kit.analysis import (
    PropagatorDescription,
    PropagatorKind,
    SsigmaSpec,
    bound_grid_sweep,
    coefficients_at,
    exact_rho,
    fit_geometric_rate,
    log_grid,
    rho_bound_at,
    rho_bound_tracking,
)
from paraopt_kit.core import NewtonConfig, SolveLog, paraopt_solve
from paraopt_kit.numerics import GmresConfig
from paraopt_kit.preconditioner import (
    InversionMethod,
    SmallSystemMethod,
    build_plan,
)
from paraopt_kit.problem import (
    Discretization,
    ObjectiveKind,
    make_advection_diffusion_problem,
    make_decomposition,
    make_heat_problem,
    make_scalar_problem,
)
from paraopt_kit.propagators import (
    build_exact_propagator,
    build_implicit_euler_propagator,
)

CSV_VERSION_LINE = "# paraopt-kit v1"
RHO_STAR_HEADER = ["sigma_hat", "gamma_hat", "rho_star"]

# the accepted values of each string field of RunConfig, mapped to what they
# select; validation, solve_case and `bound` look values up here. Problem
# builders take (cfg, ObjectiveKind).
CHOICES = {
    "problem": {
        "scalar": lambda c, o: make_scalar_problem(c.sigma, c.gamma, c.T, o),
        "heat": lambda c, o: make_heat_problem(c.n, c.gamma, c.T, o),
        "advection_diffusion": lambda c, o: make_advection_diffusion_problem(
            c.n, c.gamma, c.T, o),
    },
    "objective": {k.value: k for k in ObjectiveKind},
    "fine": {k.value: k for k in PropagatorKind},
    "coarse_variant": {"ie_" + k.value: k for k in Discretization},
    "precond_method": {k.value: k for k in InversionMethod},
    "small_system_method": {k.value: k for k in SmallSystemMethod},
}


class ConfigError(Exception):
    """Raised for invalid run configurations (exit code 2)."""


@dataclass
class RunConfig:
    """Complete description of one solver run; JSON-serializable, with CLI
    flags overriding file-provided fields. Each field must have the type of
    its default (an int may stand for a float, a bool for neither)."""

    problem: str = "heat"
    objective: str = "tracking"
    sigma: float = 1.0                 # scalar problems only
    n: int = 8                         # grid problems: n*n unknowns
    gamma: float = 0.05
    T: float = 2.0
    L: int = 11
    J_fine: int = 10
    J_coarse: int = 1
    fine: str = "ie"
    coarse_variant: str = "ie_fotd"
    outer_tol: float = 1e-6
    inner_tol: float = 1e-4
    max_outer: int = 100
    max_inner: int = 1000
    precond_enabled: bool = True
    precond_method: str = "general"
    alpha_real: float = -1.0           # alpha of P(alpha), a real number
    small_system_method: str = "explicit_direct"
    output: str = "out"

    def validate(self) -> None:
        """Check what the CLI parses: field types, finite floats and
        CHOICES. Every other rule belongs to the library object that owns
        it, which raises ValueError when solve_case builds it."""
        for f in dataclasses.fields(self):
            v, want = getattr(self, f.name), type(f.default)
            types = (int, float) if want is float else want
            if (isinstance(v, bool) != (want is bool)
                    or not isinstance(v, types)):
                raise ConfigError(
                    f"{f.name} must be {want.__name__}, got {v!r}")
            if want is float and not abs(v) <= sys.float_info.max:  # nan too
                raise ConfigError(f"{f.name} must be finite, got {v}")
            if f.name in CHOICES and v not in CHOICES[f.name]:
                raise ConfigError(f"unknown {f.name} '{v}'; choose from "
                                  f"{', '.join(CHOICES[f.name])}")

    def choice(self, name: str):
        """What the value of string field ``name`` selects in CHOICES."""
        return CHOICES[name][getattr(self, name)]

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(data) - known
        if bad:
            raise ConfigError(f"unknown config fields: {sorted(bad)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# values that overflow to inf or NaN end the solve through its finiteness
# checks, with the reason in the log, so numpy need not warn about them, in
# the set-up as in the solve
@np.errstate(over="ignore", invalid="ignore")
def _set_up(cfg: RunConfig) -> tuple:
    """(problem, decomp, fine, coarse, newton) of a run, the plan in
    newton.preconditioner, after cfg.validate(); a ValueError raised while
    building them is a ConfigError (exit 2)."""
    cfg.validate()
    try:
        newton = NewtonConfig(
            outer_tolerance=cfg.outer_tol, max_outer=cfg.max_outer,
            inner=GmresConfig(rel_tolerance=cfg.inner_tol,
                              max_iterations=cfg.max_inner))
        problem = cfg.choice("problem")(cfg, cfg.choice("objective"))
        decomp = make_decomposition(problem, cfg.L, cfg.J_fine, cfg.J_coarse)
        if cfg.choice("fine") is PropagatorKind.EXACT:
            fine = build_exact_propagator(problem, decomp.DT)
        else:
            fine = build_implicit_euler_propagator(problem, decomp.DT,
                                                   decomp.J_fine)
        coarse = build_implicit_euler_propagator(
            problem, decomp.DT, decomp.J_coarse, cfg.choice("coarse_variant"))
        if cfg.precond_enabled:
            newton.preconditioner = build_plan(
                coarse, decomp, cfg.alpha_real, cfg.choice("precond_method"),
                cfg.choice("small_system_method"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return problem, decomp, fine, coarse, newton


@np.errstate(over="ignore", invalid="ignore")
def _solve(cfg: RunConfig, problem, decomp, fine, coarse, newton):
    """(trajectory, log, summary dict) of the run that _set_up prepared.
    A ValueError here is a bug, not a bad input."""
    traj, log = paraopt_solve(problem, decomp, fine, coarse, newton)
    plan = newton.preconditioner
    final = float(log.records[-1].residual)
    summary = {
        "converged": bool(log.converged),
        "aborted": log.aborted,
        "outer_iterations": len(log.records) - 1,
        "total_inner_iterations": int(sum(r.inner_iters for r in log.records)),
        # strict JSON has no NaN or inf; `aborted` gives the reason
        "final_residual": final if np.isfinite(final) else None,
        "L_hat": decomp.L_hat,
        "M": problem.M,
        "preconditioner_blocks": plan.blocks if plan is not None else None,
        "inner_solve": log.inner_solve,
        "fallback_steps": log.fallback_steps,
        "config": cfg.to_dict(),
    }
    return traj, log, summary


def solve_case(cfg: RunConfig):
    """Run one configured solve; returns (trajectory, log, summary dict).
    The set-up (validation and the solver configs, problem, decomposition,
    propagators and plan) raises ConfigError for a bad configuration; the
    solve comes after it."""
    return _solve(cfg, *_set_up(cfg))


# ---------------------------------------------------------------------------
# artifact writing

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_VERSION_LINE + "\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(data, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


@contextlib.contextmanager
def _output_folder(path: str):
    """Create the folder path, which the with block writes to; an OSError
    there, as for a path under a regular file, is a configuration error."""
    try:
        os.makedirs(path, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write to output folder {path}: "
                          f"{exc}") from exc


def write_solve_artifacts(outdir: str, log: SolveLog, summary: dict) -> None:
    """solve_log.csv, one row per outer record, and summary.json, written
    to the folder outdir, which exists."""
    write_csv(os.path.join(outdir, "solve_log.csv"),
              ["iteration", "residual", "inner_iters", "seconds"],
              [(r.iteration, r.residual, r.inner_iters, r.seconds)
               for r in log.records])
    write_json(os.path.join(outdir, "summary.json"), summary)


# ---------------------------------------------------------------------------
# bound subcommand

def _parse_grid(text: str) -> np.ndarray:
    """'lo:hi:count' -> analysis.log_grid(lo, hi, count), which checks it."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(f"grid must be 'lo:hi:count', got '{text}'") from None
    return log_grid(lo, hi, count)


def cmd_bound(args) -> int:
    objective = CHOICES["objective"][args.objective]
    try:
        # an exact description ignores J and the variant
        fine = PropagatorDescription(CHOICES["fine"][args.fine],
                                     J=args.j_fine,
                                     variant=Discretization(args.fine_variant))
        coarse = PropagatorDescription(
            PropagatorKind.IMPLICIT_EULER, J=args.j_coarse,
            variant=Discretization(args.coarse_variant))
        rows = bound_grid_sweep(objective, fine, coarse,
                                _parse_grid(args.sigma_grid),
                                _parse_grid(args.gamma_grid))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    with _output_folder(args.output):
        write_csv(os.path.join(args.output, "rho_star.csv"), RHO_STAR_HEADER,
                  rows)
    return 0


# ---------------------------------------------------------------------------
# solve subcommand

def _flag(name: str) -> str:
    """The solve flag of a RunConfig field: --T, --L and --n keep their
    case, other names go lower case with dashes (--j-fine, --outer-tol)."""
    return "--" + (name if len(name) == 1 else name.lower().replace("_", "-"))


def _merge_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for f in dataclasses.fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def cmd_solve(args) -> int:
    cfg = _merge_config(args)
    case = _set_up(cfg)
    # a bad configuration leaves no folder, and an unwritable one is
    # refused before the solve, not after it
    with _output_folder(cfg.output):
        _, log, summary = _solve(cfg, *case)
        write_solve_artifacts(cfg.output, log, summary)
    return 0 if log.converged else 1


# ---------------------------------------------------------------------------
# experiment subcommand

def _heat_run_config(problem: str, objective: str, L_hat: int,
                     precond: bool, inner_tol: float = 1e-4) -> RunConfig:
    """The paper's heat case, RunConfig's defaults, at L_hat sub-intervals
    with max_inner 2000."""
    L = L_hat + 1 if objective == "tracking" else L_hat
    return RunConfig(problem=problem, objective=objective, L=L,
                     inner_tol=inner_tol, max_inner=2000,
                     precond_enabled=precond)


def _heat_solves(problem: str, L_hats: Sequence[int], preconds=(True, False),
                 inner_tol: float = 1e-4):
    """Yield (L_hat, precond, log, summary) of the paper's heat-case
    tracking solve (:func:`_heat_run_config`) for each L_hat in L_hats and
    each precond in preconds, L_hat the slow axis."""
    for L_hat in L_hats:
        for precond in preconds:
            _, log, summary = solve_case(_heat_run_config(
                problem, "tracking", L_hat, precond, inner_tol))
            yield L_hat, precond, log, summary


def _rho_rows(L_hat: int, fine, coarse) -> tuple:
    """(rho_star, exact_rho) of the tracking iteration at L_hat
    sub-intervals with the fine and coarse coefficients."""
    return (rho_bound_tracking(fine, coarse),
            exact_rho(SsigmaSpec(L_hat, fine, coarse, ObjectiveKind.TRACKING)))


def exp_bound_contours() -> dict:
    grid = log_grid(1e-4, 1e4, 50)
    exact = PropagatorDescription(PropagatorKind.EXACT)
    panels = {"tracking": (ObjectiveKind.TRACKING, Discretization.FOTD),
              "tc_fotd": (ObjectiveKind.TERMINAL_COST, Discretization.FOTD),
              "tc_fdto": (ObjectiveKind.TERMINAL_COST, Discretization.FDTO)}
    return {f"rho_star_{panel}_j{J}.csv": (RHO_STAR_HEADER, bound_grid_sweep(
        objective, exact, PropagatorDescription(
            PropagatorKind.IMPLICIT_EULER, J=J, variant=variant), grid, grid))
        for panel, (objective, variant) in panels.items() for J in (1, 10)}


def exp_scalar_timestep_sweep() -> dict:
    # exact fine vs J-step implicit-Euler coarse at sigma=16, gamma=1, T=1
    sigma, gamma, T, L_hat = 16.0, 1.0, 1.0, 100
    DT = T / (L_hat + 1)
    fine = analysis.phi_psi_tracking_exact(sigma, gamma, DT)
    rows = [(J, *_rho_rows(L_hat, fine, analysis.phi_psi_tracking_ie(
        sigma, gamma, DT / J, J))) for J in (1, 2, 4, 8, 16, 32)]
    return {"timestep_sweep.csv": (["J_coarse", "rho_star", "exact_rho"],
                                   rows)}


def scalar_case_config(sigma_hat: float, gamma_hat: float) -> RunConfig:
    """Scalar tracking case on T=50, L=50 with DT=1, exact fine and 10-step
    implicit-Euler coarse; gamma recovered from gamma_hat = DT/sqrt(gamma)."""
    return RunConfig(problem="scalar", sigma=sigma_hat,
                     gamma=1.0 / gamma_hat ** 2, T=50.0, L=50, J_coarse=10,
                     fine="exact", outer_tol=1e-12, inner_tol=1e-10,
                     max_outer=60, precond_enabled=False)


def exp_scalar_convergence_ab() -> dict:
    cases = {"A": (1e-6, 6.0), "B": (6e-4, 0.4)}
    exact = PropagatorDescription(PropagatorKind.EXACT)
    ie10 = PropagatorDescription(PropagatorKind.IMPLICIT_EULER, J=10)
    hist_rows, rate_rows = [], []
    for name, (sh, gh) in cases.items():
        cfg = scalar_case_config(sh, gh)
        _, log, _ = solve_case(cfg)
        for rec in log.records:
            hist_rows.append((name, rec.iteration, rec.residual))
        rho = rho_bound_at(ObjectiveKind.TRACKING, exact, ie10, sh, gh)
        rate_rows.append((name, rho, fit_geometric_rate(
            [r.residual for r in log.records])))
    return {"residual_histories.csv": (["case", "iteration", "residual"],
                                       hist_rows),
            "rates.csv": (["case", "rho_star", "fitted_rate"], rate_rows)}


def exp_scalar_weak_scaling() -> dict:
    exact = PropagatorDescription(PropagatorKind.EXACT)
    ie1 = PropagatorDescription(PropagatorKind.IMPLICIT_EULER, J=1)
    # fixed DT: hatted coordinates stay put as L_hat grows
    fixed_dt = tuple(coefficients_at(ObjectiveKind.TRACKING, desc, 1.0, 1.0)
                     for desc in (exact, ie1))
    rows = []
    for L_hat in (2, 5, 10, 20, 50, 100, 200):
        # fixed T: DT shrinks, so both hatted coordinates shrink with it
        DT = 1.0 / (L_hat + 1)
        fixed_t = (analysis.phi_psi_tracking_exact(1.0, 1.0, DT),
                   analysis.phi_psi_tracking_ie(1.0, 1.0, DT, 1))
        rows += [(regime, L_hat, *_rho_rows(L_hat, fine, coarse))
                 for regime, (fine, coarse) in (("fixed_DT", fixed_dt),
                                                ("fixed_T", fixed_t))]
    return {"weak_scaling.csv": (["regime", "L_hat", "rho_star", "exact_rho"],
                                 rows)}


def exp_tc_fotd_vs_fdto() -> dict:
    # exact fine against one implicit-Euler step, DT = 1 and gamma = 1e-6
    sh = log_grid(1e-4, 1e4, 50)
    fine = analysis.phi_psi_tc_exact(sh, 1e-6, 1.0)
    fdto, fotd = (analysis.rho_bound_terminal(
        fine, analysis.phi_psi_tc_ie(sh, 1e-6, 1.0, 1, variant))
        for variant in (Discretization.FDTO, Discretization.FOTD))
    return {"fotd_vs_fdto.csv": (
        ["sigma_hat", "rho_star_fdto", "rho_star_fotd"],
        list(zip(sh, fdto, fotd)))}


def exp_gmres_tolerance_study() -> dict:
    rows = [(tol, s["outer_iterations"], s["total_inner_iterations"],
             log.converged) for tol in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
            for _, _, log, s in _heat_solves("heat", (10,), (True,), tol)]
    return {"gmres_tolerance.csv": (
        ["inner_tolerance", "outer_iters", "total_inner", "converged"], rows)}


def exp_iteration_counts(problem: str) -> dict:
    rows = [(L_hat, precond, rec.iteration, rec.inner_iters, rec.residual)
            for L_hat, precond, log, _ in _heat_solves(problem, (10, 100))
            for rec in log.records[1:]]
    return {"iteration_counts.csv": (
        ["L_hat", "preconditioned", "outer_iteration", "inner_iters",
         "residual"], rows)}


def exp_heat_total_iterations() -> dict:
    rows = [(L_hat, precond, s["outer_iterations"],
             s["total_inner_iterations"]) for L_hat, precond, _, s in
            _heat_solves("heat", (10, 25, 50, 100))]
    return {"total_iterations.csv": (
        ["L_hat", "preconditioned", "outer_iters", "total_inner"], rows)}


# id -> function() returning {file name: (CSV header, rows)}, in manifest order
EXPERIMENTS = {
    "BoundContours": exp_bound_contours,
    "ScalarTimestepSweep": exp_scalar_timestep_sweep,
    "ScalarConvergenceAB": exp_scalar_convergence_ab,
    "ScalarWeakScaling": exp_scalar_weak_scaling,
    "TcFotdVsFdto": exp_tc_fotd_vs_fdto,
    "GmresToleranceStudy": exp_gmres_tolerance_study,
    "HeatIterationCounts": functools.partial(exp_iteration_counts,
                                             problem="heat"),
    "HeatTotalIterations": exp_heat_total_iterations,
    "AdvectionIterationCounts": functools.partial(
        exp_iteration_counts, problem="advection_diffusion"),
}


def cmd_experiment(args) -> int:
    unknown = [i for i in args.ids if i not in EXPERIMENTS]
    if unknown:
        raise ConfigError(f"unknown experiment {', '.join(unknown)}; choose "
                          f"from {', '.join(EXPERIMENTS)}")
    for exp_id in args.ids:
        outdir = args.output or ""
        if len(args.ids) > 1 or not outdir:
            outdir = os.path.join(outdir, exp_id)
        with _output_folder(outdir):
            files = EXPERIMENTS[exp_id]()
            for fname, (header, rows) in files.items():
                write_csv(os.path.join(outdir, fname), header, rows)
            write_json(os.path.join(outdir, "manifest.json"), {
                "experiment": exp_id,
                "files": list(files),
                "csv_version": CSV_VERSION_LINE,
            })
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paraopt-kit",
        description="Time-parallel optimal control: solves, convergence "
                    "bounds, and experiment data generation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="rho_star grid sweep -> CSV")
    variants = [k.value for k in Discretization]
    p_bound.add_argument("--objective", default="tracking",
                         choices=CHOICES["objective"])
    p_bound.add_argument("--fine", default="exact", choices=CHOICES["fine"])
    p_bound.add_argument("--j-fine", type=int, default=10)
    p_bound.add_argument("--fine-variant", default="fotd", choices=variants)
    p_bound.add_argument("--j-coarse", type=int, default=1)
    p_bound.add_argument("--coarse-variant", default="fotd", choices=variants)
    p_bound.add_argument("--sigma-grid", default="1e-4:1e4:50",
                         help="lo:hi:count (log-spaced)")
    p_bound.add_argument("--gamma-grid", default="1e-4:1e4:50")
    p_bound.add_argument("--output", "-o", default="out")
    p_bound.set_defaults(func=cmd_bound)

    p_solve = sub.add_parser("solve", help="run one ParaOpt solve")
    p_solve.add_argument("--config", help="JSON RunConfig file")
    p_solve.add_argument("--precond", dest="precond_enabled", default=None,
                         action=argparse.BooleanOptionalAction)
    for f in dataclasses.fields(RunConfig):
        if f.name != "precond_enabled":  # set by --precond / --no-precond
            p_solve.add_argument(_flag(f.name), dest=f.name,
                                 type=type(f.default), default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_exp = sub.add_parser("experiment", help="regenerate figure data")
    p_exp.add_argument("ids", nargs="+", metavar="id",
                       help=" | ".join(EXPERIMENTS))
    p_exp.add_argument("--output", "-o", default=None,
                       help="output folder (default: the id); with several "
                            "ids, each writes to <output>/<id>/")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
