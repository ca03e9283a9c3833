import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraopt_kit.cli import (
    ConfigError,
    RunConfig,
    _heat_run_config,
    fit_geometric_rate,
    main,
    solve_case,
    write_csv,
)


def read_lines(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read().splitlines()


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_bad_problem_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(problem="wave").validate()

    def test_file_roundtrip(self, tmp_path):
        cfg = RunConfig(problem="scalar", sigma=2.0, L=5)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = RunConfig.from_file(str(path))
        assert loaded == cfg

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"problme": "heat"}')
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(path))

    def test_field_types(self):
        # an int may stand for a float; a bool is neither int nor float
        RunConfig(gamma=1, T=np.float64(2.0)).validate()
        for bad in (dict(n=True), dict(gamma=False), dict(fine=1),
                    dict(precond_enabled=1), dict(gamma=10 ** 400)):
            with pytest.raises(ConfigError):
                RunConfig(**bad).validate()


class TestConfigFileContract:
    @pytest.mark.parametrize("content,names", [
        ('{"n": "4"}', "n must be int"),
        ('{"L": 3.5}', "L must be int"),
        ('{"precond_enabled": "no"}', "precond_enabled must be bool"),
        ('{"n": 4', "cannot read config file"),      # invalid JSON
        ('[1, 2]', "must hold a JSON object"),
        ('{"L": 0}', "need at least two sub-intervals"),
        ('{"gamma": 0}', "gamma must be positive"),
        # alpha is real; P(alpha)^-1 of a real vector is complex otherwise
        ('{"alpha_real": 0.6, "alpha_imag": 0.8}', "unknown config fields"),
        (None, "cannot read config file"),          # no such file
    ])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, content, names):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        rc = main(["solve", "--config", str(path),
                   "--output", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert names in err
        assert not os.path.exists(tmp_path / "run")

    # each command used to end in a NotADirectoryError traceback, exit 1
    @pytest.mark.parametrize("args", [
        ["solve", "--n", "4", "--L", "3"],
        ["bound", "--sigma-grid", "1:1:1", "--gamma-grid", "1:1:1"],
        ["experiment", "TcFotdVsFdto"]], ids=["solve", "bound", "experiment"])
    def test_output_under_a_file_exits_2(self, tmp_path, capsys, args):
        a_file = tmp_path / "a-file"
        a_file.write_text("")
        assert main([*args, "--output", str(a_file / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot write to output "
                              "folder ")
        assert err.count("\n") == 1

    # the folder used to be created only after the whole solve, about 2 s
    # at n = 64, L_hat = 100
    def test_unwritable_output_refused_before_the_solve(self, tmp_path,
                                                        capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("paraopt_solve was called")
        monkeypatch.setattr("paraopt_kit.cli.paraopt_solve", no_solve)
        a_file = tmp_path / "a-file"
        a_file.write_text("")
        assert main(["solve", "--n", "4", "--L", "3", "--output",
                     str(a_file / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error: cannot write to "
                                 "output folder ")


class TestCsvContract:
    def test_version_header_and_precision(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [(1, 1.0 / 3.0), (2, 0.1)])
        lines = read_lines(path)
        assert lines[0] == "# paraopt-kit v1"
        assert lines[1] == "a,b"
        assert lines[2] == "1,%.17g" % (1.0 / 3.0)
        with open(path, "rb") as f:
            assert b"\r" not in f.read()


class TestBoundCommand:
    def test_single_point_grid(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["bound", "--sigma-grid", "1:1:1", "--gamma-grid", "1:1:1",
                   "-o", out])
        assert rc == 0
        lines = read_lines(os.path.join(out, "rho_star.csv"))
        assert lines[1] == "sigma_hat,gamma_hat,rho_star"
        assert len(lines) == 3

    def test_invalid_grid_is_config_error(self, tmp_path):
        rc = main(["bound", "--sigma-grid", "nonsense",
                   "-o", str(tmp_path / "x")])
        assert rc == 2

    def test_tracking_fdto_is_config_error(self, tmp_path):
        rc = main(["bound", "--objective", "tracking",
                   "--coarse-variant", "fdto", "--sigma-grid", "1:1:1",
                   "--gamma-grid", "1:1:1", "-o", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("args", [
        # descriptions with no implicit-Euler step
        ["--j-coarse", "0"],
        ["--fine", "ie", "--j-fine", "0"],
        # grids log_grid rejects: lo <= 0, lo >= hi, count 0
        ["--sigma-grid", "0:1:5"],
        ["--gamma-grid", "2:1:5"],
        ["--sigma-grid", "1:1:5"],
        ["--sigma-grid", "1:2:0"],
        # a one-point grid needs lo == hi; values must be finite
        ["--sigma-grid", "1:2:1"],
        ["--sigma-grid", "1:nan:5"],
        ["--gamma-grid", "1:inf:5"],
    ])
    def test_bad_description_or_grid_is_config_error(self, tmp_path, capsys,
                                                      args):
        rc = main(["bound", *args, "-o", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_range_error_names_one_point(self, tmp_path, capsys):
        # psi = gamma_hat sinh(s)/(s (cosh s + ...)) underflows to 0 at every
        # point of the 50-point sigma grid; the message names the first,
        # not the whole grid
        rc = main(["bound", "--gamma-grid", "1e-154:1e-154:1",
                   "--sigma-grid", "1e170:1e171:50", "-o", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: tracking exact: coefficients "
            "(0.0, 0.0) leave the admissible range at sigma=1e+170\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", ["--gamma-grid=0:0:1",
                                      "--sigma-grid=-1:-1:1"])
    def test_non_positive_one_point_grid_is_config_error(self, tmp_path,
                                                         capsys, grid):
        # rejected before the catalog divides by gamma_hat = 0
        rc = main(["bound", grid, "-o", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: grid values must be positive")


class TestSolveCommand:
    def _args(self, out, extra=()):
        return ["solve", "--problem", "scalar", "--objective", "tracking",
                "--sigma", "1.0", "--gamma", "1.0", "--T", "5", "--L", "5",
                "--j-fine", "8", "--j-coarse", "1", "--no-precond",
                "--output", out, *extra]

    def test_writes_artifacts_and_succeeds(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(self._args(out)) == 0
        lines = read_lines(os.path.join(out, "solve_log.csv"))
        assert lines[1] == "iteration,residual,inner_iters,seconds"
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["converged"] is True
        assert summary["config"]["problem"] == "scalar"
        assert summary["preconditioner_blocks"] is None

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        outs = [str(tmp_path / f"run{i}") for i in range(2)]
        contents = []
        for out in outs:
            assert main(self._args(out)) == 0
            # timing column is wall clock; compare everything else
            rows = read_lines(os.path.join(out, "solve_log.csv"))
            contents.append([",".join(r.split(",")[:3]) for r in rows])
        assert contents[0] == contents[1]

    def test_nonconvergence_exit_code(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(self._args(out, ["--max-outer", "1", "--outer-tol", "1e-14"]))
        assert rc == 1
        # partial log retained
        assert os.path.exists(os.path.join(out, "solve_log.csv"))

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = RunConfig(problem="scalar", objective="tracking", sigma=1.0,
                        gamma=1.0, T=5.0, L=5, J_fine=8, J_coarse=1,
                        precond_enabled=False, output="ignored")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out = str(tmp_path / "run")
        rc = main(["solve", "--config", str(path), "--output", out])
        assert rc == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["config"]["output"] == out

    @pytest.mark.parametrize("file_value,flags,want", [
        (False, ["--precond"], "spectral"),
        (True, ["--no-precond"], None),
        # the last of the two flags wins
        (False, ["--no-precond", "--precond"], "spectral"),
        (True, ["--precond", "--no-precond"], None),
    ])
    def test_precond_flag_overrides_config_file(self, tmp_path, file_value,
                                                flags, want):
        cfg = RunConfig(problem="scalar", sigma=1.0, gamma=1.0, T=5.0, L=5,
                        J_fine=8, precond_enabled=file_value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out = str(tmp_path / "run")
        assert main(["solve", "--config", str(path), *flags,
                     "--output", out]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["preconditioner_blocks"] == want
        assert summary["config"]["precond_enabled"] is (want is not None)

    @pytest.mark.parametrize("flag,value", [("--L", "1"), ("--n", "1"),
                                            ("--j-fine", "0")])
    def test_invalid_size_is_config_error(self, tmp_path, flag, value):
        rc = main(["solve", "--problem", "heat", flag, value,
                   "--output", str(tmp_path / "run")])
        assert rc == 2

    @pytest.mark.parametrize("args", [
        # 1 + sigma*tau = 0: the implicit-Euler step matrix is singular
        ["--problem", "scalar", "--sigma", "-2.5", "--T", "2", "--L", "5",
         "--j-fine", "1", "--j-coarse", "1", "--no-precond"],
        # the triangular method has no black-box block solve
        ["--objective", "terminal_cost", "--precond-method", "triangular",
         "--small-system-method", "black_box_iterative", "--n", "4",
         "--L", "4"],
        # non-finite inputs
        ["--gamma", "inf"],
        ["--gamma", "nan"],
        ["--problem", "scalar", "--sigma", "nan"],
        ["--T", "nan"],
        ["--T", "inf"],
        # iteration budgets below one
        ["--max-inner", "0"],
        ["--max-outer", "0"],
        ["--max-outer", "-3"],
        # zero gamma or L, before any division by them
        ["--n", "4", "--gamma", "0"],
        ["--n", "4", "--gamma", "0", "--objective", "terminal_cost"],
        ["--n", "4", "--gamma", "0", "--problem", "advection_diffusion"],
        ["--n", "4", "--L", "0"],
        ["--n", "4", "--L", "0", "--objective", "terminal_cost"],
        # tolerances outside (0, 1)
        ["--inner-tol", "1.5"],
        ["--outer-tol", "1"],
        # tracking has a single implicit-Euler coarse variant
        ["--objective", "tracking", "--coarse-variant", "ie_fdto"],
    ])
    def test_unsupported_setup_is_config_error(self, tmp_path, capsys, args):
        rc = main(["solve", *args, "--output", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1

    def test_abort_reason_is_recorded(self, monkeypatch):
        from paraopt_kit import core

        def failing_gmres(*args, **kwargs):
            raise FloatingPointError("injected")

        monkeypatch.setattr(core, "gmres", failing_gmres)
        cfg = RunConfig(problem="scalar", L=5, J_fine=8,
                        precond_enabled=False)
        _, log, summary = solve_case(cfg)
        assert not log.converged
        assert summary["aborted"] == "inner solver failure: injected"

    def test_infinite_initial_residual_aborts(self, tmp_path):
        # gamma = 1e-300 overflows the norm of r0; inf <= tol * inf used to
        # report convergence after zero outer iterations
        out = str(tmp_path / "run")
        rc = main(["solve", "--n", "4", "--gamma", "1e-300", "--objective",
                   "terminal_cost", "--output", out])
        assert rc == 1
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["converged"] is False
        assert summary["aborted"] == "residual is non-finite"

    TRIANGULAR = ["solve", "--objective", "terminal_cost", "--n", "4",
                  "--precond", "--precond-method", "triangular"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args,rc,reason,counts", [
        (["solve", "--n", "4", "--gamma", "1e-300"],
         1, "residual is non-finite", (0, 0)),
        (["solve", "--n", "4", "--gamma", "1e-300",
          "--objective", "terminal_cost"], 1, "residual is non-finite", (0, 0)),
        (["solve", "--n", "4", "--L", "3", "--T", "1e300"],
         1, "residual is non-finite", (0, 0)),
        # P(1e-30)^{-1} is of size 1e30. Flexible GMRES updates x with the
        # stored P^{-1} v_j, so the update keeps its accuracy: L=3 converges
        # and L=11 grows; both used to overflow the Givens rotations when
        # the update applied P^{-1} to V y. At this alpha P^{-1} is applied
        # with a relative error of about 1e7, so the L=3 inner count follows
        # rounding, not the algorithm: y_init scaled by 1 + k 1e-15
        # (|k| <= 12) spreads it over 246-255 in the grid solve and 233-238
        # in the coefficient solve, and changes of basis gave 235-259. The
        # range allows for that; a P^{-1} that stopped helping at all would
        # run into the 5 x 1000 inner budget, as L=11 does
        ([*TRIANGULAR, "--L", "3", "--alpha-real", "1e-30"],
         0, None, (5, range(200, 301))),
        ([*TRIANGULAR, "--L", "11", "--alpha-real", "1e-30"],
         1, "residual grew 10x over 5 iterations", (5, 5000)),
        # the Hessenberg column overflows to inf, and the rotations to NaN
        ([*TRIANGULAR, "--L", "11", "--alpha-real", "1e-100"],
         1, "inner solver failure: non-finite values in gmres Hessenberg matrix",
         (0, 0)),
    ], ids=["tiny-gamma-tracking", "tiny-gamma-terminal-cost", "huge-T",
            "tiny-alpha-L3", "tiny-alpha-L11", "tinier-alpha-L11"])
    def test_overflow_aborts_without_warnings(self, tmp_path, args, rc, reason,
                                              counts):
        out = str(tmp_path / "run")
        assert main([*args, "--output", out]) == rc
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["aborted"] == reason
        outer, inner = counts
        assert summary["outer_iterations"] == outer
        # an int is exact; a range holds a count that follows rounding
        assert summary["total_inner_iterations"] in (
            inner if isinstance(inner, range) else [inner])

    @pytest.mark.parametrize("args,finite", [
        (["--gamma", "1e-300"], False),
        (["--gamma", "1e-300", "--objective", "terminal_cost"], False),
        (["--L", "3", "--T", "1e300"], False),
        (["--L", "3"], True),
    ], ids=["tiny-gamma-tracking", "tiny-gamma-terminal-cost", "huge-T",
            "converged"])
    def test_summary_is_strict_json(self, tmp_path, args, finite):
        # NaN and Infinity are not JSON, and strict parsers (JSON.parse,
        # Go's encoding/json) refuse a file that holds them: a non-finite
        # final residual is written as null
        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        out = str(tmp_path / "run")
        main(["solve", "--n", "4", *args, "--output", out])
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as f:
            summary = json.loads(f.read(), parse_constant=refuse)
        assert summary["converged"] is finite
        residual = summary["final_residual"]
        assert isinstance(residual, float) if finite else residual is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["general", "triangular"])
    def test_singular_preconditioner_is_a_configuration_error(self, tmp_path,
                                                              method):
        # terminal cost at alpha = 1: P(alpha) is singular at the mean mode
        # of frequency l = 0, which used to divide by zero in every
        # application and end the solve with non-finite GMRES values
        out = str(tmp_path / "run")
        assert main(["solve", "--objective", "terminal_cost", "--n", "4",
                     "--L", "3", "--precond", "--precond-method", method,
                     "--alpha-real", "1", "--output", out]) == 2

    def test_diverging_residual_aborts(self, tmp_path):
        # alpha = 1e300 makes P(alpha)^{-1} useless, and five inner steps
        # per outer step do not reduce the residual. Before flexible GMRES
        # the update P^{-1}(V y) made it grow 10x within five outer steps;
        # now the residual stalls and the solve stops at --max-outer
        out = str(tmp_path / "run")
        rc = main([*self.TRIANGULAR, "--L", "3", "--alpha-real", "1e300",
                   "--max-inner", "5", "--output", out])
        assert rc == 1
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["converged"] is False
        assert summary["aborted"] is None
        assert (summary["outer_iterations"],
                summary["total_inner_iterations"]) == (100, 500)

    # the FDTO coarse propagator makes these solves diverge by about 1.3x
    # per outer step, never 10x over five; they used to run all 100 steps
    # and end 1.7e5-3.1e12 times above r0 with no reason recorded
    @pytest.mark.parametrize("n,L", [(4, 3), (8, 4)])
    def test_steady_divergence_aborts(self, tmp_path, n, L):
        out = str(tmp_path / "run")
        rc = main(["solve", "--problem", "advection_diffusion",
                   "--objective", "terminal_cost", "--n", str(n),
                   "--L", str(L), "--precond", "--precond-method", "triangular",
                   "--alpha-real", "0.1", "--coarse-variant", "ie_fdto",
                   "--output", out])
        assert rc == 1
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["aborted"] == ("residual above 10x max(1, r0) "
                                      "for 5 iterations")
        assert summary["outer_iterations"] < 100

    BLACK_BOX = ["solve", "--n", "4", "--L", "3", "--precond",
                 "--small-system-method", "black_box_iterative"]

    @pytest.mark.parametrize("args,inner_solve,fallback_steps", [
        (["solve", "--n", "4", "--L", "3"], "reduced", 0),
        ([*TRIANGULAR, "--L", "3", "--alpha-real", "0.1"], "reduced", 0),
        (["solve", "--n", "4", "--L", "3", "--no-precond"], "flexible", 0),
        # a black-box plan acts on the same Fourier basis, whose coarse maps
        # are diagonal, and its block solves keep P(alpha)^{-1} exact to
        # far below SLICE_LEAK_RTOL, so it runs the slice space too
        (BLACK_BOX, "reduced", 0),
        ([*BLACK_BOX, "--problem", "advection_diffusion"], "reduced", 0),
        # P(1e-30)^{-1} maps the probes of G far outside the slices y_1 and
        # lam_Lhat, so each of the 5 steps falls back to flexible GMRES
        ([*TRIANGULAR, "--L", "3", "--alpha-real", "1e-30"], "flexible", 5),
    ], ids=["spectral", "triangular", "no-plan", "black-box",
            "black-box-advection", "tiny-alpha"])
    def test_summary_names_the_inner_solve(self, tmp_path, args, inner_solve,
                                           fallback_steps):
        out = str(tmp_path / "run")
        assert main([*args, "--output", out]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert (summary["inner_solve"], summary["fallback_steps"]) == (
            inner_solve, fallback_steps)

    def test_black_box_block_solves_converge(self, tmp_path):
        # the tracking offsets used to cancel digits in the black-box
        # operator, which then missed its 1e-12 block tolerance
        out = str(tmp_path / "run")
        assert main([*self.BLACK_BOX, "--output", out]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["preconditioner_blocks"] == "black_box"
        assert (summary["outer_iterations"],
                summary["total_inner_iterations"]) == (13, 40)

    def test_black_box_block_miss_aborts(self, tmp_path, monkeypatch):
        from paraopt_kit import preconditioner
        from paraopt_kit.numerics import GmresReport

        def stalled_gmres(op, b, cfg):
            return np.zeros_like(b), GmresReport(cfg.max_iterations, 0.5,
                                                 False)

        monkeypatch.setattr(preconditioner, "gmres", stalled_gmres)
        out = str(tmp_path / "run")
        assert main([*self.BLACK_BOX, "--output", out]) == 1
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["aborted"].startswith(
            "inner solver failure: black-box block solve did not reach")
        assert os.path.exists(os.path.join(out, "solve_log.csv"))

    def test_exact_fine_terminal_cost_heat_converges(self, tmp_path):
        # sigma_hat reaches about 1700 here, past the cosh/sinh overflow
        out = str(tmp_path / "run")
        rc = main(["solve", "--fine", "exact", "--objective", "terminal_cost",
                   "--n", "16", "--L", "3", "--no-precond", "--output", out])
        assert rc == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["converged"] is True and summary["aborted"] is None

    def test_preconditioned_scalar_solve(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["solve", "--problem", "scalar", "--objective", "tracking",
                   "--sigma", "1.0", "--gamma", "1.0", "--T", "5", "--L", "5",
                   "--j-fine", "8", "--j-coarse", "1", "--precond",
                   "--precond-method", "general", "--alpha-real", "-1",
                   "--output", out])
        assert rc == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["preconditioner_blocks"] == "spectral"


@st.composite
def solve_configs(draw):
    """A small solve config whose every field is, about one time in 12, a
    value the CLI or the library must reject. The valid values combine
    as the library supports them: J_coarse <= J_fine, and the FDTO coarse
    variant and the triangular method with terminal cost only."""
    def field(valid, invalid):
        # 6, not 0: Hypothesis draws the ends of a range more often
        return draw(invalid if draw(st.integers(0, 11)) == 6 else valid)

    pick = st.sampled_from
    objective = field(pick(["tracking", "terminal_cost"]), st.just("energy"))
    tc = objective == "terminal_cost"
    J_fine = field(st.integers(1, 4), pick([0, -1]))
    ssm = draw(st.integers(0, 11))
    return dict(
        problem=field(pick(["scalar", "heat", "advection_diffusion"]),
                      st.just("wave")),
        objective=objective,
        sigma=field(pick([1.0, 0.5, 16.0]), pick([-2.5, float("nan")])),
        n=field(st.integers(2, 4), pick([1, 0, True])),
        gamma=field(pick([0.05, 1.0, 1e-3]),
                    pick([0.0, -1.0, float("inf"), 1e-300])),
        T=field(pick([1.0, 2.0, 5.0]), pick([0.0, float("nan"), 1e300])),
        L=field(st.integers(2, 5), pick([0, 1, 2.5])),
        J_fine=J_fine,
        J_coarse=field(st.integers(1, max(J_fine, 1)), pick([0, 5])),
        fine=field(pick(["ie", "exact"]), st.just("rk4")),
        coarse_variant=field(pick(["ie_fotd", "ie_fdto"][:1 + tc]),
                             pick(["ie_x", "ie_fdto"])),
        outer_tol=field(pick([1e-6, 1e-8, 1e-3]), pick([0.0, 1.0, 1.5])),
        inner_tol=field(pick([1e-4, 1e-6]), pick([0.0, 1.0, 1.5])),
        max_outer=field(pick([100, 20, 3]), pick([0, -3])),
        max_inner=field(pick([1000, 50, 5]), pick([0, -1])),
        precond_enabled=field(st.booleans(), st.just(1)),
        precond_method=field(pick(["general", "triangular"][:1 + tc]),
                             pick(["lu", "triangular"])),
        alpha_real=field(pick([1.0, -1.0, 0.1, 0.0, 1e-30]),
                         st.just(float("nan"))),
        small_system_method={6: "qr", 5: "black_box_iterative"}.get(
            ssm, "explicit_direct"),
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(solve_configs())
def test_exit_code_contract(config):
    # 0 converged and 1 not converged, each with a summary that says so,
    # or 2 with one line on stderr; no exception escapes main
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "run")
        with open(path, "w") as f:
            json.dump(config, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["solve", "--config", path, "--output", out])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.getvalue().startswith("configuration error: ")
            assert err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
        else:
            with open(os.path.join(out, "summary.json")) as f:
                assert json.load(f)["converged"] is (rc == 0)


@pytest.mark.parametrize("L_hat,precond,counts", [
    (10, True, (6, 24)), (10, False, (6, 115)),
    (100, True, (10, 36)), (100, False, (10, 391)),
])
def test_heat_tracking_iteration_counts(L_hat, precond, counts):
    # the paper's heat tracking runs (n=8): exact (outer, total inner) counts
    _, _, summary = solve_case(_heat_run_config("heat", "tracking", L_hat,
                                                precond))
    assert (summary["outer_iterations"],
            summary["total_inner_iterations"]) == counts


@pytest.mark.parametrize("L_hat,counts", [(10, (9, 21)), (100, (11, 27))])
def test_heat_terminal_cost_triangular_iteration_counts(L_hat, counts):
    # n=8 terminal cost, implicit-Euler fine, FDTO coarse, triangular
    # P(0.1)^{-1}: exact (outer, total inner) counts. At L_hat=10 the
    # second inner residual of two outer steps lies near the 1e-4
    # tolerance, and an ulp in the eigenvalues of K moves it across: with
    # them perturbed by up to 2 ulps the count is 22 in 20 of 24 runs
    # and 21 in the others
    cfg = dataclasses.replace(
        _heat_run_config("heat", "terminal_cost", L_hat, True),
        coarse_variant="ie_fdto", precond_method="triangular", alpha_real=0.1)
    _, _, summary = solve_case(cfg)
    assert summary["preconditioner_blocks"] == "spectral"
    assert (summary["outer_iterations"],
            summary["total_inner_iterations"]) == counts


# per-outer inner counts of the iteration-count experiments (n=8 heat and
# advection-diffusion tracking), keyed by (L_hat, preconditioned)
_INNER_PER_OUTER = {
    "HeatIterationCounts": {
        (10, 1): [4, 4, 4, 4, 4, 4],
        (10, 0): [13, 17, 20, 21, 22, 22],
        (100, 1): [4, 4, 4, 5, 3, 3, 3, 3, 3, 4],
        (100, 0): [17, 37, 42, 42, 44, 46, 42, 44, 36, 41]},
    "AdvectionIterationCounts": {
        (10, 1): [5] + [4] * 8 + [3] * 5,
        (10, 0): [17, 19, 20, 20, 20, 20, 20, 18, 18, 17, 17, 15, 15, 16],
        (100, 1): [5, 5, 5, 6, 5, 5, 6],
        (100, 0): [61, 81, 94, 90, 92, 92, 89]},
}
# (outer, total inner) of the same solves
_TOTALS = {
    "HeatIterationCounts": {(10, 1): (6, 24), (10, 0): (6, 115),
                            (100, 1): (10, 36), (100, 0): (10, 391)},
    "AdvectionIterationCounts": {(10, 1): (14, 52), (10, 0): (14, 252),
                                 (100, 1): (7, 37), (100, 0): (7, 599)},
}


def test_experiment_iteration_counts(tmp_path):
    """The count columns of the experiments whose iteration counts are
    the paper's results, exactly: GMRES tolerance study, heat and
    advection-diffusion iteration counts, scalar cases A and B."""
    out = str(tmp_path / "exps")
    assert main(["experiment", "ScalarConvergenceAB", "GmresToleranceStudy",
                 "HeatIterationCounts", "AdvectionIterationCounts",
                 "-o", out]) == 0
    rows = lambda exp_id, fname: [line.split(",") for line in read_lines(
        os.path.join(out, exp_id, fname))[2:]]

    study = rows("GmresToleranceStudy", "gmres_tolerance.csv")
    assert [(int(r[1]), int(r[2])) for r in study] == (
        [(6, 21), (6, 24)] + [(6, 30)] * 4)
    for exp_id, want in _INNER_PER_OUTER.items():
        got: dict = {}
        for L_hat, precond, k, inner, _ in rows(exp_id,
                                                "iteration_counts.csv"):
            key = (int(L_hat), int(precond))
            got.setdefault(key, []).append(int(inner))
            assert int(k) == len(got[key])
        assert got == want
        assert {key: (len(c), sum(c)) for key, c in got.items()} == (
            _TOTALS[exp_id])
    # residual rows from iteration 0: 18 and 7 outer steps
    cases = [r[0] for r in rows("ScalarConvergenceAB",
                                "residual_histories.csv")]
    assert (cases.count("A") - 1, cases.count("B") - 1) == (18, 7)


class TestExperimentCommand:
    def test_unknown_id_is_config_error(self, tmp_path):
        assert main(["experiment", "NoSuchThing",
                     "-o", str(tmp_path / "x")]) == 2

    def test_tc_fotd_vs_fdto_writes_manifest(self, tmp_path):
        out = str(tmp_path / "exp")
        assert main(["experiment", "TcFotdVsFdto", "-o", out]) == 0
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert manifest["experiment"] == "TcFotdVsFdto"
        for fname in manifest["files"]:
            assert os.path.exists(os.path.join(out, fname))

    def test_scalar_weak_scaling(self, tmp_path):
        out = str(tmp_path / "exp")
        assert main(["experiment", "ScalarWeakScaling", "-o", out]) == 0
        lines = read_lines(os.path.join(out, "weak_scaling.csv"))
        assert lines[1] == "regime,L_hat,rho_star,exact_rho"
        # exact rho never exceeds the bound in either regime
        for line in lines[2:]:
            _, _, bound, exact = line.split(",")
            assert float(exact) <= float(bound) + 1e-12

    def test_heat_total_iterations(self, tmp_path):
        out = str(tmp_path / "exp")
        assert main(["experiment", "HeatTotalIterations", "-o", out]) == 0
        lines = read_lines(os.path.join(out, "total_iterations.csv"))
        assert lines[1] == "L_hat,preconditioned,outer_iters,total_inner"
        rows = [tuple(int(v) for v in line.split(",")) for line in lines[2:]]
        assert len(rows) == 8
        assert [r[1] for r in rows] == [1, 0] * 4  # bools print as 1/0
        # the same solves as test_heat_tracking_iteration_counts
        pinned = {(10, 1): (6, 24), (10, 0): (6, 115),
                  (100, 1): (10, 36), (100, 0): (10, 391)}
        assert {r[:2]: r[2:] for r in rows if r[0] in (10, 100)} == pinned

    def test_several_ids_write_one_folder_each(self, tmp_path):
        out = str(tmp_path / "out")
        ids = ["TcFotdVsFdto", "ScalarTimestepSweep", "BoundContours"]
        assert main(["experiment", *ids, "-o", out]) == 0
        for exp_id in ids:
            folder = os.path.join(out, exp_id)
            manifest = json.loads(
                open(os.path.join(folder, "manifest.json")).read())
            assert manifest["experiment"] == exp_id
            for fname in manifest["files"]:
                assert os.path.exists(os.path.join(folder, fname))
        # the six 50 x 50 panels of rho*: the bound proves convergence
        # everywhere for tracking and for FOTD terminal cost, and not
        # everywhere for FDTO terminal cost
        folder = os.path.join(out, "BoundContours")
        files = json.loads(
            open(os.path.join(folder, "manifest.json")).read())["files"]
        assert files == [f"rho_star_{panel}_j{J}.csv"
                         for panel in ("tracking", "tc_fotd", "tc_fdto")
                         for J in (1, 10)]
        for fname in files:
            lines = read_lines(os.path.join(folder, fname))
            assert lines[1] == "sigma_hat,gamma_hat,rho_star"
            rho = np.array([float(line.split(",")[2]) for line in lines[2:]])
            assert len(rho) == 2500
            if "fdto" in fname:
                assert rho.max() > 1.0, fname
            else:
                assert rho.max() < 1.0, fname


# runs in a fresh interpreter, in which any import of scipy fails
_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
from paraopt_kit.cli import main

out = sys.argv[1]
tiny = ["solve", "--n", "4", "--L", "3"]
runs = [tiny + ["--precond"],
        tiny + ["--precond", "--small-system-method", "black_box_iterative"],
        tiny + ["--no-precond"],
        ["bound"],
        ["experiment", "ScalarTimestepSweep"]]
for i, args in enumerate(runs):
    assert main(args + ["--output", f"{out}/{i}"]) == 0, args

# a dense K: the blocks of each method, and the black-box ones, on numpy
from paraopt_kit.preconditioner import (
    InversionMethod, SmallSystemMethod, assemble_P_alpha, build_plan)
from paraopt_kit.problem import (
    LinearControlProblem, ObjectiveKind, make_decomposition)
from paraopt_kit.propagators import build_implicit_euler_propagator

rng = np.random.default_rng(0)
A, S = rng.standard_normal((2, 3, 3))
K = A @ A.T + 3 * np.eye(3) + S - S.T
tracking = LinearControlProblem(
    K=K, gamma=0.3, T=2.0, y_init=rng.standard_normal(3),
    objective=ObjectiveKind.TRACKING, y_d=lambda t: np.full(3, 1.0 + t))
terminal = LinearControlProblem(
    K=K, gamma=0.3, T=2.0, y_init=rng.standard_normal(3),
    objective=ObjectiveKind.TERMINAL_COST, y_target=rng.standard_normal(3))
cases = [(tracking, -1.0, InversionMethod.GENERAL,
          SmallSystemMethod.EXPLICIT_DIRECT, "lu"),
         (terminal, 0.1, InversionMethod.TRIANGULAR,
          SmallSystemMethod.EXPLICIT_DIRECT, "lu"),
         (tracking, -1.0, InversionMethod.GENERAL,
          SmallSystemMethod.BLACK_BOX_ITERATIVE, "black_box")]
for p, alpha, method, small, blocks in cases:
    d = make_decomposition(p, L=4, J_fine=4, J_coarse=1)
    coarse = build_implicit_euler_propagator(p, d.DT, 1)
    plan = build_plan(coarse, d, alpha, method, small)
    assert plan.blocks == blocks, plan.blocks
    v = rng.standard_normal(2 * d.L_hat * 3)
    P = assemble_P_alpha(coarse, d, alpha)
    err = np.linalg.norm(P @ plan.apply_inverse(v) - v) / np.linalg.norm(v)
    assert err <= 1e-10, (method, small, err)
"""


def test_package_never_imports_scipy(tmp_path):
    """The package runs on numpy's linear algebra alone, so a process that
    cannot import scipy runs the stencil solves (spectral and black-box
    plans, and no plan), the bound sweep and exact_rho, and builds and
    applies the dense-K plans of both methods and a black-box one."""
    import paraopt_kit
    src = os.path.dirname(os.path.dirname(os.path.abspath(paraopt_kit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestFitGeometricRate:
    def test_recovers_exact_geometric_sequence(self):
        rate = 0.37
        residuals = [rate ** k for k in range(10)]
        assert fit_geometric_rate(residuals) == pytest.approx(rate, rel=1e-12)

    def test_ignores_stagnation_tail(self):
        residuals = [0.5 ** k for k in range(30)] + [1e-16] * 10
        assert fit_geometric_rate(residuals) == pytest.approx(0.5, rel=1e-6)

    def test_too_short_history_rejected(self):
        with pytest.raises(ValueError):
            fit_geometric_rate([1.0, 0.5])
