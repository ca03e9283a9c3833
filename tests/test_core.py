import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraopt_kit.cli import write_solve_artifacts
from paraopt_kit.core import (
    NewtonConfig,
    PairedTrajectory,
    _SliceSpace,
    apply_jacobian,
    assemble_jacobian,
    assemble_system,
    matching_residual,
    paraopt_solve,
)
from paraopt_kit.numerics import GmresConfig, gmres
from paraopt_kit.preconditioner import (
    InversionMethod,
    PreconditionerPlan,
    SmallSystemMethod,
    assemble_P_alpha,
    build_plan,
)
from paraopt_kit.problem import (
    Discretization,
    LinearControlProblem,
    ObjectiveKind,
    TimeDecomposition,
    make_advection_diffusion_problem,
    make_decomposition,
    make_heat_problem,
    make_scalar_problem,
)
from paraopt_kit.propagators import (
    build_exact_propagator,
    build_implicit_euler_propagator,
)
from test_propagators import bccb, coefficient_matrix, propagate, real_data

TR = ObjectiveKind.TRACKING
TC = ObjectiveKind.TERMINAL_COST


def tracking_setup(L=6, J_fine=8, J_coarse=1):
    K = np.array([[2.0, -0.5], [-0.5, 1.0]])
    p = LinearControlProblem(K=K, gamma=0.3, T=2.0,
                             y_init=np.array([1.0, -0.4]), objective=TR,
                             y_d=lambda t: np.array([np.sin(t), 1.0 + t]))
    d = make_decomposition(p, L=L, J_fine=J_fine, J_coarse=J_coarse)
    fine = build_implicit_euler_propagator(p, d.DT, J_fine)
    coarse = build_implicit_euler_propagator(p, d.DT, J_coarse)
    return p, d, fine, coarse


def terminal_setup(L=5, J_fine=8, J_coarse=1):
    # the 1 x 1 stencil: M = 1 in a FourierBasis, whose real view adds
    # the zero imaginary slot of the one mode to every row
    p = dataclasses.replace(make_scalar_problem(2.0, 0.5, 2.5, TC),
                            y_target=[0.3])
    d = make_decomposition(p, L=L, J_fine=J_fine, J_coarse=J_coarse)
    fine = build_implicit_euler_propagator(p, d.DT, J_fine)
    coarse = build_implicit_euler_propagator(p, d.DT, J_coarse)
    return p, d, fine, coarse


def to_grid(basis, v):
    """Grid values, flat, of a flat vector of the solve in basis."""
    if basis is None:
        return v
    return basis.grid(v.reshape(-1, 2 * len(basis.half)).view(complex)).ravel()


class TestMatchingResidual:
    @pytest.mark.parametrize("setup", [tracking_setup, terminal_setup])
    def test_dense_solution_has_zero_residual(self, setup):
        p, d, fine, _ = setup()
        A, b = assemble_system(fine, p, d)
        x = PairedTrajectory.from_vector(
            to_grid(fine.basis, np.linalg.solve(A, b)), d.L_hat, p.M)
        assert np.linalg.norm(matching_residual(fine, p, d, x)) < 1e-12

    def test_residual_is_affine(self):
        p, d, fine, _ = tracking_setup()
        A, b = assemble_system(fine, p, d)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(2 * d.L_hat * p.M)
        x = PairedTrajectory.from_vector(v, d.L_hat, p.M)
        np.testing.assert_allclose(matching_residual(fine, p, d, x),
                                   A @ v - b, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        p, d, fine, _ = tracking_setup()
        bad = PairedTrajectory.zeros(d.L_hat + 1, p.M)
        with pytest.raises(ValueError):
            matching_residual(fine, p, d, bad)
        bad = PairedTrajectory(np.zeros((d.L_hat, p.M)),
                               np.zeros((d.L_hat - 1, p.M)))
        with pytest.raises(ValueError, match=r"lam_hat is \(4, 2\), but "
                                             r"the .* is \(5, 2\)"):
            matching_residual(fine, p, d, bad)
        # a flat vector, even of the right length, has no basis of its own
        with pytest.raises(TypeError, match="PairedTrajectory"):
            matching_residual(fine, p, d, np.zeros(2 * d.L_hat * p.M))
        # the operators of the solve: a wrong length, or a propagator or
        # plan of another M, used to fail inside a numpy reshape. The
        # scalar problem's rows are the real view of its one mode, M + s = 2
        plan = build_plan(fine, d, -1.0, InversionMethod.GENERAL)
        scalar = build_implicit_euler_propagator(
            make_scalar_problem(1.0, 0.3, p.T, TR), d.DT, 1)
        cases = [
            (lambda v: apply_jacobian(fine, TR, d, v), 21, 20),
            (plan.apply_inverse, 21, 20),
            (lambda v: apply_jacobian(scalar, TR, d, v), 10, 20),
            (build_plan(scalar, d, -1.0, InversionMethod.GENERAL)
             .apply_inverse, 10, 20),
        ]
        for apply, got, want in cases:
            msg = rf"length of v is {got}, but 10 rows of M \+ s = 2 are {want}"
            with pytest.raises(ValueError, match=msg):
                apply(np.zeros(got))


def loop_residual(fine, problem, decomp, x):
    """Reference: the matching conditions evaluated one interval at a time,
    on rows of the length of those of x."""
    Lh, M = x.y.shape
    r = np.zeros(2 * Lh * M)
    for l in range(1, Lh + 1):
        y_prev = problem.y_init if l == 1 else x.y[l - 2]
        r[(l - 1) * M:l * M] = x.y[l - 1] - propagate(
            fine, l, y_prev, x.lam_hat[l - 1])[0]
    for l in range(1, Lh):
        r[(Lh + l - 1) * M:(Lh + l) * M] = x.lam_hat[l - 1] - propagate(
            fine, l + 1, x.y[l - 1], x.lam_hat[l])[1]
    if problem.objective is TR:
        r[-M:] = x.lam_hat[-1] - propagate(fine, Lh + 1, x.y[-1], np.zeros(M))[1]
    else:
        r[-M:] = x.lam_hat[-1] - (x.y[-1] - problem.y_target)
    return r


def check_oracles_in_basis(p, d, fine, rng):
    """The dense (A, b) and the Jacobian action in the basis of fine
    against the interval loop in that basis, and the grid residual against
    the loop reference moved to the grid."""
    M, basis = p.M, fine.basis
    Q = np.eye(M) if basis is None else coefficient_matrix(basis)
    m = len(Q)  # M, or M + s on the real view of half spectra
    # the loop reference takes y_init and y_target in the basis too
    p_basis = types.SimpleNamespace(objective=p.objective,
                                    y_init=Q @ p.y_init,
                                    y_target=Q @ p.y_target)
    n = 2 * d.L_hat * m
    v = (rng.standard_normal(n) if basis is None else
         real_data(basis, rng, n // m).ravel())  # in the basis of fine
    x = PairedTrajectory.from_vector(v, d.L_hat, m)

    A, b = assemble_system(fine, p, d)
    tol = 1e-12 * (1.0 + np.linalg.norm(A) + np.linalg.norm(b))
    ref = loop_residual(fine, p_basis, d, x)
    np.testing.assert_allclose(A @ v - b, ref, atol=tol)
    on_grid = PairedTrajectory.from_vector(to_grid(basis, v), d.L_hat, M)
    np.testing.assert_allclose(matching_residual(fine, p, d, on_grid),
                               to_grid(basis, ref), atol=tol)
    # the Jacobian is the linear part of the loop reference
    zero = PairedTrajectory.zeros(d.L_hat, m)
    r0 = loop_residual(fine, p_basis, d, zero)
    e = np.eye(n)
    A_loop = np.column_stack([
        loop_residual(fine, p_basis, d,
                      PairedTrajectory.from_vector(e[:, j], d.L_hat, m))
        - r0 for j in range(n)])
    np.testing.assert_allclose(A, A_loop, atol=tol)
    np.testing.assert_allclose(apply_jacobian(fine, p.objective, d, v),
                               A @ v, atol=tol)


# stencil problems of the heat and of the advection-diffusion K, whose
# complex symbol multiplies each half spectrum as complex numbers
_STENCILS = [(make_heat_problem, 2), (make_heat_problem, 3),
             (make_advection_diffusion_problem, 3),
             (make_advection_diffusion_problem, 4)]


class TestJacobianAction:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), M=st.integers(1, 4),
           L=st.integers(2, 6), objective=st.sampled_from([TR, TC]),
           skew=st.sampled_from([0.0, 1.0]))
    def test_stacked_maps_match_dense_oracles(self, seed, M, L, objective,
                                              skew):
        rng = np.random.default_rng(seed)
        B, C = rng.standard_normal((2, M, M))
        # SPD K, or SPD plus a skew part: symmetric K gives symmetric maps,
        # which would hide a transposed one
        K = B @ B.T + 0.1 * np.eye(M) + skew * (C - C.T)
        p = LinearControlProblem(
            K=K, gamma=10.0 ** rng.uniform(-2, 1), T=2.0,
            y_init=rng.standard_normal(M), objective=objective,
            y_target=rng.standard_normal(M),
            y_d=lambda t: np.cos(t + np.arange(M)))
        d = make_decomposition(p, L=L, J_fine=int(rng.integers(1, 5)),
                               J_coarse=1)
        fine = build_implicit_euler_propagator(p, d.DT, d.J_fine)
        assert fine.basis is None
        check_oracles_in_basis(p, d, fine, rng)

    @pytest.mark.parametrize("make, n", _STENCILS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), L=st.integers(2, 6),
           objective=st.sampled_from([TR, TC]))
    def test_stencil_maps_match_oracles_in_their_basis(self, make, n, seed,
                                                        L, objective):
        """A stencil K, whose propagator lives in the half spectrum."""
        rng = np.random.default_rng(seed)
        p = make(n, 10.0 ** rng.uniform(-2, 1), 2.0, objective)
        d = make_decomposition(p, L=L, J_fine=int(rng.integers(1, 5)),
                               J_coarse=1)
        fine = build_implicit_euler_propagator(p, d.DT, d.J_fine)
        assert fine.basis is not None
        check_oracles_in_basis(p, d, fine, rng)

    def test_terminal_corner_is_identity_coupling(self):
        p, d, fine, _ = terminal_setup()
        A = assemble_jacobian(fine, p.objective, d)
        Lh, m = d.L_hat, p.M + fine.basis.self_count
        blocks = A.reshape(2 * Lh, m, 2 * Lh, m)
        # last adjoint row: lam_Lhat - y_Lhat, on both slots of the mode
        np.testing.assert_allclose(blocks[-1, :, Lh - 1], -np.eye(m))
        np.testing.assert_allclose(blocks[-1, :, -1], np.eye(m))


class TestPairedTrajectory:
    def test_vector_roundtrip(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(12)
        x = PairedTrajectory.from_vector(v, 3, 2)
        np.testing.assert_array_equal(
            np.concatenate([x.y.ravel(), x.lam_hat.ravel()]), v)


class TestParaoptSolve:
    def test_coarse_equals_fine_converges_immediately(self):
        p, d, fine, _ = tracking_setup()
        cfg = NewtonConfig(outer_tolerance=1e-10,
                           inner=GmresConfig(rel_tolerance=1e-13))
        x, log = paraopt_solve(p, d, fine, fine, cfg)
        assert log.converged
        assert len(log.records) - 1 <= 2

    @pytest.mark.parametrize("setup", [tracking_setup, terminal_setup])
    def test_converges_to_dense_solution(self, setup):
        p, d, fine, coarse = setup()
        A, b = assemble_system(fine, p, d)
        ref = np.linalg.solve(A, b)
        cfg = NewtonConfig(outer_tolerance=1e-10,
                           inner=GmresConfig(rel_tolerance=1e-12))
        x, log = paraopt_solve(p, d, fine, coarse, cfg)
        assert log.converged
        np.testing.assert_allclose(
            np.concatenate([x.y.ravel(), x.lam_hat.ravel()]),
            to_grid(fine.basis, ref), atol=1e-8)

    def test_log_rows_match_records(self, tmp_path):
        p, d, fine, coarse = tracking_setup()
        _, log = paraopt_solve(p, d, fine, coarse, NewtonConfig())
        write_solve_artifacts(str(tmp_path), log, {})
        with open(tmp_path / "solve_log.csv", encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[1] == "iteration,residual,inner_iters,seconds"
        rows = [line.split(",") for line in lines[2:]]
        assert [(int(i), float(r), int(n), float(s))
                for i, r, n, s in rows] == [
            (r.iteration, r.residual, r.inner_iters, r.seconds)
            for r in log.records]
        assert rows[0][0] == "0" and rows[0][2] == "0"

    @pytest.mark.parametrize("kwargs", [
        dict(max_outer=0), dict(max_outer=-3), dict(outer_tolerance=0.0),
        dict(outer_tolerance=1.0), dict(outer_tolerance=1.5),
        dict(outer_tolerance=2.0), dict(max_outer=2.5), dict(max_outer=True),
    ])
    def test_config_out_of_range_rejected(self, kwargs):
        # max_outer = -3 used to return from an infinite r0 without an
        # abort reason, outer_tolerance = 2 to report convergence after
        # zero steps, max_outer = 2.5 to fail at the loop of paraopt_solve
        # with a TypeError, outside its abort handling, and True to run
        # one step
        with pytest.raises(ValueError, match="must be"):
            NewtonConfig(**kwargs)

    def test_max_outer_reports_nonconvergence(self):
        p, d, fine, coarse = tracking_setup()
        cfg = NewtonConfig(outer_tolerance=1e-14, max_outer=1,
                           inner=GmresConfig(rel_tolerance=1e-2,
                                             max_iterations=1))
        _, log = paraopt_solve(p, d, fine, coarse, cfg)
        assert not log.converged


# (problem, objective, fine propagator, preconditioner (method, alpha) or None)
_BASIS_SOLVES = [
    (make, objective, fine, precond)
    for make in (make_heat_problem, make_advection_diffusion_problem)
    for objective, precond in ((TR, (InversionMethod.GENERAL, -1.0)),
                               (TC, (InversionMethod.TRIANGULAR, 0.1)),
                               (TR, None), (TC, None))
    for fine in ("ie", "exact")
    if not (fine == "exact" and make is make_advection_diffusion_problem)]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("make,objective,fine,precond", _BASIS_SOLVES)
def test_coefficient_solve_matches_dense_solve(make, objective, fine, precond,
                                               n):
    """The solve in the Fourier basis against the dense grid solve of
    the same problem on its dense K: trajectories that agree to the outer
    tolerance, and grid residuals of the per-mode propagator that match
    the dense one's."""
    p = make(n, 0.3, 2.0, objective)
    d = make_decomposition(p, L=6, J_fine=5, J_coarse=1)
    variant = (Discretization.FDTO if objective is TC
               else Discretization.FOTD)

    def solve(p):
        fine_prop = (build_exact_propagator(p, d.DT) if fine == "exact" else
                     build_implicit_euler_propagator(p, d.DT, d.J_fine))
        coarse = build_implicit_euler_propagator(p, d.DT, 1, variant)
        plan = None if precond is None else build_plan(coarse, d, precond[1],
                                                       precond[0])
        cfg = NewtonConfig(outer_tolerance=1e-8, preconditioner=plan,
                           inner=GmresConfig(rel_tolerance=1e-4))
        return (fine_prop, None if plan is None else plan.blocks,
                paraopt_solve(p, d, fine_prop, coarse, cfg))

    sym, blocks, (x, log) = solve(p)
    dense, dense_blocks, (x_dense, log_dense) = solve(
        dataclasses.replace(p, K=bccb(p.K.column)))
    assert sym.basis is not None and dense.basis is None
    assert (blocks, dense_blocks) in ((None, None), ("spectral", "lu"))
    # inner counts may differ where an inner residual lands on the inner
    # tolerance, since the two solves round differently
    assert log.converged and log_dense.converged
    both = lambda t: np.concatenate([t.y.ravel(), t.lam_hat.ravel()])
    scale = max(1.0, np.linalg.norm(both(x_dense)))
    assert np.linalg.norm(both(x) - both(x_dense)) <= 1e-8 * scale
    # and the residual of the returned grid trajectory is small on the grid
    r0 = np.linalg.norm(matching_residual(
        dense, p, d, PairedTrajectory.zeros(d.L_hat, p.M)))
    assert (np.linalg.norm(matching_residual(dense, p, d, x))
            <= 1e-8 * max(1.0, r0))
    # the per-mode propagator acts on grid values as the dense one does
    v = np.random.default_rng(n).standard_normal(2 * d.L_hat * p.M)
    for t in (x, PairedTrajectory.from_vector(v, d.L_hat, p.M)):
        np.testing.assert_allclose(
            matching_residual(sym, p, d, t), matching_residual(dense, p, d, t),
            rtol=0, atol=1e-12 * max(r0, np.linalg.norm(both(t))))


def test_propagators_of_different_bases_rejected():
    p = make_heat_problem(3, 0.3, 2.0, TR)
    d = make_decomposition(p, L=4, J_fine=2, J_coarse=1)
    fine = build_implicit_euler_propagator(p, d.DT, 2)
    coarse = build_implicit_euler_propagator(
        dataclasses.replace(p, K=bccb(p.K.column)), d.DT, 1)
    with pytest.raises(ValueError, match="per-mode coefficients"):
        paraopt_solve(p, d, fine, coarse, NewtonConfig())
    plan = build_plan(coarse, d, -1.0, InversionMethod.GENERAL)
    with pytest.raises(ValueError, match="another basis"):
        paraopt_solve(p, d, fine, fine, NewtonConfig(preconditioner=plan))


def test_propagators_of_another_M_rejected():
    # a propagator built for n = 3 inside an n = 4 solve used to fail in a
    # reshape, "cannot reshape array of size 16 into shape (3,3)"
    p = make_heat_problem(4, 0.3, 2.0, TR)
    d = make_decomposition(p, L=4, J_fine=2, J_coarse=1)
    fine = build_implicit_euler_propagator(p, d.DT, 2)
    coarse = build_implicit_euler_propagator(p, d.DT, 1)
    other = build_implicit_euler_propagator(
        make_heat_problem(3, 0.3, 2.0, TR), d.DT, 1)
    with pytest.raises(ValueError, match=r"fine propagator's \(M, L\) is "
                                         r"\(9, 4\), but .* is \(16, 4\)"):
        paraopt_solve(p, d, other, coarse, NewtonConfig())
    with pytest.raises(ValueError, match="coarse propagator's M is 9, but "
                                         "the problem's M is 16"):
        paraopt_solve(p, d, fine, other, NewtonConfig())
    plan = build_plan(other, d, -1.0, InversionMethod.GENERAL)
    with pytest.raises(ValueError, match=r"plan's \(M, L_hat\) is \(9, 3\), "
                                         r"but .* is \(16, 3\)"):
        paraopt_solve(p, d, fine, coarse, NewtonConfig(preconditioner=plan))


def test_propagators_of_another_L_hat_rejected():
    p = make_heat_problem(3, 0.3, 2.0, TR)
    d = make_decomposition(p, L=4, J_fine=2, J_coarse=1)
    d5 = make_decomposition(p, L=5, J_fine=2, J_coarse=1)
    fine = build_implicit_euler_propagator(p, d.DT, 2)
    coarse = build_implicit_euler_propagator(p, d.DT, 1)
    with pytest.raises(ValueError, match=r"fine propagator's \(M, L\) is "
                                         r"\(9, 4\), but .* is \(9, 5\)"):
        paraopt_solve(p, d5, fine, coarse, NewtonConfig())
    plan = build_plan(coarse, d5, -1.0, InversionMethod.GENERAL)
    with pytest.raises(ValueError, match=r"plan's \(M, L_hat\) is \(9, 4\), "
                                         r"but .* is \(9, 3\)"):
        paraopt_solve(p, d, fine, coarse, NewtonConfig(preconditioner=plan))


def test_propagators_of_another_objective_rejected():
    # a terminal-cost problem solved with propagators built for tracking
    # used to report convergence in 5 steps, with a terminal-cost residual
    # of 12.56 at its answer: the offsets of the fine propagator and the
    # Jacobian of the coarse one were those of tracking
    p = make_heat_problem(4, 0.3, 2.0, TC)
    d = make_decomposition(p, L=4, J_fine=10, J_coarse=1)
    tracking = make_heat_problem(4, 0.3, 2.0, TR)
    fine, coarse = (build_implicit_euler_propagator(p, d.DT, J)
                    for J in (10, 1))
    fine_tr, coarse_tr = (build_implicit_euler_propagator(tracking, d.DT, J)
                          for J in (10, 1))
    msg = ("{} propagator's objective is tracking, but the problem's is "
           "terminal_cost")
    for f, c, which in ((fine_tr, coarse_tr, "coarse"),
                        (fine, coarse_tr, "coarse"),
                        (fine_tr, coarse, "fine")):
        with pytest.raises(ValueError, match=msg.format(which)):
            paraopt_solve(p, d, f, c, NewtonConfig())
    with pytest.raises(ValueError, match=msg.format("fine")):
        matching_residual(fine_tr, p, d, PairedTrajectory.zeros(d.L_hat, p.M))


# tracking with L_hat = L used to raise an IndexError in matching_residual,
# and terminal cost with L_hat = L - 1 "converged" in 4 outer steps on a
# system without its last interval
@pytest.mark.parametrize("objective,L_hat,want", [(TR, 5, "L - 1 for "
                                                   "tracking is 4"),
                                                  (TC, 4, "L for terminal "
                                                   "cost is 5")])
def test_decomposition_of_another_L_hat_rejected(objective, L_hat, want):
    p = make_heat_problem(4, 0.3, 2.0, objective)
    d = TimeDecomposition(L=5, T=p.T, L_hat=L_hat, J_fine=2, J_coarse=1)
    fine, coarse = (build_implicit_euler_propagator(p, d.DT, J)
                    for J in (2, 1))
    msg = f"the decomposition's L_hat is {L_hat}, but {want}"
    with pytest.raises(ValueError, match=msg):
        matching_residual(fine, p, d, PairedTrajectory.zeros(L_hat, p.M))
    with pytest.raises(ValueError, match=msg):
        assemble_system(fine, p, d)
    plan = build_plan(coarse, d, -1.0, InversionMethod.GENERAL)
    for cfg in (NewtonConfig(), NewtonConfig(preconditioner=plan)):
        with pytest.raises(ValueError, match=msg):
            paraopt_solve(p, d, fine, coarse, cfg)


def test_operators_refuse_another_objective_and_complex_input():
    # the terminal-cost product of a tracking propagator used to differ
    # from its tracking product by 42% on random real data, with no error;
    # a complex v failed inside a numpy broadcast
    p = make_heat_problem(4, 0.3, 2.0, TR)
    d = make_decomposition(p, L=5, J_fine=2, J_coarse=1)
    coarse = build_implicit_euler_propagator(p, d.DT, 1)
    v = real_data(coarse.basis, np.random.default_rng(0), 2 * d.L_hat)
    msg = "the objective is terminal_cost, but the propagator's is tracking"
    with pytest.raises(ValueError, match=msg):
        apply_jacobian(coarse, TC, d, v.ravel())
    with pytest.raises(ValueError, match=msg):
        assemble_jacobian(coarse, TC, d)
    with pytest.raises(ValueError, match="v must be real.*complex128"):
        apply_jacobian(coarse, TR, d, v.ravel().astype(complex))


def _heat_plan_case():
    p = make_heat_problem(4, 0.3, 2.0, TR)
    d = make_decomposition(p, L=5, J_fine=4, J_coarse=1)
    fine, coarse = (build_implicit_euler_propagator(p, d.DT, J)
                    for J in (4, 1))
    plan = build_plan(coarse, d, -1.0, InversionMethod.GENERAL)
    return p, d, fine, coarse, plan


def test_nan_probe_fails_the_slice_check():
    """A P(alpha)^{-1} that returns NaN leaks NaN from the probes, which
    fails the check: Python's max(0.0, nan) is 0.0, and such a plan used
    to pass it, so that the solve was reported as "reduced"."""
    p, d, fine, coarse, plan = _heat_plan_case()
    plan = dataclasses.replace(plan,
                               _solve=lambda vw: np.full_like(vw, np.nan))
    op = lambda v: apply_jacobian(coarse, TR, d, v)
    assert not _SliceSpace(plan, op).exact
    _, log = paraopt_solve(p, d, fine, coarse,
                           NewtonConfig(preconditioner=plan))
    assert log.inner_solve == "flexible" and not log.converged


def test_step_whose_image_leaves_the_slices_falls_back():
    """A P(alpha)^{-1} exact on inputs supported on the slices y_1 and
    lam_Lhat, so that its probes pass, but off by about 1e-6 on any other
    input: N(b_hat) leaves the slices at every step, and every step runs
    flexible GMRES instead, which still converges."""
    p, d, fine, coarse, plan = _heat_plan_case()
    exact = plan._solve

    def solve(vw):
        off = vw.copy()
        off[0, 0] = off[1, -1] = 0.0
        return exact(vw) + 1e-6 * exact(off)
    plan = dataclasses.replace(plan, _solve=solve)
    _, log = paraopt_solve(p, d, fine, coarse,
                           NewtonConfig(preconditioner=plan))
    assert log.converged and log.inner_solve == "reduced"
    assert log.fallback_steps == len(log.records) - 1 > 0


@pytest.mark.parametrize("objective", [TR, TC])
@pytest.mark.parametrize("stencil", [True, False])
def test_last_logged_residual_is_the_grid_residual(objective, stencil):
    """The solve iterates on A x + f(0) in the basis of its propagators;
    the norm it logs last is the grid residual of the trajectory it
    returns, on a stencil K and on its dense K."""
    p = make_heat_problem(4, 0.3, 2.0, objective)
    if not stencil:
        p = dataclasses.replace(p, K=bccb(p.K.column))
    d = make_decomposition(p, L=6, J_fine=5, J_coarse=1)
    variant = (Discretization.FDTO if objective is TC
               else Discretization.FOTD)
    fine = build_implicit_euler_propagator(p, d.DT, d.J_fine)
    coarse = build_implicit_euler_propagator(p, d.DT, 1, variant)
    assert (fine.basis is not None) == stencil
    x, log = paraopt_solve(p, d, fine, coarse, NewtonConfig())
    assert log.converged
    r = np.linalg.norm(matching_residual(fine, p, d, x))
    # rounding in A x + f(0) and in the moves between basis and grid is
    # of the size of the eps of r0, not of the small residual itself
    assert abs(r - log.records[-1].residual) <= 1e-14 * max(
        1.0, log.records[0].residual)


# (objective, coarse variant, method, alpha) of the plans in a Fourier basis
_SLICE_CASES = [
    (TR, Discretization.FOTD, InversionMethod.GENERAL, -1.0),
    (TC, Discretization.FOTD, InversionMethod.GENERAL, -1.0),
    (TC, Discretization.FDTO, InversionMethod.TRIANGULAR, 0.1),
    (TC, Discretization.FOTD, InversionMethod.TRIANGULAR, -0.5),
]


def _slice_space(make, case, n, L, black_box=False):
    objective, variant, method, alpha = case
    p = make(n, 0.05, 2.0, objective)
    d = make_decomposition(p, L=L, J_fine=2, J_coarse=1)
    coarse = build_implicit_euler_propagator(p, d.DT, 1, variant)
    plan = build_plan(coarse, d, alpha, method,
                      SmallSystemMethod.BLACK_BOX_ITERATIVE if black_box
                      else SmallSystemMethod.EXPLICIT_DIRECT)
    assert plan.basis is not None
    op = lambda v: apply_jacobian(coarse, objective, d, v)
    return p, d, coarse, plan, op


@settings(max_examples=60, deadline=None)
@given(make=st.sampled_from([make_heat_problem,
                             make_advection_diffusion_problem]),
       case=st.sampled_from(_SLICE_CASES), n=st.integers(3, 6),
       L=st.integers(2, 6), on_slices=st.booleans(),
       black_box=st.booleans(), seed=st.integers(0, 2**16))
def test_reduced_inner_solve_matches_flexible_gmres(make, case, n, L,
                                                    on_slices, black_box,
                                                    seed):
    """GMRES on T in the (1 + 2(M + s))-dimensional slice space takes the
    steps of flexible GMRES on (A_tilde, P(alpha)^{-1}) from the same b:
    the same count, residual history and correction, odd and even grids,
    heat and advection-diffusion, both objectives and both methods, with
    closed-form and (general method) black-box block solves; a b on the
    two slices alone (on_slices, and every b at L_hat = 1) has no b_hat."""
    black_box = black_box and case[2] is InversionMethod.GENERAL
    p, d, _, plan, op = _slice_space(make, case, n, L, black_box)
    b = real_data(plan.basis, np.random.default_rng(seed), 2 * d.L_hat)
    if on_slices:
        b[1:-1] = 0.0
    b = b.ravel()
    cfg = GmresConfig(rel_tolerance=1e-8)
    want, want_rep = gmres(op, b, precond=plan.apply_inverse, cfg=cfg)
    space = _SliceSpace(plan, op)
    assert space.exact
    got, rep = space.solve(b, cfg)
    assert rep.converged and rep.iterations == want_rep.iterations
    np.testing.assert_allclose(rep.residual_history,
                               want_rep.residual_history, rtol=0, atol=1e-10)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("make", [make_heat_problem,
                                  make_advection_diffusion_problem])
@pytest.mark.parametrize("case", _SLICE_CASES)
def test_slice_coupling_matches_dense_oracle(make, case):
    """The per-mode 2 x 2 blocks G, as a real map on the 2 (M + s)
    coordinates of the real view of the slices y_1 and lam_Lhat, are
    S^T (A_tilde P(alpha)^{-1} - I) S of the dense assemble_jacobian and
    assemble_P_alpha, at n = 4, self-conjugate imaginary slots included."""
    p, d, coarse, plan, op = _slice_space(make, case, 4, 5)
    Lh, m = d.L_hat, p.M + plan.basis.self_count
    At = assemble_jacobian(coarse, case[0], d)
    P = assemble_P_alpha(coarse, d, case[3])
    S = np.r_[0:m, (2 * Lh - 1) * m:2 * Lh * m]
    want = (At @ np.linalg.inv(P) - np.eye(2 * Lh * m))[np.ix_(S, S)]
    space = _SliceSpace(plan, op)
    got = np.column_stack([space._combine(space.G, e) for e in np.eye(2 * m)])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(make=st.sampled_from([make_heat_problem,
                             make_advection_diffusion_problem]),
       case=st.sampled_from(_SLICE_CASES), n=st.integers(3, 6),
       L=st.integers(2, 6), black_box=st.booleans(),
       seed=st.integers(0, 2**16))
def test_kept_columns_match_the_plan(make, case, n, L, black_box, seed):
    """Z, the columns of P(alpha)^{-1} for the slices y_1 and lam_Lhat
    kept from the probes, give P(alpha)^{-1} S s mode by mode for real data
    s on the two slices: odd and even grids, heat and advection-diffusion,
    both objectives and both methods, to 1e-14 relative for closed-form
    blocks and 1e-10 for black-box ones, which are solved to 1e-12 only.
    The self-conjugate imaginary slots of Z and of Z s are 0."""
    black_box = black_box and case[2] is InversionMethod.GENERAL
    p, d, _, plan, op = _slice_space(make, case, n, L, black_box)
    space = _SliceSpace(plan, op)
    s = real_data(plan.basis, np.random.default_rng(seed), 2)
    u = np.zeros((2 * d.L_hat, s.shape[1]))
    u[[0, -1]] = s
    want = plan.apply_inverse(u.ravel())
    got = space._combine(space.Z, s.ravel())
    rtol = 1e-10 if black_box else 1e-14
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)
    sc = plan.basis.self_count
    assert not space.Z[..., :sc].imag.any()
    assert not got.reshape(-1, p.M + sc)[:, 1:2 * sc:2].any()


@pytest.mark.parametrize("objective,fine,variant,method,alpha,L,want", [
    (TR, "ie", Discretization.FOTD, InversionMethod.GENERAL, -1.0, 101, 12),
    (TC, "exact", Discretization.FDTO, InversionMethod.TRIANGULAR, 0.1, 100,
     13),
])
def test_one_inverse_per_outer_step(monkeypatch, objective, fine, variant,
                                    method, alpha, L, want):
    """A solve in the slice space applies P(alpha)^{-1} to its two probes
    and then once per outer step whose b_hat is not 0, since delta comes
    from the probes' kept columns: 12 times in the preconditioned heat
    tracking solve at n=16, L=101, and 13 in the triangular terminal-cost
    solve with the exact fine propagator at n=16, L=100 (22 and 25 when
    delta took a second application)."""
    p = make_heat_problem(16, 0.05, 2.0, objective)
    d = make_decomposition(p, L=L, J_fine=10, J_coarse=1)
    fine_prop = (build_exact_propagator(p, d.DT) if fine == "exact" else
                 build_implicit_euler_propagator(p, d.DT, d.J_fine))
    coarse = build_implicit_euler_propagator(p, d.DT, 1, variant)
    plan = build_plan(coarse, d, alpha, method)
    calls = 0
    apply_inverse = PreconditionerPlan.apply_inverse

    def counted(self, v):
        nonlocal calls
        calls += 1
        return apply_inverse(self, v)
    monkeypatch.setattr(PreconditionerPlan, "apply_inverse", counted)
    _, log = paraopt_solve(p, d, fine_prop, coarse,
                           NewtonConfig(preconditioner=plan))
    assert log.converged and log.inner_solve == "reduced"
    assert log.fallback_steps == 0
    assert calls == want


@settings(max_examples=60, deadline=None)
@given(make=st.sampled_from([make_heat_problem,
                             make_advection_diffusion_problem]),
       case=st.sampled_from(_SLICE_CASES), n=st.integers(3, 6),
       L=st.integers(2, 5), black_box=st.booleans(),
       seed=st.integers(0, 2**16),
       residue=st.floats(allow_nan=False, allow_infinity=False).filter(
           lambda r: r != 0.0))
def test_real_data_in_real_data_out(make, case, n, L, black_box, seed,
                                    residue):
    """Real data have no imaginary part on the self-conjugate modes: those
    slots of the real view are exactly 0 in what coefficients,
    apply_jacobian, apply_inverse and _SliceSpace._combine return, odd and
    even grids, heat and advection-diffusion, spectral general and
    triangular and black-box plans. apply_inverse refuses a finite nonzero
    one with ValueError, as it refuses complex input, and leaves a
    non-finite one to the solve's finiteness checks."""
    black_box = black_box and case[2] is InversionMethod.GENERAL
    p, d, _, plan, op = _slice_space(make, case, n, L, black_box)
    s = plan.basis.self_count
    slots = lambda v: v.reshape(-1, p.M + s)[:, 1:2 * s:2]
    rng = np.random.default_rng(seed)
    v = real_data(plan.basis, rng, 2 * d.L_hat).ravel()
    space = _SliceSpace(plan, op)
    for out in (v, op(v), plan.apply_inverse(v),
                space._combine(space.G, real_data(plan.basis, rng, 2).ravel())):
        assert not slots(out).any()
    row, mode = rng.integers(2 * d.L_hat), rng.integers(s)
    slots(v)[row, mode] = residue
    with pytest.raises(ValueError, match="not real data"):
        plan.apply_inverse(v)
    slots(v)[row, mode] = np.nan
    with np.errstate(all="ignore"):
        try:
            plan.apply_inverse(v)
        except FloatingPointError:  # a black-box block's GMRES refuses it
            pass
