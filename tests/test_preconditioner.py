import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraopt_kit import preconditioner
from paraopt_kit.analysis import assemble_block_system
from paraopt_kit.core import NewtonConfig, assemble_jacobian, paraopt_solve
from paraopt_kit.preconditioner import (
    InversionMethod,
    SmallSystemMethod,
    _gamma_diag,
    alpha_circulant_eigenvalues,
    assemble_P_alpha,
    build_plan,
    solve_block_blackbox,
)
from paraopt_kit.problem import (
    Discretization,
    LinearControlProblem,
    ObjectiveKind,
    make_advection_diffusion_problem,
    make_decomposition,
    make_heat_problem,
)
from paraopt_kit.propagators import (
    build_implicit_euler_propagator,
    dense_maps,
    linear_action,
)
from test_propagators import bccb, real_data

TR = ObjectiveKind.TRACKING
TC = ObjectiveKind.TERMINAL_COST


def tracking_setup(L=6, M=2, J_coarse=1):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((M, M))
    K = A @ A.T + M * np.eye(M)
    p = LinearControlProblem(K=K, gamma=0.4, T=3.0,
                             y_init=rng.standard_normal(M), objective=TR,
                             y_d=lambda t: np.full(M, 1.0 + t))
    d = make_decomposition(p, L=L, J_fine=4, J_coarse=J_coarse)
    coarse = build_implicit_euler_propagator(p, d.DT, J_coarse)
    return p, d, coarse


def terminal_setup(L=5, M=2):
    rng = np.random.default_rng(6)
    A = rng.standard_normal((M, M))
    K = A @ A.T + M * np.eye(M)
    p = LinearControlProblem(K=K, gamma=0.4, T=2.5,
                             y_init=rng.standard_normal(M), objective=TC,
                             y_target=rng.standard_normal(M))
    d = make_decomposition(p, L=L, J_fine=4, J_coarse=1)
    coarse = build_implicit_euler_propagator(p, d.DT, 1)
    return p, d, coarse


class TestCirculantEigenvalues:
    @pytest.mark.parametrize("L_hat", [1, 2, 3, 7])
    @pytest.mark.parametrize("alpha", [-1.0, 0.01, 0.3 + 0.4j])
    def test_matches_dense_spectrum(self, L_hat, alpha):
        C = np.zeros((L_hat, L_hat), dtype=complex)
        for l in range(1, L_hat):
            C[l, l - 1] = -1.0
        C[0, L_hat - 1] = -alpha
        got = alpha_circulant_eigenvalues(L_hat, alpha)
        want = np.linalg.eigvals(C)
        # compare as multisets: conjugate pairs defeat lexicographic sorting
        dist = np.abs(got[:, None] - want[None, :])
        assert dist.min(axis=1).max() < 1e-10
        assert dist.min(axis=0).max() < 1e-10

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            alpha_circulant_eigenvalues(4, 0.0)

    # L_hat = 0 used to raise IndexError, a NaN alpha to return NaNs, and
    # an infinite one to emit a RuntimeWarning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("L_hat,alpha,message", [
        (0, -1.0, "L_hat must be at least 1, got 0"),
        (-1, -1.0, "L_hat must be at least 1, got -1"),
        (4, np.nan, "alpha must be finite, got nan"),
        (4, np.inf, "alpha must be finite, got inf"),
        (4, -np.inf, "alpha must be finite, got -inf"),
        (4, complex(0.6, np.nan), "alpha must be finite, got (0.6+nanj)")])
    def test_bad_input_rejected(self, L_hat, alpha, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            alpha_circulant_eigenvalues(L_hat, alpha)


class TestBuildPlanValidation:
    def test_general_needs_unit_modulus(self):
        _, d, coarse = tracking_setup()
        with pytest.raises(ValueError):
            build_plan(coarse, d, 0.5, InversionMethod.GENERAL)

    def test_triangular_needs_no_Q_feedback(self):
        _, d, coarse = tracking_setup()
        with pytest.raises(ValueError):
            build_plan(coarse, d, 0.01, InversionMethod.TRIANGULAR)

    @pytest.mark.parametrize("setup,method", [
        (tracking_setup, InversionMethod.GENERAL),
        (terminal_setup, InversionMethod.TRIANGULAR)])
    def test_non_real_alpha_rejected(self, setup, method):
        _, d, coarse = setup()
        with pytest.raises(ValueError, match="alpha must be real"):
            build_plan(coarse, d, 0.6 + 0.8j, method)

    # such a plan used to be built, with RuntimeWarnings in its build or
    # its first application on heat n = 4, and the solve aborted on a
    # non-finite GMRES operator output
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method,alpha", [
        (InversionMethod.GENERAL, np.nan), (InversionMethod.GENERAL, np.inf),
        (InversionMethod.TRIANGULAR, np.nan),
        (InversionMethod.TRIANGULAR, np.inf),
        (InversionMethod.TRIANGULAR, -np.inf)])
    def test_non_finite_alpha_rejected(self, method, alpha):
        p = make_heat_problem(4, 0.05, 2.0, TC)
        d = make_decomposition(p, L=4, J_fine=2, J_coarse=1)
        coarse = build_implicit_euler_propagator(p, d.DT, 1)
        with pytest.raises(ValueError, match="alpha must be finite"):
            build_plan(coarse, d, alpha, method)

    def test_triangular_accepts_terminal_cost(self):
        _, d, coarse = terminal_setup()
        plan = build_plan(coarse, d, 0.01, InversionMethod.TRIANGULAR)
        assert plan.L_hat == d.L_hat

    # terminal cost at alpha = 1: d_0 = -1, and Phi_P = 1 at the mean mode,
    # so I + d_0 Phi_P is singular at frequency l = 0
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", list(InversionMethod))
    def test_singular_spectral_block_rejected(self, method):
        p = make_heat_problem(4, 0.05, 2.0, TC)
        d = make_decomposition(p, L=3, J_fine=2, J_coarse=1)
        coarse = build_implicit_euler_propagator(p, d.DT, 1)
        with pytest.raises(ValueError, match=r"singular: the block of "
                           r"frequency l = 0 .* at mode k = \(0, 0\)"):
            build_plan(coarse, d, 1.0, method)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", list(InversionMethod))
    def test_singular_lu_block_rejected(self, method):
        # the same problem on its dense K; at DT = 1/32 the dense build
        # keeps the eigenvalue 1 of Phi_P exact, so the block is exactly
        # singular, and its reciprocal condition number is 0 (at T = 2,
        # L = 3 it is small but not zero, as the next test shows)
        p = make_heat_problem(4, 0.05, 0.125, TC)
        p = dataclasses.replace(p, K=bccb(p.K.column))
        d = make_decomposition(p, L=4, J_fine=2, J_coarse=1)
        coarse = build_implicit_euler_propagator(p, d.DT, 1)
        assert coarse.basis is None
        with pytest.raises(ValueError, match=r"singular: the block of "
                           r"frequency l = 0 .* reciprocal condition number"):
            build_plan(coarse, d, 1.0, method)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", list(InversionMethod))
    def test_lu_block_singular_to_rounding_rejected(self, method):
        # at T = 2, L = 3 the dense build rounds the eigenvalue 1 of Phi_P,
        # and the block's reciprocal condition number is 1.7e-33 (general)
        # or 3.2e-16 (triangular), not zero. The solve used to run 5 outer
        # steps of 1000 inner ones and abort
        p = make_heat_problem(4, 0.05, 2.0, TC)
        p = dataclasses.replace(p, K=bccb(p.K.column))
        d = make_decomposition(p, L=3, J_fine=10, J_coarse=1)
        coarse = build_implicit_euler_propagator(p, d.DT, 1)
        with pytest.raises(ValueError, match=r"singular: the block of "
                           r"frequency l = 0 .* reciprocal condition number"):
            build_plan(coarse, d, 1.0, method)


class TestApplyInverse:
    @pytest.mark.parametrize("small", [SmallSystemMethod.EXPLICIT_DIRECT,
                                       SmallSystemMethod.BLACK_BOX_ITERATIVE])
    @pytest.mark.parametrize("J_coarse", [1, 2])
    def test_general_matches_dense_tracking(self, small, J_coarse):
        p, d, coarse = tracking_setup(J_coarse=J_coarse)
        plan = build_plan(coarse, d, -1.0, InversionMethod.GENERAL, small)
        # a random SPD K is not BCCB, so its blocks are LU-factorized
        assert plan.blocks == (
            "black_box" if small is SmallSystemMethod.BLACK_BOX_ITERATIVE
            else "lu")
        P = assemble_P_alpha(coarse, d, -1.0)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(2 * d.L_hat * p.M)
        x = plan.apply_inverse(v)
        assert np.linalg.norm(P @ x - v) <= 1e-10 * np.linalg.norm(v)

    def test_general_matches_dense_terminal(self):
        p, d, coarse = terminal_setup()
        plan = build_plan(coarse, d, -1.0, InversionMethod.GENERAL)
        P = assemble_P_alpha(coarse, d, -1.0)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(2 * d.L_hat * p.M)
        x = plan.apply_inverse(v)
        assert np.linalg.norm(P @ x - v) <= 1e-10 * np.linalg.norm(v)

    @pytest.mark.parametrize("alpha", [0.01, 0.2, -0.05])
    def test_triangular_matches_dense(self, alpha):
        p, d, coarse = terminal_setup()
        plan = build_plan(coarse, d, alpha, InversionMethod.TRIANGULAR)
        P = assemble_P_alpha(coarse, d, alpha)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(2 * d.L_hat * p.M)
        x = plan.apply_inverse(v)
        assert np.linalg.norm(P @ x - v) <= 1e-10 * np.linalg.norm(v)

    # np.linalg.cond inverted every stack a second time; it now runs only
    # to name an exactly singular block
    @pytest.mark.parametrize("setup,method,alpha", [
        (tracking_setup, InversionMethod.GENERAL, -1.0),
        (terminal_setup, InversionMethod.TRIANGULAR, 0.01)])
    def test_dense_plan_inverts_once(self, monkeypatch, setup, method,
                                     alpha):
        p, d, coarse = setup()

        def no_cond(*args, **kwargs):
            raise AssertionError("np.linalg.cond was called")
        monkeypatch.setattr(np.linalg, "cond", no_cond)
        plan = build_plan(coarse, d, alpha, method)
        assert plan.blocks == "lu"
        P = assemble_P_alpha(coarse, d, alpha)
        v = np.random.default_rng(3).standard_normal(2 * d.L_hat * p.M)
        x = plan.apply_inverse(v)
        assert np.linalg.norm(P @ x - v) <= 1e-10 * np.linalg.norm(v)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_linearity(self, seed):
        p, d, coarse = tracking_setup()
        plan = build_plan(coarse, d, -1.0, InversionMethod.GENERAL)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(2 * d.L_hat * p.M)
        v = rng.standard_normal(2 * d.L_hat * p.M)
        a, b = rng.standard_normal(2)
        lhs = plan.apply_inverse(a * u + b * v)
        rhs = a * plan.apply_inverse(u) + b * plan.apply_inverse(v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11 * np.linalg.norm(rhs))


    @pytest.mark.parametrize("make", [make_heat_problem,
                                      make_advection_diffusion_problem])
    def test_real_input_keeps_conjugate_pairs(self, make):
        # at n = 16 numpy's fft2 of real data misses Hermitian symmetry in
        # the last bit, and P(1e-30)^{-1} amplified that into an imaginary
        # residue of 0.4 (heat) and 0.6 (advection) of the result; the half
        # spectrum holds each conjugate pair as one mode
        p = make(16, 0.05, 2.0, TC)
        d = make_decomposition(p, L=11, J_fine=10, J_coarse=1)
        coarse = build_implicit_euler_propagator(p, d.DT, 1)
        plan = build_plan(coarse, d, 1e-30, InversionMethod.TRIANGULAR)
        assert plan.blocks == "spectral"
        v = real_data(plan.basis, np.random.default_rng(0), 2 * d.L_hat)
        x = plan.apply_inverse(v.ravel())
        assert x.dtype == np.float64 and np.all(np.isfinite(x))


def _numpy1_layout(fft):
    """fft (or ifft) as numpy 1.x returns a transform along an axis other
    than the last: a C-ordered transform of the axis swapped to last,
    swapped back, so that the last axis of the result is not contiguous."""
    def transform(a, n=None, axis=-1, norm=None):
        out = fft(np.swapaxes(a, axis, -1), n=n, axis=-1, norm=norm)
        return np.swapaxes(np.ascontiguousarray(out), axis, -1)
    return transform


@pytest.mark.parametrize("make", [make_heat_problem,
                                  make_advection_diffusion_problem])
@pytest.mark.parametrize("objective,method,small", [
    (TR, InversionMethod.GENERAL, SmallSystemMethod.EXPLICIT_DIRECT),
    (TC, InversionMethod.TRIANGULAR, SmallSystemMethod.EXPLICIT_DIRECT),
    (TR, InversionMethod.GENERAL, SmallSystemMethod.BLACK_BOX_ITERATIVE)])
def test_apply_inverse_ignores_fft_layout(monkeypatch, make, objective,
                                          method, small):
    """The real view of P(alpha)^{-1} v does not depend on the memory
    layout of the FFTs in time, which differs between numpy 1.x and 2:
    with real Psi_P eigenvalues (heat) the triangular coupling scales the
    real view of z, which needs a contiguous last axis."""
    p = make(4, 0.05, 2.0, objective)
    d = make_decomposition(p, L=5, J_fine=2, J_coarse=1)
    coarse = build_implicit_euler_propagator(p, d.DT, 1)
    alpha = 0.1 if method is InversionMethod.TRIANGULAR else -1.0
    plan = build_plan(coarse, d, alpha, method, small)
    v = real_data(plan.basis, np.random.default_rng(3), 2 * d.L_hat).ravel()
    want = plan.apply_inverse(v)
    monkeypatch.setattr(np.fft, "fft", _numpy1_layout(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", _numpy1_layout(np.fft.ifft))
    np.testing.assert_allclose(plan.apply_inverse(v), want, rtol=0,
                               atol=1e-12 * np.linalg.norm(want))


class TestRealData:
    """P(alpha) is real, so apply_inverse takes real data only, and an
    imaginary part in its result beyond rounding aborts. A plan built
    with the Gamma of alpha = i is not P(alpha)^{-1} of a real alpha: its
    results are complex."""

    @staticmethod
    def heat_spectral():
        p = make_heat_problem(4, 0.05, 2.0, TR)
        d = make_decomposition(p, L=3, J_fine=2, J_coarse=1)
        fine = build_implicit_euler_propagator(p, d.DT, 2)
        coarse = build_implicit_euler_propagator(p, d.DT, 1)
        return p, d, fine, coarse

    @staticmethod
    def dense_lu():
        p, d, coarse = tracking_setup(M=3)
        return p, d, build_implicit_euler_propagator(p, d.DT, 4), coarse

    @pytest.mark.parametrize("setup,blocks", [("heat_spectral", "spectral"),
                                              ("dense_lu", "lu")])
    def test_imaginary_residue_aborts(self, monkeypatch, setup, blocks):
        p, d, fine, coarse = getattr(self, setup)()
        with monkeypatch.context() as m:
            m.setattr(preconditioner, "_gamma_diag",
                      lambda L_hat, alpha: _gamma_diag(L_hat, 1j))
            plan = build_plan(coarse, d, -1.0, InversionMethod.GENERAL)
        assert plan.blocks == blocks
        rng = np.random.default_rng(0)
        v = (rng.standard_normal(2 * d.L_hat * p.M) if plan.basis is None
             else real_data(plan.basis, rng, 2 * d.L_hat).ravel())
        with pytest.raises(FloatingPointError, match="imaginary residue"):
            plan.apply_inverse(v)
        _, log = paraopt_solve(p, d, fine, coarse,
                               NewtonConfig(preconditioner=plan))
        assert log.aborted.startswith(
            "inner solver failure: imaginary residue")
        assert not log.converged

    def test_complex_input_rejected(self):
        p, d, _, coarse = self.heat_spectral()
        plan = build_plan(coarse, d, -1.0, InversionMethod.GENERAL)
        v = np.ones(2 * d.L_hat * (p.M + plan.basis.self_count), complex)
        with pytest.raises(ValueError, match="v must be real.*complex128"):
            plan.apply_inverse(v)


def _random_K(kind, M, rng):
    """Small K of one kind: "spd" and "normal" (SPD plus a commuting skew
    part, complex eigenvectors) have well-separated eigenvalues; "nonnormal"
    is SPD plus a random skew part."""
    Q, _ = np.linalg.qr(rng.standard_normal((M, M)))
    if kind == "spd":
        return Q @ np.diag(1.0 + 1.5 * np.arange(M)) @ Q.T
    if kind == "normal":  # 2 x 2 blocks [[a, b], [-b, a]] rotated by Q
        B = np.diag(1.0 + 1.5 * (np.arange(M) // 2))
        for k in range(0, M - 1, 2):
            B[k, k + 1], B[k + 1, k] = 0.7 + k, -(0.7 + k)
        return Q @ B @ Q.T
    A = rng.standard_normal((M, M))
    S = rng.standard_normal((M, M))
    return A @ A.T + M * np.eye(M) + (S - S.T)


# (objective, coarse variant, method, alpha)
_PLAN_CASES = [(TR, Discretization.FOTD, InversionMethod.GENERAL, -1.0)] + [
    (TC, variant, InversionMethod.GENERAL, -1.0)
    for variant in Discretization] + [
    (TC, variant, InversionMethod.TRIANGULAR, alpha)
    for variant in Discretization for alpha in (0.01, -0.05, 0.3)]


_GRID_PROBLEMS = {"heat": make_heat_problem,
                  "advection": make_advection_diffusion_problem}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["spd", "normal", "heat", "advection",
                             "nonnormal"]),
       case=st.sampled_from(_PLAN_CASES), M=st.integers(2, 4),
       J_coarse=st.integers(1, 3), L=st.integers(2, 5),
       black_box=st.booleans(), seed=st.integers(0, 2**16))
def test_apply_inverse_matches_dense_oracle(kind, case, M, J_coarse, L,
                                            black_box, seed):
    """The spectral path of a BCCB K (heat, and advection-diffusion with
    its complex eigenvalues), on the real view of the half spectrum of the
    Fourier basis, and the LU path of any other K, normal or not, on the
    grid, all checked against the dense P(alpha) in the basis of the coarse
    propagator; the black-box path of the general method in either basis
    too."""
    objective, variant, method, alpha = case
    rng = np.random.default_rng(seed)
    if kind in _GRID_PROBLEMS:  # n = 3 or 4 periodic grid, a stencil
        K = _GRID_PROBLEMS[kind](M // 2 + 2, 0.1, 1.0, TR).K
        M = K.column.size
    else:
        K = _random_K(kind, M, rng)
    p = LinearControlProblem(K=K, gamma=0.3, T=2.0,
                             y_init=rng.standard_normal(M),
                             objective=objective,
                             y_d=lambda t: np.full(M, 1.0 + t),
                             y_target=rng.standard_normal(M))
    d = make_decomposition(p, L=L, J_fine=4, J_coarse=J_coarse)
    coarse = build_implicit_euler_propagator(p, d.DT, J_coarse, variant)
    black_box = black_box and method is InversionMethod.GENERAL
    plan = build_plan(coarse, d, alpha, method,
                      SmallSystemMethod.BLACK_BOX_ITERATIVE if black_box
                      else SmallSystemMethod.EXPLICIT_DIRECT)
    assert plan.blocks == ("black_box" if black_box else
                           "spectral" if kind in _GRID_PROBLEMS else "lu")
    assert (plan.basis is None) == (kind not in _GRID_PROBLEMS)
    v = (rng.standard_normal(2 * d.L_hat * M) if plan.basis is None
         else real_data(plan.basis, rng, 2 * d.L_hat).ravel())
    x = plan.apply_inverse(v)
    P = assemble_P_alpha(coarse, d, alpha)
    assert np.linalg.norm(P @ x - v) <= 1e-10 * np.linalg.norm(v)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["spd", "normal", "nonnormal"]),
       objective=st.sampled_from([TR, TC]),
       alpha=st.sampled_from([-1.0, 1.0, 0.1]),
       M=st.integers(2, 4), J_coarse=st.integers(1, 3), L=st.integers(2, 5),
       fdto=st.booleans(), seed=st.integers(0, 2**16))
def test_P_alpha_differs_from_jacobian_in_corners_only(
        kind, objective, alpha, M, J_coarse, L, fdto, seed):
    """P(alpha) - A_tilde is -alpha Phi_P at state block (1, L_hat) and
    -conj(alpha) Phi_Q at adjoint block (L_hat, 1), plus, for terminal cost,
    +I where A_tilde has its corner (adjoint row L_hat, state column L_hat);
    zero everywhere else."""
    rng = np.random.default_rng(seed)
    K = _random_K(kind, M, rng)
    p = LinearControlProblem(K=K, gamma=0.3, T=2.0,
                             y_init=rng.standard_normal(M),
                             objective=objective,
                             y_d=lambda t: np.full(M, 1.0 + t),
                             y_target=rng.standard_normal(M))
    d = make_decomposition(p, L=L, J_fine=4, J_coarse=J_coarse)
    variant = (Discretization.FDTO if fdto and objective is TC
               else Discretization.FOTD)
    coarse = build_implicit_euler_propagator(p, d.DT, J_coarse, variant)
    Lh = d.L_hat
    diff = (assemble_P_alpha(coarse, d, alpha)
            - assemble_jacobian(coarse, objective, d))
    want = np.zeros_like(diff)
    y = lambda l: slice((l - 1) * M, l * M)                # state block l
    lam = lambda l: slice((Lh + l - 1) * M, (Lh + l) * M)  # adjoint block l
    Phi_P, _, Phi_Q, _ = dense_maps(coarse)
    want[y(1), y(Lh)] -= alpha * Phi_P
    want[lam(Lh), lam(1)] -= np.conj(alpha) * Phi_Q
    if objective is TC:
        want[lam(Lh), y(Lh)] += np.eye(M)
    np.testing.assert_allclose(diff, want, rtol=0, atol=1e-14)


class TestBlockSolvers:
    def test_blackbox_matches_direct(self):
        _, d, coarse = tracking_setup(J_coarse=2)
        d_l = -0.3 + 0.7j
        # the frequency block H_l is the one-interval P(-d_l)
        H = assemble_block_system(dense_maps(coarse), 1, coarse.objective,
                                  alpha=-d_l)
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal(2 * coarse.M) + 1j * rng.standard_normal(
            2 * coarse.M)
        got = solve_block_blackbox(*linear_action(coarse), d_l, rhs)
        np.testing.assert_allclose(H @ got, rhs, atol=1e-9)


class TestEigenvalueClustering:
    @pytest.mark.parametrize("setup,method,alpha", [
        (tracking_setup, InversionMethod.GENERAL, -1.0),
        (terminal_setup, InversionMethod.GENERAL, -1.0),
        (terminal_setup, InversionMethod.TRIANGULAR, 0.01),
    ])
    def test_at_most_2M_eigenvalues_leave_one(self, setup, method, alpha):
        p, d, coarse = setup()
        P = assemble_P_alpha(coarse, d, alpha)
        At = assemble_jacobian(coarse, p.objective, d)
        S = np.linalg.solve(P, At.astype(complex))
        ev = np.linalg.eigvals(S)
        assert np.sum(np.abs(ev - 1.0) > 1e-8) <= 2 * p.M
