import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paraopt_kit.analysis import implicit_euler_maps
from paraopt_kit.problem import (
    LinearControlProblem,
    ObjectiveKind,
    make_heat_problem,
    make_scalar_problem,
)
from paraopt_kit.propagators import (
    Discretization,
    _coupled_system,
    build_exact_propagator,
    build_implicit_euler_propagator,
    extract_phi_psi_scalar,
    linear_action,
)

TR = ObjectiveKind.TRACKING
TC = ObjectiveKind.TERMINAL_COST


def refined_solve(A, R):
    """np.linalg.solve plus one refinement step with the residual formed in
    extended precision. A plain solve errs by about eps times the whole
    solution, which swamps the small Phi_P block of a many-step map (seed
    8412, M=3, J=10, L=2 missed 1e-12 relative by 1.6x); refined, the oracle
    agrees with a 50-digit solve to about 1e-15 relative per block."""
    x = np.linalg.solve(A, R)
    ld = np.longdouble
    r = R.astype(ld) - A.astype(ld) @ x.astype(ld)
    return x + np.linalg.solve(A, r.astype(float))


def propagate(prop, l, y_prev, lam_next):
    """Reference: (P, Q) on sub-interval l (1-based), one interval at a time."""
    y_next = prop.Phi_P @ y_prev - prop.Psi_P @ lam_next + prop.b_P[l - 1]
    lam_prev = prop.Psi_Q @ y_prev + prop.Phi_Q @ lam_next + prop.b_Q[l - 1]
    return y_next, lam_prev


def van_loan_offsets(K, gamma, DT, L, y_d):
    """Oracle: exact tracking offsets for y_d affine on each sub-interval,
    from the exponential of the state/adjoint matrix augmented with the
    source (Van Loan, IEEE TAC 1978). The source g*(a + s b) is driven by
    the augmented states (1, s), so expm gives the full transition
    z(DT) = E z(0) + f, which is then solved for the boundary maps."""
    M = K.shape[0]
    g = 1.0 / np.sqrt(gamma)
    b_P, b_Q = np.zeros((2, L, M))
    for l in range(L):
        a = y_d(l * DT)
        b = (y_d((l + 1) * DT) - a) / DT
        A = np.zeros((2 * M + 2, 2 * M + 2))
        A[:M, :M], A[:M, M:2 * M] = -K, -g * np.eye(M)
        A[M:2 * M, :M], A[M:2 * M, M:2 * M] = -g * np.eye(M), K
        A[M:2 * M, 2 * M], A[M:2 * M, 2 * M + 1] = g * a, g * b
        A[2 * M + 1, 2 * M] = 1.0  # (1, s)' = (0, 1)
        E = scipy.linalg.expm(A * DT)
        f = E[:2 * M, 2 * M]  # z(DT) for z(0) = 0
        # y(0) = 0 and lam(DT) = 0 fix lam(0) = -E_22^-1 f_lam
        lam0 = -np.linalg.solve(E[M:2 * M, M:2 * M], f[M:])
        b_P[l] = f[:M] + E[:M, M:2 * M] @ lam0
        b_Q[l] = lam0
    return b_P, b_Q


def small_tracking_problem():
    K = np.array([[2.0, -0.5], [-0.5, 1.0]])
    return LinearControlProblem(K=K, gamma=0.3, T=2.0,
                                y_init=np.array([1.0, -0.4]), objective=TR,
                                y_d=lambda t: np.array([np.sin(t), 1.0 + t]))


class TestImplicitEulerBuild:
    def test_tracking_fdto_rejected(self):
        p = small_tracking_problem()
        with pytest.raises(ValueError):
            build_implicit_euler_propagator(p, 0.5, 2, Discretization.FDTO)

    def test_DT_must_divide_horizon(self):
        p = small_tracking_problem()
        with pytest.raises(ValueError):
            build_implicit_euler_propagator(p, 0.7, 2)

    def test_tracking_shares_blocks(self):
        p = small_tracking_problem()
        prop = build_implicit_euler_propagator(p, 0.5, 3)
        np.testing.assert_allclose(prop.Phi_P, prop.Phi_Q.T, atol=1e-13)
        np.testing.assert_allclose(prop.Psi_P, prop.Psi_Q.T, atol=1e-13)

    def test_terminal_cost_has_no_Q_feedback(self):
        p = make_scalar_problem(2.0, 0.5, 2.0, TC)
        for variant in (Discretization.FOTD, Discretization.FDTO):
            prop = build_implicit_euler_propagator(p, 0.5, 3, variant)
            assert np.linalg.norm(prop.Psi_Q) == 0.0

    def test_eigen_coefficients_match_scalar_oracle(self):
        p = small_tracking_problem()
        DT, J = 0.5, 4
        prop = build_implicit_euler_propagator(p, DT, J)
        w, Q = np.linalg.eigh(p.K)
        for i, sigma in enumerate(w):
            phi, psi = extract_phi_psi_scalar(sigma, p.gamma, DT / J, J, TR)
            v = Q[:, i]
            assert v @ prop.Phi_P @ v == pytest.approx(phi, abs=1e-12)
            assert v @ prop.Psi_P @ v == pytest.approx(psi, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), M=st.integers(1, 4),
           J=st.integers(1, 10), L=st.integers(2, 5))
    @example(seed=8412, M=3, J=10, L=2)
    def test_composed_steps_match_dense_oracle(self, seed, M, J, L):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((M, M))
        S = rng.standard_normal((M, M))
        K = B @ B.T + 0.1 * np.eye(M) + (S - S.T)  # SPD plus skew: non-normal
        gamma = 10.0 ** rng.uniform(-2, 1)
        T = rng.uniform(0.5, 3.0)
        DT, tau = T / L, T / (L * J)
        w, v = rng.standard_normal(M), rng.standard_normal(M)
        y_d = lambda t: np.sin(3.0 * t * w + v) + t * t * v
        for obj, variant in [(TR, Discretization.FOTD),
                             (TC, Discretization.FOTD),
                             (TC, Discretization.FDTO)]:
            p = LinearControlProblem(K=K, gamma=gamma, T=T, y_init=np.ones(M),
                                     objective=obj, y_target=np.ones(M),
                                     y_d=y_d)
            prop = build_implicit_euler_propagator(p, DT, J, variant)
            A, R = _coupled_system(K, gamma, tau, J, obj, variant)
            yJ, lam0 = slice(M * (J - 1), M * J), slice(M * J, M * (J + 1))
            sol = refined_solve(A, R)
            ref = {"Phi_P": sol[yJ, :M], "Psi_P": -sol[yJ, M:],
                   "Psi_Q": sol[lam0, :M], "Phi_Q": sol[lam0, M:]}
            if obj is TR:  # y_d at the left end of each step, on every interval
                rhs = np.zeros((2 * M * J, L))
                for l in range(L):
                    rhs[M * J:, l] = np.concatenate(
                        [y_d(l * DT + j * tau) for j in range(J)])
                sol = refined_solve(A, -tau / np.sqrt(gamma) * rhs)
                ref["b_P"], ref["b_Q"] = sol[yJ].T, sol[lam0].T
            for name, want in ref.items():
                got = getattr(prop, name)
                scale = np.linalg.norm(want) or np.linalg.norm(ref["Phi_P"])
                assert np.linalg.norm(got - want) <= 1e-12 * scale, name


class TestExactBuild:
    def test_requires_symmetric_K(self):
        K = np.array([[1.0, 1.0], [0.0, 1.0]])
        p = LinearControlProblem(K=K, gamma=1.0, T=1.0, y_init=np.zeros(2),
                                 objective=TC, y_target=np.zeros(2))
        with pytest.raises(ValueError):
            build_exact_propagator(p, 0.5)

    def test_requires_symmetric_K_whose_norm_overflows(self):
        # the K of test_requires_symmetric_K times 1e200: its Frobenius norm
        # overflows to inf, and the unscaled test ||K - K^T|| > 1e-12 ||K||
        # never fired, so eigh read the lower triangle only and gave Phi = 0
        K = 1e200 * np.array([[1.0, 1.0], [0.0, 1.0]])
        p = LinearControlProblem(K=K, gamma=1.0, T=1.0, y_init=np.zeros(2),
                                 objective=TC, y_target=np.zeros(2))
        with pytest.raises(ValueError, match="symmetric"):
            build_exact_propagator(p, 0.5)

    @pytest.mark.parametrize("objective", [TR, TC])
    def test_implicit_euler_converges_first_order(self, objective):
        # for tracking the offsets too: their J -> infinity limit is a second
        # oracle for the exact ones, independent of the closed form
        targets = [lambda t: 1.0, lambda t: 1.0 + t]
        for y_d in targets if objective is TR else [None]:
            p = make_scalar_problem(1.0, 1.0, 1.0, objective, y_d=y_d)
            exact = build_exact_propagator(p, 1.0)
            errs = []
            for J in (64, 128):
                ie = build_implicit_euler_propagator(p, 1.0, J)
                errs.append([abs(ie.Phi_P[0, 0] - exact.Phi_P[0, 0])
                             + abs(ie.Psi_P[0, 0] - exact.Psi_P[0, 0]),
                             abs(ie.b_P[0, 0] - exact.b_P[0, 0]),
                             abs(ie.b_Q[0, 0] - exact.b_Q[0, 0])])
            if objective is TC:  # no offsets
                errs = [e[:1] for e in errs]
            for e64, e128 in zip(*errs):
                assert e128 == pytest.approx(e64 / 2, rel=0.1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), M=st.integers(1, 4),
           L=st.integers(2, 5), norm_K=st.floats(0.01, 5.0),
           gamma=st.floats(0.1, 10.0), T=st.floats(0.5, 2.0))
    def test_tracking_offsets_match_van_loan(self, seed, M, L, norm_K, gamma,
                                             T):
        # the ranges keep s = DT*sqrt(sigma^2 + 1/gamma) <= 6: the oracle
        # solves with a block of expm growing like exp(s) and loses digits
        # beyond (3.9e-13 at s = 8.9). The closed form has its own limit at
        # small DT/sqrt(gamma): its O(|y_d|) particular solution cancels to
        # the O(DT/sqrt(gamma)) offsets, 2.4e-13 relative at T = 0.5, L = 5,
        # gamma = 10; b_P alone, which is smaller still, is compared through
        # the norm of both offsets, the vector the residual carries
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((M, M))
        K = B @ B.T + 0.1 * np.eye(M)
        K *= norm_K / np.linalg.norm(K, 2)  # SPD
        a, b = rng.standard_normal((2, M))
        y_d = lambda t: a + t * b
        DT = T / L
        p = LinearControlProblem(K=K, gamma=gamma, T=T, y_init=np.ones(M),
                                 objective=TR, y_d=y_d)
        prop = build_exact_propagator(p, DT)
        want = np.hstack(van_loan_offsets(K, gamma, DT, L, y_d))
        got = np.hstack([prop.b_P, prop.b_Q])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        tc = build_exact_propagator(
            LinearControlProblem(K=K, gamma=gamma, T=T, y_init=np.ones(M),
                                 objective=TC, y_target=np.ones(M)), DT)
        assert not tc.b_P.any() and not tc.b_Q.any()

    def test_non_affine_target_rejected(self):
        # y_d contains sin t, which no affine particular solution follows
        with pytest.raises(ValueError, match="affine"):
            build_exact_propagator(small_tracking_problem(), 0.5)

    @pytest.mark.parametrize("case", ["heat_terminal_cost", "scalar_tracking"])
    def test_large_sigma_hat_stays_finite(self, case):
        if case == "heat_terminal_cost":
            # n = 16, L = 3: sigma_hat reaches about 1700
            prop = build_exact_propagator(
                make_heat_problem(16, 0.05, 2.0, TC), 2.0 / 3.0)
        else:
            # sigma_hat = 800, past the overflow of cosh and sinh
            prop = build_exact_propagator(
                make_scalar_problem(800.0, 1.0, 2.0, TR), 1.0)
        for block in (prop.Phi_P, prop.Psi_P, prop.Phi_Q, prop.Psi_Q):
            assert np.all(np.isfinite(block))
        assert np.linalg.norm(prop.Psi_P) > 0.0

    @pytest.mark.parametrize("objective", [TR, TC])
    def test_vanishing_eigenvalue_builds(self, objective):
        p = make_scalar_problem(1e-20, 1.0, 1.0, objective)
        prop = build_exact_propagator(p, 0.5)
        assert prop.Phi_P[0, 0] <= 1.0
        assert np.isfinite(prop.Psi_P[0, 0]) and prop.Psi_P[0, 0] > 0.0


class TestPropagate:
    def test_linear_action_matches_propagate(self):
        # the tracking offsets are nonzero, so this checks they are dropped
        p = small_tracking_problem()
        prop = build_implicit_euler_propagator(p, 0.5, 2)
        P, Q = linear_action(prop)
        y0 = np.array([0.3, -1.2])
        lam = np.array([0.5, 0.1])
        zero = np.zeros(2)
        for l in (1, 3):
            yJ, lam0 = propagate(prop, l, y0, lam)
            yJ0, lam00 = propagate(prop, l, zero, zero)
            assert np.linalg.norm(yJ0) > 0.1 and np.linalg.norm(lam00) > 0.1
            np.testing.assert_allclose(P(y0, lam), yJ - yJ0, atol=1e-13)
            np.testing.assert_allclose(Q(y0, lam), lam0 - lam00, atol=1e-13)


class TestPerModeBuild:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), M=st.integers(1, 6),
           J=st.integers(1, 10), L=st.integers(1, 5))
    def test_eigenvalue_stack_matches_rotated_dense_build(self, seed, M, J, L):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((M, M))
        K = B @ B.T + 0.1 * np.eye(M)
        gamma = 10.0 ** rng.uniform(-2, 1)
        T = rng.uniform(0.5, 3.0)
        DT, tau = T / L, T / (L * J)
        w, v = rng.standard_normal((2, M))
        y_d = lambda t: np.sin(3.0 * t * w + v) + t * v
        sigma, Q = np.linalg.eigh(K)

        def modal_target(j):  # Q^T y_d at the left end of step j, per mode
            y = np.array([y_d(l * DT + j * tau) for l in range(L)]).T
            return (Q.T @ y)[:, None, :]

        for obj, variant in [(TR, Discretization.FOTD),
                             (TC, Discretization.FOTD),
                             (TC, Discretization.FDTO)]:
            p = LinearControlProblem(K=K, gamma=gamma, T=T, y_init=np.ones(M),
                                     objective=obj, y_target=np.ones(M),
                                     y_d=y_d)
            dense = build_implicit_euler_propagator(p, DT, J, variant)
            tracking = obj is TR
            gh = tau / np.sqrt(gamma) if tracking else tau / gamma
            modes = implicit_euler_maps(sigma[:, None, None], tau, gh, J, obj,
                                        variant,
                                        modal_target if tracking else None)
            maps = (dense.Phi_P, dense.Psi_P, dense.Phi_Q, dense.Psi_Q)
            for X, x in zip(maps, modes[:4]):
                np.testing.assert_allclose(
                    Q.T @ X @ Q, np.diag(x[:, 0, 0]),
                    rtol=0, atol=1e-12 * (1.0 + np.abs(X).max()))
            for b, x in zip((dense.b_P, dense.b_Q), modes[4:]):
                if tracking:
                    np.testing.assert_allclose(
                        b @ Q, x[:, 0, :].T,
                        rtol=0, atol=1e-12 * (1.0 + np.abs(b).max()))
                else:
                    assert x.shape == (M, 1, 0) and not b.any()


class TestScalarOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_structure_assertions_hold_on_random_draws(self, seed):
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(0.0, 20.0)
        gamma = 10.0 ** rng.uniform(-3, 2)
        tau = 10.0 ** rng.uniform(-2, 0.5)
        J = int(rng.integers(1, 9))
        for obj, variant in [(TR, Discretization.FOTD),
                             (TC, Discretization.FOTD),
                             (TC, Discretization.FDTO)]:
            phi, psi = extract_phi_psi_scalar(sigma, gamma, tau, J, obj, variant)
            assert 0.0 < phi <= 1.0
            assert psi >= 0.0
