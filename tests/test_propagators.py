import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paraopt_kit.analysis import _compose, implicit_euler_maps
from paraopt_kit.preconditioner import (
    InversionMethod,
    assemble_P_alpha,
    build_plan,
)
from paraopt_kit.problem import (
    LinearControlProblem,
    ObjectiveKind,
    PeriodicStencil,
    SeparableTarget,
    make_advection_diffusion_problem,
    make_decomposition,
    make_heat_problem,
    make_scalar_problem,
)
from paraopt_kit.propagators import (
    Discretization,
    FourierBasis,
    _coupled_system,
    _target_in,
    build_exact_propagator,
    build_implicit_euler_propagator,
    dense_maps,
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
    """Reference: (P, Q) on sub-interval l (1-based), one interval at a
    time, on vectors in the basis of prop (the real view of half spectra
    when it has a FourierBasis)."""
    Phi_P, Psi_P, Phi_Q, Psi_Q = dense_maps(prop)
    y_next = Phi_P @ y_prev - Psi_P @ lam_next + prop.b_P[l - 1].view(float)
    lam_prev = Psi_Q @ y_prev + Phi_Q @ lam_next + prop.b_Q[l - 1].view(float)
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

    @pytest.mark.parametrize("J,match", [
        (2.5, "J must be an integer, got 2.5"),
        (True, "J must be an integer, got True"),
        ("3", "J must be an integer, got '3'"),
        (0, "need at least one implicit-Euler step")])
    def test_step_count_must_be_a_positive_integer(self, J, match):
        # a float J used to fail late with a TypeError, and True built
        # one step
        p = small_tracking_problem()
        with pytest.raises(ValueError, match=match):
            build_implicit_euler_propagator(p, 0.5, J)

    def test_tracking_shares_blocks(self):
        p = small_tracking_problem()
        Phi_P, Psi_P, Phi_Q, Psi_Q = dense_maps(
            build_implicit_euler_propagator(p, 0.5, 3))
        np.testing.assert_allclose(Phi_P, Phi_Q.T, atol=1e-13)
        np.testing.assert_allclose(Psi_P, Psi_Q.T, atol=1e-13)

    def test_terminal_cost_has_no_Q_feedback(self):
        p = make_scalar_problem(2.0, 0.5, 2.0, TC)
        for variant in (Discretization.FOTD, Discretization.FDTO):
            prop = build_implicit_euler_propagator(p, 0.5, 3, variant)
            assert np.linalg.norm(dense_maps(prop)[3]) == 0.0

    def test_eigen_coefficients_match_scalar_oracle(self):
        p = small_tracking_problem()
        DT, J = 0.5, 4
        prop = build_implicit_euler_propagator(p, DT, J)
        Phi_P, Psi_P = dense_maps(prop)[:2]
        w, Q = np.linalg.eigh(p.K)
        for i, sigma in enumerate(w):
            phi, psi = extract_phi_psi_scalar(sigma, p.gamma, DT / J, J, TR)
            v = Q[:, i]
            assert v @ Phi_P @ v == pytest.approx(phi, abs=1e-12)
            assert v @ Psi_P @ v == pytest.approx(psi, abs=1e-12)

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
            built = dict(zip(("Phi_P", "Psi_P", "Phi_Q", "Psi_Q"),
                             dense_maps(prop)), b_P=prop.b_P, b_Q=prop.b_Q)
            for name, want in ref.items():
                got = built[name]
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

    @pytest.mark.parametrize("n", [3, 4])
    def test_requires_symmetric_bccb_K(self, n):
        # a BCCB K is tested on its symbol: advection makes it complex
        p = make_advection_diffusion_problem(n, 0.3, 2.0, TC)
        with pytest.raises(ValueError, match="symmetric"):
            build_exact_propagator(p, 0.5)

    @pytest.mark.parametrize("objective", [TR, TC])
    def test_implicit_euler_converges_first_order(self, objective):
        # for tracking the offsets too: their J -> infinity limit is a second
        # oracle for the exact ones, independent of the closed form
        targets = [lambda t: np.ones(1), lambda t: np.array([1.0 + t])]
        for y_d in targets if objective is TR else [None]:
            p = dataclasses.replace(
                make_scalar_problem(1.0, 1.0, 1.0, objective), y_d=y_d)
            exact = build_exact_propagator(p, 1.0)
            errs = []
            for J in (64, 128):
                ie = build_implicit_euler_propagator(p, 1.0, J)
                (ie_phi, ie_psi), (phi, psi) = (
                    [X[0, 0] for X in dense_maps(prop)[:2]]
                    for prop in (ie, exact))
                errs.append([abs(ie_phi - phi) + abs(ie_psi - psi),
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
        maps = dense_maps(prop)
        for block in maps:
            assert np.all(np.isfinite(block))
        assert np.linalg.norm(maps[1]) > 0.0

    @pytest.mark.parametrize("objective", [TR, TC])
    def test_vanishing_eigenvalue_builds(self, objective):
        p = make_scalar_problem(1e-20, 1.0, 1.0, objective)
        phi, psi = (X[0, 0] for X in
                    dense_maps(build_exact_propagator(p, 0.5))[:2])
        assert phi <= 1.0
        assert np.isfinite(psi) and psi > 0.0


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
            for X, x in zip(dense_maps(dense), modes[:4]):
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


def rotated(X, F):
    """X in the basis F of its modes."""
    return F @ X @ F.conj().T


def dft(n):
    """The unitary 2-D DFT of the x1-major n x n grid as an M x M matrix
    (symmetric, so the transforms of the unit vectors are its rows)."""
    M = n * n
    return np.fft.fft2(np.eye(M).reshape(M, n, n), norm="ortho").reshape(M, M)


def coefficient_matrix(basis):
    """The (M + s) x M matrix of the real view of FourierBasis.coefficients,
    s = basis.self_count: its columns are orthonormal."""
    return basis.coefficients(np.eye(basis.M)).view(float).T


def real_data(basis, rng, *shape):
    """The real views of the half spectra of random grid values, of shape
    shape + (M + s,): random vectors of the solve in that basis, whose
    self-conjugate imaginary slots are 0."""
    x = rng.standard_normal(shape + (basis.M,))
    return basis.coefficients(x).view(float)


def negated(n):
    """Index of the mode -k of each mode k of an n x n grid, flattened."""
    neg = -np.arange(n) % n
    return (neg[:, None] * n + neg).ravel()


def full(basis, x):
    """Values x on the modes of basis.half extended to all M modes in DFT
    order, conj x(k) at -k: the eigenvalues of a real map from those of
    its half spectrum."""
    s = basis.self_count
    out = np.empty(x.shape[:-1] + (basis.M,), complex)
    out[..., basis.half] = x
    out[..., negated(basis.n)[basis.half[s:]]] = x[..., s:].conj()
    return out


def bccb(x):
    """The M x M map of circular convolution with the n x n grid x."""
    n = x.shape[0]
    return np.array([np.roll(x, shift, axis=(0, 1)).ravel()
                     for shift in np.ndindex(n, n)]).T


class TestFourierBasis:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_orthonormal_round_trip(self, n):
        M = n * n
        basis = FourierBasis(M)
        # odd n: the mean only; even n: the mean and three Nyquist modes
        s = basis.self_count
        assert s == (1 if n % 2 else 4)
        assert len(basis.half) == (M + s) // 2
        # the real view keeps inner products and norms, and the imaginary
        # slots of the self-conjugate modes are exactly 0
        Q = coefficient_matrix(basis)
        assert Q.shape == (M + s, M) and not Q[1:2 * s:2].any()
        np.testing.assert_allclose(Q.T @ Q, np.eye(M), rtol=0, atol=1e-14)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, M))
        h = basis.coefficients(x)
        assert h.dtype == complex and h.flags.c_contiguous
        np.testing.assert_allclose(np.linalg.norm(h, axis=1),
                                   np.linalg.norm(x, axis=1), rtol=1e-14)
        np.testing.assert_allclose(basis.grid(h), x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(basis.coefficients(basis.grid(h)), h,
                                   rtol=0, atol=1e-14)
        # grid drops an imaginary part of a self-conjugate mode
        h[:, :s] += 1j
        np.testing.assert_allclose(basis.grid(h), x, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_half_spectrum_holds_dft_coefficients(self, n):
        basis = FourierBasis(n * n)
        x = np.random.default_rng(0).standard_normal((2, n * n))
        c = x @ dft(n)  # the DFT of each row (the matrix is symmetric)
        s = basis.self_count
        want = c[:, basis.half]
        want[:, s:] *= np.sqrt(2.0)
        h = basis.coefficients(x)
        np.testing.assert_allclose(h, want, rtol=0, atol=1e-14)
        assert not h[:, :s].imag.any()
        # self-conjugate modes of real data are real, and -k is conj k
        assert np.abs(c[:, basis.half[:s]].imag).max(initial=0) < 1e-14
        np.testing.assert_allclose(full(basis, c[:, basis.half]), c, rtol=0,
                                   atol=1e-14)

    @pytest.mark.parametrize("make,n", [
        (None, 1), (make_heat_problem, 2), (make_heat_problem, 3),
        (make_heat_problem, 4), (make_advection_diffusion_problem, 3),
        (make_advection_diffusion_problem, 4),
        (make_advection_diffusion_problem, 5)])
    def test_mode_actions_match_dense_maps(self, make, n):
        """Each map of every fine and coarse build, applied one mode at a
        time to half spectra, against the map of the same build on the
        dense K moved into the basis; offsets against its half spectra."""
        basis = FourierBasis(n * n)
        builds = [(TR, Discretization.FOTD), (TC, Discretization.FOTD),
                  (TC, Discretization.FDTO)]
        if make is not make_advection_diffusion_problem:
            builds += [(TR, None), (TC, None)]  # exact: symmetric K only
        rng = np.random.default_rng(n)
        for objective, variant in builds:
            p = (make_scalar_problem(1.7, 0.3, 2.0, objective) if make is None
                 else make(n, 0.3, 2.0, objective))
            DT = p.T / 4
            build = lambda p: (
                build_exact_propagator(p, DT) if variant is None else
                build_implicit_euler_propagator(p, DT, 3, variant))
            prop = build(p)
            dense = build(dataclasses.replace(p, K=bccb(p.K.column)))
            assert prop.M == p.M and dense.basis is None
            x = rng.standard_normal((4, p.M))
            for X, act in zip(dense_maps(dense), prop.actions):
                np.testing.assert_allclose(act(basis.coefficients(x)),
                                           basis.coefficients(x @ X.T),
                                           rtol=0, atol=1e-13)
            for name in ("b_P", "b_Q"):
                np.testing.assert_allclose(
                    getattr(prop, name),
                    basis.coefficients(getattr(dense, name)),
                    rtol=0, atol=1e-12)


    @pytest.mark.filterwarnings("error")
    def test_real_eigenvalues_keep_an_overflow_without_nan(self):
        """A real map (heat) scales the real view of a half spectrum: a
        mode that overflowed stays inf, where a complex product would add
        0 * inf = NaN to its imaginary part."""
        p = make_heat_problem(4, 0.3, 2.0, TR)
        prop = build_implicit_euler_propagator(p, 0.5, 1)
        h = prop.basis.coefficients(np.ones((2, p.M)))
        h[:, 0] = np.inf
        for act in prop.actions:
            out = act(h)
            assert np.isinf(out[:, 0].real).all() and not np.isnan(out).any()


class TestFourierSymbol:
    @pytest.mark.parametrize("make", [make_heat_problem,
                                      make_advection_diffusion_problem])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 16])
    def test_symbol_diagonalizes_K(self, make, n):
        stencil = make(n, 0.05, 2.0, TR).K
        K, s = bccb(stencil.column), stencil.symbol
        np.testing.assert_allclose(rotated(K, dft(n)), np.diag(s), rtol=0,
                                   atol=1e-12 * np.abs(K).max())
        # conjugate pairs to the last bit (the raw FFT misses this at n=16)
        assert np.array_equal(s[negated(n)], s.conj())

    def test_closed_forms(self):
        # -Lap_h: 4 n^2 (sin^2(pi k1/n) + sin^2(pi k2/n)); each central
        # difference adds i n sin(2 pi k/n)
        n = 5
        k = np.arange(n)
        lap = 4.0 * n * n * np.sin(np.pi * k / n) ** 2
        grad = n * np.sin(2 * np.pi * k / n)
        heat = (lap[:, None] + lap).ravel()
        adv = heat / 10 + 1j * (grad[:, None] + grad).ravel()
        for make, expected in ((make_heat_problem, heat),
                               (make_advection_diffusion_problem, adv)):
            s = make(n, 0.05, 2.0, TR).symbol
            np.testing.assert_allclose(s, expected, rtol=0, atol=1e-12 * n * n)

    @pytest.mark.parametrize("seed", range(5))
    def test_any_real_bccb_K(self, seed):
        x = np.random.default_rng(seed).standard_normal((7, 7))
        s = PeriodicStencil(x).symbol
        assert np.array_equal(s[negated(7)], s.conj())
        np.testing.assert_allclose(s, np.fft.fft2(x).ravel(), rtol=0,
                                   atol=1e-12 * np.abs(s).max())
        # K^T is the stencil of the transposed map, with the conjugate
        # eigenvalues
        transposed = bccb(x).T[:, 0].reshape(7, 7)
        np.testing.assert_allclose(PeriodicStencil(transposed).symbol,
                                   s.conj(), rtol=0,
                                   atol=1e-12 * np.abs(s).max())

    def test_scalar_problem(self):
        p = make_scalar_problem(3.0, 1.0, 1.0, TR)
        assert p.symbol.tolist() == [3.0]

    @pytest.mark.parametrize("K", [
        np.diag([1.0, 2.0, 3.0, 4.0]),                     # not circulant
        np.random.default_rng(0).standard_normal((9, 9)),
        np.eye(6),                                         # M not a square
        # circulant along x1 only: blocks [[a, b], [b, a]] with a != b
        np.kron(np.array([[2.0, 1.0], [1.0, 2.0]]), np.diag([1.0, 3.0])),
        # block-circulant: the dense K of the heat stencil
        bccb(make_heat_problem(3, 0.05, 2.0, TR).K.column),
    ], ids=["diagonal", "random", "M-6", "x1-only", "dense-heat"])
    def test_dense_K_has_none(self, K):
        M = len(K)
        p = LinearControlProblem(K=K, gamma=0.3, T=2.0, y_init=np.ones(M),
                                 objective=TC, y_target=np.zeros(M))
        assert p.symbol is None
        prop = build_implicit_euler_propagator(p, 0.5, 2)
        assert prop.basis is None
        assert all(X.shape == (M, M) for X in prop.maps)

    @pytest.mark.parametrize("column", [
        np.full((2, 2), 1e308),                  # fft2 overflows
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[1.0, np.inf], [0.0, 1.0]]),
        np.ones((2, 3)),
        np.ones(4),
    ], ids=["overflow", "nan", "inf", "not-square", "not-a-grid"])
    @pytest.mark.filterwarnings("error")
    def test_invalid_column_rejected(self, column):
        with pytest.raises(ValueError):
            PeriodicStencil(column)


class TestFourierSymbolBuild:
    @pytest.mark.parametrize("objective,variant", [
        (TR, Discretization.FOTD), (TC, Discretization.FOTD),
        (TC, Discretization.FDTO)])
    @pytest.mark.parametrize("n", [3, 4])
    def test_complex_stack_matches_dense_advection_build(self, objective,
                                                         variant, n):
        # complex eigenvalues: Phi_Q, Psi_Q and the FDTO Psi_P take the
        # conjugate of Z^-1 per mode, as K^T has the conjugate symbol
        p = make_advection_diffusion_problem(n, 0.3, 2.0, objective)
        L, J = 4, 3
        DT, tau = p.T / L, p.T / (L * J)
        gh = tau / np.sqrt(p.gamma) if objective is TR else tau / p.gamma
        y = lambda j: np.array([p.y_d(l * DT + j * tau) for l in range(L)])
        basis = FourierBasis(n * n)
        target = lambda j: y(j).T
        modal = lambda j: basis.coefficients(y(j)).T[:, None, :]
        if objective is TC:
            target = modal = None
        dense = implicit_euler_maps(bccb(p.K.column), tau, gh, J, objective,
                                    variant, target)
        symbol = p.symbol[basis.half]
        modes = implicit_euler_maps(symbol.reshape(-1, 1, 1),
                                    tau, gh, J, objective, variant, modal)
        F = dft(n)
        for X, x in zip(dense[:4], modes[:4]):
            np.testing.assert_allclose(rotated(X, F),
                                       np.diag(full(basis, x[:, 0, 0])),
                                       rtol=0, atol=1e-13)
        for b, x in zip(dense[4:], modes[4:]):
            assert b.shape == (n * n, L if objective is TR else 0)
            np.testing.assert_allclose(basis.coefficients(b.T).T, x[:, 0, :],
                                       rtol=0,
                                       atol=1e-12 * (1 + np.abs(b).max(
                                           initial=0.0)))

    def test_builds_keep_no_dense_map(self):
        """The heat tracking fine (J = 10) and coarse (J = 1) builds and the
        terminal-cost exact fine and FDTO coarse builds, all kept alive,
        retain less than one M x M map (2.65 MB at n = 24) between them:
        eigenvalues, offsets and the basis only."""
        n, L = 24, 4
        problems = [make_heat_problem(n, 0.05, 2.0, objective)
                    for objective in (TR, TC)]
        DT = 2.0 / L
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            props = [build_implicit_euler_propagator(problems[0], DT, 10),
                     build_implicit_euler_propagator(problems[0], DT, 1),
                     build_exact_propagator(problems[1], DT),
                     build_implicit_euler_propagator(problems[1], DT, 1,
                                                     Discretization.FDTO)]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(prop.basis is not None for prop in props)
        assert retained < (n * n) ** 2 * 8

    @settings(max_examples=40, deadline=None)
    @given(make=st.sampled_from([make_heat_problem,
                                 make_advection_diffusion_problem]),
           n=st.integers(2, 6), L=st.integers(2, 6), J=st.integers(1, 10),
           gamma=st.floats(0.01, 1.0), seed=st.integers(0, 2**16))
    def test_symbol_build_matches_dense_build(self, make, n, L, J, gamma,
                                              seed):
        """Every build from the symbol, which lives in the half spectra of
        its basis, against the build of the same problem on its dense K
        moved into them: maps on real data, offsets and modes; and the
        plan from the modes against the dense P(alpha) on the real view."""
        F = dft(n)
        basis = FourierBasis(n * n)
        Q = coefficient_matrix(basis)
        rng = np.random.default_rng(seed)
        # (objective, implicit-Euler variant or None for exact)
        builds = [(TR, Discretization.FOTD), (TC, Discretization.FOTD),
                  (TC, Discretization.FDTO)]
        if make is make_heat_problem:  # exact needs a symmetric K
            builds += [(TR, None), (TC, None)]
        for objective, variant in builds:
            p = make(n, gamma, 2.0, objective)
            d = make_decomposition(p, L=L, J_fine=J, J_coarse=1)
            if variant is None:
                build = lambda p: build_exact_propagator(p, d.DT)
            else:
                build = lambda p: build_implicit_euler_propagator(p, d.DT, J,
                                                                  variant)
            sym = build(p)
            dense = build(dataclasses.replace(p, K=bccb(p.K.column)))
            assert dense.basis is None and sym.basis is not None
            for X_sym, X, x in zip(dense_maps(sym), dense_maps(dense),
                                   sym.maps):
                scale = 1e-12 * (1 + np.abs(X).max())
                np.testing.assert_allclose(X_sym @ Q, Q @ X, rtol=0,
                                           atol=scale)
                np.testing.assert_allclose(rotated(X, F),
                                           np.diag(full(basis, x)), rtol=0,
                                           atol=scale)
            for name in ("b_P", "b_Q"):
                b = getattr(dense, name)
                np.testing.assert_allclose(getattr(sym, name).view(float),
                                           b @ Q.T, rtol=0,
                                           atol=1e-12 * (1 + np.abs(b).max()))
            if variant is None:
                continue
            # P(1) is singular for terminal cost at sigma = 0 (phi = 1)
            methods = [(InversionMethod.GENERAL, -1.0)] + (
                [(InversionMethod.GENERAL, 1.0)] if objective is TR else
                [(InversionMethod.TRIANGULAR, 0.1),
                 (InversionMethod.TRIANGULAR, -0.05)])
            for method, alpha in methods:
                plan = build_plan(sym, d, alpha, method)
                assert plan.blocks == "spectral" and plan.basis is not None
                v = real_data(basis, rng, 2 * d.L_hat).ravel()
                P = assemble_P_alpha(sym, d, alpha)
                assert (np.linalg.norm(P @ plan.apply_inverse(v) - v)
                        <= 1e-10 * np.linalg.norm(v))


class TestDeclaredTarget:
    """A SeparableTarget's shape is moved into the propagator's basis once
    and scaled at every time; a plain callable is sampled and moved at
    every time. Both paths give the same offsets."""

    @settings(max_examples=15, deadline=None)
    @given(L=st.integers(2, 5), gamma=st.floats(0.01, 1.0),
           seed=st.integers(0, 2**16))
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", ["heat", "advection", "dense"])
    def test_declared_path_equals_general_path(self, kind, n, L, gamma, seed):
        if kind == "dense":  # a symmetric dense K, M = n, declared target
            rng = np.random.default_rng(seed)
            B = rng.standard_normal((n, n))
            a, b = rng.standard_normal(2)
            p = LinearControlProblem(
                K=B @ B.T + 0.1 * np.eye(n), gamma=gamma, T=2.0,
                y_init=np.ones(n), objective=TR,
                y_d=SeparableTarget(rng.standard_normal(n),
                                    lambda t: a + b * t))
        else:
            make = (make_heat_problem if kind == "heat"
                    else make_advection_diffusion_problem)
            p = make(n, gamma, 2.0, TR)
        assert isinstance(p.y_d, SeparableTarget)
        general = dataclasses.replace(p, y_d=lambda t: p.y_d(t))
        DT = p.T / L
        builds = [lambda q, J=J: build_implicit_euler_propagator(q, DT, J)
                  for J in (1, 3)]
        if kind != "advection":  # exact needs a symmetric K
            builds.append(lambda q: build_exact_propagator(q, DT))
        for build in builds:
            got, want = ([prop.b_P, prop.b_Q] for prop in
                         (build(p), build(general)))
            scale = np.abs(want).max()
            assert scale > 0.0
            assert np.abs(np.subtract(got, want)).max() <= 1e-13 * scale

    def test_exact_build_refuses_non_affine_declared_target(self):
        p = make_heat_problem(4, 0.05, 2.0, TR)
        declared = dataclasses.replace(
            p, y_d=SeparableTarget(p.y_d.shape, lambda t: t * t))
        general = dataclasses.replace(p, y_d=lambda t: declared.y_d(t))
        for q in (declared, general):
            with pytest.raises(ValueError, match="^exact tracking offsets "
                               "need a target y_d that is affine in t on "
                               "each sub-interval$"):
                build_exact_propagator(q, 0.5)

    def test_terminal_cost_builds_never_sample_the_target(self):
        def refuse(t):
            raise AssertionError(f"the target was sampled at t = {t}")

        p = make_heat_problem(4, 0.05, 2.0, TC)
        for y_d in (refuse, SeparableTarget(np.ones(p.M), refuse)):
            q = dataclasses.replace(p, y_d=y_d)
            build_implicit_euler_propagator(q, 0.5, 3)
            build_implicit_euler_propagator(q, 0.5, 1, Discretization.FDTO)
            build_exact_propagator(q, 0.5)


class TestUnitResponseBlocks:
    """implicit_euler_maps composes unit responses in blocks of at most
    max(1, L // m) steps and applies their weights to the targets; the
    reference folds the J steps one by one with each step's target
    columns in its offset."""

    @staticmethod
    def stepwise_maps(K, tau, gh, J, objective, variant, target):
        m = K.shape[-1]
        Z = np.eye(m) + tau * K
        Zi = 1.0 / Z if m == 1 else np.linalg.inv(Z)
        ZiT = np.swapaxes(Zi, -1, -2).conj()
        Psi_P = gh * (Zi @ ZiT) if variant is Discretization.FDTO else gh * Zi
        Psi_Q = gh * ZiT if objective is TR else np.zeros_like(Zi)

        def step(j):
            b_Q = (np.zeros(Zi.shape[:-1] + (0,)) if target is None else
                   -gh * (ZiT @ target(j)))
            return (Zi, Psi_P, ZiT, Psi_Q, np.broadcast_to(0.0, b_Q.shape),
                    b_Q)
        return functools.reduce(_compose, map(step, range(J)))

    @staticmethod
    def case(kind, dim, gamma, seed, separable):
        """(K, m, y_d, to_basis, columns) of a dense K (M = dim) or a heat
        or advection-diffusion stencil on the dim x dim grid, with a
        declared or a general target."""
        rng = np.random.default_rng(seed)
        if kind == "dense":
            B, S = rng.standard_normal((2, dim, dim))
            p = LinearControlProblem(
                K=B @ B.T + 0.1 * np.eye(dim) + (S - S.T), gamma=gamma,
                T=2.0, y_init=np.ones(dim), objective=TR,
                y_d=SeparableTarget(rng.standard_normal(dim),
                                    lambda t: 1.0 + np.sin(3.0 * t)))
            K, to_basis, columns = p.K, (lambda x: x), np.transpose
        else:
            make = (make_heat_problem if kind == "heat"
                    else make_advection_diffusion_problem)
            p = make(dim, gamma, 2.0, TR)
            basis = FourierBasis(p.M)
            K = p.symbol[basis.half].reshape(-1, 1, 1)
            to_basis, columns = basis.coefficients, lambda c: c.T[:, None, :]
        y_d = p.y_d
        if not separable:  # no shape times a time series
            w, v = rng.standard_normal((2, p.M))
            y_d = lambda t: p.y_d(t) + np.sin(3.0 * t * w + v) + t * t * v
        return K, K.shape[-1], y_d, to_basis, columns

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["dense", "heat", "advection"]),
           dim=st.integers(1, 6), blocks=st.integers(2, 5),
           extra=st.integers(0, 3),
           regime=st.sampled_from(["one step", "below", "at", "above"]),
           separable=st.booleans(), gamma=st.floats(0.01, 1.0),
           seed=st.integers(0, 2**16))
    @example(kind="heat", dim=5, blocks=3, extra=0, regime="above",
             separable=True, gamma=0.05, seed=0)
    @example(kind="advection", dim=4, blocks=2, extra=0, regime="above",
             separable=False, gamma=0.05, seed=0)
    @example(kind="dense", dim=4, blocks=2, extra=3, regime="above",
             separable=False, gamma=0.05, seed=0)
    def test_blocks_match_stepwise_composition(self, kind, dim, blocks,
                                               extra, regime, separable,
                                               gamma, seed):
        if kind == "dense":
            dim = 1 + dim % 4  # M from 1 to 4
        else:
            dim = 2 + dim % 4  # odd and even grids, n from 2 to 5
        K, m, y_d, to_basis, columns = self.case(kind, dim, gamma, seed,
                                                 separable)
        L = blocks * m + extra % m  # L // m = blocks steps in a block
        J = {"one step": 1, "below": blocks - 1, "at": blocks,
             "above": 2 * blocks + 1}[regime]  # above: three blocks
        DT = 2.0 / L
        tau = DT / J
        gh = tau / np.sqrt(gamma)
        at = _target_in(y_d, to_basis)
        target = lambda j: columns(at(np.arange(L) * DT + j * tau))
        got = implicit_euler_maps(K, tau, gh, J, TR, target=target)
        want = self.stepwise_maps(K, tau, gh, J, TR, Discretization.FOTD,
                                  target)
        for name, g, w in zip(("Phi_P", "Psi_P", "Phi_Q", "Psi_Q", "b_P",
                               "b_Q"), got, want):
            assert g.shape == w.shape, name
            # one step has no b_P: both are zero at J = 1
            assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max(), name
        if J <= L // m:  # one block: the same folds of the same steps
            for name, g, w in zip(("Phi_P", "Psi_P", "Phi_Q", "Psi_Q"),
                                  got, want):
                assert np.array_equal(g, w), name

    @pytest.mark.parametrize("objective,variant", [
        (TC, Discretization.FOTD), (TC, Discretization.FDTO),
        (TR, Discretization.FOTD)])
    @pytest.mark.parametrize("kind,dim", [("dense", 3), ("heat", 3),
                                          ("advection", 4)])
    def test_no_target_is_the_zero_column_case(self, kind, dim, objective,
                                               variant):
        # blocks of one step: the sequential fold, bitwise, with offsets
        # of no columns
        K, *_ = self.case(kind, dim, 0.05, 0, True)
        for J in (1, 7):
            got = implicit_euler_maps(K, 0.02, 0.1, J, objective, variant)
            want = self.stepwise_maps(K, 0.02, 0.1, J, objective, variant,
                                      None)
            for g, w in zip(got[:4], want[:4]):
                assert np.array_equal(g, w)
            assert [b.shape for b in got[4:]] == [K.shape[:-1] + (0,)] * 2

    @pytest.mark.parametrize("kind", ["heat", "dense"])
    @pytest.mark.parametrize("L,J", [(3, 1), (6, 4), (3, 25), (2, 9)])
    def test_each_target_sampled_once(self, kind, L, J):
        calls = []

        def y_d(t):
            calls.append(t)
            return np.full(p.M, 1.0 + t)

        p = make_heat_problem(3, 0.05, 2.0, TR)
        if kind == "dense":
            p = dataclasses.replace(p, K=bccb(p.K.column))
        build_implicit_euler_propagator(dataclasses.replace(p, y_d=y_d),
                                        p.T / L, J)
        assert len(calls) == J * L


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
