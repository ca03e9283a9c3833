import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraopt_kit.numerics import GmresConfig, gmres


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


class TestGmres:
    def test_solves_spd_system(self):
        rng = np.random.default_rng(0)
        A = random_spd(rng, 20)
        b = rng.standard_normal(20)
        x, rep = gmres(lambda v: A @ v, b, cfg=GmresConfig(rel_tolerance=1e-12))
        assert rep.converged
        assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)

    def test_solves_nonsymmetric_system(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((15, 15)) + 15 * np.eye(15)
        b = rng.standard_normal(15)
        x, rep = gmres(lambda v: A @ v, b, cfg=GmresConfig(rel_tolerance=1e-10))
        assert rep.converged
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-8)

    def test_right_preconditioning_counts_true_residual(self):
        rng = np.random.default_rng(2)
        A = random_spd(rng, 30)
        b = rng.standard_normal(30)
        Minv = np.linalg.inv(A + 0.1 * np.eye(30))
        x, rep = gmres(lambda v: A @ v, b, precond=lambda v: Minv @ v,
                       cfg=GmresConfig(rel_tolerance=1e-10))
        assert rep.converged
        # residuals are for the original system, so the preconditioned run
        # must beat the unpreconditioned one in iteration count
        _, rep0 = gmres(lambda v: A @ v, b, cfg=GmresConfig(rel_tolerance=1e-10))
        assert rep.iterations < rep0.iterations
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_complex_system(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        A += 12 * np.eye(12)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        x, rep = gmres(lambda v: A @ v, b, cfg=GmresConfig(rel_tolerance=1e-11))
        assert rep.converged
        np.testing.assert_allclose(A @ x, b, atol=1e-9)

    def test_real_input_complex_operator(self):
        # the basis switches to complex storage mid-flight when needed
        A = np.array([[2.0, 1j], [-1j, 3.0]])
        b = np.array([1.0, 1.0])
        x, rep = gmres(lambda v: A @ v, b, cfg=GmresConfig(rel_tolerance=1e-12))
        assert rep.converged
        np.testing.assert_allclose(A @ x, b, atol=1e-10)

    def test_zero_rhs(self):
        x, rep = gmres(lambda v: v, np.zeros(5))
        assert rep.converged and rep.iterations == 0
        assert np.all(x == 0)

    def test_nonconvergence_reported(self):
        rng = np.random.default_rng(5)
        A = random_spd(rng, 25)
        b = rng.standard_normal(25)
        _, rep = gmres(lambda v: A @ v, b,
                       cfg=GmresConfig(rel_tolerance=1e-14, max_iterations=2))
        assert not rep.converged

    def test_lucky_breakdown_ends_the_cycle(self):
        # b lies in a 2-dimensional invariant subspace, so the Arnoldi
        # process breaks down before the (unreachable) tolerance is met
        A = np.diag(np.arange(1.0, 9.0))
        b = np.zeros(8)
        b[:2] = 1.0
        x, rep = gmres(lambda v: A @ v, b,
                       cfg=GmresConfig(rel_tolerance=1e-300))
        np.testing.assert_allclose(x, b / np.diag(A), atol=1e-14)
        assert rep.final_relative_residual <= 1e-14

    def test_nan_raises(self):
        with pytest.raises(FloatingPointError):
            gmres(lambda v: v * np.nan, np.ones(4))

    def test_overflowing_rotation_raises(self):
        # the operator output is finite, but |H[0, 0]|^2 overflows in the
        # first Givens rotation, which then fills H and g with NaN
        scale = np.array([1e300, 1.0, 1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="Hessenberg"):
            gmres(lambda v: scale * v, np.ones(4))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_singular_hessenberg_names_its_column(self, dtype):
        # A e_2 = 0, so the first Arnoldi step breaks down with R = [[0]]
        with pytest.raises(np.linalg.LinAlgError, match="Hessenberg"):
            gmres(lambda v: np.array([v[0], 0.0]),
                  np.array([0.0, 1.0], dtype))

    def test_huge_scaling_converges_without_warnings(self):
        # |H[0, 0]|^2 = 1e400 used to overflow the Givens denominator, which
        # made the rotated diagonal 0 and the triangular solve singular
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, rep = gmres(lambda v: 1e200 * v, np.ones(4))
        assert rep.converged
        np.testing.assert_allclose(x, np.full(4, 1e-200), rtol=1e-14)

    def test_precond_applied_once_per_iteration(self):
        # flexible GMRES keeps z_j = P^{-1} v_j, so forming the update
        # costs no further application; the lucky breakdown ends the cycle
        A = np.diag(np.arange(1.0, 9.0))
        b = np.zeros(8)
        b[:2] = 1.0
        calls = []

        def precond(v):
            calls.append(1)
            return v / (np.arange(1.0, 9.0) + 0.5)

        x, rep = gmres(lambda v: A @ v, b, precond=precond,
                       cfg=GmresConfig(rel_tolerance=1e-12))
        assert rep.converged
        assert len(calls) == rep.iterations
        np.testing.assert_allclose(A @ x, b, atol=1e-12)

    def test_restart_after_lucky_breakdown(self):
        # b lies in a 2-dimensional invariant subspace, so each cycle breaks
        # down after at most two steps; the first one's true residual misses
        # 1e-16, and the next cycle starts from the iterate, still at one
        # P^{-1} per step
        n = 24
        d = np.arange(1.0, n + 1.0)
        b = np.zeros(n)
        b[:2] = 1.0
        products, calls = [], []

        def precond(v):
            calls.append(1)
            return v / (d + 0.5)

        x, rep = gmres(lambda v: (products.append(1), d * v)[1], b,
                       precond=precond,
                       cfg=GmresConfig(rel_tolerance=1e-16,
                                       max_iterations=4 * n))
        assert rep.converged
        # one product per step and one for each cycle's true residual
        assert len(products) - rep.iterations >= 2
        assert len(calls) == rep.iterations
        np.testing.assert_allclose(x, b / d, rtol=0, atol=1e-15)

    def test_one_cycle_solves_ill_conditioned_system(self):
        # a full cycle of n Arnoldi steps spans R^n, so one cycle solves the
        # system when the basis stays orthogonal; one Gram-Schmidt pass loses
        # orthogonality on these matrices and needs a second cycle of ~n steps
        n = 20
        for seed in range(5):
            rng = np.random.default_rng(seed)
            A = (np.diag(np.logspace(0, 6, n))
                 + 10 * np.triu(rng.standard_normal((n, n)), 1))
            b = rng.standard_normal(n)
            x, rep = gmres(lambda v: A @ v, b,
                           cfg=GmresConfig(rel_tolerance=1e-10,
                                           max_iterations=4 * n))
            assert rep.converged
            assert rep.iterations <= n + n // 4, seed

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 8),
           complex_data=st.booleans(), preconditioned=st.booleans())
    def test_history_matches_krylov_least_squares(self, seed, n, complex_data,
                                                  preconditioned):
        # oracle: after k steps the residual is the least-squares minimum of
        # |b - A P^{-1} Q c| over an orthonormal basis Q of the Krylov space
        # K_k(A P^{-1}, b), formed explicitly and orthonormalized by QR
        rng = np.random.default_rng(seed)

        def rand(*shape):
            a = rng.standard_normal(shape)
            return a + 1j * rng.standard_normal(shape) if complex_data else a

        A = rand(n, n) + n * np.eye(n)
        b = rand(n)
        Pinv = (np.linalg.inv(A + 0.5 * rand(n, n)) if preconditioned
                else np.eye(n))
        _, rep = gmres(lambda v: A @ v, b,
                       precond=(lambda v: Pinv @ v) if preconditioned else None,
                       cfg=GmresConfig(rel_tolerance=1e-12))
        AP = A @ Pinv
        cols = [b / np.linalg.norm(b)]
        for k in range(1, min(n, rep.iterations) + 1):
            Q = np.linalg.qr(np.column_stack(cols))[0]
            W = AP @ Q
            c = np.linalg.lstsq(W, b, rcond=None)[0]
            oracle = np.linalg.norm(b - W @ c) / np.linalg.norm(b)
            if oracle < 1e-4:
                break  # the explicit Krylov basis is too ill-conditioned
            assert rep.residual_history[k] == pytest.approx(oracle, rel=1e-8)
            nxt = AP @ cols[-1]
            cols.append(nxt / np.linalg.norm(nxt))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 25))
    def test_history_is_monotone(self, seed, n):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        _, rep = gmres(lambda v: A @ v, b, cfg=GmresConfig(rel_tolerance=1e-10))
        h = rep.residual_history
        assert all(h[i + 1] <= h[i] + 1e-15 for i in range(len(h) - 1))

    def test_config_validation(self):
        with pytest.raises(ValueError, match=r"rel_tolerance .*, got 0\.0"):
            GmresConfig(rel_tolerance=0.0)
        with pytest.raises(ValueError,
                           match="max_iterations must be >= 1, got 0"):
            GmresConfig(max_iterations=0)

    # 2.5 used to pass and fail inside gmres with a TypeError, and True to
    # stand for a budget of 1
    @pytest.mark.parametrize("value", [2.5, True])
    def test_max_iterations_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"max_iterations must be an integer, got {value!r}")):
            GmresConfig(max_iterations=value)
        assert GmresConfig(max_iterations=np.int32(5)).max_iterations == 5
