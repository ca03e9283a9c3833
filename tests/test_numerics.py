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
        with pytest.raises(ValueError):
            GmresConfig(rel_tolerance=0.0)
        with pytest.raises(ValueError):
            GmresConfig(max_iterations=0)
