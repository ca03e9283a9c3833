import dataclasses

import numpy as np
import pytest

from paraopt_kit.problem import (
    LinearControlProblem,
    ObjectiveKind,
    make_advection_diffusion_problem,
    make_decomposition,
    make_heat_problem,
    make_scalar_problem,
)
from test_propagators import bccb


class TestLinearControlProblem:
    def test_requires_positive_gamma_and_T(self):
        K = np.eye(2)
        y0 = np.zeros(2)
        with pytest.raises(ValueError):
            LinearControlProblem(K, 0.0, 1.0, y0, ObjectiveKind.TRACKING,
                                 y_d=lambda t: y0)
        with pytest.raises(ValueError):
            LinearControlProblem(K, 1.0, -1.0, y0, ObjectiveKind.TRACKING,
                                 y_d=lambda t: y0)

    @pytest.mark.parametrize("field,value", [
        ("K", np.array([[1.0, np.nan], [0.0, 1.0]])),
        ("y_init", np.array([np.inf, 0.0])),
        ("y_target", np.array([0.0, np.nan])),
        ("gamma", np.inf), ("gamma", np.nan), ("T", np.inf), ("T", np.nan),
    ])
    def test_non_finite_data_rejected(self, field, value):
        args = {"K": np.eye(2), "gamma": 1.0, "T": 1.0, "y_init": np.zeros(2),
                "objective": ObjectiveKind.TERMINAL_COST,
                "y_target": np.zeros(2), field: value}
        with pytest.raises(ValueError):
            LinearControlProblem(**args)

    def test_objective_data_requirements(self):
        K = np.eye(2)
        y0 = np.zeros(2)
        with pytest.raises(ValueError):
            LinearControlProblem(K, 1.0, 1.0, y0, ObjectiveKind.TRACKING)
        with pytest.raises(ValueError):
            LinearControlProblem(K, 1.0, 1.0, y0, ObjectiveKind.TERMINAL_COST)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            LinearControlProblem(np.zeros((2, 3)), 1.0, 1.0, np.zeros(2),
                                 ObjectiveKind.TERMINAL_COST,
                                 y_target=np.zeros(2))
        with pytest.raises(ValueError):
            LinearControlProblem(np.eye(2), 1.0, 1.0, np.zeros(3),
                                 ObjectiveKind.TERMINAL_COST,
                                 y_target=np.zeros(2))
        with pytest.raises(ValueError, match="y_target"):
            LinearControlProblem(np.eye(2), 1.0, 1.0, np.zeros(2),
                                 ObjectiveKind.TERMINAL_COST,
                                 y_target=np.zeros(3))

    def test_y_target_becomes_a_float_vector(self):
        p = LinearControlProblem(np.eye(2), 1.0, 1.0, [0, 1],
                                 ObjectiveKind.TERMINAL_COST, y_target=[1, 2])
        assert p.y_target.dtype == float and p.y_target.tolist() == [1.0, 2.0]

    def test_replace_keeps_the_stencil(self):
        p = make_heat_problem(4, 0.05, 2.0, ObjectiveKind.TERMINAL_COST)
        q = dataclasses.replace(p, y_init=2.0 * p.y_init)
        assert q.K is p.K and q.symbol is p.symbol
        with pytest.raises(ValueError, match="y_init"):
            dataclasses.replace(p, y_init=np.zeros(3))


class TestDecomposition:
    def test_tracking_drops_terminal_block(self):
        p = make_scalar_problem(1.0, 1.0, 4.0, ObjectiveKind.TRACKING)
        d = make_decomposition(p, L=4, J_fine=2, J_coarse=1)
        assert d.L_hat == 3 and d.DT == 1.0

    def test_terminal_keeps_all_blocks(self):
        p = make_scalar_problem(1.0, 1.0, 4.0, ObjectiveKind.TERMINAL_COST)
        d = make_decomposition(p, L=4, J_fine=2, J_coarse=1)
        assert d.L_hat == 4

    def test_step_count_ordering_enforced(self):
        p = make_scalar_problem(1.0, 1.0, 4.0, ObjectiveKind.TRACKING)
        with pytest.raises(ValueError):
            make_decomposition(p, L=4, J_fine=1, J_coarse=2)
        with pytest.raises(ValueError):
            make_decomposition(p, L=1, J_fine=1, J_coarse=1)


class TestHeatProblem:
    def test_laplacian_spectrum_closed_form(self):
        n = 8
        p = make_heat_problem(n, 0.05, 2.0, ObjectiveKind.TRACKING)
        h2 = (1.0 / n) ** 2
        expected = np.sort([
            4.0 / h2 * (np.sin(np.pi * j / n) ** 2 + np.sin(np.pi * k / n) ** 2)
            for j in range(n) for k in range(n)])
        # the dense K of the stencil, and its symbol
        got = np.sort(np.linalg.eigvalsh(bccb(p.K.column)))
        np.testing.assert_allclose(got, expected, atol=1e-9)
        assert not p.symbol.imag.any()
        np.testing.assert_allclose(np.sort(p.symbol.real), expected,
                                   atol=1e-9)

    def test_fields_closed_form_at_vertices(self):
        n, gamma, T = 4, 0.05, 2.0
        p = make_heat_problem(n, gamma, T, ObjectiveKind.TERMINAL_COST)
        c = 12 * np.pi ** 2
        x = np.arange(n) / n
        for i, x1 in enumerate(x):
            for j, x2 in enumerate(x):
                idx = i * n + j
                s1, s2 = np.sin(2 * np.pi * x1), np.sin(2 * np.pi * x2)
                assert p.y_init[idx] == pytest.approx(
                    (1 - T) / (c * gamma) * np.sign(s1) * s2 ** 2, abs=1e-12)
                assert p.y_target[idx] == pytest.approx(s1 * s2, abs=1e-12)
                t = 0.7
                coef = (c + 1 / (c * gamma)) * (t - T) - (1 + 1 / (c ** 2 * gamma))
                assert p.y_d(t)[idx] == pytest.approx(coef * s1 * s2, abs=1e-10)

    def test_initial_value_is_nonsmooth(self):
        p = make_heat_problem(8, 0.05, 2.0, ObjectiveKind.TRACKING)
        signs = np.unique(np.sign(p.y_init[np.abs(p.y_init) > 1e-12]))
        assert set(signs) == {-1.0, 1.0}


class TestAdvectionDiffusion:
    def test_K_is_nonsymmetric(self):
        p = make_advection_diffusion_problem(6, 0.05, 2.0,
                                             ObjectiveKind.TRACKING)
        K = bccb(p.K.column)
        assert np.linalg.norm(K - K.T) > 1e-6 * np.linalg.norm(K)

    def test_diffusion_part_scaled_by_ten(self):
        ph = make_heat_problem(6, 0.05, 2.0, ObjectiveKind.TRACKING)
        pa = make_advection_diffusion_problem(6, 0.05, 2.0,
                                              ObjectiveKind.TRACKING)
        Ka = bccb(pa.K.column)
        sym = (Ka + Ka.T) / 2
        np.testing.assert_allclose(sym, bccb(ph.K.column) / 10.0, atol=1e-9)


class TestScalarProblem:
    def test_defaults(self):
        p = make_scalar_problem(3.0, 1.0, 1.0, ObjectiveKind.TRACKING)
        assert p.M == 1 and p.K.column.tolist() == [[3.0]]
        np.testing.assert_allclose(p.y_d(0.3), [1.0])
        q = make_scalar_problem(3.0, 1.0, 1.0, ObjectiveKind.TERMINAL_COST)
        np.testing.assert_allclose(q.y_target, [1.0])

    def test_custom_target_trajectory(self):
        p = make_scalar_problem(1.0, 1.0, 1.0, ObjectiveKind.TRACKING,
                                y_d=lambda t: 2.0 * t)
        np.testing.assert_allclose(p.y_d(0.5), [1.0])
