import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paraopt_kit.analysis import (
    PhiPsi,
    PropagatorDescription,
    PropagatorKind,
    SsigmaSpec,
    assemble_block_system,
    bound_grid_sweep,
    coefficients_at,
    exact_rho,
    implicit_euler_maps,
    log_grid,
    phi_psi_tc_exact,
    phi_psi_tc_ie,
    phi_psi_tracking_exact,
    phi_psi_tracking_ie,
    rho_bound_at,
    rho_bound_terminal,
    rho_bound_tracking,
)
from paraopt_kit.problem import ObjectiveKind
from paraopt_kit.propagators import Discretization, extract_phi_psi_scalar

TR = ObjectiveKind.TRACKING
TC = ObjectiveKind.TERMINAL_COST

coeff = st.floats(0.02, 0.98)
psi_val = st.floats(0.02, 2.0)

_IE_RANGE = "^need J >= 1, tau > 0, gamma > 0$"
_EXACT_RANGE = "^need DT > 0, gamma > 0$"


class TestCoefficientCatalog:
    @pytest.mark.parametrize("J", [0, -1])
    def test_implicit_euler_maps_need_a_step(self, J):
        # J = 0 used to fail in functools.reduce of no steps
        with pytest.raises(ValueError, match=f"got J = {J}"):
            implicit_euler_maps(np.eye(2), 0.1, 0.1, J, TR)

    @pytest.mark.parametrize("J", [2.5, True, 3.0])
    def test_step_count_must_be_an_integer(self, J):
        # every implicit-Euler path passes implicit_euler_maps: a float J
        # used to fail in range() with a TypeError, and True ran one step
        ie = PropagatorDescription(PropagatorKind.IMPLICIT_EULER, J=J)
        exact = PropagatorDescription(PropagatorKind.EXACT)
        with pytest.raises(ValueError,
                           match=f"^J must be an integer, got {J!r}$"):
            rho_bound_at(TR, exact, ie, 1.0, 1.0)
        with pytest.raises(ValueError, match="must be an integer"):
            implicit_euler_maps(np.eye(2), 0.1, 0.1, J, TR)

    @pytest.mark.parametrize("K", [
        np.array([1.0, -2.0, 3.0]).reshape(-1, 1, 1),  # one sigma = -1/tau
        np.array([[-2.0, 1.0], [0.0, 1.0]]),  # I + tau K of rank one
    ], ids=["per-mode", "dense"])
    def test_singular_step_rejected(self, K):
        # the 1 x 1 step divides by 1 + tau sigma: the zero is refused
        # before the division, so no divide-by-zero warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^singular implicit-Euler "
                               r"step matrix I \+ tau\*K at tau = 0\.5 "):
                implicit_euler_maps(K, 0.5, 0.1, 3, TR)

    # each case breaks one condition of the message it must raise
    @pytest.mark.parametrize("build,match", [
        (lambda: phi_psi_tracking_ie(1.0, 0.5, 0.1, 0), _IE_RANGE),
        (lambda: phi_psi_tracking_ie(1.0, 0.5, 0.0, 2), _IE_RANGE),
        (lambda: phi_psi_tracking_ie(1.0, 0.0, 0.1, 2), _IE_RANGE),
        (lambda: phi_psi_tc_ie(1.0, 0.5, 0.1, 0), _IE_RANGE),
        (lambda: phi_psi_tc_ie(1.0, 0.5, -0.1, 2), _IE_RANGE),
        (lambda: phi_psi_tc_ie(1.0, -0.5, 0.1, 2), _IE_RANGE),
        (lambda: phi_psi_tc_ie(-10.0, 0.5, 0.1, 2),
         r"^sigma\*tau must exceed -1$"),
        # one sigma*tau rule for both implicit-Euler entries: tracking used
        # to return (-1, -0.1) and (-6.44, -3.45) here
        (lambda: phi_psi_tracking_ie(-20.0, 1.0, 0.1, 1),
         r"^sigma\*tau must exceed -1$"),
        (lambda: phi_psi_tracking_ie(-15.0, 1.0, 0.1, 3),
         r"^sigma\*tau must exceed -1$"),
        # a NaN step, gamma or sigma used to return NaN coefficients
        (lambda: phi_psi_tracking_exact(0.0, np.nan, 1.0), _EXACT_RANGE),
        (lambda: phi_psi_tracking_exact(np.nan, 1.0, 1.0),
         "^tracking exact: sigma must be finite, got sigma=nan$"),
        (lambda: phi_psi_tracking_ie(0.0, 1.0, np.nan, 2), _IE_RANGE),
        (lambda: phi_psi_tc_exact(0.0, 1.0, np.nan), _EXACT_RANGE),
        (lambda: phi_psi_tc_ie(0.0, np.nan, 0.1, 2), _IE_RANGE),
        (lambda: phi_psi_tc_ie(np.nan, 1.0, 0.1, 2),
         "^terminal-cost IE: sigma must be finite, got sigma=nan$"),
        (lambda: rho_bound_at(TR, PropagatorDescription(PropagatorKind.EXACT),
                              PropagatorDescription(
                                  PropagatorKind.IMPLICIT_EULER, J=1),
                              np.nan, 1.0),
         "^tracking exact: sigma must be finite, got sigma=nan$"),
        # finiteness binds at every sigma, the range of (phi, psi) only
        # where sigma > 0: 200 steps at sigma*tau = -0.999 overflow, and
        # the NaN they leave used to be returned
        pytest.param(
            lambda: phi_psi_tc_ie(np.array([1.0, -9.99]), 1.0, 0.1, 200),
            r"^terminal-cost IE: coefficients \(nan, nan\) leave the "
            r"admissible range at sigma=-9\.99$",
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        (lambda: phi_psi_tracking_exact(1.0, 0.5, 0.0), _EXACT_RANGE),
        (lambda: phi_psi_tracking_exact(1.0, 0.0, 1.0), _EXACT_RANGE),
        (lambda: phi_psi_tc_exact(1.0, 0.5, -1.0), _EXACT_RANGE),
        (lambda: phi_psi_tc_exact(1.0, 0.0, 1.0), _EXACT_RANGE),
        (lambda: SsigmaSpec(0, PhiPsi(0.5, 0.5), PhiPsi(0.5, 0.5), TR),
         "^L_hat must be >= 1$"),
        # assemble_block_system used to fail in np.eye with a TypeError
        (lambda: exact_rho(SsigmaSpec(2.5, PhiPsi(0.5, 0.5),
                                      PhiPsi(0.4, 0.5), TR)),
         "^L_hat must be an integer, got 2.5$"),
        (lambda: exact_rho(SsigmaSpec(True, PhiPsi(0.5, 0.5),
                                      PhiPsi(0.4, 0.5), TR)),
         "^L_hat must be an integer, got True$"),
    ])
    def test_inputs_out_of_range_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    # an infinite sigma used to warn in the closed form (inf * 0 in
    # _tracking_exact, inf / inf in _sinhc_scaled) before it was refused;
    # every entry refuses it, and NaN, with the same message
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry,where", [
        (lambda s: phi_psi_tracking_exact(s, 1.0, 1.0), "tracking exact"),
        (lambda s: phi_psi_tc_exact(s, 1.0, 1.0), "terminal-cost exact"),
        (lambda s: phi_psi_tracking_ie(s, 1.0, 0.1, 2), "tracking IE"),
        (lambda s: phi_psi_tc_ie(s, 1.0, 0.1, 2), "terminal-cost IE")],
        ids=["tracking exact", "terminal-cost exact", "tracking IE",
             "terminal-cost IE"])
    @pytest.mark.parametrize("sigma,shown", [
        (np.inf, "inf"), (-np.inf, "-inf"),
        (np.array([[1.0, 2.0], [-np.inf, np.nan]]), "-inf")])
    def test_non_finite_sigma_refused_before_computing(self, entry, where,
                                                       sigma, shown):
        with pytest.raises(ValueError, match=f"^{where}: sigma must be "
                           f"finite, got sigma={shown}$"):
            entry(sigma)

    def test_tracking_ie_zero_sigma_one_step(self):
        # gamma = 4, tau = 1: one recursion step from the identity map
        pp = phi_psi_tracking_ie(0.0, 4.0, 1.0, 1)
        assert pp.phi == pytest.approx(1.0)
        assert pp.psi == pytest.approx(0.5)

    def test_tracking_exact_zero_sigma(self):
        gh = 0.7
        pp = phi_psi_tracking_exact(0.0, (1.0 / gh) ** 2, 1.0)
        assert pp.phi == pytest.approx(1.0 / np.cosh(gh))
        assert pp.psi == pytest.approx(np.tanh(gh))

    def test_tracking_exact_small_gamma_hat_limit(self):
        # gamma -> infinity: pure decay, no control authority
        pp = phi_psi_tracking_exact(2.0, 1e18, 1.0)
        assert pp.phi == pytest.approx(np.exp(-2.0), rel=1e-8)
        assert pp.psi == pytest.approx(0.0, abs=1e-8)

    def test_tc_fdto_hand_values(self):
        pp = phi_psi_tc_ie(16.0, 1.0, 1.0, 1, Discretization.FDTO)
        assert pp.phi == pytest.approx(1 / 17)
        assert pp.psi == pytest.approx(1 / 289)
        pp = phi_psi_tc_ie(2.0, 1.0, 0.5, 2, Discretization.FDTO)
        assert pp.phi == pytest.approx(1 / 4)
        assert pp.psi == pytest.approx((15 / 16) / 6)

    def test_tc_fotd_scales_by_one_plus_sigma_tau(self):
        fdto = phi_psi_tc_ie(16.0, 1.0, 1.0, 1, Discretization.FDTO)
        fotd = phi_psi_tc_ie(16.0, 1.0, 1.0, 1, Discretization.FOTD)
        assert fotd.phi == fdto.phi
        assert fotd.psi == pytest.approx(17 * fdto.psi)

    def test_tc_ie_zero_sigma_limit(self):
        gamma, tau, J = 0.7, 0.2, 5
        for variant in (Discretization.FOTD, Discretization.FDTO):
            pp = phi_psi_tc_ie(0.0, gamma, tau, J, variant)
            assert pp.phi == 1.0
            assert pp.psi == pytest.approx(J * tau / gamma)
            near = phi_psi_tc_ie(1e-10, gamma, tau, J, variant)
            assert near.psi == pytest.approx(pp.psi, rel=1e-8)

    def test_tc_exact_limits(self):
        pp = phi_psi_tc_exact(0.0, 2.0, 1.0)
        assert pp.phi == 1.0 and pp.psi == pytest.approx(0.5)
        huge = phi_psi_tc_exact(1e4, 2.0, 1.0)
        assert 0.0 <= huge.phi < 1e-300 and huge.psi > 0

    def test_tc_exact_is_fine_limit_of_fotd(self):
        sigma, gamma = 1.3, 0.8
        exact = phi_psi_tc_exact(sigma, gamma, 1.0)
        J = 10_000
        ie = phi_psi_tc_ie(sigma, gamma, 1.0 / J, J, Discretization.FOTD)
        assert ie.phi == pytest.approx(exact.phi, rel=1e-3)
        assert ie.psi == pytest.approx(exact.psi, rel=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_catalog_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(0.0, 20.0)
        gamma = 10.0 ** rng.uniform(-3, 2)
        tau = 10.0 ** rng.uniform(-2, 0.5)
        J = int(rng.integers(1, 9))
        pp = phi_psi_tracking_ie(sigma, gamma, tau, J)
        bf = extract_phi_psi_scalar(sigma, gamma, tau, J, TR)
        assert pp.phi == pytest.approx(bf[0], abs=1e-10)
        assert pp.psi == pytest.approx(bf[1], abs=1e-10)
        for variant in (Discretization.FOTD, Discretization.FDTO):
            pp = phi_psi_tc_ie(sigma, gamma, tau, J, variant)
            bf = extract_phi_psi_scalar(sigma, gamma, tau, J, TC, variant)
            assert pp.phi == pytest.approx(bf[0], abs=1e-10)
            assert pp.psi == pytest.approx(bf[1], abs=1e-10)

    @pytest.mark.parametrize("sigma, gamma_hat, J", [
        (0.12648552168552957, 1e4, 10), (0.08685113737513521, 1e4, 32)])
    def test_tracking_ie_relative_accuracy(self, sigma, gamma_hat, J):
        # phi is about 1e-54 and 1e-155 here, so only a relative tolerance
        # sees a wrong one
        gamma, tau = 1.0 / gamma_hat ** 2, 1.0 / J
        pp = phi_psi_tracking_ie(sigma, gamma, tau, J)
        bf = extract_phi_psi_scalar(sigma, gamma, tau, J, TR)
        assert pp.phi == pytest.approx(bf[0], rel=1e-12, abs=0.0)
        assert pp.psi == pytest.approx(bf[1], rel=1e-12, abs=0.0)


class TestExactClosedForms:
    """The exact-solver entries of the catalog against their definitions;
    DT = 1 makes the hatted and plain variables coincide."""

    def test_terminal_closed_forms(self):
        sh, gh = 1.3, 0.8
        pp = phi_psi_tc_exact(sh, 1.0 / gh, 1.0)
        assert pp.phi == pytest.approx(np.exp(-sh))
        assert pp.psi == pytest.approx(gh * np.sinh(sh) / sh * np.exp(-sh))

    def test_tracking_closed_form_against_matrix_exponential(self):
        import scipy.linalg
        sh, gh = 0.9, 0.6
        # the state/adjoint pair evolves by the 2x2 generator
        # [[-sh, -gh], [-gh, sh]] over a unit hatted interval
        E = scipy.linalg.expm(np.array([[-sh, -gh], [-gh, sh]]))
        # boundary-value rearrangement of the flow map gives (phi, psi)
        phi_ref = E[0, 0] - E[0, 1] * E[1, 0] / E[1, 1]
        psi_ref = -E[0, 1] / E[1, 1]
        pp = phi_psi_tracking_exact(sh, 1.0 / gh ** 2, 1.0)
        assert pp.phi == pytest.approx(phi_ref, abs=1e-12)
        assert pp.psi == pytest.approx(psi_ref, abs=1e-12)


class TestTrackingBound:
    def test_hand_value(self):
        got = rho_bound_tracking(PhiPsi(0.5, 0.1), PhiPsi(0.6, 0.3))
        assert got == pytest.approx(np.sqrt(0.05 / 0.25))

    def test_coarse_equals_fine_gives_zero(self):
        pp = PhiPsi(0.4, 0.3)
        assert rho_bound_tracking(pp, pp) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(phi=coeff, psi=psi_val, phi_t=coeff, psi_t=psi_val,
           L_hat=st.integers(1, 12))
    # fine and coarse one ulp apart: S is about 1e-18 and must still be
    # formed without an absolute rounding error of 1e-16
    @example(phi=0.02, psi=2.0, phi_t=0.020000000000000004, psi_t=2.0,
             L_hat=5)
    def test_exact_rho_strictly_below_bound(self, phi, psi, phi_t, psi_t, L_hat):
        fine, coarse = PhiPsi(phi, psi), PhiPsi(phi_t, psi_t)
        er = exact_rho(SsigmaSpec(L_hat, fine, coarse, TR))
        bound = rho_bound_tracking(fine, coarse)
        if fine == coarse:
            assert er < 1e-12 and bound == 0.0
        else:
            assert er < bound


class TestTerminalBound:
    def test_coarse_equals_fine_gives_zero(self):
        pp = PhiPsi(0.4, 0.3)
        assert rho_bound_terminal(pp, pp) == 0.0

    def test_equal_phi_closed_form(self):
        # the phi term vanishes, so the bound is |x_star|
        fine, coarse = PhiPsi(0.5, 0.2), PhiPsi(0.5, 0.45)
        want = (0.45 - 0.2) / (0.45 + 1 - 0.25)
        assert rho_bound_terminal(fine, coarse) == pytest.approx(want)

    def test_divergent_series_branch(self):
        # no quadratic root is admissible here; x = (psi_t - psi)/psi_t
        # puts |q| >= 1 and is the root, so the bound exists
        fine, coarse = PhiPsi(0.9, 0.5), PhiPsi(0.5, 0.45)
        x = (0.45 - 0.5) / 0.45
        assert abs(coarse.phi + (fine.phi - coarse.phi) / x) >= 1.0
        assert rho_bound_terminal(fine, coarse) == pytest.approx(0.8)

    def test_array_with_one_inadmissible_point_raises(self):
        # a NaN coefficient fails every root test; the error names that
        # point alone
        fine = PhiPsi(np.array([0.3, np.nan, 0.2]), np.array([0.4, 0.5, 0.6]))
        coarse = PhiPsi(np.array([0.5, 0.7, 0.4]), np.full(3, 0.8))
        with pytest.raises(ValueError, match=r"^no admissible root for "
                           r"coefficients fine=PhiPsi\(phi=nan, psi=0.5\), "
                           r"coarse=PhiPsi\(phi=0.7, psi=0.8\) "):
            rho_bound_terminal(fine, coarse)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(coeff, psi_val, coeff, psi_val), min_size=1,
                    max_size=8))
    @example([(0.02, 0.9799999999999999, 0.9799999999999999, 0.02),
              (0.4, 0.3, 0.4, 0.3)])
    def test_array_equals_scalar_calls_bitwise(self, points):
        phi, psi, phi_t, psi_t = (np.array(c) for c in zip(*points))
        got = rho_bound_terminal(PhiPsi(phi, psi), PhiPsi(phi_t, psi_t))
        assert got.shape == phi.shape
        for k, p in enumerate(points):
            want = rho_bound_terminal(PhiPsi(*p[:2]), PhiPsi(*p[2:]))
            assert np.isscalar(want)
            assert got[k] == want

    @settings(max_examples=100, deadline=None)
    @given(phi=coeff, psi=psi_val, phi_t=coeff, psi_t=psi_val,
           L_hat=st.integers(1, 12))
    # q(x_div) is 1 in exact arithmetic and 1 - 1e-16 after rounding: the
    # divergent-series root must still be taken
    @example(phi=0.02, psi=0.9799999999999999, phi_t=0.9799999999999999,
             psi_t=0.02, L_hat=1)
    def test_exact_rho_below_bound(self, phi, psi, phi_t, psi_t, L_hat):
        fine, coarse = PhiPsi(phi, psi), PhiPsi(phi_t, psi_t)
        er = exact_rho(SsigmaSpec(L_hat, fine, coarse, TC))
        assert er <= rho_bound_terminal(fine, coarse) + 1e-10


class TestExactRho:
    def test_zero_for_identical_propagators(self):
        pp = PhiPsi(0.3, 0.7)
        for obj in (TR, TC):
            assert exact_rho(SsigmaSpec(4, pp, pp, obj)) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_coefficients_rejected(self, bad):
        good = PhiPsi(0.5, 0.3)
        for fine, coarse, name in ((PhiPsi(0.5, bad), good, "fine"),
                                   (good, PhiPsi(bad, 0.3), "coarse")):
            with pytest.raises(ValueError, match=f"{name} coefficients"):
                SsigmaSpec(10, fine, coarse, TR)

    def test_bound_independent_of_L_hat(self):
        fine, coarse = PhiPsi(0.3, 0.2), PhiPsi(0.5, 0.4)
        bound = rho_bound_tracking(fine, coarse)
        for L_hat in range(2, 13):
            assert exact_rho(SsigmaSpec(L_hat, fine, coarse, TR)) <= bound


class TestGridSweep:
    def test_single_point_recovers_bound(self):
        fine = PropagatorDescription(PropagatorKind.EXACT)
        coarse = PropagatorDescription(PropagatorKind.IMPLICIT_EULER, J=1)
        rows = bound_grid_sweep(TR, fine, coarse, [1.0], [1.0])
        assert len(rows) == 1
        assert rows[0][2] == rho_bound_at(TR, fine, coarse, 1.0, 1.0)

    def test_row_major_ordering(self):
        fine = PropagatorDescription(PropagatorKind.EXACT)
        coarse = PropagatorDescription(PropagatorKind.IMPLICIT_EULER, J=1)
        rows = bound_grid_sweep(TR, fine, coarse, [1.0, 2.0], [3.0, 4.0])
        assert [(r[0], r[1]) for r in rows] == [(1, 3), (1, 4), (2, 3), (2, 4)]

    @pytest.mark.parametrize("objective, variant", [
        (TR, Discretization.FOTD), (TC, Discretization.FOTD),
        (TC, Discretization.FDTO)])
    def test_rows_equal_pointwise_bound_bitwise(self, objective, variant):
        fine, coarse = (PropagatorDescription(PropagatorKind.IMPLICIT_EULER,
                                              J=J, variant=variant)
                        for J in (4, 10))
        grid = log_grid(1e-4, 1e4, 3)
        rows = bound_grid_sweep(objective, fine, coarse, grid, grid)
        assert len(rows) == 9
        for sh, gh, rho in rows:
            assert rho == rho_bound_at(objective, fine, coarse, sh, gh)

    def test_tracking_fdto_rejected(self):
        bad = PropagatorDescription(PropagatorKind.IMPLICIT_EULER, J=1,
                                    variant=Discretization.FDTO)
        fine = PropagatorDescription(PropagatorKind.EXACT)
        with pytest.raises(ValueError):
            rho_bound_at(TR, fine, bad, 1.0, 1.0)

    def test_fotd_never_worse_than_fdto_observationally(self):
        # recorded as an observation over a small grid, not a theorem
        fine = PropagatorDescription(PropagatorKind.EXACT)
        fotd = PropagatorDescription(PropagatorKind.IMPLICIT_EULER, J=1,
                                     variant=Discretization.FOTD)
        fdto = PropagatorDescription(PropagatorKind.IMPLICIT_EULER, J=1,
                                     variant=Discretization.FDTO)
        grid = log_grid(1e-2, 1e2, 8)
        r_fotd = bound_grid_sweep(TC, fine, fotd, grid, grid)
        r_fdto = bound_grid_sweep(TC, fine, fdto, grid, grid)
        ratio = np.array([b[2] / a[2] for a, b in zip(r_fotd, r_fdto)])
        assert np.all(ratio >= 1.0 - 1e-12)

    def test_log_grid_validation(self):
        with pytest.raises(ValueError):
            log_grid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            log_grid(2.0, 1.0, 5)
        # one point needs lo == hi; values must be finite
        for args in [(1.0, 2.0, 1), (1.0, 1.0, 5), (1.0, np.nan, 5),
                     (1.0, np.inf, 5), (np.nan, np.nan, 1)]:
            with pytest.raises(ValueError):
                log_grid(*args)
        # a float count used to raise a TypeError in np.logspace
        for count in (2.5, True):
            with pytest.raises(ValueError, match=f"^count must be an "
                               f"integer, got {count!r}$"):
                log_grid(1e-2, 1e2, count)

    @pytest.mark.parametrize("x", [0.3, 123.456])
    def test_one_point_log_grid_is_exact(self, x):
        # np.logspace turns 0.3 into 0.30000000000000004
        assert log_grid(x, x, 1).tolist() == [x]


class TestBlockSystem:
    @pytest.mark.parametrize("objective", [TR, TC])
    def test_complex_one_by_one_maps(self, objective):
        # the maps at one eigenvalue of a non-symmetric K are complex
        phi, psi, phi_q, psi_q = 0.5 + 0.2j, 0.3 - 0.1j, 0.5 - 0.2j, 0.3 + 0.1j
        L = 3
        A = assemble_block_system(
            [np.array([[c]]) for c in (phi, psi, phi_q, psi_q)], L, objective)
        ref = np.eye(2 * L, dtype=complex)
        for l in range(L):
            ref[l, L + l], ref[L + l, l] = psi, -psi_q
            if l > 0:
                ref[l, l - 1] = -phi
            if l < L - 1:
                ref[L + l, L + l + 1] = -phi_q
        if objective is TC:  # lam_Lhat - y_Lhat
            ref[-1, L - 1] = -1.0
        np.testing.assert_array_equal(A, ref)


class TestHattedGridConvention:
    def test_tracking_gamma_inversion(self):
        # gamma_hat = DT/sqrt(gamma) with DT = 1 on the grid
        pp = coefficients_at(TR, PropagatorDescription(PropagatorKind.EXACT),
                             1.0, 0.7)
        ref = phi_psi_tracking_exact(1.0, (1.0 / 0.7) ** 2, 1.0)
        assert pp == ref

    def test_terminal_gamma_inversion(self):
        pp = coefficients_at(TC, PropagatorDescription(PropagatorKind.EXACT),
                             1.0, 0.7)
        ref = phi_psi_tc_exact(1.0, 1.0 / 0.7, 1.0)
        assert pp == ref
