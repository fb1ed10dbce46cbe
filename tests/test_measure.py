import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import intrinsicprice as ip
from intrinsicprice import DomainError
from intrinsicprice.calibration import CalibrationDiagnostics, CalibrationResult
from intrinsicprice.measure import _terminal_density


class TestRealWorldSeasonality:
    def test_zero_theta_identity(self, ref_ou):
        for mode in ("exact", "first_order"):
            assert ip.to_risk_neutral_state(55.0, ref_ou, 0.0, 1000.0, mode) == 55.0

    def test_modes_agree_for_tiny_horizon(self, ref_ou):
        tau = 1e-6 / ref_ou.lam
        exact = ip.to_risk_neutral_state(50.0, ref_ou, -0.0036, tau, "exact")
        first = ip.to_risk_neutral_state(50.0, ref_ou, -0.0036, tau, "first_order")
        assert exact == pytest.approx(first, rel=1e-6)

    def test_one_year_gap_between_modes(self, ref_ou, ref_theta):
        # the first-order form keeps growing linearly; the exact one saturates
        tau = 8760.0
        exact = ip.to_risk_neutral_state(0.0, ref_ou, ref_theta, tau, "exact")
        first = ip.to_risk_neutral_state(0.0, ref_ou, ref_theta, tau, "first_order")
        assert exact == pytest.approx(-math.expm1(-ref_ou.lam * tau) * ref_ou.sigma * ref_theta,
                                      rel=1e-12)
        assert first == pytest.approx(ref_ou.lam * ref_ou.sigma * ref_theta * tau, rel=1e-12)
        assert abs(first) > 100 * abs(exact)

    def test_unknown_mode_rejected(self, ref_ou):
        with pytest.raises(DomainError):
            ip.to_risk_neutral_state(0.0, ref_ou, 0.0, 1.0, mode="quadratic")

    def test_negative_tau_rejected(self, ref_ou):
        with pytest.raises(DomainError, match="tau must be non-negative"):
            ip.to_risk_neutral_state(0.0, ref_ou, 0.1, [1.0, -1.0])

    @pytest.mark.parametrize("mode", ["first_order", "exact"])
    def test_non_finite_tau_rejected(self, ref_ou, mode):
        for tau in (np.nan, [1.0, np.inf]):
            with pytest.raises(DomainError, match="tau must be finite"):
                ip.to_risk_neutral_state(0.0, ref_ou, 0.1, tau, mode)


class TestStateShift:
    def test_identities(self, ref_ou):
        assert ip.to_risk_neutral_state(1.5, ref_ou, 0.0, 100.0) == 1.5
        assert ip.to_risk_neutral_state(1.5, ref_ou, -0.0036, 0.0) == 1.5

    def test_one_day_reference_value(self, ref_ou, ref_theta):
        shifted = ip.to_risk_neutral_state(0.0, ref_ou, ref_theta, 24.0)
        assert shifted == pytest.approx(0.0298 * 1.4988 * -0.0036 * 24.0, rel=1e-12)
        assert shifted == pytest.approx(-0.00386, abs=2e-6)

    def test_exact_mode_saturates(self, ref_ou, ref_theta):
        far = ip.to_risk_neutral_state(0.0, ref_ou, ref_theta, 1e6, mode="exact")
        assert far == pytest.approx(ref_ou.sigma * ref_theta, rel=1e-10)


class TestSeasonalityConversion:
    def test_round_trip(self, ref_model, ref_ou, ref_theta):
        g = ref_model.load_seasonality
        g_tilde = ip.p_seasonality_from_q(g, ref_ou, ref_theta)
        back = ip.q_seasonality_from_p(g_tilde, ref_ou, ref_theta)
        assert back.trend == pytest.approx(g.trend, rel=1e-12)
        assert back.level == g.level

    def test_only_trend_moves(self, ref_model, ref_ou, ref_theta):
        g = ref_model.load_seasonality
        g_tilde = ip.p_seasonality_from_q(g, ref_ou, ref_theta)
        assert g_tilde.trend - g.trend == pytest.approx(
            ref_ou.lam * ref_ou.sigma * ref_theta, rel=1e-12)
        assert np.array_equal(g_tilde.hod_weights, g.hod_weights)

    @given(trend=st.floats(-1e-3, 1e-3), theta=st.floats(-0.1, 0.1),
           lam=st.floats(1e-3, 1.0), sigma=st.floats(0.0, 10.0))
    def test_round_trip_within_ulps(self, ref_model, trend, theta, lam, sigma):
        # two roundings, each at most half a spacing of the larger term
        g = dataclasses.replace(ref_model.load_seasonality, trend=trend)
        ou = ip.OuParams(lam=lam, sigma=sigma)
        back = ip.q_seasonality_from_p(ip.p_seasonality_from_q(g, ou, theta), ou, theta)
        shift = lam * sigma * theta
        assert abs(back.trend - trend) <= 2 * np.spacing(abs(trend) + abs(shift))
        assert (back.level, back.sin_annual, back.cos_annual) == \
            (g.level, g.sin_annual, g.cos_annual)


class TestRadonNikodym:
    def test_zero_drift_is_unity(self, rng):
        grid = np.linspace(0.0, 100.0, 11)
        w = rng.normal(0, math.sqrt(10.0), size=(7, 10))
        nu = ip.radon_nikodym_path(0.0, w, grid)
        assert np.all(nu == 1.0)

    def test_positive_and_starts_at_one(self, rng):
        grid = np.linspace(0.0, 50.0, 6)
        w = rng.normal(0, math.sqrt(10.0), size=(100, 5))
        nu = ip.radon_nikodym_path(-0.2, w, grid)
        assert np.all(nu > 0.0)
        assert np.all(nu[:, 0] == 1.0)

    def test_unit_mean_martingale(self, ref_ou, ref_theta):
        cfg = ip.McConfig(n_paths=200_000, seed=4)
        check = ip.mc_density_unit_mean(ref_ou, ref_theta, 168.0, cfg)
        assert check.passed

    def test_unit_mean_large_drift(self):
        ou = ip.OuParams(lam=1.0, sigma=1.0, x0=0.0)
        cfg = ip.McConfig(n_paths=400_000, seed=9)
        check = ip.mc_density_unit_mean(ou, 0.3, 10.0, cfg)
        assert check.passed

    def test_increment_shape_validated(self):
        with pytest.raises(DomainError):
            ip.radon_nikodym_path(0.1, np.zeros((3, 4)), np.linspace(0, 1, 4))
        with pytest.raises(DomainError, match="increasing"):
            ip.radon_nikodym_path(0.1, np.zeros((3, 2)), np.array([0.0, 2.0, 1.0]))

    def test_zero_width_step_rejected(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            ip.radon_nikodym_path(0.1, np.zeros((3, 3)), np.array([0.0, 1.0, 1.0, 2.0]))

    def test_non_finite_grid_rejected(self):
        with pytest.raises(DomainError, match="grid times must be finite"):
            ip.radon_nikodym_path(0.1, np.zeros(2), np.array([0.0, np.nan, 2.0]))

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError, match="non-empty 1-d array"):
            ip.radon_nikodym_path(0.1, np.zeros((3, 0)), np.array([]))

    @pytest.mark.parametrize("shape", [(1000, 8), (3, 4, 5), (6, 1), (5,), (4, 0)])
    def test_terminal_density_is_the_last_column_bit_for_bit(self, rng, shape):
        grid = np.linspace(2.0, 170.0, shape[-1] + 1)
        w = rng.normal(0.0, 3.0, size=shape)
        path = ip.radon_nikodym_path(-0.013, w, grid)
        assert np.array_equal(_terminal_density(-0.013, w, grid[-1] - grid[0]),
                              path[..., -1])

class TestGirsanovConsistency:
    def test_weighted_moments_match_real_world(self, ref_ou, ref_theta):
        cfg = ip.McConfig(n_paths=300_000, seed=12)
        checks = ip.mc_girsanov_moments(ref_ou, ref_theta, 96.0, cfg)
        assert all(c.passed for c in checks)

    def test_weighted_moments_strong_drift(self):
        # a visible drift so the test has real discriminating power
        ou = ip.OuParams(lam=0.1, sigma=1.0, x0=2.0)
        cfg = ip.McConfig(n_paths=400_000, seed=13)
        checks = ip.mc_girsanov_moments(ou, 0.5, 48.0, cfg)
        assert all(c.passed for c in checks)


class TestMutationPower:
    """The mutation drift reaches both density checks.  Each drift and path
    count below gives |z| > 5 at its seed: -16.2, +11.2 and +9.2.  A positive
    drift moves the second moment by 2 m d + d^2 with the mean m < 0 here, so
    the two terms partly cancel; a negative drift has more power there."""

    def test_density_unit_mean_fails(self, ref_ou, ref_theta):
        cfg = ip.McConfig(n_paths=20_000, seed=1, mutation_drift=0.01)
        assert ip.mc_density_unit_mean(ref_ou, ref_theta, 168.0, cfg).z < -5.0

    def test_density_weighted_mean_fails(self, ref_ou, ref_theta):
        cfg = ip.McConfig(n_paths=50_000, seed=1, mutation_drift=0.01)
        mean, _ = ip.mc_girsanov_moments(ref_ou, ref_theta, 96.0, cfg)
        assert mean.z > 5.0

    def test_density_weighted_second_moment_fails(self, ref_ou, ref_theta):
        cfg = ip.McConfig(n_paths=20_000, seed=1, mutation_drift=-0.05)
        _, second = ip.mc_girsanov_moments(ref_ou, ref_theta, 96.0, cfg)
        assert second.z > 5.0


class TestRealWorldLegExpectation:
    def test_zero_theta_matches_pricing_measure_leg(self, ref_model):
        t, tau, x = 100.0, 268.0, 2.4
        assert ip.supply_leg_real_world_expectation(ref_model, 0.0, t, tau, x) == \
            ip.supply_leg_expectation(ref_model, t, tau, x)

    def test_zero_vol_reduces_to_decay(self, ref_supply, conv):
        ou = ip.OuParams(lam=0.0298, sigma=0.0, x0=0.0)
        model = ip.ModelQ(ou=ou, supply=ref_supply,
                          load_seasonality=ip.SeasonalityModel.constant(47.0),
                          price_seasonality=ip.SeasonalityModel.constant(30.0), conv=conv)
        t, tau, x = 100.0, 268.0, 3.0
        expected = math.exp(0.1949 * (47.0 + math.exp(-0.0298 * (tau + 1 - t)) * x - 43.8799))
        value = ip.supply_leg_real_world_expectation(model, -0.5, t, tau, x)[0]
        assert value == pytest.approx(expected, rel=1e-14)

    def test_against_real_world_monte_carlo(self, ref_model, ref_theta, rng):
        # simulate the centred deviation, map with the exact shift, 10^6 draws
        tau = 400.0
        t = tau - 168.0
        x_tilde = 1.0
        closed = ip.supply_leg_real_world_expectation(ref_model, ref_theta, t, tau, x_tilde)[0]
        ou = ref_model.ou
        mean, var = ip.transition(ou, x_tilde, tau + 1.0 - t)
        x_end = mean + np.sqrt(var) * rng.standard_normal(1_000_000)
        x_q = x_end + ip.to_risk_neutral_state(0.0, ou, ref_theta, tau + 1.0, mode="exact")
        g = ip.evaluate(ref_model.load_seasonality, tau + 1.0)
        draws = np.exp(0.1949 * (g + x_q - 43.8799))
        assert abs(draws.mean() / closed - 1.0) < 5e-3


class TestRiskPremium:
    def test_exactly_zero_without_measure_change(self, ref_model):
        ts = np.array([0.0, 50.0, 200.0, 267.5, 269.0])
        for t in ts:
            assert ip.risk_premium(ref_model, 0.0, float(t), 268.0, 1.3) == 0.0

    @given(tau=st.floats(0.0, 3 * 8760.0), share=st.floats(0.0, 1.0),
           x_tilde=st.floats(-30.0, 30.0))
    def test_zero_without_measure_change_anywhere(self, ref_model, tau, share, x_tilde):
        assert ip.risk_premium(ref_model, 0.0, share * tau, tau, x_tilde) == 0.0

    def test_matches_direct_definition(self, ref_model, ref_theta):
        # forward at the shifted state minus the real-world leg difference
        t, tau, x_tilde = 150.0, 268.0, 0.5
        x = ip.to_risk_neutral_state(x_tilde, ref_model.ou, ref_theta, t)
        leg1, leg2 = ip.supply_leg_expectation(ref_model, t, tau, x)
        leg1_p, leg2_p = ip.supply_leg_real_world_expectation(ref_model, ref_theta, t, tau, x_tilde)
        legs_q, legs_p = leg1 - leg2, leg1_p - leg2_p
        assert ip.risk_premium(ref_model, ref_theta, t, tau, x_tilde) == \
            pytest.approx(legs_q - legs_p, rel=1e-12)

    @pytest.mark.parametrize("t, tau", [
        (150.0, np.arange(268.0, 1012.0)),
        (np.linspace(0.0, 268.0, 97), 268.0),
        (150.0, 268.0),
    ], ids=["array-tau", "array-t", "scalar"])
    def test_equals_the_public_legs_bit_for_bit(self, ref_model, ref_theta, t, tau):
        x_tilde = 0.5
        x = ip.to_risk_neutral_state(x_tilde, ref_model.ou, ref_theta, t)
        leg1, leg2 = ip.supply_leg_expectation(ref_model, t, tau, x)
        leg1_p, leg2_p = ip.supply_leg_real_world_expectation(ref_model, ref_theta, t, tau, x_tilde)
        legs_q, legs_p = leg1 - leg2, leg1_p - leg2_p
        premium = ip.risk_premium(ref_model, ref_theta, t, tau, x_tilde)
        assert np.shape(premium) == np.broadcast_shapes(np.shape(t), np.shape(tau))
        assert np.array_equal(premium, legs_q - legs_p)

    @pytest.mark.parametrize("t", [-48.0, np.array([-48.0, 0.0, 100.0])], ids=["scalar", "array"])
    def test_negative_trading_time_names_t(self, ref_model, ref_theta, t):
        with pytest.raises(DomainError, match=r"trading times t >= 0, got t = -48\.0$"):
            ip.risk_premium(ref_model, ref_theta, t, 2160.0, 0.0)

    def test_against_monte_carlo_oracle(self, ref_model, ref_theta):
        cfg = ip.McConfig(n_paths=400_000, seed=21)
        checks = ip.mc_risk_premium(ref_model, ref_theta, 200.0, 268.0, 0.5, cfg)
        assert all(c.passed for c in checks)
        assert abs(checks[2].z) <= 3.0

    def test_sign_near_delivery_with_negative_theta(self, ref_model, ref_theta):
        # a negative parameter depresses quotes near delivery relative to the
        # real-world expectation once the state shift has accumulated
        tau = 8760.0
        assert ip.risk_premium(ref_model, ref_theta, tau, tau, 0.0) < 0.0

    def test_settlement_bound(self, ref_model):
        with pytest.raises(DomainError):
            ip.risk_premium(ref_model, 0.1, 270.0, 268.0, 0.0)

    def test_calibration_result_theta_must_be_finite(self, ref_model):
        with pytest.raises(DomainError, match="theta must be finite, got inf"):
            CalibrationResult(g_tilde=ref_model.load_seasonality, ou=ref_model.ou,
                              gamma3=ref_model.price_seasonality, supply=ref_model.supply,
                              theta=float("inf"), objective_value=0.0,
                              diagnostics=CalibrationDiagnostics(iterations=0, converged=False))

    def test_calibration_result_objective_must_be_non_negative(self, ref_model):
        with pytest.raises(DomainError, match="objective value cannot be negative"):
            CalibrationResult(g_tilde=ref_model.load_seasonality, ou=ref_model.ou,
                              gamma3=ref_model.price_seasonality, supply=ref_model.supply,
                              theta=0.0, objective_value=-1.0,
                              diagnostics=CalibrationDiagnostics(iterations=0, converged=False))
