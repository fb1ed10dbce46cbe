import dataclasses
import datetime as dt
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import intrinsicprice as ip
from intrinsicprice import DomainError, EstimationError
from intrinsicprice.calibration import PricingObjective, _golden_search


@pytest.fixture(scope="module")
def synthetic(ref_model, ref_theta):
    """Noise-free synthetic quarter plus the true stage outputs."""
    series = ip.generate_synthetic(ref_model, ref_theta, 24 * 100, 0.0, seed=2)
    g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
    return series, g_tilde


def tiny_series(n=60, epoch=dt.date(2015, 1, 1)):
    taus = np.arange(n, dtype=float)
    load = 47.0 + np.sin(taus / 5.0)
    prices = 30.0 + np.cos(taus / 7.0)
    return ip.MarketSeries(epoch=epoch, taus=taus, load=load,
                           day_ahead=prices.copy(), intraday=prices.copy())


class TestMarketSeries:
    def test_hourly_grid_enforced(self):
        with pytest.raises(DomainError, match="hourly"):
            ip.MarketSeries(epoch=dt.date(2015, 1, 1), taus=np.array([0.0, 2.0]),
                            load=np.zeros(2), day_ahead=np.zeros(2), intraday=np.zeros(2))

    def test_fractional_offset_is_hourly(self):
        # 0.1 + k is not exactly 1 apart for every k; seven steps are off by one ulp
        taus = 0.1 + np.arange(30_000)
        assert np.any(np.diff(taus) != 1.0)
        s = ip.MarketSeries(epoch=dt.date(2015, 1, 1), taus=taus, load=np.zeros(taus.size),
                            day_ahead=np.zeros(taus.size), intraday=np.zeros(taus.size))
        assert len(s) == 30_000

    @pytest.mark.parametrize("taus", [[0.0, 1.001], [0.0, 1.0, 1.0]],
                             ids=["step-1.001h", "duplicate"])
    def test_off_hour_step_rejected(self, taus):
        n = len(taus)
        with pytest.raises(DomainError, match="strictly increasing and hourly"):
            ip.MarketSeries(epoch=dt.date(2015, 1, 1), taus=np.array(taus), load=np.zeros(n),
                            day_ahead=np.zeros(n), intraday=np.zeros(n))

    @pytest.mark.parametrize("taus, n, match", [
        ([0.0, 1.0], 3, "equal length"),
        ([0.0], 1, "at least two hourly observations"),
        ([-1.0, 0.0], 2, "cannot start before its epoch"),
    ], ids=["unequal-lengths", "one-row", "before-epoch"])
    def test_malformed_series_rejected(self, taus, n, match):
        with pytest.raises(DomainError, match=match):
            ip.MarketSeries(epoch=dt.date(2015, 1, 1), taus=np.array(taus), load=np.zeros(n),
                            day_ahead=np.zeros(n), intraday=np.zeros(n))

    def test_load_gaps_rejected(self):
        with pytest.raises(DomainError, match="load"):
            ip.MarketSeries(epoch=dt.date(2015, 1, 1), taus=np.arange(3.0),
                            load=np.array([1.0, np.nan, 2.0]),
                            day_ahead=np.zeros(3), intraday=np.zeros(3))

    def test_price_gaps_allowed(self):
        s = ip.MarketSeries(epoch=dt.date(2015, 1, 1), taus=np.arange(3.0),
                            load=np.ones(3), day_ahead=np.array([np.nan, 1.0, 1.0]),
                            intraday=np.full(3, np.nan))
        assert len(s) == 3
        assert s.timestamp(2) == dt.datetime(2015, 1, 1, 2)


class TestPricingObjective:
    def test_zero_at_true_parameters(self, ref_model, ref_theta, synthetic):
        series, g_tilde = synthetic
        value = PricingObjective(series, g_tilde, ref_model.ou, ref_model.price_seasonality,
                                 ref_model.conv)(ref_model.supply, ref_theta)
        assert value < 1e-8

    def test_single_observation_arithmetic(self, ref_model, ref_theta, synthetic):
        # one aligned hour, intraday quote off by 2: objective is sqrt(4)/2 = 1
        series, g_tilde = synthetic
        row = 30
        intraday = np.full(len(series), np.nan)
        day_ahead = np.full(len(series), np.nan)
        intraday[row] = series.intraday[row] + 2.0
        day_ahead[row] = series.day_ahead[row]
        bumped = ip.MarketSeries(epoch=series.epoch, taus=series.taus, load=series.load,
                                 day_ahead=day_ahead, intraday=intraday)
        value = PricingObjective(bumped, g_tilde, ref_model.ou, ref_model.price_seasonality,
                                 ref_model.conv)(ref_model.supply, ref_theta)
        assert value == pytest.approx(1.0, abs=1e-7)

    def test_overflow_hits_penalty_not_exception(self, ref_model, ref_theta, synthetic):
        series, g_tilde = synthetic
        objective = PricingObjective(series, g_tilde, ref_model.ou,
                                     ref_model.price_seasonality, ref_model.conv)
        absurd = ip.SupplyParams(alpha1=80.0, alpha2=-0.1, beta1=0.0, beta2=0.0)
        assert objective(absurd, 0.0) == 1e12
        assert objective.overflow_evaluations == 1

    def test_overflowing_sum_of_squares_is_a_counted_overflow(self, ref_model, ref_theta):
        # every error is finite, but the sum of their squares passes the float range
        series = ip.generate_synthetic(ref_model, ref_theta, 8760, 0.5, seed=3)
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        objective = PricingObjective(series, g_tilde, ref_model.ou,
                                     ref_model.price_seasonality, ref_model.conv)
        steep = dataclasses.replace(ref_model.supply, alpha1=5.0, alpha2=-5.0)
        assert all(np.isfinite(err).all() for err in objective._errors(steep, ref_theta)[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert objective(steep, ref_theta) == 1e12
            assert objective.overflow_evaluations == 1
            value, grad = objective(steep, ref_theta, gradient=True)
        assert value == 1e12 and np.array_equal(grad, np.zeros(5))
        assert objective.overflow_evaluations == 2

    def test_invariant_under_observation_order(self, ref_model, ref_theta, synthetic):
        # the objective is a sum over the aligned hours alone: blanking the
        # quotes before hour 500 gives the value of the series cut to start a
        # day earlier, whose first day of quotes is never aligned
        series, g_tilde = synthetic
        start, lag = 500, 24
        blank = np.arange(len(series)) < start
        blanked = ip.MarketSeries(epoch=series.epoch, taus=series.taus, load=series.load,
                                  day_ahead=np.where(blank, np.nan, series.day_ahead),
                                  intraday=np.where(blank, np.nan, series.intraday))
        cut = ip.MarketSeries(epoch=series.epoch, taus=series.taus[start - lag:],
                              load=series.load[start - lag:],
                              day_ahead=series.day_ahead[start - lag:],
                              intraday=series.intraday[start - lag:])
        a = PricingObjective(blanked, g_tilde, ref_model.ou, ref_model.price_seasonality,
                             ref_model.conv)
        b = PricingObjective(cut, g_tilde, ref_model.ou, ref_model.price_seasonality,
                             ref_model.conv)
        assert a.n_obs == b.n_obs == len(series) - start
        for theta in (ref_theta, 0.01):
            assert a(ref_model.supply, theta) == b(ref_model.supply, theta)

    def test_needs_aligned_observations(self, ref_model, synthetic):
        series, g_tilde = synthetic
        empty = ip.MarketSeries(epoch=series.epoch, taus=series.taus, load=series.load,
                                day_ahead=np.full(len(series), np.nan),
                                intraday=np.full(len(series), np.nan))
        with pytest.raises(EstimationError):
            PricingObjective(empty, g_tilde, ref_model.ou,
                             ref_model.price_seasonality, ref_model.conv)

    def test_needs_a_whole_hour_day_length_only(self, ref_model, synthetic):
        series, g_tilde = synthetic

        def build(**conventions):
            return PricingObjective(series, g_tilde, ref_model.ou, ref_model.price_seasonality,
                                    ip.MarketConventions(**conventions))

        with pytest.raises(DomainError, match="whole-hour day length"):
            build(delta=24.5)
        assert build(epsilon=0.5).n_obs == build().n_obs


class TestAnalyticGradient:
    @staticmethod
    def random_points(seed, count=5):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield np.array([np.log(rng.uniform(0.15, 0.25)), np.log(rng.uniform(0.15, 0.25)),
                            rng.uniform(42.0, 46.0), rng.uniform(35.0, 40.0),
                            rng.choice([-1.0, 1.0]) * rng.uniform(0.001, 0.01)])

    @pytest.mark.parametrize("window", [None, (300, 1100)], ids=["all", "rows"])
    def test_matches_fine_central_differences(self, ref_model, ref_theta, window):
        series = ip.generate_synthetic(ref_model, ref_theta, 24 * 60, 0.3, seed=21)
        if window is not None:   # quotes only on the hours of the window
            outside = (np.arange(len(series)) < window[0]) | (np.arange(len(series)) >= window[1])
            series = ip.MarketSeries(epoch=series.epoch, taus=series.taus, load=series.load,
                                     day_ahead=np.where(outside, np.nan, series.day_ahead),
                                     intraday=np.where(outside, np.nan, series.intraday))
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        objective = PricingObjective(series, g_tilde, ref_model.ou,
                                     ref_model.price_seasonality, ref_model.conv)

        def f(u):
            return objective(ip.SupplyParams(np.exp(u[0]), -np.exp(u[1]), u[2], u[3]), u[4])

        for u in self.random_points(22):
            supply = ip.SupplyParams(np.exp(u[0]), -np.exp(u[1]), u[2], u[3])
            value, grad = objective(supply, u[4], gradient=True)
            assert value == objective(supply, u[4])
            fine = ip.numerical_gradient(f, u, rel_step=1e-8)
            # the reference's own rounding error, eps |f| / h, exceeds 1e-6 of
            # the small leg-2 components
            rounding = np.finfo(float).eps * value / (1e-8 * np.maximum(np.abs(u), 1.0))
            assert np.all(np.abs(grad - fine) <= 1e-6 * np.abs(fine) + rounding)

    def test_zero_at_an_exact_fit(self, ref_model, ref_theta, synthetic):
        # market quotes equal to the model's: the root of a zero sum of
        # squares has no gradient, and zero stands in for it
        series, g_tilde = synthetic
        objective = PricingObjective(series, g_tilde, ref_model.ou,
                                     ref_model.price_seasonality, ref_model.conv)
        _, quotes, _ = objective._errors(ref_model.supply, ref_theta)
        objective.intraday_mkt, objective.day_ahead_mkt = quotes[0][0], quotes[1][0]
        value, grad = objective(ref_model.supply, ref_theta, gradient=True)
        assert value == 0.0
        assert np.array_equal(grad, np.zeros(5))

    def test_zero_on_the_penalty_plateau_and_counted_once(self, ref_model, synthetic):
        series, g_tilde = synthetic
        objective = PricingObjective(series, g_tilde, ref_model.ou,
                                     ref_model.price_seasonality, ref_model.conv)
        absurd = ip.SupplyParams(alpha1=80.0, alpha2=-0.1, beta1=0.0, beta2=0.0)
        value, grad = objective(absurd, 0.0, gradient=True)
        assert value == 1e12
        assert np.array_equal(grad, np.zeros(5))
        assert objective.overflow_evaluations == 1


class TestNumericalGradient:
    def test_matches_analytic_on_quadratic(self):
        H = np.array([[2.0, 0.3], [0.3, 1.0]])

        def f(x):
            return 0.5 * x @ H @ x

        x0 = np.array([1.0, -2.0])
        grad = ip.numerical_gradient(f, x0)
        assert np.allclose(grad, H @ x0, rtol=1e-8)

    def test_coarse_step_matches_fine_step(self, ref_model, ref_theta, synthetic):
        series, g_tilde = synthetic
        objective = PricingObjective(series, g_tilde, ref_model.ou,
                                     ref_model.price_seasonality, ref_model.conv)

        def f(u):
            supply = ip.SupplyParams(np.exp(u[0]), -np.exp(u[1]), u[2], u[3])
            return objective(supply, u[4])

        u = np.array([np.log(0.21), np.log(0.17), 44.5, 37.0, 0.001])
        coarse = ip.numerical_gradient(f, u, rel_step=1e-6)
        fine = ip.numerical_gradient(f, u, rel_step=1e-8)
        rel = np.abs(coarse - fine) / np.maximum(np.abs(fine), 1e-12)
        assert np.all(rel < 1e-4)


class TestStageFits:
    def test_load_seasonality_needs_a_year(self):
        with pytest.raises(EstimationError, match="year"):
            ip.fit_load_seasonality(tiny_series(100), ip.Calendar())

    def test_stage_one_two_round_trip(self, ref_model, ref_theta):
        series = ip.generate_synthetic(ref_model, ref_theta, 3 * 8760, 0.5, seed=5)
        g_tilde = ip.fit_load_seasonality(series, ip.Calendar())
        ou_hat = ip.fit_ou(series, g_tilde)
        assert abs(ou_hat.lam / ref_model.ou.lam - 1.0) < 0.10
        assert abs(ou_hat.sigma / ref_model.ou.sigma - 1.0) < 0.05

    def test_noise_free_load_is_degenerate_for_the_ou_fit(self, ref_model):
        # load exactly equal to a seasonal shape leaves only numerical dust
        # as residuals: either the fit refuses or the volatility collapses
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, 0.0)
        taus = np.arange(0.0, 9000.0)
        series = ip.MarketSeries(epoch=g_tilde.epoch, taus=taus,
                                 load=ip.evaluate(g_tilde, taus),
                                 day_ahead=np.full(taus.size, np.nan),
                                 intraday=np.full(taus.size, np.nan))
        fitted_g = ip.fit_load_seasonality(series, ip.Calendar())
        try:
            ou_hat = ip.fit_ou(series, fitted_g)
        except EstimationError:
            return
        assert ou_hat.sigma < 1e-6

    def test_shuffled_residuals_change_the_fit(self, ref_model, ref_theta):
        # the AR structure carries the information; destroying the order
        # must move the estimate materially
        series = ip.generate_synthetic(ref_model, ref_theta, 8760, 0.0, seed=6)
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        residuals = series.load - ip.evaluate(g_tilde, series.taus)
        ordered = ip.fit_mle(residuals, dt=1.0)
        shuffled = residuals.copy()
        np.random.default_rng(1).shuffle(shuffled)
        try:
            scrambled = ip.fit_mle(shuffled, dt=1.0)
            assert abs(scrambled.lam - ordered.lam) > 10 * ordered.lam
        except EstimationError:
            pass  # a shuffled sample may legitimately look non-mean-reverting

    def test_price_seasonality_needs_both_quotes(self, conv):
        series = tiny_series(400)
        one_sided = dataclasses.replace(series, day_ahead=np.full(len(series), np.nan))
        with pytest.raises(EstimationError, match="no hours with both intraday and day-ahead"):
            ip.fit_price_seasonality(one_sided, ip.Calendar(), conv)

    def test_price_seasonality_fit_recovers_shape(self, ref_model, ref_theta):
        # with the load deviation almost switched off the mixture target is
        # a deterministic seasonal curve the fit must track closely
        quiet = ip.ModelQ(ou=ip.OuParams(lam=ref_model.ou.lam, sigma=0.01, x0=0.0),
                          supply=ref_model.supply,
                          load_seasonality=ref_model.load_seasonality,
                          price_seasonality=ref_model.price_seasonality,
                          conv=ref_model.conv)
        series = ip.generate_synthetic(quiet, ref_theta, 8760 + 24, 0.0, seed=7)
        fitted = ip.fit_price_seasonality(series, ip.Calendar(), ref_model.conv)
        target = ip.price_seasonality_target(series.day_ahead, series.intraday, ref_model.conv)
        ok = np.isfinite(target)
        predicted = ip.evaluate(fitted, series.taus[ok])
        assert np.corrcoef(predicted, target[ok])[0, 1] > 0.95
        assert np.mean(predicted - target[ok]) == pytest.approx(0.0, abs=1e-9)


class TestInitialGuess:
    def test_noiseless_settlement_prices_recover_exactly(self, ref_model, conv):
        # quotes built directly from the settlement formula at realised load
        rng = np.random.default_rng(3)
        n = 2000
        taus = np.arange(n, dtype=float)
        load = 47.0 + 6.0 * rng.standard_normal(n)
        gamma3 = ip.SeasonalityModel.constant(30.0)
        intraday = np.full(n, np.nan)
        intraday[:-1] = (np.exp(0.1949 * (load[1:] - 43.8799))
                         - np.exp(-0.1796 * (load[1:] - 37.4548)) + 30.0)
        series = ip.MarketSeries(epoch=dt.date(2015, 1, 1), taus=taus, load=load,
                                 day_ahead=np.full(n, np.nan), intraday=intraday)
        guess = ip.initial_supply_guess(series, gamma3, conv)
        assert guess.alpha1 == pytest.approx(0.1949, abs=1e-6)
        assert guess.alpha2 == pytest.approx(-0.1796, abs=1e-6)
        assert guess.beta1 == pytest.approx(43.8799, abs=1e-4)
        assert guess.beta2 == pytest.approx(37.4548, abs=1e-4)

    def test_noisy_quotes_land_near_truth(self, ref_model, ref_theta, conv):
        series = ip.generate_synthetic(ref_model, ref_theta, 24 * 200, 0.5, seed=8)
        guess = ip.initial_supply_guess(series, ref_model.price_seasonality, conv)
        assert abs(guess.alpha1 / 0.1949 - 1.0) < 0.30
        assert abs(guess.alpha2 / -0.1796 - 1.0) < 0.30

    def test_constant_quotes_fall_back_with_diagnostic(self, conv):
        series = tiny_series(400)
        flat = ip.MarketSeries(epoch=series.epoch, taus=series.taus, load=series.load,
                               day_ahead=series.day_ahead,
                               intraday=np.full(len(series), 42.0))
        with pytest.warns(UserWarning, match="defaults"):
            guess = ip.initial_supply_guess(flat, ip.SeasonalityModel.constant(30.0), conv)
        assert guess.alpha1 == 0.2
        assert guess.alpha2 == -0.2
        assert guess.beta1 == pytest.approx(np.mean(series.load))

    def test_too_few_quotes_fall_back_with_diagnostic(self, conv):
        series = tiny_series(400)
        intraday = np.full(len(series), np.nan)
        intraday[:7] = 42.0
        sparse = dataclasses.replace(series, intraday=intraday)
        with pytest.warns(UserWarning, match="too few intraday quotes"):
            guess = ip.initial_supply_guess(sparse, ip.SeasonalityModel.constant(30.0), conv)
        assert (guess.alpha1, guess.alpha2) == (0.2, -0.2)

    def test_needs_a_whole_hour_delivery_length(self):
        series = tiny_series(400)
        with pytest.raises(DomainError, match="whole-hour delivery length"):
            ip.initial_supply_guess(series, ip.SeasonalityModel.constant(30.0),
                                    ip.MarketConventions(epsilon=0.5))


class TestCalibrateSupplyTheta:
    def test_truth_start_on_clean_data_converges_immediately(self, ref_model, ref_theta,
                                                             synthetic):
        series, g_tilde = synthetic
        result = ip.calibrate_supply_theta(series, g_tilde, ref_model.ou,
                                           ref_model.price_seasonality, ref_model.conv,
                                           init_supply=ref_model.supply,
                                           init_theta=ref_theta)
        assert result.objective_value < 1e-8
        assert result.diagnostics.converged
        assert result.diagnostics.iterations <= 2
        assert result.supply.alpha1 == pytest.approx(0.1949, rel=1e-3)
        # stage 3 hands back the stage-1/2 inputs untouched
        assert result.g_tilde is g_tilde
        assert result.ou is ref_model.ou
        assert result.gamma3 is ref_model.price_seasonality

    def test_never_worse_than_truth_start(self, ref_model, ref_theta, synthetic):
        series, g_tilde = synthetic
        objective = PricingObjective(series, g_tilde, ref_model.ou,
                                     ref_model.price_seasonality, ref_model.conv)
        start = objective(ref_model.supply, ref_theta)
        result = ip.calibrate_supply_theta(series, g_tilde, ref_model.ou,
                                           ref_model.price_seasonality, ref_model.conv,
                                           init_supply=ref_model.supply, init_theta=ref_theta)
        assert result.objective_value <= start + 1e-15

    def test_argmin_matches_sum_of_squares_variant(self, ref_model, ref_theta):
        # the printed normalisation is a monotone transform of the plain
        # sum of squares, so both objectives share their minimiser
        series = ip.generate_synthetic(ref_model, ref_theta, 24 * 40, 0.3, seed=9)
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        objective = PricingObjective(series, g_tilde, ref_model.ou,
                                     ref_model.price_seasonality, ref_model.conv)
        import scipy.optimize

        def pack(fn):
            return lambda u: fn(ip.SupplyParams(np.exp(u[0]), -np.exp(u[1]), u[2], u[3]), u[4])

        def sum_of_squares(supply, theta):
            return objective._fit(supply, theta)[0]

        u0 = np.array([np.log(0.19), np.log(0.18), 43.9, 37.5, 0.0])
        a = scipy.optimize.minimize(pack(objective), u0, method="BFGS",
                                    options={"gtol": 1e-10}).x
        b = scipy.optimize.minimize(pack(sum_of_squares), u0, method="BFGS",
                                    options={"gtol": 1e-10}).x
        assert np.allclose(a, b, atol=1e-4)

    def test_stage_three_needs_at_most_two_evaluations_per_iteration(self, ref_model,
                                                                       ref_theta, monkeypatch):
        series = ip.generate_synthetic(ref_model, ref_theta, 24 * 60, 0.3, seed=23)
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        calls = []
        original = PricingObjective.__call__

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PricingObjective, "__call__", counted)
        start = ip.SupplyParams(alpha1=0.21, alpha2=-0.17, beta1=44.5, beta2=37.0)
        result = ip.calibrate_supply_theta(series, g_tilde, ref_model.ou,
                                           ref_model.price_seasonality, ref_model.conv,
                                           init_supply=start, init_theta=0.001)
        assert result.diagnostics.converged
        assert result.diagnostics.iterations >= 5
        assert len(calls) <= 2 * result.diagnostics.iterations

    def test_start_on_the_overflow_plateau_is_not_converged(self, ref_model, ref_theta):
        # every leg overflows at the start, so the objective is the flat
        # penalty and the optimiser cannot move
        series = ip.generate_synthetic(ref_model, ref_theta, 24 * 400, 0.5, seed=1)
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        start = dataclasses.replace(ref_model.supply, alpha1=30.0)
        result = ip.calibrate_supply_theta(series, g_tilde, ref_model.ou,
                                           ref_model.price_seasonality, ref_model.conv,
                                           init_supply=start, init_theta=ref_theta)
        assert result.objective_value == 1e12
        assert not result.diagnostics.converged
        assert result.diagnostics.overflow_evaluations >= 1

    def test_rejects_wrong_sign_start(self):
        with pytest.raises(DomainError):
            ip.SupplyParams(alpha1=0.2, alpha2=0.2, beta1=40.0, beta2=40.0)


class TestFullPipelineAndMonthlyTheta:
    def test_calibrate_runs_end_to_end(self, ref_model, ref_theta):
        series = ip.generate_synthetic(ref_model, ref_theta, 8760 + 30 * 24, 0.5, seed=10)
        result = ip.calibrate(series, ip.Calendar(), ref_model.conv,
                              gamma3=ref_model.price_seasonality)
        assert result.diagnostics.converged
        assert abs(result.supply.alpha1 / 0.1949 - 1.0) < 0.15
        assert abs(result.theta - ref_theta) < 0.002

    def test_monthly_theta_piecewise_recovery(self, ref_model):
        monthly = {"2015-01": -0.03, "2015-02": 0.0, "2015-03": 0.01}
        series = ip.generate_synthetic(ref_model, 0.0, 24 * 90, 0.1, seed=11,
                                       monthly_theta=monthly)
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, 0.0)
        out = ip.implied_theta_monthly(series, g_tilde, ref_model.ou,
                                       ref_model.price_seasonality, ref_model.supply,
                                       ref_model.conv)
        assert len(out) == 3
        for month_start, value in out:
            assert value == pytest.approx(monthly[month_start.strftime("%Y-%m")], abs=0.003)

    def test_single_month_series_gives_single_entry(self, ref_model, ref_theta):
        series = ip.generate_synthetic(ref_model, ref_theta, 744, 0.1, seed=12)
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        out = ip.implied_theta_monthly(series, g_tilde, ref_model.ou,
                                       ref_model.price_seasonality, ref_model.supply,
                                       ref_model.conv)
        assert len(out) == 1
        assert out[0][0] == dt.date(2015, 1, 1)

    def test_sparse_month_skipped_with_warning(self, ref_model, ref_theta):
        series = ip.generate_synthetic(ref_model, ref_theta, 24 * 62, 0.1, seed=13)
        # blank out all but 30 aligned hours in the second month
        intraday = series.intraday.copy()
        feb = np.flatnonzero(series.taus >= 31 * 24)
        intraday[feb[30:]] = np.nan
        sparse = ip.MarketSeries(epoch=series.epoch, taus=series.taus, load=series.load,
                                 day_ahead=series.day_ahead, intraday=intraday)
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        with pytest.warns(UserWarning, match="skipped"):
            out = ip.implied_theta_monthly(sparse, g_tilde, ref_model.ou,
                                           ref_model.price_seasonality, ref_model.supply,
                                           ref_model.conv)
        assert len(out) == 1

    def test_seasonality_epoch_must_be_the_series_epoch(self, ref_model, ref_theta):
        # the same hours counted from 2015-01-31: the reference seasonalities
        # count theirs from 2015-01-01, so they would be read 30 days early
        series = ip.generate_synthetic(ref_model, ref_theta, 24 * 62, 0.1, seed=13)
        late = ip.MarketSeries(epoch=dt.date(2015, 1, 31), taus=series.taus[720:] - 720.0,
                               load=series.load[720:], day_ahead=series.day_ahead[720:],
                               intraday=series.intraday[720:])
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        with pytest.raises(DomainError, match="the load seasonality counts hours from "
                                              "2015-01-01, but the data count them from "
                                              "2015-01-31"):
            ip.implied_theta_monthly(late, g_tilde, ref_model.ou, ref_model.price_seasonality,
                                     ref_model.supply, ref_model.conv)

    def test_known_gamma3_epoch_checked_before_any_stage(self, ref_model):
        # sixty hours are too few for stage 1, so only a check made first
        # can name the epochs
        with pytest.raises(DomainError, match="the price seasonality counts hours from "
                                              "2015-01-01, but the data count them from "
                                              "2015-01-31"):
            ip.calibrate(tiny_series(epoch=dt.date(2015, 1, 31)), ip.Calendar(),
                         ref_model.conv, gamma3=ref_model.price_seasonality)


def monthly_search_one_by_one(series, g_tilde, ou, gamma3, supply, conv):
    """The implied-theta search as one one-lane golden-section search per
    month, each on an objective built from that month's hours alone (with the
    day of load before them): the reference the lockstep search must equal.
    Also returns, per searched month, its overflow count and its objective at
    the search's first point."""
    hours = np.datetime64(series.epoch, "h") + series.taus.astype("timedelta64[h]")
    month_of_row = hours.astype("datetime64[M]").astype(str)
    lag = int(conv.delta)
    out, overflows = [], {}
    for key in np.unique(month_of_row):
        rows = np.flatnonzero(month_of_row == key)
        part = slice(max(rows[0] - lag, 0), rows[-1] + 1)
        month = ip.MarketSeries(epoch=series.epoch, taus=series.taus[part],
                                load=series.load[part], day_ahead=series.day_ahead[part],
                                intraday=series.intraday[part])
        try:
            objective = PricingObjective(month, g_tilde, ou, gamma3, conv)
        except EstimationError:
            warnings.warn(f"month {key}: no aligned observations; skipped")
            continue
        if objective.n_obs < 48:
            warnings.warn(f"month {key}: only {objective.n_obs} aligned hours; skipped")
            continue
        theta = _golden_search(lambda th: [objective(supply, th[0])], 1, -1.0, 1.0, 1e-6)
        year, number = (int(p) for p in key.split("-"))
        out.append((dt.date(year, number, 1), float(theta[0])))
        overflows[key] = (objective.overflow_evaluations, objective(supply, -0.2360679774997898))
    return out, overflows


def recorded(fn, *args):
    """``fn(*args)`` and the texts of the user warnings it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught if w.category is UserWarning]


def lane_functions():
    """Functions of one variable on [-1, 1] with minima inside, at and past
    the bounds, kinks, flat plateaus, ties and several local minima, as
    ``(f, c)`` pairs: ``c`` is the one minimiser of ``f`` on the real line,
    or None."""
    fns = []
    near_bounds = [s * (1.0 - d) for s in (-1.0, 1.0) for d in (1e-7, 4e-7, 1e-5)]
    for c in [*np.linspace(-1.6, 1.6, 17), *near_bounds]:
        fns += [(lambda x, c=c: (x - c) ** 2, c), (lambda x, c=c: abs(x - c), c),
                (lambda x, c=c: min((x - c) ** 2, 0.25), None),
                (lambda x, c=c: np.floor(8.0 * (x - c)) ** 2, None),
                (lambda x, c=c: np.cos(9.0 * (x - c)) + 0.1 * x, None),
                (lambda x, c=c: (x - c) ** 4 - x * x, None),
                (lambda x, c=c: 1e12 if x < c else (x - c - 0.3) ** 2, None),
                (lambda x, c=c: np.exp(4.0 * (x - c)) - 4.0 * (x - c), c),
                (lambda x, c=c: (x - c) ** 2 * (2.0 + np.sin(7.0 * x)), None)]
    fns += [(lambda x: 1.0, None), (lambda x: 0.0, None), (lambda x: float(x > 0.0), None),
            (lambda x: -x, None), (lambda x: x, None)]
    return fns


def search_lanes(fns):
    return _golden_search(lambda x: [f(v) for f, v in zip(fns, x)], len(fns), -1.0, 1.0,
                          xatol=1e-6)


class TestImpliedThetaLockstep:
    SPIKE_ROW = 3132     # 2015-05-11 12:00

    def test_each_lane_equals_its_one_lane_search(self):
        fns = [f for f, _ in lane_functions()]
        assert len(fns) == 212
        assert search_lanes(fns).tolist() == [search_lanes([f])[0] for f in fns]

    def test_single_minimiser_found_within_xatol(self):
        pairs = [(f, c) for f, c in lane_functions() if c is not None]
        got = search_lanes([f for f, _ in pairs])
        target = np.clip([c for _, c in pairs], -1.0, 1.0)
        assert len(pairs) == 69
        assert np.all(np.abs(got - target) <= 1e-6)

    @given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(1e-3, 1e3)), min_size=1,
                    max_size=12))
    def test_random_parabolas_end_at_the_clipped_vertex(self, lanes):
        fns = [lambda x, c=c, a=a: a * (x - c) ** 2 for c, a in lanes]
        got = search_lanes(fns)
        assert np.all(np.abs(got - np.clip([c for c, _ in lanes], -1.0, 1.0)) <= 1e-6)
        assert got.tolist() == [search_lanes([f])[0] for f in fns]

    def test_constant_lanes_end_at_the_upper_bound(self):
        # a tie keeps the upper part, so a month whose objective is flat (on
        # the overflow-penalty plateau) ends at +1
        grid = np.linspace(-1.0, 1.0, 101)
        flat = [f for f, _ in lane_functions() if len({f(x) for x in grid}) == 1]
        assert len(flat) == 7
        assert np.all(np.abs(search_lanes(flat) - 1.0) <= 1e-6)

    @pytest.fixture(scope="class")
    def half_year(self, ref_model, ref_theta):
        """January to June: no quotes in February, 30 aligned hours in April,
        and in May one load of -7450 with no quotes of its own, so that only
        the next day's day-ahead leg reads it: its exponent passes the
        overflow bound for theta >= 0.5 under the reference supply.  The
        quotes of January, March and June are priced at theta -1.5, -0.1
        and 0.2, so that searches end at a bound, start uphill and go
        downhill."""
        monthly = {"2015-01": -1.5, "2015-03": -0.1, "2015-06": 0.2}
        series = ip.generate_synthetic(ref_model, ref_theta, 24 * 181, 0.5, seed=1,
                                       monthly_theta=monthly)
        day_ahead, intraday, load = (series.day_ahead.copy(), series.intraday.copy(),
                                     series.load.copy())
        feb = (series.taus >= 31 * 24) & (series.taus < 59 * 24)
        apr = np.flatnonzero((series.taus >= 90 * 24) & (series.taus < 120 * 24))
        intraday[feb] = np.nan
        day_ahead[apr[30:]] = np.nan
        load[self.SPIKE_ROW] = -7450.0
        intraday[self.SPIKE_ROW] = np.nan
        series = ip.MarketSeries(epoch=series.epoch, taus=series.taus, load=load,
                                 day_ahead=day_ahead, intraday=intraday)
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        return series, g_tilde

    @pytest.mark.parametrize("alpha", [None, 0.5], ids=["reference-supply", "alpha-0.5"])
    def test_equals_one_search_per_month(self, ref_model, half_year, alpha, monkeypatch):
        series, g_tilde = half_year
        supply = ref_model.supply
        if alpha is not None:
            supply = dataclasses.replace(supply, alpha1=alpha, alpha2=-alpha)
        args = (series, g_tilde, ref_model.ou, ref_model.price_seasonality, supply,
                ref_model.conv)
        (expected, overflows), expected_warnings = recorded(monthly_search_one_by_one, *args)
        # the cases this test is about: a first point on the penalty plateau,
        # a month that overflows at some trial theta, interior minima, skips
        assert [first for _, first in overflows.values()].count(1e12) >= 1
        assert overflows["2015-05"][0] >= 1
        assert any(abs(theta) < 0.5 for _, theta in expected)
        assert expected_warnings == ["month 2015-02: no aligned observations; skipped",
                                     "month 2015-04: only 30 aligned hours; skipped"]

        month_by_month = []
        original = PricingObjective._fit

        def spy(self, supply, theta, block=slice(None)):
            month_by_month.append(block)
            return original(self, supply, theta, block)

        monkeypatch.setattr(PricingObjective, "_fit", spy)
        got, got_warnings = recorded(ip.implied_theta_monthly, *args)
        assert got == expected
        assert got_warnings == expected_warnings
        assert month_by_month   # a round overflowed and was priced month by month

    def test_no_aligned_rows_at_all(self, ref_model, half_year):
        series, g_tilde = half_year
        blank = ip.MarketSeries(epoch=series.epoch, taus=series.taus, load=series.load,
                                day_ahead=series.day_ahead,
                                intraday=np.full(len(series), np.nan))
        args = (blank, g_tilde, ref_model.ou, ref_model.price_seasonality, ref_model.supply,
                ref_model.conv)
        (expected, _), expected_warnings = recorded(monthly_search_one_by_one, *args)
        got, got_warnings = recorded(ip.implied_theta_monthly, *args)
        assert got == expected == []
        assert got_warnings == expected_warnings
        assert len(got_warnings) == 6
