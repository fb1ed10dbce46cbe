import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import intrinsicprice as ip
from intrinsicprice import DomainError, NumericError
from intrinsicprice.model import _MAX_EXPONENT, _checked_exp


class TestIntrinsicPrice:
    def test_reference_point_against_scalar_arithmetic(self, flat_model):
        # independent evaluation with math-library scalars
        expected = (math.exp(0.1949 * (60.0 - 43.8799))
                    - math.exp(-0.1796 * (60.0 - 37.4548)) + 30.0)
        value = ip.intrinsic_price(flat_model, 60.0, tau=100.0)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(53.12, abs=0.01)

    def test_price_is_seasonality_when_load_hits_both_shifts(self, ref_ou, conv):
        supply = ip.SupplyParams(alpha1=0.2, alpha2=-0.3, beta1=50.0, beta2=50.0)
        model = ip.ModelQ(ou=ref_ou, supply=supply,
                          load_seasonality=ip.SeasonalityModel.constant(50.0),
                          price_seasonality=ip.SeasonalityModel.constant(17.0), conv=conv)
        assert ip.intrinsic_price(model, 50.0, tau=10.0) == 17.0

    def test_low_load_asymptote_is_negative(self, ref_ou, ref_supply, conv):
        model = ip.ModelQ(ou=ref_ou, supply=ref_supply,
                          load_seasonality=ip.SeasonalityModel.constant(47.0),
                          price_seasonality=ip.SeasonalityModel.constant(0.0), conv=conv)
        assert ip.intrinsic_price(model, -2000.0, tau=10.0) < -1e100

    def test_overflow_guard(self, flat_model):
        with pytest.raises(NumericError, match="exceeds"):
            ip.intrinsic_price(flat_model, 1e6, tau=10.0)

    def test_overflow_guard_reads_every_element(self, flat_model):
        # one leg-1 exponent of 0.1949 * (4000 - 43.8799) = 771 in the last row, and a NaN
        load = np.full((3, 4), 47.0)
        load[2, 1], load[0, 3] = 4000.0, np.nan
        with pytest.raises(NumericError, match="supply leg 1: exponent magnitude 771 exceeds"):
            ip.intrinsic_price(flat_model, load, tau=10.0)


class TestSupplyLegExpectation:
    def test_at_settlement_equals_realised_leg(self, flat_model):
        tau, x = 100.0, 7.3
        leg1, leg2 = ip.supply_leg_expectation(flat_model, tau + 1.0, tau, x)
        assert leg1 == math.exp(0.1949 * (47.0 + x - 43.8799))
        assert leg2 == math.exp(-0.1796 * (47.0 + x - 37.4548))

    def test_zero_vol_is_deterministic_decay(self, ref_supply, conv):
        ou = ip.OuParams(lam=0.0298, sigma=0.0, x0=0.0)
        model = ip.ModelQ(ou=ou, supply=ref_supply,
                          load_seasonality=ip.SeasonalityModel.constant(47.0),
                          price_seasonality=ip.SeasonalityModel.constant(0.0), conv=conv)
        tau, t, x = 200.0, 150.0, 4.0
        horizon = tau + 1.0 - t
        expected = math.exp(0.1949 * (47.0 + math.exp(-0.0298 * horizon) * x - 43.8799))
        assert ip.supply_leg_expectation(model, t, tau, x)[0] == pytest.approx(expected, rel=1e-14)

    def test_against_monte_carlo_exponential_moment(self, flat_model, rng):
        # E[exp(alpha1 (G_end - beta1)) | x] with 10^6 exact draws, < 0.5% relative
        tau = 500.0
        t = tau + 1.0 - 24.0
        x = 13.0 / math.exp(-0.0298 * 24.0)   # conditional mean load of 60
        closed = ip.supply_leg_expectation(flat_model, t, tau, x)[0]
        mean, var = ip.transition(flat_model.ou, x, 24.0)
        draws = np.exp(0.1949 * (47.0 + mean + np.sqrt(var) * rng.standard_normal(1_000_000)
                                 - 43.8799))
        assert abs(draws.mean() / closed - 1.0) < 5e-3

    def test_future_settlement_required(self, flat_model):
        with pytest.raises(DomainError,
                           match=r"t <= tau \+ epsilon; got t = 102.0 with tau = 100.0$"):
            ip.supply_leg_expectation(flat_model, 102.0, 100.0, 0.0)
        # the first offending pair of the broadcast, in C order
        with pytest.raises(DomainError, match="got t = 90.0 with tau = 50.0$"):
            ip.forward_price(flat_model, np.array([[1.0], [90.0]]), np.array([50.0, 100.0]), 0.0)

    @pytest.mark.parametrize("t, tau", [(np.nan, 100.0), (-np.inf, 100.0),
                                        (np.array([90.0, np.nan]), 100.0)],
                             ids=["nan-t", "minus-inf-t", "nan-in-array"])
    def test_non_finite_time_rejected(self, ref_model, t, tau):
        with pytest.raises(DomainError, match="finite times"):
            ip.forward_price(ref_model, t, tau, 0.0)


class TestTradableAndForward:
    def test_settlement_value_is_realised_intrinsic_bitwise(self, ref_model):
        tau, x = 268.0, 2.0
        g = ip.evaluate(ref_model.load_seasonality, tau + 1.0)
        assert ip.tradable_price(ref_model, tau + 1.0, tau, x) == \
            ip.intrinsic_price(ref_model, g + x, tau)
        assert ip.forward_price(ref_model, tau + 1.0, tau, x) == \
            ip.intrinsic_price(ref_model, g + x, tau)

    # three years of deliveries and loads within 30 of the seasonal level keep
    # both leg exponents far below the overflow guard
    @given(tau=st.floats(0.0, 3 * 8760.0), x=st.floats(-30.0, 30.0))
    def test_forward_at_settlement_is_intrinsic_bitwise(self, ref_model, tau, x):
        tau_e = tau + ref_model.conv.epsilon
        load = ip.evaluate(ref_model.load_seasonality, tau_e) + x
        assert ip.forward_price(ref_model, tau_e, tau, x) == \
            ip.intrinsic_price(ref_model, load, tau)

    def test_zero_rate_forward_equals_tradable(self, ref_ou, ref_supply):
        conv = ip.MarketConventions(annual_rate=0.0)
        model = ip.ModelQ(ou=ref_ou, supply=ref_supply,
                          load_seasonality=ip.SeasonalityModel.constant(47.0),
                          price_seasonality=ip.SeasonalityModel.constant(30.0), conv=conv)
        assert ip.forward_price(model, 100.0, 268.0, 3.0) == \
            ip.tradable_price(model, 100.0, 268.0, 3.0)

    def test_forward_discount_identity(self, ref_model, conv):
        t, tau, x = 100.0, 268.0, 3.0
        growth = math.exp(conv.hourly_rate * (tau + 1.0 - t))
        assert ip.forward_price(ref_model, t, tau, x) == pytest.approx(
            growth * ip.tradable_price(ref_model, t, tau, x), rel=1e-12)

    def test_recursive_relation(self, ref_model, conv):
        # quote at t from an earlier quote plus the leg increments
        t, u, tau = 120.0, 80.0, 268.0
        x_u, x_t = -4.0, 2.5
        r = conv.hourly_rate
        direct = ip.tradable_price(ref_model, t, tau, x_t)
        leg1_t, leg2_t = ip.supply_leg_expectation(ref_model, t, tau, x_t)
        leg1_u, leg2_u = ip.supply_leg_expectation(ref_model, u, tau, x_u)
        legs_t, legs_u = leg1_t - leg2_t, leg1_u - leg2_u
        recursed = (math.exp(r * (t - u)) * ip.tradable_price(ref_model, u, tau, x_u)
                    + math.exp(-r * (tau + 1.0 - t)) * (legs_t - legs_u))
        assert direct == pytest.approx(recursed, rel=1e-12)

    def test_array_broadcast(self, ref_model):
        xs = np.array([-3.0, 0.0, 3.0])
        out = ip.forward_price(ref_model, 100.0, 268.0, xs)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)   # supply curve is increasing in load


class TestIntradayDayAhead:
    def test_intraday_is_tradable_at_delivery_start(self, ref_model):
        assert ip.intraday_price(ref_model, 268.0, 1.0) == \
            ip.tradable_price(ref_model, 268.0, 268.0, 1.0)

    def test_short_delivery_limit_tends_to_intrinsic(self, ref_ou, ref_supply):
        conv = ip.MarketConventions(epsilon=1e-4)
        model = ip.ModelQ(ou=ref_ou, supply=ref_supply,
                          load_seasonality=ip.SeasonalityModel.constant(47.0),
                          price_seasonality=ip.SeasonalityModel.constant(30.0), conv=conv)
        tau, x = 268.0, 5.0
        quoted = ip.intraday_price(model, tau, x)
        realised = ip.intrinsic_price(model, 47.0 + x, tau)
        assert abs(quoted / realised - 1.0) < 1e-3

    def test_zero_vol_zero_rate_day_ahead_equals_intraday(self, ref_supply):
        conv = ip.MarketConventions(annual_rate=0.0)
        ou = ip.OuParams(lam=0.0298, sigma=0.0, x0=0.0)
        model = ip.ModelQ(ou=ou, supply=ref_supply,
                          load_seasonality=ip.SeasonalityModel.constant(47.0),
                          price_seasonality=ip.SeasonalityModel.constant(30.0), conv=conv)
        tau = 268.0
        x_fix = 6.0
        x_delivery = x_fix * math.exp(-0.0298 * conv.delta)  # deterministic evolution
        assert ip.day_ahead_price(model, tau, x_fix) == pytest.approx(
            ip.intraday_price(model, tau, x_delivery), rel=1e-14)

    def test_first_possible_fixing_uses_epoch_state(self, ref_model):
        value = ip.day_ahead_price(ref_model, 24.0, ref_model.ou.x0)
        assert value == ip.tradable_price(ref_model, 0.0, 24.0, ref_model.ou.x0)

    def test_delivery_before_first_fixing_rejected(self, ref_model):
        with pytest.raises(DomainError):
            ip.day_ahead_price(ref_model, 23.0, 0.0)


class TestPriceGenerating:
    def test_zero_after_settlement(self, ref_model):
        assert ip.price_generating(ref_model, 270.0, 268.0, 1.0) == 0.0

    def test_zero_vol_vanishes(self, ref_supply, conv):
        ou = ip.OuParams(lam=0.0298, sigma=0.0, x0=0.0)
        model = ip.ModelQ(ou=ou, supply=ref_supply,
                          load_seasonality=ip.SeasonalityModel.constant(47.0),
                          price_seasonality=ip.SeasonalityModel.constant(30.0), conv=conv)
        assert ip.price_generating(model, 100.0, 268.0, 2.0) == 0.0

    def test_positive_before_settlement(self, ref_model):
        # both legs enter with positive weight
        assert ip.price_generating(ref_model, 267.0, 268.0, 0.0) > 0.0

    def test_live_through_the_end_of_delivery(self, ref_model):
        # at t = tau_e the horizon is 0 and each leg its settlement value;
        # one ulp later the forward has settled
        tau = 268.0
        tau_e = tau + ref_model.conv.epsilon
        s, sigma = ref_model.supply, ref_model.ou.sigma
        g = float(ip.evaluate(ref_model.load_seasonality, tau_e))
        at_expiry = sigma * (s.alpha1 * math.exp(s.alpha1 * (g - s.beta1))
                             - s.alpha2 * math.exp(s.alpha2 * (g - s.beta2)))
        assert at_expiry == pytest.approx(2.0, abs=1e-3)
        assert ip.price_generating(ref_model, tau_e, tau, 0.0) == pytest.approx(at_expiry,
                                                                                rel=1e-14)
        assert ip.price_generating(ref_model, np.nextafter(tau_e, np.inf), tau, 0.0) == 0.0

    def test_array_time_handling(self, ref_model):
        ts = np.array([100.0, 268.5, 270.0])
        out = ip.price_generating(ref_model, ts, 268.0, 0.0)
        assert out[0] > 0.0 and out[1] > 0.0 and out[2] == 0.0

    # a NaN time is never "live" (t <= tau_e is False), so it used to read 0
    @pytest.mark.parametrize("t, tau", [(np.nan, 100.0), (np.array([50.0, np.nan]), 100.0),
                                        (50.0, np.nan), (-np.inf, 100.0)],
                             ids=["nan-t", "nan-in-array", "nan-tau", "minus-inf-t"])
    def test_non_finite_time_rejected(self, ref_model, t, tau):
        with pytest.raises(DomainError, match="finite times t and tau"):
            ip.price_generating(ref_model, t, tau, 0.0)

    def test_euler_sum_error_shrinks_linearly(self, ref_model):
        # representation check over a short window two weeks before settlement
        tau = 2160.0
        t0 = tau + 1.0 - 336.0
        cfg = ip.McConfig(n_paths=40_000, seed=5, time_step=5e-3)
        errs = ip.euler_representation_error(ref_model, tau, t0, span=0.1, cfg=cfg, x_t0=3.0)
        ratio = errs[5e-3] / errs[1e-2]
        assert 0.35 < ratio < 0.65

    def test_single_leg_follows_its_own_sde(self, ref_ou, conv):
        # disable the second leg (its exponent sits far below the overflow
        # guard) so the representation check reduces to the first leg's SDE
        supply = ip.SupplyParams(alpha1=0.1949, alpha2=-0.1796, beta1=43.8799, beta2=-3000.0)
        model = ip.ModelQ(ou=ref_ou, supply=supply,
                          load_seasonality=ip.SeasonalityModel.constant(47.0),
                          price_seasonality=ip.SeasonalityModel.constant(0.0), conv=conv)
        assert ip.supply_leg_expectation(model, 100.0, 268.0, 0.0)[1] < 1e-200
        tau = 2160.0
        errs = ip.euler_representation_error(model, tau, tau + 1.0 - 336.0, span=0.1,
                                             cfg=ip.McConfig(n_paths=40_000, seed=6,
                                                             time_step=5e-3),
                                             x_t0=3.0)
        assert 0.35 < errs[5e-3] / errs[1e-2] < 0.65


class TestFutures:
    def test_first_delivery_may_fix_at_the_epoch(self, ref_model, conv):
        # a delivery at delta fixes at t = 0; one an hour earlier fixes before
        x = 1.0
        at_delta = ip.futures_price(ref_model, 0.0, ip.DeliverySet.from_hours([conv.delta]),
                                    {0.0: x})
        expected = (math.exp(-conv.hourly_rate * (conv.delta + conv.epsilon))
                    * ip.forward_price(ref_model, 0.0, conv.delta, x))
        assert at_delta == pytest.approx(expected, rel=1e-14)
        with pytest.raises(DomainError, match="fixes before the series epoch"):
            ip.futures_price(ref_model, 0.0, ip.DeliverySet.from_hours([conv.delta - 1.0]),
                             {0.0: x})

    def test_single_delivery_reduction(self, ref_model, conv):
        t, tau, x = 100.0, 268.0, 2.0
        single = ip.DeliverySet.from_hours([tau])
        expected = math.exp(-conv.hourly_rate * 25.0) * ip.forward_price(ref_model, t, tau, x)
        assert ip.futures_price(ref_model, t, single, {t: x}) == pytest.approx(expected, rel=1e-14)

    def test_all_stopped_price_is_frozen(self, ref_model):
        strip = ip.DeliverySet.from_hours([268.0, 269.0, 270.0])
        states = {268.0 - 24.0 + k: 1.0 + 0.1 * k for k in range(3)}
        frozen = ip.futures_price(ref_model, 400.0, strip, states)
        later = ip.futures_price(ref_model, 500.0, strip, states)
        assert frozen == later

    # the reference looks each delivery's state up on its own
    @pytest.mark.parametrize("t", [200.0, 243.5, 250.0, 260.5, 400.0])
    def test_each_delivery_reads_its_stopped_state(self, ref_model, conv, t):
        strip = ip.DeliverySet.from_hours(np.arange(268.0, 292.0))
        states = {u: math.sin(u) for u in ip.required_state_times(t, strip, conv)}
        taus = np.array(strip.taus)
        stops = np.minimum(t, taus - conv.delta)
        x = np.array([states[u] for u in stops.tolist()])
        total = ip.forward_price(ref_model, stops, taus, x).sum()
        expected = float(np.exp(-conv.hourly_rate * (conv.delta + conv.epsilon)) / taus.size
                         * total)
        assert ip.futures_price(ref_model, t, strip, states) == expected

    def test_missing_state_reported(self, ref_model):
        strip = ip.DeliverySet.from_hours([268.0, 269.0])
        with pytest.raises(DomainError, match="missing driver state"):
            ip.futures_price(ref_model, 246.0, strip, {245.0: 0.0})
        with pytest.raises(DomainError, match="missing driver state at stopped time 245"):
            ip.futures_price(ref_model, 300.0, strip, {244.0: 0.0})

    def test_required_state_times(self, ref_model, conv):
        strip = ip.DeliverySet.from_hours([268.0, 269.0, 270.0])
        assert ip.required_state_times(100.0, strip, conv) == [100.0]
        assert ip.required_state_times(245.5, strip, conv) == [244.0, 245.0, 245.5]

    @pytest.mark.parametrize("t", [np.nan, -np.inf])
    def test_non_finite_time_rejected(self, ref_model, conv, t):
        strip = ip.DeliverySet.from_hours([268.0, 269.0])
        with pytest.raises(DomainError, match="futures need a finite time t"):
            ip.required_state_times(t, strip, conv)
        with pytest.raises(DomainError, match="futures need a finite time t"):
            ip.futures_price(ref_model, t, strip, {244.0: 0.0, 245.0: 0.0})

    # the set-based rule the stopped times used to come from, on a 744 h month:
    # before the first fixing, between fixings and past the last one
    @pytest.mark.parametrize("t", [2000.0, 2136.0, 2136.0 + 371.5, 2136.0 + 400.0, 2879.0, 3000.0])
    def test_required_state_times_are_the_sorted_distinct_stops(self, conv, t):
        taus = 2160.0 + np.arange(744.0)
        expected = sorted(set(np.minimum(t, taus - conv.delta).tolist()))
        times = ip.required_state_times(t, ip.DeliverySet.from_hours(taus), conv)
        assert times == expected
        assert all(type(u) is float for u in times)

    def test_fixing_before_epoch_rejected(self, ref_model):
        early = ip.DeliverySet.from_hours([10.0])
        with pytest.raises(DomainError, match="before the series epoch"):
            ip.futures_price(ref_model, 0.0, early, {0.0: 0.0})


_LIVE = slice(0, 4)     # the rows with t <= tau + epsilon
_ALL = slice(None)

# each of the ten public functions as (m, theta, t, tau, x) -> value, with the
# rows of TestArraysInArraysOut it accepts
_CALLS = {
    "intrinsic_price": (lambda m, th, t, tau, x: ip.intrinsic_price(m, 47.0 + x, tau), _ALL),
    "supply_leg_expectation": (
        lambda m, th, t, tau, x: ip.supply_leg_expectation(m, t, tau, x)[1], _LIVE),
    "forward_price": (lambda m, th, t, tau, x: ip.forward_price(m, t, tau, x), _LIVE),
    "tradable_price": (lambda m, th, t, tau, x: ip.tradable_price(m, t, tau, x), _LIVE),
    "price_generating": (lambda m, th, t, tau, x: ip.price_generating(m, t, tau, x), _ALL),
    "to_risk_neutral_state": (
        lambda m, th, t, tau, x: ip.to_risk_neutral_state(x, m.ou, th, t, "exact"), _ALL),
    "supply_leg_real_world_expectation": (
        lambda m, th, t, tau, x: ip.supply_leg_real_world_expectation(m, th, t, tau, x)[0],
        _LIVE),
    "risk_premium": (lambda m, th, t, tau, x: ip.risk_premium(m, th, t, tau, x), _LIVE),
    "transition-mean": (lambda m, th, t, tau, x: ip.transition(m.ou, x, tau - t)[0], _LIVE),
    "transition-variance": (lambda m, th, t, tau, x: ip.transition(m.ou, x, tau - t)[1], _LIVE),
    "evaluate": (lambda m, th, t, tau, x: ip.evaluate(m.load_seasonality, tau), _ALL),
}


class TestArraysInArraysOut:
    """A scalar call returns a numpy scalar or 0-d array equal, bit for bit,
    to the matching element of the same call on arrays."""

    T = np.array([10.0, 150.0, 250.0, 268.0, 300.0])    # the last is past settlement
    TAU = np.array([40.0, 200.0, 260.0, 268.0, 280.0])
    X = np.array([-3.2, 0.0, 1.7, 2.5, -0.4])

    @pytest.mark.parametrize("name", list(_CALLS))
    def test_scalar_call_is_the_array_element(self, ref_model, ref_theta, name):
        fn, rows = _CALLS[name]
        t, tau, x = self.T[rows], self.TAU[rows], self.X[rows]
        on_arrays = fn(ref_model, ref_theta, t, tau, x)
        assert on_arrays.shape == t.shape
        for k in range(t.size):
            value = fn(ref_model, ref_theta, float(t[k]), float(tau[k]), float(x[k]))
            assert isinstance(value, (np.generic, np.ndarray)) and np.ndim(value) == 0
            assert np.asarray(value).tobytes() == on_arrays[k].tobytes()


class TestCheckedExp:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_cap_itself_passes_and_just_above_raises(self, sign):
        assert _checked_exp(sign * _MAX_EXPONENT, "leg") == math.exp(sign * 700.0)
        above = np.nextafter(_MAX_EXPONENT, np.inf)
        with pytest.raises(NumericError, match="leg: exponent magnitude"):
            _checked_exp(sign * above, "leg")
        with pytest.raises(NumericError, match="leg: exponent magnitude"):
            _checked_exp(np.array([0.0, sign * above]), "leg")


class TestSupplyParams:
    def test_zero_slopes_rejected(self):
        with pytest.raises(DomainError, match="alpha1 must be positive"):
            ip.SupplyParams(alpha1=0.0, alpha2=-0.2, beta1=0.0, beta2=0.0)
        with pytest.raises(DomainError, match="alpha2 must be negative"):
            ip.SupplyParams(alpha1=0.1, alpha2=0.0, beta1=0.0, beta2=0.0)

    def test_sign_constraints(self):
        with pytest.raises(DomainError):
            ip.SupplyParams(alpha1=-0.1, alpha2=-0.2, beta1=0.0, beta2=0.0)
        with pytest.raises(DomainError):
            ip.SupplyParams(alpha1=0.1, alpha2=0.2, beta1=0.0, beta2=0.0)
