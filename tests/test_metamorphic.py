"""Exact metamorphic relations of the closed forms: transformations of the
model whose effect on every price is known, checked without Monte Carlo.
Each test builds fresh models, so no evaluation one model keeps can reach
another."""

import dataclasses

import numpy as np
import pytest

import intrinsicprice as ip

STRIP = 24.0 * 365 + np.arange(720.0)      # January 2016, one hour each


def scaled_load(model: ip.ModelQ, k: float) -> ip.ModelQ:
    """The model with the load measured in units 1/k as large: sigma, x0,
    every load-seasonality coefficient and both shifts beta times k, both
    exponents alpha over k.  Every price is unchanged."""
    g, s = model.load_seasonality, model.supply
    return dataclasses.replace(
        model,
        ou=dataclasses.replace(model.ou, sigma=k * model.ou.sigma, x0=k * model.ou.x0),
        supply=ip.SupplyParams(alpha1=s.alpha1 / k, alpha2=s.alpha2 / k,
                               beta1=k * s.beta1, beta2=k * s.beta2),
        load_seasonality=dataclasses.replace(
            g, level=k * g.level, trend=k * g.trend, sin_annual=k * g.sin_annual,
            cos_annual=k * g.cos_annual, dow_weights=k * g.dow_weights,
            hod_weights=k * g.hod_weights))


def strip_prices(model: ip.ModelQ, theta: float, t: float, x: float) -> dict:
    return {"forward": ip.forward_price(model, t, STRIP, x),
            "tradable": ip.tradable_price(model, t, STRIP, x),
            "futures": ip.futures_price(model, t, ip.DeliverySet.from_hours(STRIP), {t: x}),
            "premium": ip.risk_premium(model, theta, t, STRIP, x)}


class TestLoadScaling:
    K = 3.7

    # rounding moves each price by a few ulps of the forward's level; the
    # premium, a difference of legs of that level, is held to the same scale
    @pytest.mark.parametrize("lead, x", [(30.0, 2.1), (500.0, -4.0)], ids=["near", "far"])
    def test_prices_do_not_move(self, lead, x):
        model, theta = ip.reference_model()
        t = STRIP[0] - model.conv.delta - lead
        before = strip_prices(model, theta, t, x)
        after = strip_prices(scaled_load(model, self.K), theta, t, self.K * x)
        scale = np.abs(before["forward"]).max()
        for name in before:
            assert np.abs(after[name] - before[name]).max() <= 1e-14 * scale, name


class TestOneHourStrip:
    @pytest.mark.parametrize("lead", [-10.0, 0.0, 200.0], ids=["fixed", "at-fixing", "open"])
    def test_futures_is_the_discounted_forward_at_the_fixing_state(self, lead):
        model, _ = ip.reference_model()
        conv = model.conv
        tau = STRIP[100]
        t = tau - conv.delta - lead
        stop = min(t, tau - conv.delta)
        x = -1.7
        futures = ip.futures_price(model, t, ip.DeliverySet.from_hours([tau]), {stop: x})
        forward = ip.forward_price(model, stop, tau, x)
        assert futures == np.exp(-conv.hourly_rate * (conv.delta + conv.epsilon)) * forward
