import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import intrinsicprice as ip
from intrinsicprice import DomainError, NumericError

prices = st.floats(1.0, 200.0)
vols = st.floats(0.0, 50.0)
variances = st.floats(1e-6, 2.0)


class TestIntegratedVol:
    def test_empty_interval(self):
        assert ip.integrated_vol(lambda s: 1.0, 3.0, 3.0) == 0.0

    def test_constant_integrand(self):
        assert ip.integrated_vol(lambda s: -2.0, 0.0, 9.0) == pytest.approx(6.0, rel=1e-10)

    def test_vector_integrand(self):
        value = ip.integrated_vol(lambda s: np.tile([3.0, 4.0], (np.size(s), 1)), 0.0, 4.0)
        assert value == pytest.approx(10.0, rel=1e-10)

    def test_structural_integrand_against_riemann_sum(self, ref_model):
        # frozen-state forward-curve integrand over [tau-48, tau-24]
        tau, x_ref = 268.0, 2.0

        def phi(s):
            return ip.price_generating(ref_model, s, tau, x_ref)

        u, t = tau - 48.0, tau - 24.0
        value = ip.integrated_vol(phi, u, t)
        grid = np.linspace(u, t, 1_000_001)
        mids = 0.5 * (grid[1:] + grid[:-1])
        riemann = math.sqrt(np.sum(ip.price_generating(ref_model, mids, tau, x_ref) ** 2)
                            * (t - u) / mids.size)
        assert value == pytest.approx(riemann, rel=1e-6)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            ip.integrated_vol(lambda s: 1.0, 2.0, 1.0)

    def test_non_finite_bounds_rejected(self):
        for u, t in ((0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0)):
            with pytest.raises(DomainError, match="finite"):
                ip.integrated_vol(lambda s: 1.0, u, t)

    def test_one_integrand_call_per_round(self):
        # e^{2 c s} grows by e^600 over the span, so one pair of rules on the
        # whole interval is not enough and the quadrature refines
        a, c, u, t = 1.5, 1.0, 0.0, 300.0
        sizes = []

        def phi(s):
            sizes.append(s.size)
            return a * np.exp(c * s)

        value = ip.integrated_vol(phi, u, t)
        assert value == pytest.approx(exponential_vol(a, c, u, t), rel=1e-12)
        # a round evaluates 73 nodes (25 + 48) on every open subinterval, and
        # the open subintervals of a round are halves of the last round's
        blocks = [n // 73 for n in sizes]
        assert len(sizes) >= 2 and blocks[0] == 1
        assert all(n % 73 == 0 for n in sizes)
        assert all(b % 2 == 0 and b <= 2 * prev for prev, b in zip(blocks, blocks[1:]))

    @pytest.mark.parametrize("x", [-3.0, 0.0, 1.5, 4.0])
    def test_agrees_with_scipy_quad(self, ref_model, x):
        # the option integrand of a book request: one 744 h month, its
        # forward-curve integrand over the month before the first fixing
        from scipy.integrate import quad

        tau = 2160.0
        strip = ip.DeliverySet.from_hours(tau + np.arange(744.0))
        t, expiry = tau - 744.0, tau - 24.0
        futures = ip.futures_price(ref_model, t, strip, {t: x})

        def phi(s):
            return ip.price_generating(ref_model, s, tau, x) / futures

        expected, _ = quad(lambda s: float(phi(s)) ** 2, t, expiry, epsrel=1e-8, limit=200)
        assert ip.integrated_vol(phi, t, expiry) == pytest.approx(math.sqrt(expected), rel=1e-10)

    def test_step_integrand_against_closed_form(self):
        # a jump anywhere in the span, the central gap of a subinterval's
        # rules included, is found by refinement and not accepted early
        for jump in np.linspace(0.01, 3.99, 400):
            value = ip.integrated_vol(lambda s: np.where(s > jump, 2.0, 1.0), 0.0, 4.0)
            assert value == pytest.approx(math.sqrt(jump + 4.0 * (4.0 - jump)), rel=1e-10)

    @pytest.mark.parametrize("t", [2161.5, 2170.0, 2250.0, 2400.0])
    def test_integrand_past_expiry_adds_nothing(self, ref_model, t):
        # price_generating drops to 0 after tau + epsilon = 2161
        def phi(s):
            return ip.price_generating(ref_model, s, 2160.0, 2.0)

        expected = ip.integrated_vol(phi, 2088.0, 2161.0)
        assert ip.integrated_vol(phi, 2088.0, t) == pytest.approx(expected, rel=1e-10)

    def test_nan_integrand_raises(self):
        with pytest.raises(NumericError, match="not finite"):
            ip.integrated_vol(lambda s: np.where(s > 2.0, np.nan, 1.0), 0.0, 4.0)

    def test_noisy_integrand_hits_the_subinterval_cap(self):
        rng = np.random.default_rng(0)
        sizes = []

        def phi(s):
            sizes.append(s.size)
            return 1.0 + rng.random(s.size)

        with pytest.raises(NumericError, match="200 subintervals"):
            ip.integrated_vol(phi, 0.0, 10.0)
        # every subinterval ever opened is evaluated once, and a binary tree
        # with at most 200 leaves has fewer than 400 nodes
        assert sum(sizes) < 2 * 200 * 73
        assert max(sizes) <= 200 * 73

    def test_bad_integrand_shape_rejected(self):
        with pytest.raises(DomainError, match="shape"):
            ip.integrated_vol(lambda s: np.ones(3), 0.0, 1.0)

    @given(st.floats(0.01, 5.0) | st.floats(-5.0, -0.01),
           st.floats(-0.15, 0.15, allow_subnormal=False),
           st.floats(0.0, 1000.0), st.floats(0.0, 1000.0, allow_subnormal=False))
    def test_exponential_integrand_closed_form(self, a, c, u, span):
        t = u + span
        value = ip.integrated_vol(lambda s: a * np.exp(c * s), u, t)
        assert value == pytest.approx(exponential_vol(a, c, u, t), rel=1e-10)

    def test_import_and_call_leave_scipy_unloaded(self):
        # a fresh interpreter, so modules other tests imported do not count
        probe = ("import json, sys, intrinsicprice as ip\n"
                 "ip.integrated_vol(lambda s: ip.price_generating(ip.reference_model()[0], s,"
                 " 2160.0, 1.0), 1400.0, 2136.0)\n"
                 "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
        package_root = os.path.dirname(os.path.dirname(ip.__file__))
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": package_root})
        assert json.loads(run.stdout) == []


def exponential_vol(a: float, c: float, u: float, t: float) -> float:
    """``sqrt(int_u^t (a e^{c s})^2 ds) = sqrt(a^2 (e^{2ct} - e^{2cu}) / (2c))``,
    written with ``expm1`` so that a small ``c (t - u)`` loses no digits."""
    if c == 0.0:
        return abs(a) * math.sqrt(t - u)
    return abs(a) * math.exp(c * u) * math.sqrt(math.expm1(2.0 * c * (t - u)) / (2.0 * c))


def test_norm_cdf_matches_scipy_ndtr():
    from scipy.special import ndtr

    from intrinsicprice.options import _norm_cdf

    x = np.linspace(-38.0, 9.0, 47_001)
    ours = np.array([_norm_cdf(v) for v in x])
    reference = ndtr(x)
    gap = np.abs(ours - reference)
    assert gap.max() <= 4e-16
    body = x >= -8.0
    assert np.max(gap[body] / reference[body]) <= 1e-13


class TestBachelier:
    def test_degenerate_vol_is_intrinsic(self):
        call = ip.bachelier_call(ip.NormalOptionInputs(50.0, 40.0, 0.0, span=0.0))
        put = ip.bachelier_put(ip.NormalOptionInputs(50.0, 40.0, 0.0, span=0.0))
        assert call == 10.0
        assert put == 0.0

    def test_at_the_money_value(self):
        inp = ip.NormalOptionInputs(forward=50.0, strike=50.0, sigma_ut=5.0, span=0.0)
        expected = 5.0 / math.sqrt(2.0 * math.pi)
        assert ip.bachelier_call(inp) == pytest.approx(expected, rel=1e-12)
        assert ip.bachelier_put(inp) == pytest.approx(expected, rel=1e-12)

    def test_against_monte_carlo(self, rng):
        # 10^7 terminal draws of the normal law
        inp = ip.NormalOptionInputs(forward=50.0, strike=45.0, sigma_ut=5.0, span=0.0)
        z = rng.standard_normal(10_000_000)
        payoff = np.maximum(50.0 + 5.0 * z - 45.0, 0.0)
        se = payoff.std(ddof=1) / math.sqrt(payoff.size)
        assert abs(ip.bachelier_call(inp) - payoff.mean()) < 3 * se

    @given(prices, prices, vols, st.floats(0.0, 1000.0))
    def test_put_call_parity(self, forward, strike, sigma_ut, span):
        rate = 0.001 / 8760.0
        inp = ip.NormalOptionInputs(forward, strike, sigma_ut, span, rate)
        gap = ip.bachelier_call(inp) - ip.bachelier_put(inp)
        expected = math.exp(-rate * span) * (forward - strike)
        assert gap == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(prices, vols)
    def test_call_decreasing_in_strike(self, forward, sigma_ut):
        strikes = np.linspace(0.5 * forward, 1.5 * forward, 9)
        values = [ip.bachelier_call(ip.NormalOptionInputs(forward, float(k), sigma_ut, 0.0))
                  for k in strikes]
        assert np.all(np.diff(values) <= 1e-12)

    def test_convex_in_strike(self):
        strikes = np.linspace(20.0, 80.0, 25)
        values = np.array([ip.bachelier_call(ip.NormalOptionInputs(50.0, float(k), 5.0, 0.0))
                           for k in strikes])
        assert np.all(np.diff(values, 2) >= -1e-10)

    def test_negative_vol_rejected(self):
        with pytest.raises(DomainError):
            ip.NormalOptionInputs(50.0, 45.0, -1.0, 0.0)


class TestBlack76:
    def test_degenerate_variance_is_intrinsic(self):
        inp = ip.LognormalOptionInputs(50.0, 40.0, 0.0, span=0.0)
        assert ip.black76_call(inp) == 10.0
        assert ip.black76_put(inp) == 0.0

    @given(prices, prices, variances, st.floats(0.0, 1000.0))
    def test_put_call_parity_both_conventions(self, forward, strike, v, span):
        rate = 0.001 / 8760.0
        inp = ip.LognormalOptionInputs(forward, strike, v, span, rate)
        expected = math.exp(-rate * span) * (forward - strike)
        for conventional in (False, True):
            gap = (ip.black76_call(inp, conventional=conventional)
                   - ip.black76_put(inp, conventional=conventional))
            assert gap == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(prices, variances)
    def test_call_decreasing_in_strike(self, forward, v):
        strikes = np.linspace(0.5 * forward, 1.5 * forward, 9)
        values = [ip.black76_call(ip.LognormalOptionInputs(forward, float(k), v, 0.0),
                                  conventional=True)
                  for k in strikes]
        assert np.all(np.diff(values) <= 1e-12)

    def test_convex_in_strike(self):
        strikes = np.linspace(20.0, 80.0, 25)
        values = np.array([
            ip.black76_call(ip.LognormalOptionInputs(50.0, float(k), 0.04, 0.0),
                            conventional=True) for k in strikes])
        assert np.all(np.diff(values, 2) >= -1e-10)

    def test_conventional_matches_lognormal_monte_carlo(self, rng):
        # the oracle adjudicates the d_pm variants: only the half-variance
        # convention prices the stated lognormal forward correctly
        inp = ip.LognormalOptionInputs(50.0, 45.0, 0.04, span=0.0)
        z = rng.standard_normal(10_000_000)
        terminal = 50.0 * np.exp(-0.02 + 0.2 * z)
        payoff = np.maximum(terminal - 45.0, 0.0)
        se = payoff.std(ddof=1) / math.sqrt(payoff.size)
        mc = payoff.mean()
        assert abs(ip.black76_call(inp, conventional=True) - mc) < 3 * se
        assert abs(ip.black76_call(inp, conventional=False) - mc) > 100 * se

    def test_positive_inputs_required(self):
        with pytest.raises(DomainError):
            ip.LognormalOptionInputs(-50.0, 45.0, 0.04, 0.0)
        with pytest.raises(DomainError):
            ip.LognormalOptionInputs(50.0, 0.0, 0.04, 0.0)


@pytest.mark.parametrize("make, match", [
    (lambda: ip.NormalOptionInputs(50.0, 45.0, 1.0, span=-1.0), "discount span"),
    (lambda: ip.LognormalOptionInputs(50.0, 45.0, 0.04, span=-1.0), "discount span"),
    (lambda: ip.LognormalOptionInputs(50.0, 45.0, -0.04, span=0.0), "integrated variance"),
], ids=["normal-span", "lognormal-span", "lognormal-variance"])
def test_negative_option_inputs_rejected(make, match):
    with pytest.raises(DomainError, match=f"{match} must be non-negative"):
        make()


class TestLognormalForwardRepresentation:
    def test_unit_mean(self):
        cfg = ip.McConfig(n_paths=500_000, seed=17)
        est = ip.mc_lognormal_forward(80.0, 0.09, cfg)
        assert abs(est.mean - 80.0) <= 3 * est.std_error
