import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import intrinsicprice as ip
from intrinsicprice import DomainError, EstimationError
from intrinsicprice.ou import _sample_path


class TestTransition:
    def test_zero_time(self, ref_ou):
        mean, var = ip.transition(ref_ou, -12.5776, 0.0)
        assert mean == -12.5776
        assert var == 0.0

    def test_deterministic_decay(self):
        params = ip.OuParams(lam=0.5, sigma=0.0, x0=0.0)
        mean, var = ip.transition(params, 3.0, 7.0)
        assert mean == pytest.approx(3.0 * np.exp(-3.5), rel=1e-14)
        assert var == 0.0

    def test_one_day_reference_values(self, ref_ou):
        # closed form frozen from an independent scalar evaluation
        mean, var = ip.transition(ref_ou, 10.0, 24.0)
        assert mean == pytest.approx(4.890942831571622, rel=1e-12)
        assert var == pytest.approx(28.675042332698254, rel=1e-12)

    def test_one_day_against_monte_carlo(self, ref_ou, rng):
        # oracle: 10^6 draws of the exact scheme
        n = 1_000_000
        mean, var = ip.transition(ref_ou, 10.0, 24.0)
        sample = mean + np.sqrt(var) * rng.standard_normal(n)
        se_mean = sample.std(ddof=1) / np.sqrt(n)
        assert abs(sample.mean() - mean) < 3 * se_mean
        se_var = var * np.sqrt(2.0 / (n - 1))
        assert abs(sample.var(ddof=1) - var) < 3 * se_var

    def test_small_rate_limit(self):
        params = ip.OuParams(lam=1e-12, sigma=2.0, x0=0.0)
        _, var = ip.transition(params, 0.0, 1.0)
        assert var == pytest.approx(4.0, rel=1e-9)

    def test_negative_dt_rejected(self, ref_ou):
        with pytest.raises(DomainError):
            ip.transition(ref_ou, 0.0, -1.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, [1.0, np.nan]])
    def test_non_finite_dt_rejected(self, ref_ou, dt):
        with pytest.raises(DomainError, match="finite dt"):
            ip.transition(ref_ou, 0.0, dt)

    @given(st.floats(0.01, 2.0), st.floats(0.1, 3.0), st.floats(-20, 20),
           st.floats(0.01, 100), st.floats(0.01, 100))
    def test_chapman_kolmogorov(self, lam, sigma, x, dt1, dt2):
        params = ip.OuParams(lam=lam, sigma=sigma, x0=0.0)
        m1, v1 = ip.transition(params, x, dt1)
        m2, v2 = ip.transition(params, m1, dt2)
        v2_from_x = v2 + np.exp(-2 * lam * dt2) * v1
        m_direct, v_direct = ip.transition(params, x, dt1 + dt2)
        assert m2 == pytest.approx(m_direct, rel=1e-12, abs=1e-300)
        assert v2_from_x == pytest.approx(v_direct, rel=1e-12)

    def test_stationary_variance_is_long_horizon_limit(self, ref_ou):
        _, var = ip.transition(ref_ou, 0.0, 1e6)
        assert var == pytest.approx(ref_ou.stationary_variance, rel=1e-12)


class TestSimulate:
    def test_deterministic_path_at_zero_vol(self):
        params = ip.OuParams(lam=0.3, sigma=0.0, x0=5.0)
        grid = np.arange(0.0, 10.0)
        path = ip.simulate(params, grid, seed=1)
        assert np.allclose(path, 5.0 * np.exp(-0.3 * grid), rtol=1e-13)

    def test_same_seed_same_path(self, ref_ou):
        grid = np.arange(0.0, 200.0)
        a = ip.simulate(ref_ou, grid, seed=42)
        b = ip.simulate(ref_ou, grid, seed=42)
        assert np.array_equal(a, b)
        c = ip.simulate(ref_ou, grid, seed=43)
        assert not np.array_equal(a, c)

    def test_sample_mean_matches_transition_mean(self, ref_ou, rng):
        # 10^5 endpoint draws vs the one-day conditional mean, within 3 SE
        n = 100_000
        mean, var = ip.transition(ref_ou, ref_ou.x0, 24.0)
        draws = ip.sample_transition(ref_ou, np.full(n, ref_ou.x0), 24.0, rng)
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - mean) < 3 * se
        assert mean == pytest.approx(-12.5776 * np.exp(-0.0298 * 24), rel=1e-12)

    def test_grid_validation(self, ref_ou):
        with pytest.raises(DomainError):
            ip.simulate(ref_ou, [1.0, 2.0], seed=0)       # must start at 0
        with pytest.raises(DomainError):
            ip.simulate(ref_ou, [0.0, 2.0, 2.0], seed=0)  # must increase

    def test_empty_grid_rejected(self, ref_ou):
        with pytest.raises(DomainError, match="non-empty 1-d array"):
            ip.simulate(ref_ou, [], seed=0)

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [0.0, 1.0, np.inf]])
    def test_non_finite_grid_rejected(self, ref_ou, grid):
        with pytest.raises(DomainError, match="grid times must be finite"):
            ip.simulate(ref_ou, grid, seed=0)

    def test_negative_seed_rejected(self, ref_ou):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            ip.simulate(ref_ou, np.arange(0.0, 5.0), seed=-1)

    def test_returns_the_sampler_values(self, ref_ou):
        grid = np.arange(0.0, 50.0)
        path = ip.simulate(ref_ou, grid, seed=4)
        assert type(path) is np.ndarray
        assert np.array_equal(path, _sample_path(ref_ou, np.diff(grid),
                                                 np.random.default_rng(4)))


class TestMleFit:
    def test_round_trip_on_simulated_sample(self, ref_ou):
        grid = np.arange(0.0, 100_000.0)
        path = ip.simulate(ref_ou, grid, seed=7)
        fitted = ip.fit_mle(path, dt=1.0)
        assert abs(fitted.lam / ref_ou.lam - 1.0) < 0.10
        assert abs(fitted.sigma / ref_ou.sigma - 1.0) < 0.05
        assert fitted.x0 == path[0]

    def test_constant_series_rejected(self):
        with pytest.raises(EstimationError, match="non-mean-reverting"):
            ip.fit_mle(np.full(100, 3.0), dt=1.0)
        with pytest.raises(EstimationError):
            ip.fit_mle(np.zeros(100), dt=1.0)

    def test_fast_reversion_gives_large_lambda(self):
        # near-white-noise sample: tiny positive AR coefficient is accepted
        fast = ip.OuParams(lam=5.0, sigma=1.0, x0=0.0)
        path = ip.simulate(fast, np.arange(0.0, 50_000.0), seed=3)
        fitted = ip.fit_mle(path, dt=1.0)
        assert fitted.lam > 2.0

    def test_sign_flipping_sample_rejected(self):
        # alternating signs force a negative AR coefficient estimate
        x = np.array([1.0, -1.0] * 50)
        with pytest.raises(EstimationError, match="non-mean-reverting"):
            ip.fit_mle(x, dt=1.0)

    def test_needs_three_observations(self):
        with pytest.raises(EstimationError):
            ip.fit_mle(np.array([1.0, 0.5]), dt=1.0)

    @pytest.mark.parametrize("sample, dt, error, match", [
        ([1.0, 0.5, 0.2], 0.0, DomainError, "dt must be positive"),
        ([1.0, 0.5, 0.2], -1.0, DomainError, "dt must be positive"),
        ([1.0, np.nan, 0.2], 1.0, EstimationError, "non-finite"),
        ([1.0, 0.5, np.inf], 1.0, EstimationError, "non-finite"),
    ], ids=["dt-zero", "dt-negative", "nan", "inf"])
    def test_bad_sample_or_step_rejected(self, sample, dt, error, match):
        with pytest.raises(error, match=match):
            ip.fit_mle(np.array(sample), dt=dt)

    def test_consistency_error_shrinks_with_sample(self, ref_ou):
        # mean absolute estimation error over 5 seeds at 10^4 vs 10^5 points
        errors = {}
        for n in (10_000, 100_000):
            errs = []
            for seed in range(5):
                path = ip.simulate(ref_ou, np.arange(0.0, float(n)), seed=seed)
                fitted = ip.fit_mle(path, dt=1.0)
                errs.append(abs(fitted.lam - ref_ou.lam))
            errors[n] = np.mean(errs)
        assert errors[100_000] < errors[10_000]

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            ip.OuParams(lam=0.0, sigma=1.0)
        with pytest.raises(DomainError):
            ip.OuParams(lam=1.0, sigma=-1.0)
