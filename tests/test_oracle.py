import dataclasses
import json
import math
import threading

import numpy as np
import pytest

import intrinsicprice as ip
from intrinsicprice import DomainError, cli
from intrinsicprice.oracle import _BATCH, _run_jobs, _w_walk
from intrinsicprice.ou import _step_law, _walk


@pytest.fixture(scope="module")
def zero_vol_model(ref_supply, conv):
    ou = ip.OuParams(lam=0.0298, sigma=0.0, x0=2.0)
    return ip.ModelQ(ou=ou, supply=ref_supply,
                     load_seasonality=ip.SeasonalityModel.constant(47.0),
                     price_seasonality=ip.SeasonalityModel.constant(30.0), conv=conv)


class TestEngine:
    def test_zero_vol_estimate_is_exact(self, zero_vol_model):
        cfg = ip.McConfig(n_paths=1000, seed=0)
        est = ip.mc_forward(zero_vol_model, 100.0, 268.0, 2.0, cfg)
        assert est.std_error == 0.0
        closed = ip.forward_price(zero_vol_model, 100.0, 268.0, 2.0)
        # identical per-path values; the average only rounds in the last ulps
        assert est.mean == pytest.approx(closed, rel=1e-13)

    def test_fixed_seed_bitwise_reproducible(self, ref_model):
        cfg = ip.McConfig(n_paths=300_000, seed=11)
        a = ip.mc_forward(ref_model, 100.0, 268.0, 1.0, cfg)
        b = ip.mc_forward(ref_model, 100.0, 268.0, 1.0, cfg)
        assert a == b
        c = ip.mc_forward(ref_model, 100.0, 268.0, 1.0, ip.McConfig(n_paths=300_000, seed=12))
        assert c.mean != a.mean

    def test_standard_error_scaling(self, ref_model):
        small = ip.mc_forward(ref_model, 100.0, 268.0, 1.0, ip.McConfig(n_paths=100_000, seed=7))
        large = ip.mc_forward(ref_model, 100.0, 268.0, 1.0, ip.McConfig(n_paths=400_000, seed=8))
        ratio = small.std_error / large.std_error
        assert 1.8 <= ratio <= 2.2

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ip.McConfig(n_paths=1)
        with pytest.raises(DomainError):
            ip.McConfig(time_step=0.0)
        with pytest.raises(DomainError):
            ip.McEstimate(mean=0.0, std_error=-1.0, n_paths=10)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            ip.McConfig(seed=-1)
        assert ip.McConfig(seed=0).seed == 0


def whole_batch_estimate(n_paths, seed, n_normals, values):
    """The estimate of drawing each batch of the seed's substreams whole;
    the variance from the squared deviations from the first value."""
    total = total_sq = 0.0
    shift = None
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(-(-n_paths // _BATCH))):
        z = np.random.default_rng(child).standard_normal(
            (min(_BATCH, n_paths - k * _BATCH), n_normals))
        units = values(z)
        shift = units[0] if shift is None else shift
        total += float(units.sum())
        total_sq += float((units - shift) @ (units - shift))
    mean = total / n_paths
    var = max(total_sq - n_paths * (mean - shift) ** 2, 0.0) / (n_paths - 1)
    return ip.McEstimate(mean=mean, std_error=math.sqrt(var / n_paths), n_paths=n_paths)


class TestStandardError:
    # -0.22086842447377464 is the premium every path carries at t = tau on the
    # reference model (seed 4, x_tilde 0); summing its squares left rounding
    @pytest.mark.parametrize("n_paths", [2, 10_000, 40_000, 300_000])
    def test_equal_values_have_zero_standard_error(self, n_paths):
        value = -0.22086842447377464
        est = _run_jobs(ip.McConfig(n_paths=n_paths, seed=4),
                        [(1, lambda z: np.full(len(z), value))])[0]
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(value, rel=1e-15)

    def test_matches_the_two_pass_variance(self):
        # far from zero: the raw sum of squares cancels to about 1e-6
        # relative here, the squared deviations from a shift do not
        n_paths = 300_000

        def values(z):
            return 1e4 + 0.3 * z[:, 0]

        units = np.concatenate([
            values(np.random.default_rng(child).standard_normal((size, 1)))
            for child, size in zip(np.random.SeedSequence(2).spawn(2),
                                   [_BATCH, n_paths - _BATCH])])
        est = _run_jobs(ip.McConfig(n_paths=n_paths, seed=2), [(1, values)])[0]
        assert est.std_error == pytest.approx(units.std(ddof=1) / math.sqrt(n_paths), rel=1e-9)


class TestBlockedDraws:
    """The oracle draws each batch's substream once for all the jobs that
    share it, in chunks one chunk ahead on a helper thread.  A job of ``k``
    columns reads the first ``m k`` normals of batch ``b``'s stream, which
    are those a ``(m, k)`` draw of that stream gives, since the batch
    substreams do not depend on the width and ``standard_normal`` fills row
    by row.  So every estimate equals, bit for bit, that of drawing each
    batch whole for that job alone, as the references below do."""

    @staticmethod
    def values(z):
        return np.exp(0.3 * z[:, 0]) * z[:, 1] + z[:, 2] ** 2

    @staticmethod
    def values_of_width(k):
        # row by row, as every estimator is; the first, middle and last columns
        return lambda z: z[:, 0] * np.exp(0.1 * z[:, k - 1]) + (k + z[:, k // 2]) ** 2

    @pytest.mark.parametrize("n_paths", [2, 5000, 32768, 300_000, 2**19 + 1])
    def test_run_batches_matches_whole_batch_draws(self, n_paths):
        est = _run_jobs(ip.McConfig(n_paths=n_paths, seed=4), [(3, self.values)])[0]
        assert est == whole_batch_estimate(n_paths, 4, 3, self.values)

    @pytest.mark.parametrize("n_paths", [2, 5000, 300_000, 2**19 + 1])
    def test_shared_draws_match_each_job_alone(self, n_paths):
        rng = np.random.default_rng(n_paths)
        for _ in range(2):
            widths = rng.choice([1, 2, 3, 8, 16, 24], size=rng.integers(1, 5)).tolist()
            seed = int(rng.integers(100))
            jobs = [(k, self.values_of_width(k)) for k in widths]
            estimates = _run_jobs(ip.McConfig(n_paths=n_paths, seed=seed), jobs)
            for (k, values), est in zip(jobs, estimates):
                alone = _run_jobs(ip.McConfig(n_paths=n_paths, seed=seed), [(k, values)])[0]
                assert est == alone
                assert est == whole_batch_estimate(n_paths, seed, k, values), widths

    def test_euler_representation_matches_whole_batch_draws(self, ref_model):
        tau, t0, h, n_fine, n_paths, x0 = 268.0, 100.0, 0.05, 8, 70_000, 0.5
        cfg = ip.McConfig(n_paths=n_paths, seed=3, time_step=h)
        rng = np.random.default_rng(3)
        sums = [0.0, 0.0, 0.0]
        for done in range(0, n_paths, 65536):
            m = min(65536, n_paths - done)
            z_w = rng.standard_normal((m, n_fine))
            dw, states = _w_walk(ref_model.ou, x0, h, z_w, rng.standard_normal((m, n_fine)))
            x = [x0] + states
            df = (ip.forward_price(ref_model, t0 + n_fine * h, tau, x[-1])
                  - ip.forward_price(ref_model, t0, tau, x0))
            for i, fac in enumerate((1, 2, 4)):
                dw_c = dw.reshape(m, n_fine // fac, fac).sum(axis=2)
                total = np.zeros(m)
                for k in range(0, n_fine, fac):
                    total += ip.price_generating(ref_model, t0 + k * h, tau, x[k]) * dw_c[:, k // fac]
                sums[i] += float(np.abs(df - total).sum())
        errors = ip.euler_representation_error(ref_model, tau, t0, n_fine * h, cfg, x0)
        assert errors == {fac * h: err / n_paths for fac, err in zip((1, 2, 4), sums)}

    def test_error_in_values_propagates_and_joins_the_thread(self):
        threads_before = threading.active_count()
        error = ip.NumericError("raised by the third block")
        seen = []

        def values(z):
            seen.append(threading.active_count())
            if len(seen) == 3:
                raise error
            return z[:, 0]

        with pytest.raises(ip.NumericError) as excinfo:
            _run_jobs(ip.McConfig(n_paths=300_000, seed=0), [(1, values)])
        assert excinfo.value is error
        assert seen == [threads_before + 1] * 3   # exactly one helper thread
        assert threading.active_count() == threads_before

    def test_error_in_one_of_shared_jobs_propagates_and_joins_the_thread(self):
        threads_before = threading.active_count()
        error = ip.NumericError("raised by the narrow job's third block")
        seen = []

        def narrow(z):
            seen.append(threading.active_count())
            if len(seen) == 3:
                raise error
            return z[:, 0]

        jobs = [(8, self.values_of_width(8)), (1, narrow), (16, self.values_of_width(16))]
        with pytest.raises(ip.NumericError) as excinfo:
            _run_jobs(ip.McConfig(n_paths=300_000, seed=0), jobs)
        assert excinfo.value is error
        assert seen == [threads_before + 1] * 3   # exactly one helper thread
        assert threading.active_count() == threads_before

class TestDirectOracles:
    def test_forward_agreement(self, ref_model):
        cfg = ip.McConfig(n_paths=400_000, seed=1)
        closed = ip.forward_price(ref_model, 100.0, 268.0, 1.0)
        est = ip.mc_forward(ref_model, 100.0, 268.0, 1.0, cfg)
        assert abs(est.mean - closed) <= 3 * est.std_error

    def test_tradable_agreement(self, ref_model):
        cfg = ip.McConfig(n_paths=400_000, seed=2)
        closed = ip.tradable_price(ref_model, 100.0, 268.0, 1.0)
        est = ip.mc_tradable(ref_model, 100.0, 268.0, 1.0, cfg)
        assert abs(est.mean - closed) <= 3 * est.std_error

    def test_day_ahead_tower(self, ref_model):
        cfg = ip.McConfig(n_paths=400_000, seed=3)
        assert ip.mc_day_ahead_tower(ref_model, 268.0, 1.0, cfg).passed

    def test_futures_agreement(self, ref_model):
        strip = ip.DeliverySet.from_hours([268.0 + k for k in range(6)])
        t = 268.0 - 24.0 - 48.0
        cfg = ip.McConfig(n_paths=300_000, seed=4)
        closed = ip.futures_price(ref_model, t, strip, {t: 1.0})
        est = ip.mc_futures(ref_model, t, strip, 1.0, cfg)
        assert abs(est.mean - closed) <= 3 * est.std_error

    def test_futures_needs_pre_fixing_time(self, ref_model):
        strip = ip.DeliverySet.from_hours([268.0])
        with pytest.raises(DomainError):
            ip.mc_futures(ref_model, 268.0, strip, 0.0, ip.McConfig(n_paths=100, seed=0))

    def test_option_deep_in_the_money(self):
        inp = ip.NormalOptionInputs(forward=50.0, strike=50.0 - 10 * 2.0, sigma_ut=2.0,
                                    span=24.0, rate=0.001 / 8760.0)
        cfg = ip.McConfig(n_paths=200_000, seed=6)
        est = ip.mc_option(inp, "call", cfg)
        expected = math.exp(-inp.rate * 24.0) * 20.0
        assert est.mean == pytest.approx(expected, rel=1e-3)

    def test_option_far_strike_worthless(self):
        inp = ip.NormalOptionInputs(forward=50.0, strike=50.0 + 40 * 2.0, sigma_ut=2.0, span=0.0)
        est = ip.mc_option(inp, "call", ip.McConfig(n_paths=200_000, seed=6))
        assert est.mean == 0.0

    def test_option_payoff_name_checked(self):
        inp = ip.NormalOptionInputs(50.0, 45.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            ip.mc_option(inp, "straddle", ip.McConfig(n_paths=100, seed=0))

    @pytest.mark.parametrize("estimate, match", [
        (lambda m, cfg: ip.mc_forward(m, 270.0, 268.0, 0.0, cfg), r"t <= tau \+ epsilon"),
        (lambda m, cfg: ip.mc_forward(m, np.nan, 268.0, 0.0, cfg), "finite times"),
        (lambda m, cfg: ip.mc_futures(m, np.nan, ip.DeliverySet([268.0]), 0.0, cfg),
         "finite t at or before the first fixing"),
        (lambda m, cfg: ip.mc_risk_premium(m, 0.0, 270.0, 268.0, 0.0, cfg), "t <= tau"),
        (lambda m, cfg: ip.mc_density_unit_mean(m.ou, 0.1, np.nan, cfg), "finite and non-neg"),
        (lambda m, cfg: ip.mc_density_unit_mean(m.ou, 0.1, -1.0, cfg), "finite and non-neg"),
        (lambda m, cfg: ip.mc_option(object(), "call", cfg), "unsupported option inputs"),
        (lambda m, cfg: ip.mc_martingale_check(m, [100.0, 270.0], 268.0, cfg),
         r"must not pass tau \+ epsilon"),
        (lambda m, cfg: ip.mc_martingale_check(m, [100.0, np.nan], 268.0, cfg),
         "t_list must be finite"),
    ], ids=["forward", "forward-nan-t", "futures-nan-t", "risk-premium", "density-nan",
            "density-negative", "option", "martingale", "martingale-nan"])
    def test_estimator_domain_errors(self, ref_model, estimate, match):
        with pytest.raises(DomainError, match=match):
            estimate(ref_model, ip.McConfig(n_paths=100, seed=0))


class TestMartingaleChecks:
    def test_zero_vol_exact(self, zero_vol_model):
        cfg = ip.McConfig(n_paths=1000, seed=0)
        checks = ip.mc_martingale_check(zero_vol_model, [100.0, 150.0, 200.0], 268.0, cfg)
        for c in checks:
            assert c.estimate.std_error == 0.0
            assert c.z == 0.0

    def test_reference_model_passes(self, ref_model):
        cfg = ip.McConfig(n_paths=100_000, seed=14)
        tau = 2160.0
        checks = ip.mc_martingale_check(ref_model, [tau - 336.0, tau - 168.0, tau - 24.0],
                                        tau, cfg, x_start=1.0)
        assert all(c.passed for c in checks)

    def test_biased_drift_detected(self, ref_model):
        # mutation control: the check must have power
        cfg = ip.McConfig(n_paths=100_000, seed=14, mutation_drift=0.01)
        tau = 2160.0
        checks = ip.mc_martingale_check(ref_model, [tau - 336.0, tau - 168.0, tau - 24.0],
                                        tau, cfg, x_start=1.0)
        assert any(not c.passed for c in checks)

    def test_discounted_tradable_variant(self, ref_model):
        cfg = ip.McConfig(n_paths=100_000, seed=15)
        checks = ip.mc_martingale_check(ref_model, [1800.0, 1968.0], 2160.0, cfg,
                                        x_start=1.0, discounted=True)
        assert all(c.passed for c in checks)
        assert "discounted" in checks[0].name

    def test_futures_crossing_fixings(self, ref_model):
        strip = ip.DeliverySet.from_hours([2160.0 + k for k in range(12)])
        first_fix = 2160.0 - 24.0
        cfg = ip.McConfig(n_paths=100_000, seed=16)
        checks = ip.mc_futures_martingale(
            ref_model, [first_fix - 72.0, first_fix - 24.0, first_fix + 3.5], strip, cfg,
            x_start=1.0)
        assert len(checks) == 2
        assert all(c.passed for c in checks)

    def test_checkpoint_ordering_enforced(self, ref_model):
        cfg = ip.McConfig(n_paths=100, seed=0)
        with pytest.raises(DomainError):
            ip.mc_martingale_check(ref_model, [100.0, 90.0], 268.0, cfg)

    def test_futures_checkpoints_must_start_before_first_fixing(self, ref_model):
        strip = ip.DeliverySet.from_hours([268.0, 269.0])
        cfg = ip.McConfig(n_paths=100, seed=0)
        with pytest.raises(DomainError, match="first fixing"):
            ip.mc_futures_martingale(ref_model, [250.0, 260.0], strip, cfg)

    @pytest.mark.parametrize("time_step", [3e-3, 1e-2])   # 0.1 h is 33.3 and 10 steps
    def test_representation_steps_must_nest(self, ref_model, time_step):
        cfg = ip.McConfig(n_paths=100, seed=0, time_step=time_step)
        with pytest.raises(DomainError, match=r"whole number of 4 \* cfg.time_step"):
            ip.euler_representation_error(ref_model, 268.0, 100.0, span=0.1, cfg=cfg,
                                          x_t0=0.0)


class TestFuturesMartingaleFrozenForwards:
    """Checkpoints past fixings: a delivery fixed by the earlier checkpoint
    enters the quote as its forward frozen at the backbone state of its
    fixing, and only the later deliveries are drawn."""

    STRIP = [2160.0 + k for k in range(12)]
    FIX = 2160.0 - 24.0                          # the first fixing
    T_LIST = [FIX - 24.0, FIX + 3.5, FIX + 7.5, FIX + 30.0]

    def checks(self, model, drift=0.0):
        cfg = ip.McConfig(n_paths=100_000, seed=17, mutation_drift=drift)
        return ip.mc_futures_martingale(model, self.T_LIST, ip.DeliverySet.from_hours(self.STRIP),
                                        cfg, x_start=1.0)

    def test_passes_and_the_mutation_fails(self, ref_model):
        checks = self.checks(ref_model)
        assert [c.name for c in checks] == [
            "futures martingale 2112h -> 2139.5h", "futures martingale 2139.5h -> 2143.5h",
            "futures martingale 2143.5h -> 2166h"]
        assert all(c.passed for c in checks)
        assert not self.checks(ref_model, drift=0.01)[0].passed

    def test_matches_the_frozen_and_live_sums(self, ref_model):
        # the estimate split into the forwards fixed by t, summed once, and
        # the live ones drawn from the backbone state at t
        ou, conv = ref_model.ou, ref_model.conv
        cfg = ip.McConfig(n_paths=100_000, seed=17)
        fixings = [tau - conv.delta for tau in self.STRIP]
        weight = math.exp(-conv.hourly_rate * (conv.delta + conv.epsilon)) / len(self.STRIP)
        times = sorted(set(self.T_LIST) | set(fixings))
        backbone = dict(zip(times, [1.0] + _walk(ou, 1.0, np.diff(times), [0.0] * len(times))))
        checks = self.checks(ref_model)
        n_frozen = []
        for check, t, u in zip(checks, self.T_LIST, self.T_LIST[1:]):
            frozen = sum(weight * ip.forward_price(ref_model, f, tau, backbone[f])
                         for f, tau in zip(fixings, self.STRIP) if f <= t)
            live = [(f, tau) for f, tau in zip(fixings, self.STRIP) if f > t]
            n_frozen.append(len(self.STRIP) - len(live))
            sim_times = sorted({min(u, f) for f, _ in live})
            steps = np.diff([t] + sim_times)
            sds = _step_law(ou, steps)[2].tolist()

            def values(z):
                state = dict(zip(sim_times, _walk(ou, backbone[t], steps,
                                                  (sd * z[:, k] for k, sd in enumerate(sds)))))
                total = np.full(len(z), frozen)
                for f, tau in live:
                    total = total + weight * ip.forward_price(ref_model, min(u, f), tau,
                                                              state[min(u, f)])
                return total

            assert check.estimate == _run_jobs(cfg, [(max(len(sim_times), 1), values)])[0]
            assert check.closed_form == ip.futures_price(
                ref_model, t, ip.DeliverySet.from_hours(self.STRIP), backbone)
        assert n_frozen == [0, 4, 8]

    def test_past_every_fixing_nothing_is_drawn(self, ref_model):
        # from FIX + 12 every forward of the strip is frozen: the quote is
        # the same sum on every path, so the check is exact
        t_list = [self.FIX - 24.0, self.FIX + 12.0, self.FIX + 30.0]
        cfg = ip.McConfig(n_paths=300_000, seed=17)
        check = ip.mc_futures_martingale(ref_model, t_list, ip.DeliverySet.from_hours(self.STRIP),
                                         cfg, x_start=1.0)[1]
        assert check.estimate.std_error == 0.0
        assert check.z == 0.0

    def test_no_start_state_is_x0(self, ref_model):
        cfg = ip.McConfig(n_paths=20_000, seed=5)
        x0 = ref_model.ou.x0
        for discounted in (False, True):
            assert (ip.mc_martingale_check(ref_model, [1824.0, 1992.0, 2136.0], 2160.0, cfg,
                                           discounted=discounted)
                    == ip.mc_martingale_check(ref_model, [1824.0, 1992.0, 2136.0], 2160.0, cfg,
                                              x_start=x0, discounted=discounted))
        strip = ip.DeliverySet.from_hours(self.STRIP)
        assert (ip.mc_futures_martingale(ref_model, self.T_LIST, strip, cfg)
                == ip.mc_futures_martingale(ref_model, self.T_LIST, strip, cfg, x_start=x0))


def test_mutation_drift_shifts_the_state_by_the_exact_law(ref_model):
    # zero volatility: every path lands on x e^{-lam h} + d (1 - e^{-lam h}) / lam
    ou = ip.OuParams(lam=ref_model.ou.lam, sigma=0.0, x0=ref_model.ou.x0)
    model = dataclasses.replace(ref_model, ou=ou)
    t, tau, x, drift = 100.0, 268.0, 1.0, 0.01
    h = tau + model.conv.epsilon - t
    expected = x * math.exp(-ou.lam * h) + drift * -math.expm1(-ou.lam * h) / ou.lam
    drawn = ip.sample_transition(ou, x, h, np.random.default_rng(0), drift=drift)
    assert drawn == pytest.approx(expected, rel=1e-12)
    est = ip.mc_forward(model, t, tau, x, ip.McConfig(n_paths=4, mutation_drift=drift))
    g_tau_e = ip.evaluate(model.load_seasonality, tau + model.conv.epsilon)
    assert est.mean == pytest.approx(ip.intrinsic_price(model, g_tau_e + expected, tau),
                                     rel=1e-12)


def test_w_walk_draws_the_exact_joint_law(ref_ou):
    # one step h: Var dW = h, Cov(dW, X_h) = sigma (1 - e^{-lam h}) / lam and
    # Var X_h = the transition variance, each within 4 standard errors
    n, h, x = 200_000, 5.0, 2.0
    rng = np.random.default_rng(31)
    dw, (x_h,) = _w_walk(ref_ou, x, h, rng.standard_normal((n, 1)),
                         rng.standard_normal((n, 1)))
    dw = dw[:, 0]
    mean, variance = ip.transition(ref_ou, x, h)
    cov = ref_ou.sigma * -math.expm1(-ref_ou.lam * h) / ref_ou.lam
    for products, expected in ((dw * dw, h), (dw * (x_h - mean), cov),
                               ((x_h - mean) ** 2, variance)):
        se = products.std(ddof=1) / math.sqrt(n)
        assert abs(products.mean() - expected) < 4 * se


class TestRiskPremiumOracle:
    def test_zero_theta_estimators_near_zero(self, ref_model):
        cfg = ip.McConfig(n_paths=200_000, seed=18)
        checks = ip.mc_risk_premium(ref_model, 0.0, 200.0, 268.0, 0.5, cfg)
        assert [c.closed_form for c in checks[:2]] == [0.0, 0.0]
        assert all(c.passed for c in checks)

    def test_estimator_cross_check(self, ref_model, ref_theta):
        cfg = ip.McConfig(n_paths=200_000, seed=19)
        checks = ip.mc_risk_premium(ref_model, ref_theta, 200.0, 268.0, 0.5, cfg)
        assert abs(checks[2].z) <= 3.0

    def test_zero_span_prices_the_exact_state(self, ref_model, ref_theta):
        # at t = tau no time is left: every path of both estimators carries the
        # forward at the first-order state minus the quote at the exact one,
        # and the density over a zero span is exactly 1
        tau, x_tilde = 2160.0, 0.5
        ou = ref_model.ou
        expected = (ip.forward_price(ref_model, tau, tau,
                                     ip.to_risk_neutral_state(x_tilde, ou, ref_theta, tau))
                    - ip.intraday_price(ref_model, tau, ip.to_risk_neutral_state(
                        x_tilde, ou, ref_theta, tau, mode="exact")))
        cfg = ip.McConfig(n_paths=4_000, seed=4)
        for check in ip.mc_risk_premium(ref_model, ref_theta, tau, tau, x_tilde, cfg)[:2]:
            assert check.estimate.std_error == 0.0
            assert check.estimate.mean == pytest.approx(expected, rel=1e-12)

    def test_cross_check_is_the_third_check(self, ref_model, ref_theta):
        cfg = ip.McConfig(n_paths=2_000, seed=19)
        direct, weighted, cross = ip.mc_risk_premium(ref_model, ref_theta, 200.0, 268.0,
                                                     0.5, cfg)
        assert cross.name == "risk premium estimator cross-check"
        assert cross.informational
        assert not direct.informational and not weighted.informational
        assert direct.closed_form == weighted.closed_form
        assert cross.closed_form == direct.estimate.mean
        assert cross.estimate.mean == weighted.estimate.mean
        assert cross.estimate.std_error == math.hypot(direct.estimate.std_error,
                                                      weighted.estimate.std_error)


class TestTailDrawOverflow:
    # alpha1 = 1 puts leg 1's exponent at 680 at the expected delivery load:
    # the closed form adds half the state variance (18.85) and stays under
    # the 700 cap, while a draw 3.3 sd up crosses it, about once in 1,800 paths
    TAU = 2160.0

    @pytest.fixture(scope="class")
    def hot_model(self, ref_model):
        g = float(ip.evaluate(ref_model.load_seasonality, self.TAU + ref_model.conv.epsilon))
        supply = dataclasses.replace(ref_model.supply, alpha1=1.0, beta1=g - 680.0)
        return dataclasses.replace(ref_model, supply=supply)

    def test_batch_draw_raises_numeric_error(self, hot_model):
        t = self.TAU - 168.0
        assert math.isfinite(ip.forward_price(hot_model, t, self.TAU, 0.0))
        with pytest.raises(ip.NumericError, match="supply leg 1: exponent magnitude"):
            ip.mc_forward(hot_model, t, self.TAU, 0.0, ip.McConfig(n_paths=20_000, seed=0))

    def test_verify_reports_it_as_one_error_line(self, hot_model, ref_theta, tmp_path, capsys):
        params = tmp_path / "hot.json"
        params.write_text(json.dumps(cli.model_to_params(hot_model, ref_theta)))
        code = cli.main(["verify", "--params", str(params), "--paths", "20000",
                         "--nested-paths", "20000", "--seed", "0"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: supply leg 1: exponent")

    def test_overflowing_sum_of_squares_raises(self, hot_model, ref_theta, tmp_path, capsys):
        # exponent 672 (closed forward 1.07e300): no draw of 2,000 reaches
        # the 700 cap, but the sum of their squares passes the float range
        supply = dataclasses.replace(hot_model.supply, beta1=hot_model.supply.beta1 + 8.0)
        warm = dataclasses.replace(hot_model, supply=supply)
        with pytest.raises(ip.NumericError, match="sum of squares inf"):
            ip.mc_forward(warm, self.TAU - 168.0, self.TAU, 0.0,
                          ip.McConfig(n_paths=2_000, seed=0))
        params = tmp_path / "warm.json"
        params.write_text(json.dumps(cli.model_to_params(warm, ref_theta)))
        code = cli.main(["verify", "--params", str(params), "--paths", "2000",
                         "--nested-paths", "2000", "--seed", "0"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: Monte Carlo sums are not finite")


class TestSuite:
    def test_equals_the_public_estimators_check_by_check(self, ref_model, ref_theta):
        # the suite's own schedule, spelled out with the public estimators,
        # one stream draw per estimate; 270,000 paths end on a ragged batch
        model, theta = ref_model, ref_theta
        for cfg in (ip.McConfig(n_paths=270_000, seed=6),
                    ip.McConfig(n_paths=270_000, seed=6, mutation_drift=0.01)):
            conv, ou = model.conv, model.ou
            tau = 90.0 * conv.delta
            x, t = math.sqrt(ou.stationary_variance), tau - 168.0
            strip = ip.DeliverySet.from_hours([tau + k for k in range(24)])
            t_fut = tau - conv.delta - 48.0
            f_ref = ip.forward_price(model, t, tau, x)
            normal = ip.NormalOptionInputs(forward=f_ref, strike=0.95 * f_ref,
                                           sigma_ut=0.1 * f_ref, span=24.0, rate=conv.hourly_rate)
            logn = ip.LognormalOptionInputs(forward=f_ref, strike=0.95 * f_ref, var_integral=0.04,
                                            span=24.0, rate=conv.hourly_rate)
            nested = dataclasses.replace(cfg, n_paths=2_000)
            expected = [
                ip.mc_forward(model, t, tau, x, cfg), ip.mc_tradable(model, t, tau, x, cfg),
                ip.mc_tradable(model, tau, tau, x, cfg),
                ip.mc_tradable(model, tau - conv.delta, tau, x, cfg),
                ip.mc_day_ahead_tower(model, tau, x, cfg).estimate,
                ip.mc_futures(model, t_fut, strip, x, cfg),
                *(c.estimate for c in ip.mc_risk_premium(model, theta, t, tau, x, cfg)),
                ip.mc_density_unit_mean(ou, theta, 168.0, cfg).estimate,
                *(c.estimate for c in ip.mc_girsanov_moments(ou, theta, 96.0, cfg)),
                ip.mc_option(normal, "call", cfg), ip.mc_option(normal, "put", cfg),
                ip.mc_option(logn, "call", cfg), ip.mc_option(logn, "call", cfg),
                ip.mc_option(logn, "put", cfg), ip.mc_lognormal_forward(f_ref, 0.04, cfg),
                *(c.estimate for c in ip.mc_martingale_check(
                    model, [tau - 336.0, tau - 168.0, tau - 24.0], tau, nested, x_start=x)),
                *(c.estimate for c in ip.mc_martingale_check(
                    model, [tau - 336.0, tau - 168.0], tau, nested, x_start=x, discounted=True)),
                *(c.estimate for c in ip.mc_futures_martingale(
                    model, [t_fut - 96.0, t_fut, float(strip.taus[6]) - conv.delta + 0.5], strip,
                    nested, x_start=x)),
            ]
            checks = ip.run_verification_suite(model, theta, cfg, nested_paths=2_000)
            assert [c.estimate for c in checks] == expected

    def test_each_stream_prefix_is_drawn_once(self, ref_model, ref_theta, monkeypatch):
        # estimators of one (seed, paths) stream share its draws, in waves of
        # at most three, widest first: [24, 16, 8] and four waves of one
        # column at the seed, [16, 2] at seed + 1, then the nested checks;
        # 45.2M normals at a million paths, where each estimator drawing
        # alone takes 78.2M
        drawn = []
        default_rng = np.random.default_rng

        class Counting:
            def __init__(self, *args):
                self.rng = default_rng(*args)

            def standard_normal(self, size):
                drawn.append(math.prod(np.atleast_1d(size)))
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        ip.run_verification_suite(ref_model, ref_theta, ip.McConfig(n_paths=1_000_000, seed=1))
        assert sum(drawn) <= 46_000_000
    def test_everything_passes_and_report_formats(self, ref_model, ref_theta):
        cfg = ip.McConfig(n_paths=120_000, seed=23)
        checks = ip.run_verification_suite(ref_model, ref_theta, cfg, nested_paths=40_000)
        assert ip.all_passed(checks)
        report = ip.format_report(checks)
        assert "verbatim" in report and "PASS" in report and "recorded" in report

    def test_counted_and_recorded_checks(self, ref_model, ref_theta):
        # recorded, not counted: the verbatim d_pm, which is expected to miss;
        # the cross-check and the lognormal forward, which no model error
        # the counted checks miss can move
        cfg = ip.McConfig(n_paths=2_000, seed=0)
        checks = ip.run_verification_suite(ref_model, ref_theta, cfg, nested_paths=500)
        assert [c.name for c in checks if c.informational] == [
            "risk premium estimator cross-check", "lognormal option call (verbatim d_pm)",
            "lognormal forward unit drift"]
        assert sum(not c.informational for c in checks) == 20

    def test_verbatim_variant_recorded_as_mismatch(self, ref_model, ref_theta):
        cfg = ip.McConfig(n_paths=120_000, seed=23)
        checks = ip.run_verification_suite(ref_model, ref_theta, cfg, nested_paths=40_000)
        verbatim = [c for c in checks if "verbatim" in c.name]
        assert len(verbatim) == 1
        assert verbatim[0].informational
        assert abs(verbatim[0].z) > 3.0
