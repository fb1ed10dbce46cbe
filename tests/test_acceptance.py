"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them all).

Criteria, tolerances and path counts are fixed here and must not be
tuned: oracle agreement within 3 standard errors at 10^6 paths (10^5 for
nested martingale checks) with a working mutation control, exact
identities at machine precision, the martingale suite, the synthetic
calibration round-trip, the sign of the risk premium path, monthly
implied-theta recovery, the pathwise representation check, and the
gradient check.
"""

import datetime as dt
import math
import time

import numpy as np
import pytest

import intrinsicprice as ip
from intrinsicprice.calibration import PricingObjective

PATHS = 1_000_000
NESTED_PATHS = 100_000


def report(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} {label}" + (f" :: {detail}" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def model_and_theta():
    return ip.reference_model()


class TestCriterion1OracleAgreement:
    def test_closed_forms_match_oracle_within_three_se(self, model_and_theta):
        model, theta = model_and_theta
        cfg = ip.McConfig(n_paths=PATHS, seed=101)
        start = time.time()
        checks = ip.run_verification_suite(model, theta, cfg, nested_paths=NESTED_PATHS)
        elapsed = time.time() - start
        counted = [c for c in checks if not c.informational]
        worst = max(abs(c.z) for c in counted)
        per_check = elapsed / len(counted)
        ok = report(1, "closed-form/oracle agreement",
                    ip.all_passed(checks) and per_check <= 60.0,
                    f"{len(counted)} checks, worst |z|={worst:.2f}, "
                    f"{per_check:.2f}s per check")
        assert ok, "\n" + ip.format_report(checks)

    def test_mutation_control_breaks_every_priced_check(self, model_and_theta):
        model, theta = model_and_theta
        cfg = ip.McConfig(n_paths=PATHS, seed=101, mutation_drift=0.01)
        checks = ip.run_verification_suite(model, theta, cfg, nested_paths=NESTED_PATHS)
        priced_prefixes = ("forward price", "tradable price", "intraday price",
                           "day-ahead", "futures price", "risk premium (",
                           "normal option", "lognormal option call (conventional",
                           "lognormal option put", "forward martingale",
                           "discounted tradable martingale", "futures martingale")
        targeted = [c for c in checks
                    if c.name.startswith(priced_prefixes) and not c.informational]
        still_green = [c.name for c in targeted if c.passed]
        ok = report(1, "mutation control (+0.01 drift) breaks every priced check",
                    not still_green,
                    f"{len(targeted)} checks mutated, min |z|="
                    f"{min(abs(c.z) for c in targeted):.2f}")
        assert ok, f"checks that failed to detect the mutation: {still_green}"


class TestCriterion2ExactIdentities:
    def test_settlement_price_is_realised_intrinsic(self, model_and_theta):
        model, _ = model_and_theta
        worst = 0.0
        for tau, x in [(24.0, -3.0), (268.0, 0.0), (2160.0, 5.5), (8760.0, -12.5776)]:
            g = ip.evaluate(model.load_seasonality, tau + 1.0)
            quoted = ip.tradable_price(model, tau + 1.0, tau, x)
            realised = ip.intrinsic_price(model, g + x, tau)
            worst = max(worst, abs(quoted / realised - 1.0))
        ok = report(2, "settlement value equals realised price", worst == 0.0,
                    f"worst relative gap {worst:.3g}")
        assert ok

    def test_zero_theta_premium_is_exactly_zero(self, model_and_theta):
        model, _ = model_and_theta
        values = [ip.risk_premium(model, 0.0, t, 2160.0, x)
                  for t in (0.0, 160.0, 2000.0, 2160.0) for x in (-8.0, 0.0, 8.0)]
        ok = report(2, "risk premium identically zero without measure change",
                    all(v == 0.0 for v in values),
                    f"max |premium| = {max(abs(v) for v in values):.3g}")
        assert ok

    def test_put_call_parity(self):
        r = 0.001 / 8760.0
        worst = 0.0
        for forward in (20.0, 50.0, 90.0):
            for strike in (30.0, 50.0, 70.0):
                for span in (0.0, 24.0, 720.0):
                    n = ip.NormalOptionInputs(forward, strike, 4.0, span, r)
                    gap_n = (ip.bachelier_call(n) - ip.bachelier_put(n)
                             - math.exp(-r * span) * (forward - strike))
                    ln = ip.LognormalOptionInputs(forward, strike, 0.05, span, r)
                    gap_l = (ip.black76_call(ln) - ip.black76_put(ln)
                             - math.exp(-r * span) * (forward - strike))
                    scale = max(abs(forward - strike), 1.0)
                    worst = max(worst, abs(gap_n) / scale, abs(gap_l) / scale)
        ok = report(2, "put-call parity to 1e-12 relative", worst <= 1e-12,
                    f"worst relative gap {worst:.3g}")
        assert ok

    def test_discount_composition(self):
        conv = ip.MarketConventions()
        worst = 0.0
        for t1, t2, t3 in [(0.0, 1.0, 2.0), (0.0, 8760.0, 20000.0), (5.5, 5.5, 9.25)]:
            composed = ip.discount(t1, t2, conv) * ip.discount(t2, t3, conv)
            direct = ip.discount(t1, t3, conv)
            worst = max(worst, abs(composed / direct - 1.0))
        ok = report(2, "discount factors compose", worst <= 1e-12,
                    f"worst relative gap {worst:.3g}")
        assert ok

    def test_chapman_kolmogorov(self, model_and_theta):
        model, _ = model_and_theta
        ou = model.ou
        worst_m = worst_v = 0.0
        for x in (-10.0, 0.0, 7.5):
            for dt1, dt2 in [(1.0, 1.0), (24.0, 144.0), (0.5, 2000.0)]:
                m1, v1 = ip.transition(ou, x, dt1)
                m2, v2 = ip.transition(ou, m1, dt2)
                md, vd = ip.transition(ou, x, dt1 + dt2)
                composed_v = v2 + math.exp(-2.0 * ou.lam * dt2) * v1
                if md != 0.0:
                    worst_m = max(worst_m, abs(m2 / md - 1.0))
                worst_v = max(worst_v, abs(composed_v / vd - 1.0))
        ok = report(2, "transition law composes (Chapman-Kolmogorov)",
                    worst_m <= 1e-12 and worst_v <= 1e-12,
                    f"worst mean gap {worst_m:.3g}, variance gap {worst_v:.3g}")
        assert ok


class TestCriterion3MartingaleSuite:
    def test_all_tradable_objects_are_martingales(self, model_and_theta):
        model, theta = model_and_theta
        cfg = ip.McConfig(n_paths=NESTED_PATHS, seed=103)
        tau = 2160.0
        checks = []
        checks += ip.mc_martingale_check(model, [tau - 336.0, tau - 168.0, tau - 24.0],
                                         tau, cfg, x_start=1.0)
        checks += ip.mc_martingale_check(model, [tau - 336.0, tau - 168.0, tau - 24.0],
                                         tau, cfg, x_start=1.0, discounted=True)
        strip = ip.DeliverySet.from_hours([tau + k for k in range(24)])
        first_fix = tau - 24.0
        checks += ip.mc_futures_martingale(
            model, [first_fix - 96.0, first_fix - 24.0, first_fix + 6.5], strip, cfg,
            x_start=1.0)
        f0 = ip.forward_price(model, tau - 168.0, tau, 1.0)
        est = ip.mc_lognormal_forward(f0, 0.04, ip.McConfig(n_paths=PATHS, seed=104))
        checks.append(ip.OracleCheck("lognormal forward unit drift", f0, est))
        worst = max(abs(c.z) for c in checks)
        ok = report(3, "martingale suite (forward, discounted, futures, lognormal)",
                    all(c.passed for c in checks),
                    f"{len(checks)} checks, worst |z|={worst:.2f}")
        assert ok, "\n" + ip.format_report(checks)


class TestCriterion4CalibrationRoundTrip:
    def test_ten_seed_recovery(self, model_and_theta):
        model, theta = model_and_theta
        cal = ip.Calendar()
        start = time.time()
        passes = 0
        details = []
        for seed in range(10):
            series = ip.generate_synthetic(model, theta, 3 * 365 * 24, 0.5, seed=seed)
            g_tilde = ip.fit_load_seasonality(series, cal)
            ou_hat = ip.fit_ou(series, g_tilde)
            init = ip.initial_supply_guess(series, model.price_seasonality, model.conv)
            result = ip.calibrate_supply_theta(series, g_tilde, ou_hat,
                                               model.price_seasonality, model.conv, init)
            s = result.supply
            checks = [
                abs(ou_hat.lam / model.ou.lam - 1.0) < 0.10,
                abs(ou_hat.sigma / model.ou.sigma - 1.0) < 0.05,
                abs(s.alpha1 / model.supply.alpha1 - 1.0) < 0.15,
                abs(s.alpha2 / model.supply.alpha2 - 1.0) < 0.15,
                abs(s.beta1 - model.supply.beta1) < 2.0,
                abs(s.beta2 - model.supply.beta2) < 2.0,
                abs(result.theta - theta) < 0.002,
            ]
            passes += all(checks)
            details.append("".join("y" if c else "N" for c in checks))
        elapsed = time.time() - start
        ok = report(4, "three-year synthetic round-trip across seeds",
                    passes >= 8 and elapsed <= 600.0,
                    f"{passes}/10 seeds within tolerance in {elapsed:.0f}s "
                    f"(per-seed flags {details})")
        assert ok

    def test_zero_noise_objective_vanishes_at_truth(self, model_and_theta):
        model, theta = model_and_theta
        series = ip.generate_synthetic(model, theta, 3 * 720, 0.0, seed=0)
        g_tilde = ip.p_seasonality_from_q(model.load_seasonality, model.ou, theta)
        value = PricingObjective(series, g_tilde, model.ou, model.price_seasonality,
                                 model.conv)(model.supply, theta)
        ok = report(4, "noise-free objective vanishes at the true parameters",
                    value < 1e-8, f"objective {value:.3g}")
        assert ok


def _second_wednesday_noon(year: int, month: int, epoch: dt.date) -> float:
    date = dt.date(year, month, 1)
    while date.weekday() != 2:
        date += dt.timedelta(days=1)
    date += dt.timedelta(days=7)
    return (date - epoch).days * 24.0 + 12.0


class TestCriterion5NegativePremiumPath:
    def test_premium_path_negative_over_last_2000_hours(self, model_and_theta):
        """Faithful implementation of the stated criterion; known to FAIL.

        With a constant negative measure-change parameter the premium is
        negative only near delivery, where the first-order state shift
        (which grows linearly in calendar time) still reaches the
        exponentially damped quote; beyond roughly ln(lam * t) / lam
        hours before delivery that shift dies out and only the
        real-world leg's drift term survives, leaving a small positive
        premium of about alpha1 * sigma * |theta| times the first supply
        leg.  No delivery date or window start changes this sign
        structure, and the Monte Carlo oracle confirms the closed form,
        so an all-negative two-thousand-hour window is unattainable.
        """
        model, theta = model_and_theta
        epoch = model.load_seasonality.epoch
        x_tilde = 0.0
        failures = []
        mc_confirmations = []
        for label, (year, month) in (("summer", (2017, 8)), ("winter", (2018, 2))):
            tau = _second_wednesday_noon(year, month, epoch)
            grid = tau - np.arange(0.0, 2001.0, 50.0)[::-1]
            closed = np.array([ip.risk_premium(model, theta, float(t), tau, x_tilde)
                               for t in grid])
            n_positive = int(np.sum(closed >= 0.0))
            if n_positive:
                failures.append(f"{label}: {n_positive}/{grid.size} grid points "
                                f"non-negative (max {closed.max():+.4f})")
            for t in (grid[0], grid[-1]):
                cfg = ip.McConfig(n_paths=PATHS, seed=105 + int(t) % 7)
                direct = ip.mc_risk_premium(model, theta, float(t), tau, x_tilde, cfg)[0]
                est = direct.estimate
                agree = abs(est.mean - direct.closed_form) <= 3 * est.std_error
                negative = est.mean + 3 * est.std_error < 0.0
                mc_confirmations.append((label, t - tau, agree, negative))
                if not negative:
                    failures.append(f"{label} t-tau={t - tau:+.0f}h: MC premium "
                                    f"{est.mean:+.4f} (se {est.std_error:.4f}) not negative")
        oracle_consistent = all(a for _, _, a, _ in mc_confirmations)
        ok = report(5, "negative premium at every point of the 2000h window",
                    not failures and oracle_consistent,
                    "; ".join(failures) if failures else "all points negative")
        assert ok, ("closed form and oracle agree, but the premium is positive "
                    "far from delivery: " + "; ".join(failures))


class TestCriterion6ImpliedThetaRecovery:
    def test_piecewise_monthly_theta_recovered(self, model_and_theta):
        model, _ = model_and_theta
        monthly = {"2015-01": -0.03, "2015-02": 0.0, "2015-03": 0.01, "2015-04": -0.03}
        series = ip.generate_synthetic(model, 0.0, 24 * 120, 0.1, seed=106,
                                       monthly_theta=monthly)
        g_tilde = ip.p_seasonality_from_q(model.load_seasonality, model.ou, 0.0)
        out = ip.implied_theta_monthly(series, g_tilde, model.ou,
                                       model.price_seasonality, model.supply, model.conv)
        gaps = {d.strftime("%Y-%m"): abs(v - monthly[d.strftime("%Y-%m")]) for d, v in out}
        ok = report(6, "monthly implied parameter within 0.003",
                    len(out) == 4 and max(gaps.values()) < 0.003,
                    f"worst gap {max(gaps.values()):.5f}")
        assert ok

    def test_neutral_generator_implies_near_zero(self, model_and_theta):
        model, _ = model_and_theta
        series = ip.generate_synthetic(model, 0.0, 24 * 90, 0.1, seed=107)
        g_tilde = ip.p_seasonality_from_q(model.load_seasonality, model.ou, 0.0)
        out = ip.implied_theta_monthly(series, g_tilde, model.ou,
                                       model.price_seasonality, model.supply, model.conv)
        worst = max(abs(v) for _, v in out)
        ok = report(6, "neutral generator implies parameter within 0.001 of zero",
                    worst < 0.001, f"worst |theta| {worst:.6f}")
        assert ok


class TestCriterion7PathwiseRepresentation:
    def test_euler_error_shrinks_linearly(self, model_and_theta):
        model, _ = model_and_theta
        tau = 2160.0
        t0 = tau + model.conv.epsilon - 336.0
        cfg = ip.McConfig(n_paths=150_000, seed=108, time_step=2.5e-3)
        errors = ip.euler_representation_error(model, tau, t0, span=0.1, cfg=cfg, x_t0=3.0)
        assert sorted(errors) == [2.5e-3, 5e-3, 1e-2]
        hs = sorted(errors, reverse=True)
        errs = [errors[h] for h in hs]
        ratios = [errs[k + 1] / errs[k] for k in range(len(errs) - 1)]
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        ok = report(7, "representation error shrinks linearly across halvings",
                    all(r < 0.62 for r in ratios) and slope > 0.9,
                    f"errors {[f'{e:.2e}' for e in errs]}, ratios "
                    f"{[f'{r:.3f}' for r in ratios]}, slope {slope:.3f}")
        assert ok


class TestCriterion8GradientCheck:
    def test_central_differences_agree_with_fine_reference(self, model_and_theta):
        model, theta = model_and_theta
        series = ip.generate_synthetic(model, theta, 24 * 60, 0.3, seed=109)
        g_tilde = ip.p_seasonality_from_q(model.load_seasonality, model.ou, theta)
        objective = PricingObjective(series, g_tilde, model.ou,
                                     model.price_seasonality, model.conv)

        def f(u):
            supply = ip.SupplyParams(float(np.exp(u[0])), -float(np.exp(u[1])),
                                     float(u[2]), float(u[3]))
            return objective(supply, float(u[4]))

        rng = np.random.default_rng(110)
        worst = 0.0
        for _ in range(5):
            u = np.array([np.log(rng.uniform(0.15, 0.25)),
                          np.log(rng.uniform(0.15, 0.25)),
                          rng.uniform(42.0, 46.0), rng.uniform(35.0, 40.0),
                          rng.uniform(-0.01, 0.01)])
            coarse = ip.numerical_gradient(f, u, rel_step=1e-6)
            fine = ip.numerical_gradient(f, u, rel_step=1e-8)
            rel = np.abs(coarse - fine) / np.maximum(np.abs(fine), 1e-12)
            worst = max(worst, float(rel.max()))
        ok = report(8, "gradients agree with a fine-step reference to 1e-4",
                    worst < 1e-4, f"worst per-coordinate relative gap {worst:.2e}")
        assert ok
