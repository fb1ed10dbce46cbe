import dataclasses
import datetime as dt
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import intrinsicprice as ip
from intrinsicprice import DomainError, EstimationError
from intrinsicprice.seasonality import N_COLUMNS

EPOCH = dt.date(2015, 1, 1)


def make_calendar():
    return ip.Calendar(
        holidays=frozenset({dt.date(2017, 12, 25)}),            # a Monday
        partial_holidays=frozenset({dt.date(2017, 10, 31)}),    # a Tuesday
        bridge_days=frozenset({dt.date(2017, 5, 26)}))          # Friday after Ascension


def random_model(rng, cal=None):
    dow = np.zeros(4)
    dow[[0, 2, 3]] = rng.normal(0, 2, 3)
    hod = np.zeros(24)
    hod[1:] = rng.normal(0, 3, 23)
    return ip.SeasonalityModel(
        level=50.0 + rng.normal(), trend=1e-4 * rng.normal(), sin_annual=rng.normal(0, 3),
        cos_annual=rng.normal(0, 3), dow_weights=dow, hod_weights=hod,
        calendar=cal or make_calendar(), epoch=EPOCH)


class TestWeekdayClass:
    def test_ordinary_weekdays(self):
        cal = make_calendar()
        assert ip.weekday_class(dt.date(2017, 6, 14), cal) == ip.WeekdayClass.TUE_WED_THU
        assert ip.weekday_class(dt.date(2017, 6, 12), cal) == ip.WeekdayClass.MON_FRI
        assert ip.weekday_class(dt.date(2017, 6, 16), cal) == ip.WeekdayClass.MON_FRI
        assert ip.weekday_class(dt.date(2017, 6, 17), cal) == ip.WeekdayClass.SAT_BRIDGE_PARTIAL
        assert ip.weekday_class(dt.date(2017, 6, 18), cal) == ip.WeekdayClass.SUN_HOLIDAY

    def test_holiday_on_monday_beats_weekday(self):
        cal = make_calendar()
        assert dt.date(2017, 12, 25).weekday() == 0
        assert ip.weekday_class(dt.date(2017, 12, 25), cal) == ip.WeekdayClass.SUN_HOLIDAY

    def test_bridge_friday(self):
        cal = make_calendar()
        assert dt.date(2017, 5, 26).weekday() == 4
        assert ip.weekday_class(dt.date(2017, 5, 26), cal) == ip.WeekdayClass.SAT_BRIDGE_PARTIAL

    def test_partial_holiday_tuesday(self):
        cal = make_calendar()
        assert ip.weekday_class(dt.date(2017, 10, 31), cal) == ip.WeekdayClass.SAT_BRIDGE_PARTIAL

    @given(st.integers(0, 4000))
    def test_total_function(self, offset):
        cal = make_calendar()
        date = EPOCH + dt.timedelta(days=offset)
        assert ip.weekday_class(date, cal) in list(ip.WeekdayClass)

    def test_calendar_disjointness_enforced(self):
        shared = frozenset({dt.date(2017, 1, 2)})
        with pytest.raises(DomainError):
            ip.Calendar(holidays=shared, bridge_days=shared)


class TestModelWeights:
    @pytest.mark.parametrize("dow, hod, match", [
        (np.zeros(3), np.zeros(24), "one entry per weekday class"),
        (np.zeros(4), np.zeros(23), "one entry per hour of day"),
        ([0.0, 1.0, 0.0, 0.0], np.zeros(24), "Tue/Wed/Thu weekday coefficient"),
        (np.zeros(4), [1.0] + [0.0] * 23, "hour-0 coefficient"),
        ([0.5, 0.0, np.nan, 0.0], np.zeros(24), "must be finite"),
        (np.zeros(4), [0.0, np.inf] + [0.0] * 22, "must be finite"),
    ], ids=["dow-shape", "hod-shape", "dow-reference", "hod-reference", "dow-nan", "hod-inf"])
    def test_bad_weights_rejected(self, dow, hod, match):
        with pytest.raises(DomainError, match=match):
            ip.SeasonalityModel(level=1.0, trend=0.0, sin_annual=0.0, cos_annual=0.0,
                                dow_weights=dow, hod_weights=hod, calendar=ip.Calendar(),
                                epoch=EPOCH)


class TestDesignRow:
    def test_epoch_row(self):
        row = ip.design_matrix([0.0], EPOCH, make_calendar())[0]
        assert row[0] == 1.0
        assert row[1] == 0.0
        assert row[2] == 0.0          # sin term
        assert row[3] == 1.0          # cos term
        assert row.shape == (N_COLUMNS,)

    def test_quarter_period(self):
        row = ip.design_matrix([365 * 24 / 4], EPOCH, make_calendar())[0]
        assert row[2] == pytest.approx(1.0, abs=1e-12)
        assert row[3] == pytest.approx(0.0, abs=1e-12)

    def test_same_weekday_class_one_day_apart(self):
        cal = make_calendar()
        tau = 24.0 * 6 + 9   # Wednesday 09:00 relative to the Thursday epoch
        a = ip.design_matrix([tau], EPOCH, cal)[0]
        b = ip.design_matrix([tau + 7 * 24.0], EPOCH, cal)[0]
        assert np.array_equal(a[4:], b[4:])

    @given(st.floats(0, 365 * 24 * 3))
    def test_harmonics_periodic(self, tau):
        cal = ip.Calendar()
        a = ip.design_matrix([tau], EPOCH, cal)[0]
        b = ip.design_matrix([tau + 365 * 24.0], EPOCH, cal)[0]
        assert a[2] == pytest.approx(b[2], abs=1e-9)
        assert a[3] == pytest.approx(b[3], abs=1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            ip.design_matrix([-1.0], EPOCH, make_calendar())[0]


class TestEvaluate:
    def test_all_zero_model(self):
        model = ip.SeasonalityModel.constant(0.0, epoch=EPOCH)
        taus = np.linspace(0, 10_000, 50)
        assert np.all(ip.evaluate(model, taus) == 0.0)

    def test_constant_model(self):
        model = ip.SeasonalityModel.constant(42.0, epoch=EPOCH)
        assert ip.evaluate(model, 12345.0) == 42.0

    def test_matches_design_dot_coefficients(self, rng):
        model = random_model(rng)
        taus = rng.uniform(0, 3 * 8760, 200)
        direct = ip.evaluate(model, taus)
        via_design = ip.design_matrix(taus, EPOCH, model.calendar) @ model.coefficients()
        assert np.allclose(direct, via_design, rtol=1e-12, atol=1e-12)

    # a year of hours around the dates of make_calendar(), at random minutes
    @pytest.mark.parametrize("cal", [ip.Calendar(), make_calendar()], ids=["empty", "listed"])
    def test_design_product_and_scalar_calls_agree(self, rng, cal):
        model = random_model(rng, cal)
        taus = 24.0 * (dt.date(2017, 1, 1) - EPOCH).days + np.arange(365 * 24.0)
        taus += rng.uniform(0.0, 1.0, taus.size)
        direct = ip.evaluate(model, taus)
        via_design = ip.design_matrix(taus, EPOCH, cal) @ model.coefficients()
        assert np.allclose(direct, via_design, rtol=1e-12, atol=0.0)
        for k in rng.choice(taus.size, 200, replace=False):
            scalar = ip.evaluate(model, float(taus[k]))
            assert scalar.shape == () and scalar == direct[k]

    @pytest.mark.parametrize("cal", [ip.Calendar(), make_calendar()], ids=["empty", "listed"])
    def test_empty_and_negative_times(self, rng, cal):
        model = random_model(rng, cal)
        empty = ip.evaluate(model, np.array([]))
        assert empty.shape == (0,) and empty.dtype == np.float64
        assert ip.design_matrix(np.array([]), EPOCH, cal).shape == (0, N_COLUMNS)
        for tau in (-1.0, np.array([5.0, -1e-9])):
            with pytest.raises(DomainError, match="tau >= 0 only"):
                ip.evaluate(model, tau)

    @pytest.mark.parametrize("tau", [np.array([np.nan, 5.0]), np.inf, np.array([-np.inf])],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_times_rejected(self, rng, tau):
        model = random_model(rng)
        for _ in range(2):      # a rejected input is not kept, so it is rejected again
            with pytest.raises(DomainError, match="finite times"):
                ip.evaluate(model, tau)

    def test_reference_coefficients_must_be_zero(self):
        dow = np.zeros(4)
        dow[ip.WeekdayClass.TUE_WED_THU] = 1.0
        with pytest.raises(DomainError):
            ip.SeasonalityModel(level=0, trend=0, sin_annual=0, cos_annual=0,
                                dow_weights=dow, hod_weights=np.zeros(24),
                                calendar=ip.Calendar(), epoch=EPOCH)


class TestLastEvaluation:
    """A model is immutable and keeps its last evaluation; what the memo
    returns is bit-identical to a fresh model's result and owned by the caller."""

    TAUS = 24.0 * 900 + np.arange(720.0)

    def test_weights_are_read_only_copies(self):
        def build(dow, hod):
            return ip.SeasonalityModel(level=1.0, trend=0.0, sin_annual=0.0, cos_annual=0.0,
                                       dow_weights=dow, hod_weights=hod,
                                       calendar=ip.Calendar(), epoch=EPOCH)

        dow, hod = np.array([0.5, 0.0, -2.0, -3.5]), np.arange(24.0) / 4.0
        model, twin = build(dow, hod), build(dow.copy(), hod.copy())
        ip.evaluate(model, self.TAUS)
        dow[0], hod[5] = 99.0, 99.0
        assert model.dow_weights[0] == 0.5 and model.hod_weights[5] == 1.25
        assert np.array_equal(ip.evaluate(model, self.TAUS + 1.0),
                              ip.evaluate(twin, self.TAUS + 1.0))
        for weights in (model.dow_weights, model.hod_weights):
            with pytest.raises(ValueError, match="read-only"):
                weights[0] = 1.0

    def test_caller_arrays_do_not_leak_into_the_memo(self, rng):
        fresh = random_model(rng)
        model = dataclasses.replace(fresh)
        taus = self.TAUS.copy()
        ip.evaluate(model, taus)[:] = 0.0       # the caller owns what it gets
        taus += 24.0                            # same array, new values
        assert np.array_equal(ip.evaluate(model, taus),
                              ip.evaluate(dataclasses.replace(fresh), taus))
        assert np.array_equal(ip.evaluate(model, self.TAUS),
                              ip.evaluate(dataclasses.replace(fresh), self.TAUS))
        out = ip.evaluate(model, self.TAUS)     # a hit
        out[:] = 0.0
        assert np.array_equal(ip.evaluate(model, self.TAUS),
                              ip.evaluate(dataclasses.replace(fresh), self.TAUS))

    def test_equal_bytes_keep_each_callers_shape(self, rng):
        model = random_model(rng)
        tau = 24.0 * 700 + 13.25
        inputs = [tau, np.float64(tau), np.array(tau), [tau], np.array([[tau]]), [[[tau]]]]
        expected = ip.evaluate(dataclasses.replace(model), tau).item().hex()
        for value in inputs:
            out = ip.evaluate(model, value)
            assert out.shape == np.shape(value)
            assert out.item().hex() == expected
        block = self.TAUS.reshape(24, 30)
        on_flat = ip.evaluate(model, self.TAUS)
        on_block = ip.evaluate(model, block)
        assert on_block.shape == (24, 30)
        assert [v.hex() for v in on_block.ravel().tolist()] == [
            v.hex() for v in ip.evaluate(dataclasses.replace(model), block).ravel().tolist()]
        assert on_block.tobytes() == on_flat.tobytes()

    def test_threads_sharing_a_model_get_their_own_values(self, rng):
        model = random_model(rng)
        inputs = [self.TAUS + 24.0 * k for k in range(6)]
        expected = [ip.evaluate(dataclasses.replace(model), taus) for taus in inputs]
        wrong = []

        def work(k):
            for i in range(300):
                j = (k + i % 2) % len(inputs)   # two inputs per thread, shared with a neighbour
                if not np.array_equal(ip.evaluate(model, inputs[j]), expected[j]):
                    wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and wrong == []

    def test_memo_is_not_a_field(self, rng):
        model = random_model(rng)
        ip.evaluate(model, self.TAUS)
        names = [f.name for f in dataclasses.fields(model)]
        assert list(dataclasses.asdict(model)) == names
        assert "_last_evaluation" not in repr(model)

    def test_one_strip_computes_each_seasonality_once(self, monkeypatch):
        from intrinsicprice import seasonality

        calls = []

        def counted(*args):
            calls.append(args[0].size)
            return compute(*args)

        compute = seasonality._hours_and_classes
        monkeypatch.setattr(seasonality, "_hours_and_classes", counted)
        model, theta = ip.reference_model()
        taus = 24.0 * 365 + np.arange(720.0)
        t, x = taus[0] - 100.0, 1.3
        ip.forward_price(model, t, taus, x)
        ip.tradable_price(model, t, taus, x)
        ip.futures_price(model, t, ip.DeliverySet.from_hours(taus), {t: x})
        ip.risk_premium(model, theta, t, taus, x)
        assert calls == [720, 720]      # g3(tau) and g(tau + eps), not seven evaluations


class TestFit:
    def test_noiseless_recovery(self, rng):
        model = random_model(rng)
        taus = np.arange(0.0, 3000.0)
        values = ip.evaluate(model, taus)
        fitted = ip.fit(taus, values, model.calendar, EPOCH)
        assert np.allclose(fitted.coefficients(), model.coefficients(), atol=1e-8)

    def test_fit_then_evaluate_reproduces_projection(self, rng):
        model = random_model(rng)
        taus = np.arange(0.0, 2000.0)
        values = ip.evaluate(model, taus) + rng.normal(0, 1, taus.size)
        fitted = ip.fit(taus, values, model.calendar, EPOCH)
        refit = ip.fit(taus, ip.evaluate(fitted, taus), model.calendar, EPOCH)
        assert np.allclose(refit.coefficients(), fitted.coefficients(), atol=1e-10)

    def test_residuals_orthogonal_to_design(self, rng):
        model = random_model(rng)
        taus = np.arange(0.0, 5000.0)
        values = ip.evaluate(model, taus) + rng.normal(0, 1, taus.size)
        fitted = ip.fit(taus, values, model.calendar, EPOCH)
        X = ip.design_matrix(taus, EPOCH, model.calendar)
        resid = values - ip.evaluate(fitted, taus)
        assert np.max(np.abs(X.T @ resid)) <= 1e-6 * np.linalg.norm(values)

    def test_noisy_recovery_within_three_standard_errors(self):
        # fixed draw; any seed passes with ~92% probability (30 coefficients)
        rng = np.random.default_rng(2)
        model = random_model(rng)
        taus = np.arange(0.0, 100_000.0)
        noise = rng.normal(0, 1, taus.size)
        values = ip.evaluate(model, taus) + noise
        fitted = ip.fit(taus, values, model.calendar, EPOCH)
        X = ip.design_matrix(taus, EPOCH, model.calendar)
        resid = values - ip.evaluate(fitted, taus)
        sigma2 = resid @ resid / (taus.size - N_COLUMNS)
        cov = sigma2 * np.linalg.inv(X.T @ X)
        se = np.sqrt(np.diag(cov))
        gap = np.abs(fitted.coefficients() - model.coefficients())
        assert np.all(gap <= 3.0 * se)

    @pytest.mark.parametrize("values", [np.ones(39), np.ones((40, 1))], ids=["length", "2-d"])
    def test_mismatched_shapes_rejected(self, values):
        with pytest.raises(DomainError, match="1-d arrays of equal length"):
            ip.fit(np.arange(40.0), values, ip.Calendar(), EPOCH)

    def test_too_short_series_rejected(self):
        taus = np.arange(0.0, 10.0)
        with pytest.raises(EstimationError, match="at least"):
            ip.fit(taus, np.ones_like(taus), ip.Calendar(), EPOCH)

    def test_rank_deficient_design_names_columns(self):
        # a single repeated hour starves every other hour-of-day dummy
        taus = np.arange(0.0, 24.0 * 40, 24.0)
        with pytest.raises(EstimationError, match="hod_"):
            ip.fit(taus, np.ones_like(taus), ip.Calendar(), EPOCH)

    def test_constant_shift_moves_only_level(self, rng):
        model = random_model(rng)
        taus = np.arange(0.0, 4000.0)
        values = ip.evaluate(model, taus) + rng.normal(0, 0.3, taus.size)
        base = ip.fit(taus, values, model.calendar, EPOCH)
        shifted = ip.fit(taus, values + 11.5, model.calendar, EPOCH)
        assert shifted.level - base.level == pytest.approx(11.5, abs=1e-9)
        assert np.allclose(shifted.coefficients()[1:], base.coefficients()[1:], atol=1e-9)

    def test_fit_invariant_to_observation_order(self, rng):
        model = random_model(rng)
        taus = np.arange(0.0, 1500.0)
        values = ip.evaluate(model, taus) + rng.normal(0, 1, taus.size)
        perm = rng.permutation(taus.size)
        a = ip.fit(taus, values, model.calendar, EPOCH)
        b = ip.fit(taus[perm], values[perm], model.calendar, EPOCH)
        assert np.allclose(a.coefficients(), b.coefficients(), atol=1e-9)


class TestPriceSeasonalityTarget:
    def test_equal_series_zero_rate(self):
        conv = ip.MarketConventions(annual_rate=0.0)
        out = ip.price_seasonality_target(np.full(5, 50.0), np.full(5, 50.0), conv)
        assert np.allclose(out, 50.0, rtol=1e-15)

    def test_mean_at_zero_rate(self):
        conv = ip.MarketConventions(annual_rate=0.0)
        out = ip.price_seasonality_target(np.array([40.0]), np.array([60.0]), conv)
        assert out[0] == pytest.approx(50.0, rel=1e-15)

    def test_discounted_mixture(self, conv):
        out = ip.price_seasonality_target(np.array([40.0]), np.array([60.0]), conv)
        expected = 100.0 / (1.0 + np.exp(-conv.hourly_rate * 24.0))
        assert out[0] == pytest.approx(expected, rel=1e-14)

    def test_misaligned_series_rejected(self, conv):
        with pytest.raises(DomainError, match="misaligned"):
            ip.price_seasonality_target(np.ones(3), np.ones(4), conv)


class TestCalendarFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text(
            "2017-12-25 holiday\n"
            "2017-10-31 partial\n"
            "# comment\n"
            "2017-05-26 bridge\n")
        cal = ip.load_calendar(path)
        assert dt.date(2017, 12, 25) in cal.holidays
        assert dt.date(2017, 10, 31) in cal.partial_holidays
        assert dt.date(2017, 5, 26) in cal.bridge_days

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("2017-12-25 feast\n")
        with pytest.raises(ip.ParseError):
            ip.load_calendar(path)

    def test_bad_date_rejected(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("2017-13-25 holiday\n")
        with pytest.raises(ip.ParseError, match="invalid date"):
            ip.load_calendar(path)


class TestWeekdayPrecedence:
    def test_calendar_beats_weekday_over_years(self):
        cal = ip.Calendar(
            holidays=frozenset({dt.date(2016, 1, 2), dt.date(2017, 12, 25)}),
            partial_holidays=frozenset({dt.date(2016, 12, 25), dt.date(2018, 4, 2)}),
            bridge_days=frozenset({dt.date(2017, 1, 1), dt.date(2017, 5, 26)}))
        assert EPOCH.weekday() == 3                                   # a Thursday
        cases = {
            dt.date(2016, 1, 2): ip.WeekdayClass.SUN_HOLIDAY,         # holiday on a Saturday
            dt.date(2016, 12, 25): ip.WeekdayClass.SUN_HOLIDAY,       # partial day on a Sunday
            dt.date(2017, 1, 1): ip.WeekdayClass.SUN_HOLIDAY,         # bridge day on a Sunday
            dt.date(2018, 4, 2): ip.WeekdayClass.SAT_BRIDGE_PARTIAL,  # partial day on a Monday
            dt.date(2017, 12, 25): ip.WeekdayClass.SUN_HOLIDAY,       # holiday on a Monday
            dt.date(2017, 5, 26): ip.WeekdayClass.SAT_BRIDGE_PARTIAL,  # bridge day on a Friday
        }
        assert [d.weekday() for d in cases] == [5, 6, 6, 0, 0, 4]
        for date, cls in cases.items():
            assert ip.weekday_class(date, cal) == cls

        def expected(date):
            if date in cal.holidays or date.weekday() == 6:
                return ip.WeekdayClass.SUN_HOLIDAY
            if date in cal.partial_holidays | cal.bridge_days or date.weekday() == 5:
                return ip.WeekdayClass.SAT_BRIDGE_PARTIAL
            if date.weekday() in (0, 4):
                return ip.WeekdayClass.MON_FRI
            return ip.WeekdayClass.TUE_WED_THU

        # every day of four years through the array path of evaluate
        days = np.arange(4 * 366)
        classes = [expected(EPOCH + dt.timedelta(days=int(d))) for d in days]
        weights = np.array([10.0, 0.0, 20.0, 30.0])
        shape = ip.SeasonalityModel(level=0.0, trend=0.0, sin_annual=0.0, cos_annual=0.0,
                                    dow_weights=weights, hod_weights=np.zeros(24),
                                    calendar=cal, epoch=EPOCH)
        assert np.array_equal(ip.evaluate(shape, 24.0 * days + 13.0), weights[classes])


def test_calendar_dates_before_the_epoch_load_and_change_nothing(tmp_path):
    # the day index of a date before the epoch is negative, so no tau >= 0 hits it
    path = tmp_path / "cal.txt"
    path.write_text(f"{EPOCH - dt.timedelta(days=1)} holiday\n"
                    f"{EPOCH - dt.timedelta(days=6)} partial\n"
                    f"{EPOCH - dt.timedelta(days=400)} bridge\n")
    cal = ip.load_calendar(path)
    assert EPOCH - dt.timedelta(days=1) in cal.holidays
    plain = random_model(np.random.default_rng(5), cal=ip.Calendar())
    early = dataclasses.replace(plain, calendar=cal)
    taus = np.arange(60 * 24, dtype=float)
    assert np.array_equal(ip.evaluate(early, taus), ip.evaluate(plain, taus))
