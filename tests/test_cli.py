import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import intrinsicprice as ip
from intrinsicprice import cli


@pytest.fixture(scope="module")
def params_file(tmp_path_factory, ref_model, ref_theta):
    path = tmp_path_factory.mktemp("params") / "model.json"
    path.write_text(json.dumps(cli.model_to_params(ref_model, ref_theta)))
    return path


@pytest.fixture(scope="module")
def data_file(tmp_path_factory, ref_model, ref_theta):
    path = tmp_path_factory.mktemp("data") / "market.csv"
    series = ip.generate_synthetic(ref_model, ref_theta, 8760 + 31 * 24, 0.5, seed=1)
    ip.write_series(series, path)
    return path


@pytest.fixture(scope="module")
def late_data_file(tmp_path_factory, data_file):
    """``data_file`` cut to start on its 31st day, 2015-01-31."""
    path = tmp_path_factory.mktemp("late") / "market.csv"
    lines = data_file.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "".join(lines[1 + 30 * 24:]))
    return path


class TestParamsRoundTrip:
    def test_model_json_round_trip(self, ref_model, ref_theta):
        blob = cli.model_to_params(ref_model, ref_theta)
        model, theta = cli.model_from_params(json.loads(json.dumps(blob)))
        assert theta == ref_theta
        assert model.ou == ref_model.ou
        assert model.supply == ref_model.supply
        assert ip.evaluate(model.load_seasonality, 1234.0) == \
            ip.evaluate(ref_model.load_seasonality, 1234.0)

    def test_malformed_params_rejected(self):
        with pytest.raises(ip.ParseError, match="malformed"):
            cli.model_from_params({"epoch": "2015-01-01"})

    @pytest.mark.parametrize("field, value", [("calendar", []), ("supply", [1.0])])
    def test_malformed_params_shape_rejected(self, ref_model, ref_theta, field, value):
        blob = {**cli.model_to_params(ref_model, ref_theta), field: value}
        with pytest.raises(ip.ParseError, match="malformed"):
            cli.model_from_params(blob)

    # JSON reads NaN as a float, 1e999 as an infinity and a long integer as an int
    @pytest.mark.parametrize("section, key, value", [
        (None, "theta", float("nan")), ("ou", "sigma", float("nan")),
        ("load_seasonality", "level", float("nan")), (None, "theta", float("inf")),
        (None, "theta", 10**400), ("conventions", "delta", float("inf")),
        ("supply", "beta1", -float("inf")),
    ], ids=["theta-nan", "sigma-nan", "level-nan", "theta-inf", "theta-long-int",
            "delta-inf", "beta1-minus-inf"])
    def test_non_finite_params_rejected(self, ref_model, ref_theta, section, key, value):
        blob = cli.model_to_params(ref_model, ref_theta)
        (blob if section is None else blob[section])[key] = value
        where = key if section is None else f"{section}.{key}"
        with pytest.raises(ip.ParseError, match=f"^{re.escape(where)}: "):
            cli.model_from_params(blob)

    def test_calendar_round_trip_with_every_tag(self, tmp_path, ref_model, ref_theta):
        path = tmp_path / "cal.txt"
        path.write_text("2015-12-25 holiday\n2015-12-24 partial\n2015-12-28 bridge\n")
        cal = ip.load_calendar(path)
        model = ip.ModelQ(
            ou=ref_model.ou, supply=ref_model.supply, conv=ref_model.conv,
            load_seasonality=dataclasses.replace(ref_model.load_seasonality, calendar=cal),
            price_seasonality=dataclasses.replace(ref_model.price_seasonality, calendar=cal))
        blob = cli.model_to_params(model, ref_theta)
        assert json.dumps(blob["calendar"]) == (
            '{"holiday": ["2015-12-25"], "partial": ["2015-12-24"], "bridge": ["2015-12-28"]}')
        back, _ = cli.model_from_params(json.loads(json.dumps(blob)))
        assert back.load_seasonality.calendar == cal
        assert back.price_seasonality.calendar == cal


class TestSimulate:
    def test_writes_csv_deterministically(self, tmp_path, params_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = cli.main(["simulate", "--params", str(params_file), "--span", "800",
                             "--seed", "9", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        series = ip.load_series(out1)
        assert len(series) == 800

    @pytest.mark.parametrize("flag", ["--noise", "--noise-day-ahead"])
    def test_negative_noise_is_usage_error(self, flag, tmp_path, params_file, capsys):
        out = tmp_path / "a.csv"
        code = cli.main(["simulate", "--params", str(params_file), "--span", "800",
                         flag, "-0.5", "--out", str(out)])
        assert code == 2
        assert "noise_sd must be one non-negative finite" in capsys.readouterr().err
        assert not out.exists()


class TestFitCommands:
    def test_fit_seasonality_report_round_trips(self, tmp_path, data_file):
        out = tmp_path / "g.txt"
        assert cli.main(["fit-seasonality", "--data", str(data_file),
                         "--out", str(out)]) == 0
        model = cli.read_seasonality_report(out, ip.Calendar())
        assert model.level == pytest.approx(47.0, abs=1.0)

    def test_fit_ou_report(self, tmp_path, data_file):
        out = tmp_path / "ou.txt"
        assert cli.main(["fit-ou", "--data", str(data_file), "--out", str(out)]) == 0
        values = dict(line.split() for line in out.read_text().splitlines())
        assert float(values["lambda"]) == pytest.approx(0.0298, rel=0.15)
        assert float(values["sigma"]) == pytest.approx(1.4988, rel=0.10)


class TestCalibrate:
    def test_full_pipeline_with_fixed_gamma3(self, tmp_path, data_file, ref_model, ref_theta):
        gamma3_report = tmp_path / "gamma3.txt"
        cli._write_report(gamma3_report,
                          cli._seasonality_report_pairs(ref_model.price_seasonality))
        report = tmp_path / "calibration.txt"
        fitted = tmp_path / "fitted.json"
        code = cli.main(["calibrate", "--data", str(data_file), "--gamma3",
                         str(gamma3_report), "--out", str(report),
                         "--params-out", str(fitted)])
        assert code == 0
        values = dict(line.split() for line in report.read_text().splitlines())
        assert float(values["alpha1"]) == pytest.approx(0.1949, rel=0.15)
        assert abs(float(values["theta"]) - ref_theta) < 0.002
        model, theta = cli.load_model_file(fitted)
        assert theta == float(values["theta"])

    def test_full_pipeline_fits_gamma3(self, tmp_path, data_file):
        # without --gamma3 the price seasonality is fitted too, and it takes
        # up part of the supply curve: alpha1 and theta are not recovered to
        # the bounds above, so only the stages before the supply fit are held
        report = tmp_path / "calibration.txt"
        assert cli.main(["calibrate", "--data", str(data_file), "--out", str(report)]) == 0
        values = dict(line.split() for line in report.read_text().splitlines())
        assert list(values) == ["lambda", "sigma", "x0", "alpha1", "alpha2", "beta1", "beta2",
                                "theta", "objective_value", "iterations", "converged",
                                "overflow_evaluations"]
        assert float(values["lambda"]) == pytest.approx(0.0298, rel=0.15)
        assert float(values["sigma"]) == pytest.approx(1.4988, rel=0.10)
        assert values["converged"] == "True"
        assert float(values["alpha1"]) > 0 > float(values["alpha2"])


class TestPrice:
    def test_forward_zero_vol_matches_deterministic_value(self, tmp_path, ref_model, capsys):
        quiet = ip.ModelQ(ou=ip.OuParams(lam=0.0298, sigma=0.0, x0=0.0),
                          supply=ref_model.supply,
                          load_seasonality=ref_model.load_seasonality,
                          price_seasonality=ref_model.price_seasonality,
                          conv=ref_model.conv)
        path = tmp_path / "quiet.json"
        path.write_text(json.dumps(cli.model_to_params(quiet, 0.0)))
        code = cli.main(["price", "forward", "--params", str(path), "--t", "100",
                         "--tau", "268", "--x", "3.0"])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == ip.forward_price(quiet, 100.0, 268.0, 3.0)

    def test_futures_strip(self, params_file, ref_model, capsys):
        code = cli.main(["price", "futures", "--params", str(params_file), "--t", "100",
                         "--deliveries", "268,269,270", "--x", "1.0"])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        strip = ip.DeliverySet.from_hours([268.0, 269.0, 270.0])
        assert printed == ip.futures_price(ref_model, 100.0, strip, {100.0: 1.0})

    def test_futures_after_first_fixing_is_usage_error(self, params_file):
        assert cli.main(["price", "futures", "--params", str(params_file), "--t", "260",
                         "--deliveries", "268,269", "--x", "1.0"]) == 2

    def test_option_families(self, capsys):
        code = cli.main(["price", "option", "--family", "normal", "--forward", "50",
                         "--strike", "45", "--sigma-ut", "5"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == ip.bachelier_call(ip.NormalOptionInputs(50.0, 45.0, 5.0, 0.0))

        code = cli.main(["price", "option", "--family", "lognormal", "--forward", "50",
                         "--strike", "45", "--var-integral", "0.04", "--put",
                         "--conventional"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        expected = ip.black76_put(ip.LognormalOptionInputs(50.0, 45.0, 0.04, 0.0),
                                  conventional=True)
        assert value == expected

    @pytest.mark.parametrize("put", [False, True], ids=["call", "put"])
    def test_lognormal_default_is_the_conventional_d_pm(self, put, capsys):
        # without --conventional the CLI prices the d_pm the oracle accepts
        code = cli.main(["price", "option", "--family", "lognormal", "--forward", "50",
                         "--strike", "45", "--var-integral", "0.04", "--span", "24",
                         "--rate", "1e-7", *["--put"] * put])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        price = ip.black76_put if put else ip.black76_call
        assert value == price(ip.LognormalOptionInputs(50.0, 45.0, 0.04, 24.0, 1e-7),
                              conventional=True)


class TestRiskPremiumCommand:
    def test_zero_theta_gives_zero_column(self, tmp_path, ref_model, capsys):
        path = tmp_path / "neutral.json"
        path.write_text(json.dumps(cli.model_to_params(ref_model, 0.0)))
        out = tmp_path / "premium.csv"
        code = cli.main(["risk-premium", "--params", str(path), "--tau", "2160",
                         "--t-start", "1000", "--t-end", "2160", "--t-step", "100",
                         "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "t,premium"
        premiums = [float(r.split(",")[1]) for r in rows[1:]]
        assert premiums and all(p == 0.0 for p in premiums)

    def test_negative_trading_time_is_named(self, tmp_path, params_file, capsys):
        out = tmp_path / "premium.csv"
        code = cli.main(["risk-premium", "--params", str(params_file), "--tau", "2160",
                         "--t-start", "-48", "--t-end", "2160", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: risk premium needs trading times t >= 0, got t = -48.0"]
        assert not out.exists()

    def test_premium_path_is_byte_stable(self, tmp_path, params_file):
        outs = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        for out in outs:
            assert cli.main(["risk-premium", "--params", str(params_file), "--tau", "2160",
                             "--t-start", "160", "--t-end", "2160", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestImpliedTheta:
    def test_monthly_series(self, tmp_path, params_file, data_file):
        out = tmp_path / "theta.csv"
        code = cli.main(["implied-theta", "--params", str(params_file), "--data",
                         str(data_file), "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "month,theta"
        assert len(rows) >= 13
        first = rows[1].split(",")
        assert first[0] == "2015-01"
        assert abs(float(first[1]) + 0.0036) < 0.01

    def test_leaves_scipy_optimize_unloaded(self, tmp_path, params_file, data_file):
        out = tmp_path / "theta.csv"
        codes, scipy_modules = run_fresh([["implied-theta", "--params", str(params_file),
                                           "--data", str(data_file), "--out", str(out)]])
        assert codes == [0]
        assert not [m for m in scipy_modules if m.startswith("scipy.optimize")]
        assert out.read_text().count("\n") == 14   # the header and 13 months


class TestWarnings:
    """A library warning reaches the CLI user as one ``warning:`` line on
    stderr, without the source path and line Python's own format shows."""

    def test_supply_fit_fallback(self, tmp_path, data_file, capsys):
        shown = warnings.showwarning
        assert cli.main(["calibrate", "--data", str(data_file),
                         "--out", str(tmp_path / "report.txt")]) == 0
        err = capsys.readouterr().err
        assert err == ("warning: direct supply fit did not converge to a usable point; "
                       "using defaults\n")
        assert ".py:" not in err
        assert warnings.showwarning is shown   # library callers keep Python's handling

    def test_optimiser_short_of_tolerance(self, tmp_path, data_file, monkeypatch, capsys):
        monkeypatch.setattr(ip.calibration, "_BFGS_MAXITER", 1)
        report = tmp_path / "report.txt"
        assert cli.main(["calibrate", "--data", str(data_file), "--out", str(report)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: direct supply fit did not converge to a usable point; using defaults",
            "warning: optimiser did not reach the gradient tolerance"]
        assert "converged False" in report.read_text().splitlines()

    def test_skipped_month(self, tmp_path, params_file, data_file, capsys):
        # January's prices blanked but for its last day
        lines = data_file.read_text().splitlines(keepends=True)
        gap = tmp_path / "gap.csv"
        gap.write_text("".join([lines[0], *[line.rsplit(",", 2)[0] + ",,\n"
                                            for line in lines[1:1 + 30 * 24]],
                                *lines[1 + 30 * 24:]]))
        assert cli.main(["implied-theta", "--params", str(params_file), "--data", str(gap),
                         "--out", str(tmp_path / "theta.csv")]) == 0
        err = capsys.readouterr().err
        assert err == "warning: month 2015-01: only 24 aligned hours; skipped\n"
        assert ".py:" not in err


class TestSeasonalityEpoch:
    @pytest.mark.parametrize("argv, name", [
        (["implied-theta", "--params", "{params}", "--data", "{data}", "--out", "{out}"],
         "load"),
        (["calibrate", "--data", "{data}", "--gamma3", "{gamma3}", "--out", "{out}"], "price"),
    ], ids=["implied-theta", "calibrate-gamma3"])
    def test_other_epoch_than_the_data_is_usage_error(self, argv, name, tmp_path, params_file,
                                                      late_data_file, ref_model, capsys):
        gamma3 = tmp_path / "gamma3.txt"
        cli._write_report(gamma3, cli._seasonality_report_pairs(ref_model.price_seasonality))
        out = tmp_path / "out.txt"
        argv = [a.format(params=params_file, data=late_data_file, gamma3=gamma3, out=out)
                for a in argv]
        assert cli.main(argv) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: the {name} seasonality counts hours from 2015-01-01, "
            "but the data count them from 2015-01-31"]


class TestVerify:
    def test_clean_run_exits_zero(self, capsys):
        code = cli.main(["verify", "--paths", "60000", "--nested-paths", "30000",
                         "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks passed" in out

    def test_mutation_run_exits_one(self, capsys):
        code = cli.main(["verify", "--paths", "60000", "--nested-paths", "30000",
                         "--seed", "3", "--mutation", "0.05"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--span", "800"])
        assert exc.value.code == 2

    def test_missing_params_file(self, tmp_path):
        code = cli.main(["price", "forward", "--params", str(tmp_path / "nope.json"),
                         "--t", "0", "--tau", "24"])
        assert code == 2

    def test_malformed_data_file(self, tmp_path, params_file):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,load,day_ahead,intraday\nnot-a-time,1,2,3\n")
        assert cli.main(["fit-ou", "--data", str(bad), "--out",
                         str(tmp_path / "r.txt")]) == 2

    @pytest.mark.parametrize("argv", [
        ["price", "futures", "--params", "{params}", "--t", "0", "--deliveries", "100,abc"],
        ["risk-premium", "--params", "{params}", "--tau", "2160", "--t-start", "1000",
         "--t-end", "2160", "--t-step", "nan", "--out", "{out}"],
        ["price", "forward", "--params", "{params}", "--t", "0", "--tau", "nan"],
        ["price", "forward", "--params", "{params}", "--t", "0", "--tau", "inf"],
        ["price", "forward", "--params", "{params}", "--t", "nan", "--tau", "24"],
        ["price", "option", "--family", "normal", "--forward", "50", "--strike", "45",
         "--sigma-ut", "nan"],
    ], ids=["deliveries-token", "t-step-nan", "tau-nan", "tau-inf", "t-nan", "sigma-ut-nan"])
    def test_non_finite_number_is_usage_error(self, argv, tmp_path, params_file):
        argv = [a.format(params=params_file, out=tmp_path / "premium.csv") for a in argv]
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects the flag value
            code = exc.code
        assert code == 2

    # a delivery time whose whole hours do not fit an int64 used to print
    # numpy's cast warning and then a NumericError
    @pytest.mark.parametrize("argv", [
        ["price", "forward", "--params", "{params}", "--t", "0", "--tau", "1e300"],
        ["price", "futures", "--params", "{params}", "--t", "0", "--deliveries", "1e300"],
        ["risk-premium", "--params", "{params}", "--tau", "1e300", "--t-start", "0",
         "--t-end", "48", "--out", "{out}"],
    ], ids=["forward", "futures", "risk-premium"])
    def test_time_past_int64_hours_is_one_error_line(self, argv, tmp_path, params_file, capsys):
        argv = [a.format(params=params_file, out=tmp_path / "premium.csv") for a in argv]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: seasonality is defined for tau >= 0 only, below 2**63 hours; "
            "got tau = 1e+300"]

    def test_delivery_before_trading_time_names_both(self, params_file, capsys):
        assert cli.main(["price", "forward", "--params", str(params_file),
                         "--t", "100", "--tau", "50"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: supply leg moments require t <= tau + epsilon; got t = 100.0 with tau = 50.0"]

    # the first two ask for an array of several PiB, which numpy refuses before
    # allocating; the last two for a grid with no points
    @pytest.mark.parametrize("argv, err", [
        (["risk-premium", "--params", "{params}", "--tau", "2160", "--t-start", "0",
          "--t-end", "2000", "--t-step", "1e-12", "--out", "{out}"],
         "error: --t-step 1e-12 gives 2000000000000001 grid points, more than memory can hold\n"),
        (["simulate", "--params", "{params}", "--span", "1000000000000000", "--out", "{out}"],
         "error: Unable to allocate"),
        (["risk-premium", "--params", "{params}", "--tau", "2160", "--t-start", "0",
          "--t-end", "2000", "--t-step", "0", "--out", "{out}"],
         "error: need t_step > 0 and t_end >= t_start\n"),
        (["risk-premium", "--params", "{params}", "--tau", "2160", "--t-start", "2000",
          "--t-end", "1999", "--out", "{out}"],
         "error: need t_step > 0 and t_end >= t_start\n"),
    ], ids=["risk-premium", "simulate", "t-step-zero", "t-end-before-t-start"])
    def test_oversized_grid_is_usage_error(self, argv, err, tmp_path, params_file, capsys):
        out = tmp_path / "out.csv"
        argv = [a.format(params=params_file, out=out) for a in argv]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(err)
        assert not out.exists()

    # 2e303 points are past any array's size; 2000 / 1e-310 is past the float range
    @pytest.mark.parametrize("step", ["1e-300", "1e-310"])
    def test_grid_past_any_array_size_names_the_step(self, step, tmp_path, params_file, capsys):
        out = tmp_path / "premium.csv"
        code = cli.main(["risk-premium", "--params", str(params_file), "--tau", "2160",
                         "--t-start", "0", "--t-end", "2000", "--t-step", step,
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --t-step {float(step)!r} gives more grid points than an array can hold"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--params", "{params}", "--span", "800", "--seed", "-3", "--out", "{out}"],
        ["verify", "--paths", "1000", "--nested-paths", "1000", "--seed", "-1"],
    ], ids=["simulate", "verify"])
    def test_negative_seed_is_usage_error(self, argv, tmp_path, params_file, capsys):
        argv = [a.format(params=params_file, out=tmp_path / "market.csv") for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--seed: expected a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--paths", "--nested-paths"])
    @pytest.mark.parametrize("count", ["1", "0", "-5"])
    def test_too_few_paths_is_usage_error_naming_the_flag(self, flag, count, capsys):
        argv = ["verify", "--paths", "1000", "--nested-paths", "1000", "--seed", "0"]
        argv[argv.index(flag) + 1] = count
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert (f"argument {flag}: expected an integer of at least 2, got '{count}'"
                in capsys.readouterr().err)


class TestBadInputFiles:
    """Every file flag turns a missing path, a directory or bytes that are not
    UTF-8, and the params flag invalid or too deeply nested JSON, into exit
    code 2 and one ``error:`` line naming the file; a traceback would be an
    exception escaping ``main``, which fails the test instead."""

    @staticmethod
    def make(kind, tmp_path):
        path = tmp_path / f"bad-{kind}"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"level 1.0\n\xff\xfe 2\n")
        elif kind == "not-json":
            path.write_text('{"epoch": "2015-01-01",\n')
        elif kind == "too-deep":
            path.write_text("[" * 100_000 + "]" * 100_000)
        elif kind == "empty":
            path.write_text("")
        elif kind == "missing-key":
            path.write_text("epoch 2015-01-01\nlevel 1.0\n")
        elif kind in ("header-only", "one-row"):
            rows = ["timestamp,load,day_ahead,intraday", "2015-01-01 00:00:00,47,30,30"]
            path.write_text("\n".join(rows[:1 + (kind == "one-row")]) + "\n")
        return path

    # the message after the path, for the kinds whose error is the reader's own
    MESSAGES = {"empty": ":1: empty file, header row required",
                "header-only": ": need at least two data rows",
                "one-row": ": need at least two data rows",
                "missing-key": ": malformed seasonality report: KeyError('trend')"}

    @pytest.mark.parametrize("flag, kind", [
        *itertools.product(["--data", "--params", "--calendar", "--conventions", "--gamma3"],
                           ["missing", "directory", "not-utf8"]),
        ("--params", "not-json"),
        ("--params", "too-deep"),
        *itertools.product(["--data"], ["empty", "header-only", "one-row"]),
        ("--gamma3", "missing-key"),
    ])
    def test_bad_file_exits_two(self, flag, kind, tmp_path, params_file, data_file, capsys):
        bad = self.make(kind, tmp_path)
        out = str(tmp_path / "out.txt")
        argv = {
            "--data": ["fit-ou", "--data", str(bad), "--out", out],
            "--params": ["price", "forward", "--params", str(bad), "--t", "0", "--tau", "24"],
            "--calendar": ["fit-seasonality", "--data", str(data_file), "--calendar", str(bad),
                           "--out", out],
            "--conventions": ["calibrate", "--data", str(data_file), "--conventions", str(bad),
                              "--out", out],
            "--gamma3": ["calibrate", "--data", str(data_file), "--gamma3", str(bad),
                         "--out", out],
        }[flag]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert kind not in self.MESSAGES or err == f"error: {bad}{self.MESSAGES[kind]}\n"

    def test_params_number_past_the_float_range(self, tmp_path, ref_model, capsys):
        params = tmp_path / "long.json"
        params.write_text(json.dumps(cli.model_to_params(ref_model, 0.0)).replace(
            '"theta": 0.0', '"theta": 1' + "0" * 400))
        out = tmp_path / "premium.csv"
        code = cli.main(["risk-premium", "--params", str(params), "--tau", "2160",
                         "--t-start", "1000", "--t-end", "2160", "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and not out.exists()
        assert lines == [f"error: {params}: theta: integer past the float range"]

    @pytest.mark.parametrize("section, key, value, named", [
        (None, "theta", float("nan"), "theta"),
        ("ou", "sigma", -1.0, "volatility"),
    ], ids=["theta-nan", "sigma-negative"])
    def test_params_value_error_names_the_file(self, section, key, value, named, tmp_path,
                                               ref_model, ref_theta, capsys):
        blob = cli.model_to_params(ref_model, ref_theta)
        (blob if section is None else blob[section])[key] = value
        params = tmp_path / "p.json"
        params.write_text(json.dumps(blob))
        code = cli.main(["price", "forward", "--params", str(params),
                         "--t", "1992", "--tau", "2160"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and len(lines) == 1
        assert lines[0].startswith(f"error: {params}: ") and named in lines[0]
        assert "Error(" not in lines[0]   # no exception repr

    @pytest.mark.parametrize("flag, bad", [("--conventions", "'inf'"), ("--gamma3", "'nan'")])
    def test_non_finite_number_in_a_file(self, flag, bad, tmp_path, data_file, ref_model, capsys):
        path = tmp_path / "input.txt"
        if flag == "--conventions":
            path.write_text("epsilon_hours 1\ndelta_hours inf\n")
        else:   # the reference price seasonality report with a nan level
            pairs = cli._seasonality_report_pairs(ref_model.price_seasonality)
            cli._write_report(path, [(k, "nan" if k == "level" else v) for k, v in pairs])
        out = tmp_path / "report.txt"
        code = cli.main(["calibrate", "--data", str(data_file), flag, str(path),
                         "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and not out.exists()
        assert lines == [f"error: {path}:2: {bad} is not a finite number"]

    def test_output_path_that_is_a_directory(self, tmp_path, params_file, capsys):
        code = cli.main(["risk-premium", "--params", str(params_file), "--tau", "2160",
                         "--t-start", "1000", "--t-end", "2160", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_quote_commands_leave_scipy_unloaded(tmp_path, params_file):
    params, out = str(params_file), str(tmp_path / "premium.csv")
    commands = [
        ["price", "forward", "--params", params, "--t", "100", "--tau", "268", "--x", "1.0"],
        ["price", "futures", "--params", params, "--t", "100", "--deliveries", "268,269",
         "--x", "1.0"],
        ["price", "option", "--family", "normal", "--forward", "50", "--strike", "45",
         "--sigma-ut", "5"],
        ["price", "option", "--family", "lognormal", "--forward", "50", "--strike", "45",
         "--var-integral", "0.04", "--put", "--conventional"],
        ["risk-premium", "--params", params, "--tau", "2160", "--t-start", "1000",
         "--t-end", "2160", "--t-step", "100", "--out", out],
    ]
    codes, scipy_modules = run_fresh(commands)
    assert codes == [0] * len(commands)
    assert scipy_modules == []


def run_fresh(commands):
    """Run CLI ``commands`` in one fresh interpreter, so that modules other
    tests imported do not count; returns their exit codes and the scipy
    modules loaded after them."""
    probe = ("import json, sys\n"
             "from intrinsicprice import cli\n"
             "codes = [cli.main(c) for c in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    package_root = os.path.dirname(os.path.dirname(ip.__file__))
    run = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": package_root})
    return json.loads(run.stdout.splitlines()[-1])
