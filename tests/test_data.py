import datetime as dt
import os
import subprocess
import sys

import numpy as np
import pytest

import intrinsicprice as ip
from intrinsicprice import DomainError, ParseError


def write_csv(path, rows, header="timestamp,load,day_ahead,intraday"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestLoadSeries:
    def test_two_row_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2015-06-28 00:00:00,55.1,30.2,31.3",
            "2015-06-28 01:00:00,54.0,29.9,30.8",
        ])
        series = ip.load_series(path)
        assert len(series) == 2
        assert series.epoch == dt.date(2015, 6, 28)
        assert series.load[1] == 54.0
        assert series.intraday[0] == 31.3

    def test_duplicate_timestamp_names_line(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2015-06-28 00:00:00,55.1,30.2,31.3",
            "2015-06-28 00:00:00,54.0,29.9,30.8",
        ])
        with pytest.raises(ParseError, match=r"d\.csv:3: duplicated timestamp"):
            ip.load_series(path)

    def test_unsorted_timestamps_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2015-06-28 05:00:00,55.1,30.2,31.3",
            "2015-06-28 04:00:00,54.0,29.9,30.8",
        ])
        with pytest.raises(ParseError, match="not increasing"):
            ip.load_series(path)

    def test_hour_gap_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2015-06-28 00:00:00,55.1,30.2,31.3",
            "2015-06-28 02:00:00,54.0,29.9,30.8",
        ])
        with pytest.raises(ParseError, match="jump in the load series"):
            ip.load_series(path)

    def test_missing_load_rejected_with_line(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2015-06-28 00:00:00,55.1,30.2,31.3",
            "2015-06-28 01:00:00,,29.9,30.8",
        ])
        with pytest.raises(ParseError, match=r"d\.csv:3: missing load"):
            ip.load_series(path)

    def test_missing_prices_tolerated(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2014-01-01 00:00:00,55.1,,",
            "2014-01-01 01:00:00,54.0,,",
            "2014-01-01 02:00:00,53.2,29.9,30.8",
        ])
        series = ip.load_series(path)
        assert np.isnan(series.day_ahead[0]) and np.isnan(series.intraday[1])
        coverage = ip.price_coverage(series)
        assert coverage["day_ahead"]["present"] == 1
        assert coverage["day_ahead"]["missing"] == 2
        assert coverage["intraday"]["first"] == "2014-01-01 02:00:00"

    def test_malformed_number_names_line_and_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2015-06-28 00:00:00,55.1,30.2,31.3",
            "2015-06-28 01:00:00,54.0,x,30.8",
        ])
        with pytest.raises(ParseError, match=r"d\.csv:3.*day_ahead.*not a number"):
            ip.load_series(path)

    def test_off_hour_timestamp_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2015-06-28 00:30:00,55.1,30.2,31.3",
            "2015-06-28 01:30:00,54.0,29.9,30.8",
        ])
        with pytest.raises(ParseError, match="on the hour"):
            ip.load_series(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,load,day_ahead,intraday\n2015-01-01 00:00:00,1,2,3\n")
        with pytest.raises(ParseError, match="header"):
            ip.load_series(path)

    def test_missing_header_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,load,day_ahead,intraday\n2015-01-01 00:00:00,1,2,3\n")
        with pytest.raises(ParseError, match=r"d\.csv:1: header must contain column 'timestamp'$"):
            ip.load_series(path)

    @pytest.mark.parametrize("bom, eol", [(b"\xef\xbb\xbf", b"\n"), (b"", b"\r\n")],
                             ids=["utf8-bom", "crlf"])
    def test_bom_and_crlf_files_load(self, tmp_path, bom, eol):
        path = tmp_path / "d.csv"
        path.write_bytes(bom + eol.join([b"timestamp,load,day_ahead,intraday",
                                         b"2015-06-28 00:00:00,55.1,30.2,31.3",
                                         b"2015-06-28 01:00:00,54.0,,30.8", b""]))
        series = ip.load_series(path)
        assert series.epoch == dt.date(2015, 6, 28)
        assert list(series.load) == [55.1, 54.0]
        assert np.isnan(series.day_ahead[1])
        assert series.intraday[1] == 30.8

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="no such file"):
            ip.load_series(tmp_path / "absent.csv")

    def test_custom_schema(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [
            "2015-06-28 00:00:00,55.1,30.2,31.3",
            "2015-06-28 01:00:00,54.0,29.9,30.8",
        ], header="timestamp,system_load,da,id3")
        schema = ip.CsvSchema(load="system_load", day_ahead="da", intraday="id3")
        series = ip.load_series(path, schema)
        assert series.load[0] == 55.1


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path, ref_model, ref_theta):
        series = ip.generate_synthetic(ref_model, ref_theta, 1000, 0.37, seed=3)
        path = tmp_path / "round.csv"
        ip.write_series(series, path)
        back = ip.load_series(path)
        assert back.epoch == series.epoch
        assert np.array_equal(back.taus, series.taus)
        assert np.array_equal(back.load, series.load)
        assert np.array_equal(back.day_ahead, series.day_ahead, equal_nan=True)
        assert np.array_equal(back.intraday, series.intraday, equal_nan=True)

    def test_written_bytes_are_stable(self, tmp_path, ref_model, ref_theta):
        series = ip.generate_synthetic(ref_model, ref_theta, 800, 0.5, seed=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ip.write_series(series, a)
        ip.write_series(series, b)
        assert a.read_bytes() == b.read_bytes()


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self, ref_model, ref_theta):
        a = ip.generate_synthetic(ref_model, ref_theta, 900, 0.5, seed=5)
        b = ip.generate_synthetic(ref_model, ref_theta, 900, 0.5, seed=5)
        assert np.array_equal(a.load, b.load)
        assert np.array_equal(a.intraday, b.intraday, equal_nan=True)
        c = ip.generate_synthetic(ref_model, ref_theta, 900, 0.5, seed=6)
        assert not np.array_equal(a.load, c.load)

    def test_first_day_has_no_day_ahead_quotes(self, ref_model, ref_theta):
        series = ip.generate_synthetic(ref_model, ref_theta, 900, 0.0, seed=7)
        assert np.all(np.isnan(series.day_ahead[:24]))
        assert np.all(np.isfinite(series.day_ahead[24:]))

    def test_noise_pair(self, ref_model, ref_theta):
        quiet = ip.generate_synthetic(ref_model, ref_theta, 900, (0.0, 5.0), seed=8)
        clean = ip.generate_synthetic(ref_model, ref_theta, 900, 0.0, seed=8)
        assert np.allclose(quiet.intraday, clean.intraday, atol=1e-12)
        assert not np.allclose(quiet.day_ahead[24:], clean.day_ahead[24:], atol=0.5)

    def test_minimum_span_enforced(self, ref_model, ref_theta):
        with pytest.raises(DomainError, match="month"):
            ip.generate_synthetic(ref_model, ref_theta, 100, 0.0, seed=0)

    def test_zero_noise_prices_match_model_formulas(self, ref_model, ref_theta):
        series = ip.generate_synthetic(ref_model, ref_theta, 900, 0.0, seed=9)
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        k = 300
        x_tilde = series.load[k] - ip.evaluate(g_tilde, series.taus[k])
        g_q = (ip.evaluate(g_tilde, series.taus[k] + 1.0)
               - ref_model.ou.lam * ref_model.ou.sigma * ref_theta * (series.taus[k] + 1.0))
        # rebuild the intraday quote through the public pricing surface
        shifted = ip.to_risk_neutral_state(x_tilde, ref_model.ou, ref_theta, series.taus[k])
        model_q = ip.ModelQ(ou=ref_model.ou, supply=ref_model.supply,
                            load_seasonality=ip.q_seasonality_from_p(
                                g_tilde, ref_model.ou, ref_theta),
                            price_seasonality=ref_model.price_seasonality,
                            conv=ref_model.conv)
        quoted = ip.intraday_price(model_q, series.taus[k], shifted)
        assert series.intraday[k] == pytest.approx(quoted, rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_load_deviation_is_the_ou_sampler_path(self, ref_model, ref_theta, seed):
        # the synthetic load deviation and ou.simulate share one exact sampler:
        # the same seed gives the same draws in the same order
        n = 26_280
        series = ip.generate_synthetic(ref_model, ref_theta, n, 0.5, seed=seed)
        g_tilde = ip.p_seasonality_from_q(ref_model.load_seasonality, ref_model.ou, ref_theta)
        deviation = series.load - ip.evaluate(g_tilde, series.taus)
        path = ip.simulate(ref_model.ou, np.arange(n), seed)
        assert np.max(np.abs(deviation - path.values)) <= 1e-12


def test_import_leaves_scipy_signal_unloaded():
    # a fresh interpreter, so modules other tests imported do not count
    probe = "import sys, intrinsicprice; print('scipy.signal' in sys.modules)"
    package_root = os.path.dirname(os.path.dirname(ip.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": package_root})
    assert out.stdout.strip() == "False"
