import dataclasses
import datetime as dt
import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import intrinsicprice as ip
from intrinsicprice import DomainError, ParseError
from intrinsicprice.data import _BLOCK_ROWS


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
        padded = ip.load_series(write_csv(tmp_path / "padded.csv", [
            "2015-06-28 00:00:00, 1e-07 ,30.2,31.3",
            "2015-06-28 01:00:00,54.0,29.9,30.8",
        ]))
        assert padded.load[0] == 1e-07

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

    def test_coverage_of_a_column_without_quotes(self):
        series = ip.MarketSeries(epoch=dt.date(2015, 1, 1), taus=np.arange(3.0),
                                 load=np.ones(3), day_ahead=np.full(3, np.nan),
                                 intraday=np.ones(3))
        assert ip.price_coverage(series)["day_ahead"] == {
            "first": None, "last": None, "present": 0, "missing": 3}

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

    def test_fractional_hours_refused(self, tmp_path, ref_model, ref_theta):
        # the CSV holds on-the-hour stamps, which load_series requires
        series = ip.generate_synthetic(ref_model, ref_theta, 720, 0.5, seed=1)
        shifted = ip.MarketSeries(epoch=series.epoch, taus=series.taus[:48] + 0.5,
                                  load=series.load[:48], day_ahead=series.day_ahead[:48],
                                  intraday=series.intraday[:48])
        path = tmp_path / "half.csv"
        with pytest.raises(DomainError, match="whole hours"):
            ip.write_series(shifted, path)
        assert not path.exists()

    def test_written_bytes_are_stable(self, tmp_path, ref_model, ref_theta):
        series = ip.generate_synthetic(ref_model, ref_theta, 800, 0.5, seed=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ip.write_series(series, a)
        ip.write_series(series, b)
        assert a.read_bytes() == b.read_bytes()


class TestColumnwiseBlocks:
    """The writer formats blocks of ``_BLOCK_ROWS`` rows; files longer than
    one block must read and write exactly as a row-by-row pass does, and an
    error just past a block edge names its own line."""

    def test_written_bytes_match_pinned_digest(self, tmp_path):
        # NaN and +-inf prices are blank, -0.0 and exponents keep their repr,
        # and the series starts at 07:00, not at midnight; the digest is of
        # the file a row-by-row writer (datetime + timedelta, repr) makes
        n = 5000
        assert n > _BLOCK_ROWS
        k = np.arange(n, dtype=float)
        day_ahead = 30.0 + k / 7.0 - (k % 13) / 3.0
        intraday = -5.0 + k / 11.0
        day_ahead[::17] = np.nan
        day_ahead[1] = -0.0
        intraday[3::29] = np.inf
        intraday[5::31] = -np.inf
        intraday[7] = 1e-07
        intraday[8] = 1.5e300
        series = ip.MarketSeries(epoch=dt.date(2015, 12, 31), taus=7.0 + k,
                                 load=40.0 + (k % 97) / 8.0 + k / 3.0,
                                 day_ahead=day_ahead, intraday=intraday)
        path = tmp_path / "pinned.csv"
        ip.write_series(series, path)
        data = path.read_bytes()
        lines = data.decode().splitlines()
        assert lines[:3] == ["timestamp,load,day_ahead,intraday",
                             "2015-12-31 07:00:00,40.0,,-5.0",
                             "2015-12-31 08:00:00,40.458333333333336,-0.0,"
                             "-4.909090909090909"]
        assert lines[4].endswith(",") and lines[6].endswith(",")
        assert lines[8].endswith(",1e-07") and lines[9].endswith(",1.5e+300")
        assert hashlib.sha256(data).hexdigest() == (
            "a8834bf764bc0be78ac43c25cfe24fc7e1cee34a3e7cf6e034448645f45d8a32")

    def test_round_trip_over_several_blocks(self, tmp_path, ref_model, ref_theta):
        series = ip.generate_synthetic(ref_model, ref_theta, 2 * _BLOCK_ROWS + 30, 0.4, seed=11)
        path = tmp_path / "round.csv"
        ip.write_series(series, path)
        assert path.read_text().splitlines()[1].startswith("2015-01-01 00:00:00,")
        back = ip.load_series(path)
        assert back.epoch == series.epoch
        for name in ("taus", "load", "day_ahead", "intraday"):
            assert np.array_equal(getattr(back, name), getattr(series, name), equal_nan=True)

    @staticmethod
    def hourly_rows(n):
        start = dt.datetime(2015, 3, 1)
        return [f"{(start + dt.timedelta(hours=h)).isoformat(sep=' ')},"
                f"{50 + h % 7},{30 + h % 5},{31 + h % 3}" for h in range(n)]

    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("defect, message", [
        ("gap", "2 hour jump in the load series"),
        ("duplicate", "duplicated timestamp"),
        ("number", "column 'intraday': 'x' is not a number"),
    ])
    def test_error_after_block_boundary_names_its_line(self, tmp_path, defect, message, offset):
        # reader row r is file line r + 2; blank rows count as lines and as
        # block rows, and one sits just before the boundary
        rows = ["", ",,,", " , ,"] + self.hourly_rows(_BLOCK_ROWS + 10)
        rows[_BLOCK_ROWS - 1:_BLOCK_ROWS - 1] = [""]
        r = _BLOCK_ROWS + offset
        rest = rows[r].split(",", 1)[1]
        if defect == "gap":
            for j in range(r, len(rows)):
                ts, tail = rows[j].split(",", 1)
                later = dt.datetime.fromisoformat(ts) + dt.timedelta(hours=1)
                rows[j] = f"{later.isoformat(sep=' ')},{tail}"
        elif defect == "duplicate":
            previous = next(row for row in reversed(rows[:r]) if row.strip(" ,"))
            rows[r] = previous.split(",", 1)[0] + "," + rest
        else:
            rows[r] = rows[r].rsplit(",", 1)[0] + ",x"
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(ParseError, match=rf"d\.csv:{r + 2}: {re.escape(message)}"):
            ip.load_series(path)

    @pytest.mark.parametrize("edits, line, message", [
        ([(5, 3, "x"), (7, 0, "2015-03-01 09:00:00")], 7, "column 'intraday'"),
        ([(5, 0, "2015-03-01 06:00:00"), (5, 1, "x")], 7, "2 hour jump"),
        ([(5, 0, "2015-03-01 06:00:00"), (4, 2, "y")], 6, "column 'day_ahead'"),
        # a field past the csv module's size limit, read after the bad row
        ([(2, 0, "2015-03-01 03:00:00"), (5, 3, "9" * 200_000)], 4, "2 hour jump"),
    ], ids=["number-before-later-gap", "gap-before-number-in-its-row", "earlier-row-first",
            "gap-before-later-oversized-field"])
    def test_earliest_failing_row_wins(self, tmp_path, edits, line, message):
        rows = [row.split(",") for row in self.hourly_rows(12)]
        for r, column, text in edits:
            rows[r][column] = text
        path = write_csv(tmp_path / "d.csv", [",".join(row) for row in rows])
        with pytest.raises(ParseError, match=rf"d\.csv:{line}: {message}"):
            ip.load_series(path)


class TestNonFinitePrices:
    """Price text that parses to a non-finite float is a ParseError naming
    the line and the column, in the first block and after clean ones; an
    empty field stays a missing quote."""

    @pytest.mark.parametrize("r", [5, _BLOCK_ROWS + 3], ids=["first-block", "later-block"])
    @pytest.mark.parametrize("column", ["day_ahead", "intraday"])
    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "INF", "-Infinity", "NaN", " +inf "])
    def test_names_line_and_column(self, tmp_path, r, column, text):
        rows = [row.split(",") for row in TestColumnwiseBlocks.hourly_rows(_BLOCK_ROWS + 10)]
        rows[r][2 if column == "day_ahead" else 3] = text
        path = write_csv(tmp_path / "d.csv", [",".join(row) for row in rows])
        with pytest.raises(ParseError, match=rf"d\.csv:{r + 2}: column {column!r}: "
                                             rf"{re.escape(repr(text))} is not a finite number"):
            ip.load_series(path)


def test_trailing_separator_loads_the_same_series(tmp_path):
    rows = ["2015-06-28 00:00:00,55.1,30.2,31.3", "2015-06-28 01:00:00,54.0,,30.8",
            "2015-06-28 02:00:00,53.5,29.1,"]
    plain = ip.load_series(write_csv(tmp_path / "plain.csv", rows))
    trailing = ip.load_series(write_csv(tmp_path / "trailing.csv", [r + "," for r in rows],
                                        header="timestamp,load,day_ahead,intraday,"))
    assert trailing.epoch == plain.epoch
    for name in ("taus", "load", "day_ahead", "intraday"):
        assert np.array_equal(getattr(trailing, name), getattr(plain, name), equal_nan=True)


class TestBadBytesAndStamps:
    """Bytes, fields and stamps the row rules alone do not cover are a
    ParseError naming the file and the physical line."""

    def test_oversized_field(self, tmp_path):
        rows = TestColumnwiseBlocks.hourly_rows(6)
        rows[3] = rows[3].rsplit(",", 1)[0] + "," + "9" * 200_000
        with pytest.raises(ParseError, match=r"d\.csv:5: field larger than field limit"):
            ip.load_series(write_csv(tmp_path / "d.csv", rows))

    def test_byte_that_is_not_utf8(self, tmp_path):
        rows = [row.encode() for row in TestColumnwiseBlocks.hourly_rows(6)]
        rows[2] = rows[2].replace(b",", b",\xff", 1)
        path = tmp_path / "d.csv"
        path.write_bytes(b"\n".join([b"timestamp,load,day_ahead,intraday", *rows, b""]))
        with pytest.raises(ParseError, match=r"d\.csv:4: byte 0xff is not UTF-8"):
            ip.load_series(path)

    def test_offset_stamp_after_naive_ones(self, tmp_path):
        rows = TestColumnwiseBlocks.hourly_rows(6)
        ts, rest = rows[4].split(",", 1)
        rows[4] = f"{ts}+01:00,{rest}"
        with pytest.raises(ParseError, match=r"d\.csv:6: timestamps with and without a UTC "
                                             r"offset are mixed"):
            ip.load_series(write_csv(tmp_path / "d.csv", rows))

    def test_line_after_a_quoted_line_break(self, tmp_path):
        # a quoted field may hold a line break; the error names the physical line
        rows = TestColumnwiseBlocks.hourly_rows(4)
        rows[0] = rows[0].rsplit(",", 1)[0] + ',"31\n"'
        rows[3] = "2015-03-01 05:00:00,50,30,31"
        with pytest.raises(ParseError, match=r"d\.csv:6: 3 hour jump"):
            ip.load_series(write_csv(tmp_path / "d.csv", rows))

    def test_stamps_with_one_offset_load(self, tmp_path):
        # the offset is dropped: hours count from the first stamp's own date
        path = write_csv(tmp_path / "d.csv", [
            "2015-06-28 22:00:00+01:00,55.1,30.2,31.3",
            "2015-06-28 23:00:00+01:00,54.0,,30.8",
            "2015-06-29T00:00:00+01:00,53.5,29.1,",
        ])
        series = ip.load_series(path)
        assert series.epoch == dt.date(2015, 6, 28)
        assert list(series.taus) == [22.0, 23.0, 24.0]
        assert list(series.load) == [55.1, 54.0, 53.5]
        assert np.array_equal(series.day_ahead, [30.2, np.nan, 29.1], equal_nan=True)
        assert np.array_equal(series.intraday, [31.3, 30.8, np.nan], equal_nan=True)


# one defect in an otherwise clean row, and the row loop's message for it;
# a gap or a duplicate needs a row before it, the others may fall on the first row
_DEFECTS = ("short", "stamp", "off-hour", "gap", "duplicate", "number", "missing-load")
_DEFECT_ROWS = TestColumnwiseBlocks.hourly_rows(_BLOCK_ROWS + 50)


@given(defect=st.sampled_from(_DEFECTS), r=st.integers(0, len(_DEFECT_ROWS) - 1),
       column=st.sampled_from(["load", "day_ahead", "intraday"]))
def test_row_loop_names_every_defect(tmp_path_factory, defect, r, column):
    assume(r > 0 or defect not in ("gap", "duplicate"))
    rows = list(_DEFECT_ROWS)
    ts, *cells = rows[r].split(",")
    stamp = dt.datetime.fromisoformat(ts)
    if defect == "short":
        rows[r], message = f"{ts},{cells[0]}", "expected 4 fields, got 2"
    elif defect == "stamp":
        rows[r], message = ",".join(["2015-03-01 25:00:00", *cells]), "bad timestamp"
    elif defect == "off-hour":
        later = stamp + dt.timedelta(minutes=30)
        rows[r], message = ",".join([str(later), *cells]), "timestamps must be on the hour"
    elif defect == "gap":
        for j in range(r, len(rows)):
            ts_j, tail = rows[j].split(",", 1)
            rows[j] = f"{dt.datetime.fromisoformat(ts_j) + dt.timedelta(hours=1)},{tail}"
        message = "2 hour jump in the load series"
    elif defect == "duplicate":
        rows[r] = ",".join([rows[r - 1].split(",", 1)[0], *cells])
        message = "duplicated timestamp"
    elif defect == "number":
        cells[["load", "day_ahead", "intraday"].index(column)] = "1.2.3"
        rows[r], message = ",".join([ts, *cells]), f"column {column!r}: '1.2.3' is not a number"
    else:
        rows[r], message = ",".join([ts, "", *cells[1:]]), "missing load value"
    path = write_csv(tmp_path_factory.getbasetemp() / "defect.csv", rows)
    with pytest.raises(ParseError, match=rf"defect\.csv:{r + 2}: {re.escape(message)}"):
        ip.load_series(path)


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

    @pytest.mark.parametrize("noise_sd", [-0.5, (0.5, -1.0), (0.5, np.inf), np.nan,
                                          (0.1, 0.2, 0.3), "ab", "abc"])
    def test_bad_noise_sd_rejected(self, ref_model, ref_theta, noise_sd):
        with pytest.raises(DomainError, match="noise_sd must be one non-negative finite"):
            ip.generate_synthetic(ref_model, ref_theta, 720, noise_sd, seed=0)

    def test_negative_seed_rejected(self, ref_model, ref_theta):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            ip.generate_synthetic(ref_model, ref_theta, 720, 0.5, seed=-1)

    @pytest.mark.parametrize("conventions, length", [
        ({"delta": 24.5}, "day length"), ({"epsilon": 0.5}, "delivery length")])
    def test_whole_hour_lengths_required(self, ref_model, ref_theta, conventions, length):
        model = dataclasses.replace(ref_model, conv=ip.MarketConventions(**conventions))
        with pytest.raises(DomainError, match=f"whole-hour {length}"):
            ip.generate_synthetic(model, ref_theta, 720, 0.5, seed=0)

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
        assert np.max(np.abs(deviation - path)) <= 1e-12


def test_import_leaves_scipy_signal_unloaded():
    # a fresh interpreter, so modules other tests imported do not count
    probe = "import sys, intrinsicprice; print('scipy.signal' in sys.modules)"
    package_root = os.path.dirname(os.path.dirname(ip.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": package_root})
    assert out.stdout.strip() == "False"
