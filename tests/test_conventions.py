import datetime as dt
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import intrinsicprice as ip
from intrinsicprice import DomainError, ParseError, cli
from intrinsicprice.conventions import _number, _read_text


class TestDiscount:
    def test_zero_interval_is_one(self, conv):
        assert ip.discount(5.0, 5.0, conv) == 1.0

    def test_one_year_at_annual_rate(self, conv):
        assert ip.discount(0.0, 8760.0, conv) == pytest.approx(math.exp(-0.001), rel=1e-12)

    def test_one_day_matches_hourly_compounding(self, conv):
        # independent oracle: compound 24 one-hour factors
        step = ip.discount(0.0, 1.0, conv)
        compounded = 1.0
        for _ in range(24):
            compounded *= step
        assert ip.discount(0.0, 24.0, conv) == pytest.approx(compounded, rel=1e-13)
        assert ip.discount(0.0, 24.0, conv) == pytest.approx(
            math.exp(-0.001 * 24.0 / 8760.0), rel=1e-13)

    def test_backwards_interval_rejected(self, conv):
        with pytest.raises(DomainError):
            ip.discount(2.0, 1.0, conv)

    @pytest.mark.parametrize("t1, t2", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)])
    def test_non_finite_time_rejected(self, conv, t1, t2):
        with pytest.raises(DomainError, match="discount needs finite times"):
            ip.discount(t1, t2, conv)

    @given(st.floats(0, 5e4), st.floats(0, 5e4), st.floats(0, 5e4))
    def test_composition(self, a, b, c):
        conv = ip.MarketConventions()
        t1, t2, t3 = sorted([a, b, c])
        left = ip.discount(t1, t2, conv) * ip.discount(t2, t3, conv)
        assert left == pytest.approx(ip.discount(t1, t3, conv), rel=1e-12)

    @given(st.floats(0, 1e5), st.floats(1e-3, 1e4))
    def test_monotone_decreasing(self, t1, gap):
        conv = ip.MarketConventions()
        assert ip.discount(t1, t1 + gap, conv) < 1.0


class TestConventionTypes:
    def test_defaults(self, conv):
        assert conv.epsilon == 1.0
        assert conv.delta == 24.0
        assert conv.hours_per_year == 8760.0
        assert conv.hourly_rate == pytest.approx(0.001 / 8760.0)

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.0}, {"delta": -1.0}, {"hours_per_year": 0.0},
        {"annual_rate": -0.5}, {"annual_rate": float("nan")}, {"delta": float("inf")},
        {"epsilon": float("inf")}, {"hours_per_year": float("inf")},
    ])
    def test_invalid_conventions(self, kwargs):
        with pytest.raises(DomainError):
            ip.MarketConventions(**kwargs)

    def test_delivery_time(self):
        # an infinite hour would price a futures contract as a silent nan, and
        # a nan hour would fail later as a missing driver state
        for bad in (float("nan"), float("inf"), -float("inf"), -1.0):
            with pytest.raises(DomainError, match="finite and non-negative"):
                ip.DeliverySet.from_hours([300.0, bad])
            with pytest.raises(DomainError, match="finite and non-negative"):
                ip.DeliverySet.from_hours([bad])
        assert ip.DeliverySet.from_hours([0.0, 300.0]).taus.tolist() == [0.0, 300.0]

    def test_delivery_set_ordering(self):
        ds = ip.DeliverySet.from_hours([24.0, 25.0, 26.0])
        assert len(ds) == 3
        assert ds.taus.tolist() == [24.0, 25.0, 26.0]
        with pytest.raises(DomainError):
            ip.DeliverySet.from_hours([24.0, 24.0])
        with pytest.raises(DomainError):
            ip.DeliverySet.from_hours([])

    def test_month_strip_checked_whole(self):
        # a 744 h month from an array, a list and a generator gives one set
        hours = 2160.0 + np.arange(744.0)
        ds = ip.DeliverySet.from_hours(hours)
        assert np.array_equal(ds.taus, hours)
        assert ds.taus.dtype == np.float64
        assert np.array_equal(ip.DeliverySet.from_hours(list(hours)).taus, ds.taus)
        assert np.array_equal(ip.DeliverySet.from_hours(h for h in hours).taus, ds.taus)
        repeated = np.append(hours[:-1], hours[-2])
        with pytest.raises(DomainError, match="strictly increasing"):
            ip.DeliverySet.from_hours(repeated)
        middle_nan = hours.copy()
        middle_nan[372] = np.nan
        with pytest.raises(DomainError, match="finite and non-negative"):
            ip.DeliverySet.from_hours(middle_nan)

    def test_strip_is_a_read_only_copy(self):
        hours = 2160.0 + np.arange(744.0)
        ds = ip.DeliverySet.from_hours(hours)
        with pytest.raises(ValueError, match="read-only"):
            ds.taus[0] = 0.0
        hours[0] = 5000.0
        assert ds.taus[0] == 2160.0
        ints = ip.DeliverySet.from_hours(np.arange(2160, 2904))
        assert ints.taus.dtype == np.float64 and not ints.taus.flags.writeable
        assert np.array_equal(ints.taus, ds.taus)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), (3, 1), ()])
    def test_array_of_other_shape_is_domain_error(self, shape):
        with pytest.raises(DomainError, match=re.escape(f"one-dimensional, got shape {shape}")):
            ip.DeliverySet.from_hours(np.zeros(shape))

    @pytest.mark.parametrize("hours", [[[1.0, 2.0], [3.0, 4.0]], ["a"], 5.0, np.array(["a"])],
                             ids=["nested-list", "string-item", "number", "string-array"])
    def test_input_that_is_not_flat_numbers_is_domain_error(self, hours):
        message = f"delivery times must be a flat sequence of numbers, got {hours!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            ip.DeliverySet.from_hours(hours)

    def test_sets_compare_by_identity(self):
        a = ip.DeliverySet.from_hours(np.array([1.0, 2.0]))
        b = ip.DeliverySet.from_hours(np.array([1.0, 2.0]))
        assert a == a and a != b
        assert len({a, b}) == 2


class TestConventionsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "conv.txt"
        path.write_text(
            "# quoting conventions\n"
            "epsilon_hours 1\n"
            "delta_hours = 24\n"
            "annual_rate: 0.002\n"
            "hours_per_year 8760\n")
        conv = ip.load_conventions(path)
        assert conv.annual_rate == 0.002
        assert conv.delta == 24.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "conv.txt"
        path.write_text("day_length 24\n")
        with pytest.raises(ParseError, match="unknown"):
            ip.load_conventions(path)

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "conv.txt"
        path.write_text("annual_rate x\n")
        with pytest.raises(ParseError, match="not a number"):
            ip.load_conventions(path)

    def test_non_finite_number_rejected(self, tmp_path):
        path = tmp_path / "conv.txt"
        path.write_text("epsilon_hours 1\ndelta_hours inf\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: 'inf' is not a finite"):
            ip.load_conventions(path)


class TestNumber:
    @pytest.mark.parametrize("value, expected", [
        ("2.5", 2.5), (" -1e3 ", -1000.0), (7, 7.0), (0.1, 0.1)])
    def test_finite_numbers_pass(self, value, expected):
        assert _number(value, "here") == expected

    @pytest.mark.parametrize("value, message", [
        ("x", "'x' is not a number"), (None, "None is not a number"),
        ([1.0], r"\[1.0\] is not a number"), ("nan", "'nan' is not a finite number"),
        ("-inf", "'-inf' is not a finite number"), (float("inf"), "inf is not a finite number"),
        (10**400, "integer past the float range"),
    ])
    def test_anything_else_names_where(self, value, message):
        with pytest.raises(ParseError, match=f"^here: {message}$"):
            _number(value, "here")


class TestKeyValueGrammar:
    """Conventions, calendar and seasonality-report files share one grammar:
    ``#`` comments anywhere, blank lines, and whitespace, ``=`` or ``:``
    between key and value, in UTF-8 with an optional BOM and any line end."""

    @staticmethod
    def plain_and_dressed(lines):
        plain = "\n".join(f"{k} {v}" for k, v in lines) + "\n"
        separators = itertools.cycle(["=", ": ", "\t", " = "])
        dressed = "\r\n".join(["# header comment", ""] + [
            f"  {k}{sep}{v}  # note" for (k, v), sep in zip(lines, separators)])
        return plain.encode(), b"\xef\xbb\xbf" + dressed.encode() + b"\r\n"

    def read_both(self, tmp_path, lines, read):
        plain, dressed = self.plain_and_dressed(lines)
        (tmp_path / "plain.txt").write_bytes(plain)
        (tmp_path / "dressed.txt").write_bytes(dressed)
        return read(tmp_path / "plain.txt"), read(tmp_path / "dressed.txt")

    def test_conventions(self, tmp_path):
        a, b = self.read_both(tmp_path, [("delta_hours", "12"), ("annual_rate", "0.002")],
                              ip.load_conventions)
        assert a == b == ip.MarketConventions(delta=12.0, annual_rate=0.002)

    def test_calendar(self, tmp_path):
        a, b = self.read_both(tmp_path, [("2017-12-25", "holiday"), ("2017-10-31", "partial"),
                                         ("2017-05-26", "bridge")], ip.load_calendar)
        assert a == b and a.bridge_days == frozenset({dt.date(2017, 5, 26)})

    def test_seasonality_report(self, tmp_path, ref_model):
        pairs = cli._seasonality_report_pairs(ref_model.price_seasonality)
        a, b = self.read_both(tmp_path, [(k, v if isinstance(v, str) else repr(v))
                                         for k, v in pairs],
                              lambda path: cli.read_seasonality_report(path, ip.Calendar()))
        assert np.array_equal(a.coefficients(), ref_model.price_seasonality.coefficients())
        assert np.array_equal(b.coefficients(), a.coefficients()) and b.epoch == a.epoch

    @pytest.mark.parametrize("read", [ip.load_conventions, ip.load_calendar,
                                      lambda path: cli.read_seasonality_report(path, None)],
                             ids=["conventions", "calendar", "report"])
    def test_three_fields_name_the_line(self, tmp_path, read):
        path = tmp_path / "kv.txt"
        path.write_text("# one\n\na b c\n")
        with pytest.raises(ParseError, match=r"kv\.txt:3: expected 'key value'"):
            read(path)


class TestReadText:
    def test_bad_byte_names_its_line_after_a_bom_and_crlf(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"\xef\xbb\xbfa 1\r\nb 2\r\nc \xff\r\n")
        with pytest.raises(ParseError, match=r"t\.txt:3: byte 0xff is not UTF-8 text"):
            _read_text(path)

    def test_missing_file_and_directory(self, tmp_path):
        with pytest.raises(ParseError, match="no such file"):
            _read_text(tmp_path / "absent.txt")
        with pytest.raises(ParseError, match=rf"{re.escape(str(tmp_path))}: cannot read"):
            _read_text(tmp_path)
