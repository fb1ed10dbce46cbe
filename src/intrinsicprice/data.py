"""CSV ingestion, synthetic data generation, and a reference model.

The file format is one header row and comma-separated columns
``timestamp, load, day_ahead, intraday``: ISO-8601 hourly timestamps with
no gaps or duplicates, decimal points, and empty fields for missing
prices.  Missing load and price text that is not finite are errors;
missing prices merely shrink the calibration window.  The row loop
:func:`_check_rows` is the specification of a data row: one pass over the
rows checks and parses each of them, so an error names the first bad row.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import math
from pathlib import Path

import numpy as np

from .calibration import MarketSeries, _quote_legs
from .conventions import MarketConventions, _hour_rows, _read_text
from .errors import DomainError, ParseError
from .measure import p_seasonality_from_q
from .model import ModelQ, SupplyParams
from .ou import OuParams, _sample_path
from .seasonality import Calendar, SeasonalityModel, _month_keys, evaluate


# rows formatted at a time when writing: whole columns are fast, a whole file
# of formatted rows in memory at once is not
_BLOCK_ROWS = 4096
_COLUMNS = ("timestamp", "load", "day_ahead", "intraday")
_ONE_HOUR = _dt.timedelta(hours=1)
_NAN = float("nan")


def _check_rows(numbered, cols, header, path):
    """The CSV rules, one row at a time: the specification of a data row.

    ``numbered`` yields ``(lineno, fields)`` pairs and ``cols`` holds the
    field index of each of :data:`_COLUMNS`.  Blank rows are skipped.
    Raises the error of the first row that breaks a rule; a row is checked
    for its width, its timestamp, the step from the row before, then load,
    day-ahead and intraday in turn.  Returns the first timestamp (``None``
    without data rows) and the load, day-ahead and intraday arrays.
    """
    fromisoformat, isfinite = _dt.datetime.fromisoformat, math.isfinite
    last_col = max(cols)
    first = prev = None
    columns = ([], [], [])
    numeric = list(zip(_COLUMNS[1:], cols[1:], columns))
    for lineno, row in numbered:
        if not "".join(row).strip():
            continue
        if len(row) <= last_col:
            raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        text = row[cols[0]]
        try:
            ts = fromisoformat(text.strip())
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad timestamp {text!r}") from None
        if ts.minute or ts.second or ts.microsecond:
            raise ParseError(f"{path}:{lineno}: timestamps must be on the hour")
        if prev is None:
            first = ts
        else:
            try:
                step = ts - prev
            except TypeError:
                raise ParseError(f"{path}:{lineno}: timestamps with and without a UTC offset "
                                 "are mixed") from None
            if step != _ONE_HOUR:
                gap = step.total_seconds() / 3600.0
                if gap == 0:
                    raise ParseError(f"{path}:{lineno}: duplicated timestamp {ts.isoformat()}")
                if gap < 0:
                    raise ParseError(f"{path}:{lineno}: timestamps not increasing")
                raise ParseError(f"{path}:{lineno}: {gap:g} hour jump in the load series "
                                 "(gaps in load are not allowed)")
        prev = ts
        for name, col, values in numeric:
            text = row[col].strip()
            try:
                value = float(text) if text else _NAN
            except ValueError:
                raise ParseError(f"{path}:{lineno}: column {name!r}: {row[col]!r} is not a "
                                 "number") from None
            if not isfinite(value):
                if name == "load":
                    raise ParseError(f"{path}:{lineno}: missing load value")
                if text:
                    raise ParseError(f"{path}:{lineno}: column {name!r}: {row[col]!r} is not "
                                     "a finite number")
            values.append(value)
    return first, *map(np.array, columns)


def load_series(path) -> MarketSeries:
    """Parse and validate a market data file into a :class:`MarketSeries`:
    one pass of :func:`_check_rows` over its rows."""
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}:1: empty file, header row required")
        header = [h.strip() for h in header]
        missing = [name for name in _COLUMNS if name not in header]
        if missing:
            raise ParseError(f"{path}:1: header must contain column "
                             f"{', '.join(map(repr, missing))}")
        cols = [header.index(name) for name in _COLUMNS]
        numbered = ((reader.line_num, row) for row in reader)   # the line a row ends on
        first, load, day_ahead, intraday = _check_rows(numbered, cols, header, path)
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None

    if load.size < 2:
        raise ParseError(f"{path}: need at least two data rows")
    return MarketSeries(epoch=first.date(), taus=first.hour + np.arange(load.size, dtype=float),
                        load=load, day_ahead=day_ahead, intraday=intraday)


def _stamp_strings(taus: np.ndarray, epoch: _dt.date) -> list[str]:
    """``isoformat(sep=" ")`` of ``epoch`` midnight plus the whole ``taus`` hours."""
    stamps = np.datetime64(epoch, "h") + taus.astype(np.int64).astype("timedelta64[h]")
    return [s.replace("T", " ") for s in np.datetime_as_string(stamps, unit="s").tolist()]


def _cells(values: np.ndarray) -> list[str]:
    """Shortest round-trip ``repr`` of each finite value, empty otherwise."""
    cells = list(map(repr, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        cells[k] = ""
    return cells


def write_series(series: MarketSeries, path):
    """Write a series in the CSV layout; floats use shortest round-trip form.
    The layout holds on-the-hour stamps only, so every hour must be whole."""
    if np.any(series.taus % 1.0):
        raise DomainError("write_series needs whole hours since the epoch")
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(_COLUMNS) + "\n")
        for start in range(0, len(series), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            # no cell holds a separator, a quote or a line break, so none needs quoting
            fh.write("".join([f"{ts},{load},{da},{intra}\n" for ts, load, da, intra in zip(
                _stamp_strings(series.taus[block], series.epoch), _cells(series.load[block]),
                _cells(series.day_ahead[block]), _cells(series.intraday[block]))]))


def price_coverage(series: MarketSeries) -> dict[str, dict]:
    """First/last quoted hour and gap counts for each price column."""
    out = {}
    for name in ("day_ahead", "intraday"):
        values = getattr(series, name)
        present = np.flatnonzero(np.isfinite(values))
        if present.size:
            out[name] = {
                "first": series.timestamp(int(present[0])).isoformat(sep=" "),
                "last": series.timestamp(int(present[-1])).isoformat(sep=" "),
                "present": int(present.size),
                "missing": int(values.size - present.size),
            }
        else:
            out[name] = {"first": None, "last": None, "present": 0, "missing": int(values.size)}
    return out


def generate_synthetic(model: ModelQ, theta: float, span_hours: int, noise_sd,
                       seed: int, monthly_theta: dict[str, float] | None = None) -> MarketSeries:
    """Simulate a market series consistent with the calibration machinery.

    The load is the real-world seasonality (first-order shape derived
    from the model and ``theta``) plus a simulated centred deviation; the
    quotes are the model's intraday and day-ahead prices at the observed
    states plus independent Gaussian noise.  ``noise_sd`` is one
    non-negative finite value or an ``(intraday, day_ahead)`` pair of them.
    ``monthly_theta`` optionally overrides the pricing ``theta`` per
    delivery month ("YYYY-MM" keys); the load seasonality keeps using the
    scalar ``theta``.  Deterministic for a fixed seed.
    """
    n = int(span_hours)
    if n < 720:
        raise DomainError("synthetic span must cover at least one month (720 hours)")
    conv = model.conv
    lag = _hour_rows(conv.delta, "day length")
    _hour_rows(conv.epsilon, "delivery length")
    try:
        sd = np.asarray(noise_sd, dtype=float)
    except (TypeError, ValueError):
        sd = np.array(np.nan)
    if sd.shape not in ((), (2,)) or not np.all(np.isfinite(sd) & (sd >= 0.0)):
        raise DomainError("noise_sd must be one non-negative finite number or a pair of them, "
                          f"got {noise_sd!r}")
    sd_intraday, sd_day_ahead = np.broadcast_to(sd, 2)

    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    epoch = model.load_seasonality.epoch
    taus = np.arange(n, dtype=float)
    g_tilde = p_seasonality_from_q(model.load_seasonality, model.ou, theta)
    deviation = _sample_path(model.ou, np.ones(n - 1), rng)
    load = evaluate(g_tilde, taus) + deviation

    g_tilde_tau_e = evaluate(g_tilde, taus + conv.epsilon)
    gamma3_tau = evaluate(model.price_seasonality, taus)
    x_fix = np.zeros(n)     # the first day has no fixing state; its day-ahead is dropped
    x_fix[lag:] = deviation[:-lag]

    theta_row = theta
    if monthly_theta:
        months, month_of_row = np.unique(_month_keys(taus, epoch), return_inverse=True)
        theta_row = np.array([monthly_theta.get(str(k), theta) for k in months])[month_of_row]

    _, quotes = _quote_legs(model.ou, model.supply, theta_row, conv, taus, g_tilde_tau_e,
                            gamma3_tau, deviation, x_fix)
    intraday, day_ahead = (quote[0] for quote in quotes)   # the price leads each quote
    intraday += sd_intraday * rng.standard_normal(n)
    day_ahead += sd_day_ahead * rng.standard_normal(n)
    day_ahead[:lag] = np.nan
    return MarketSeries(epoch=epoch, taus=taus, load=load,
                        day_ahead=day_ahead, intraday=intraday)


def reference_model() -> tuple[ModelQ, float]:
    """A fully specified model with the reference parameter set used across
    the demos and the verification suite, with epoch 2015-01-01, no
    holidays and the default conventions; returns ``(model, theta)``."""
    cal = Calendar()
    epoch = _dt.date(2015, 1, 1)
    hod = np.zeros(24)
    hod[1:] = 2.5 * np.sin(np.pi * np.arange(1, 24) / 12.0) - 1.0
    dow = np.array([0.5, 0.0, -2.0, -3.5])
    # load level chosen so both supply legs stay active across the seasonal range
    g = SeasonalityModel(level=47.0, trend=-1e-5, sin_annual=2.0, cos_annual=4.5,
                         dow_weights=dow, hod_weights=hod, calendar=cal, epoch=epoch)
    hod3 = np.zeros(24)
    hod3[1:] = 4.0 * np.sin(np.pi * (np.arange(1, 24) - 5.0) / 12.0)
    gamma3 = SeasonalityModel(level=30.0, trend=0.0, sin_annual=-1.5, cos_annual=2.5,
                              dow_weights=np.array([0.3, 0.0, -1.0, -2.0]),
                              hod_weights=hod3, calendar=cal, epoch=epoch)
    model = ModelQ(ou=OuParams(lam=0.0298, sigma=1.4988, x0=-12.5776),
                   supply=SupplyParams(alpha1=0.1949, alpha2=-0.1796,
                                       beta1=43.8799, beta2=37.4548),
                   load_seasonality=g, price_seasonality=gamma3, conv=MarketConventions())
    return model, -0.0036
