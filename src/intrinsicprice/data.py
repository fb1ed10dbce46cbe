"""CSV ingestion, synthetic data generation, and a reference model.

The file format is one header row and comma-separated columns
``timestamp, load, day_ahead, intraday``: ISO-8601 hourly timestamps with
no gaps or duplicates, decimal points, and empty fields for missing
prices.  Missing load is an error; missing prices merely shrink the
calibration window.
"""

from __future__ import annotations

import csv
import datetime as _dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import MarketSeries, model_spot_prices
from .conventions import MarketConventions
from .errors import DomainError, ParseError
from .measure import p_seasonality_from_q
from .model import ModelQ, SupplyParams
from .ou import OuParams, _sample_path
from .seasonality import Calendar, SeasonalityModel, _month_keys, evaluate


@dataclass(frozen=True)
class CsvSchema:
    timestamp: str = "timestamp"
    load: str = "load"
    day_ahead: str = "day_ahead"
    intraday: str = "intraday"


def _parse_float(field: str, path, lineno: int, column: str) -> float:
    text = field.strip()
    if not text:
        return float("nan")
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: column {column!r}: {field!r} is not a number") from exc


def load_series(path, schema: CsvSchema = CsvSchema()) -> MarketSeries:
    """Parse and validate a market data file into a :class:`MarketSeries`."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}:1: empty file, header row required") from None
        header = [h.strip() for h in header]
        fields = ("timestamp", "load", "day_ahead", "intraday")
        missing = [getattr(schema, f) for f in fields if getattr(schema, f) not in header]
        if missing:
            raise ParseError(f"{path}:1: header must contain column "
                             f"{', '.join(map(repr, missing))}")
        cols = {f: header.index(getattr(schema, f)) for f in fields}

        stamps: list[_dt.datetime] = []
        load, day_ahead, intraday = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) <= max(cols.values()):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                ts = _dt.datetime.fromisoformat(row[cols["timestamp"]].strip())
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad timestamp "
                                 f"{row[cols['timestamp']]!r}") from exc
            if ts.minute or ts.second or ts.microsecond:
                raise ParseError(f"{path}:{lineno}: timestamps must be on the hour")
            if stamps:
                gap = (ts - stamps[-1]).total_seconds() / 3600.0
                if gap == 0:
                    raise ParseError(f"{path}:{lineno}: duplicated timestamp {ts.isoformat()}")
                if gap < 0:
                    raise ParseError(f"{path}:{lineno}: timestamps not increasing")
                if gap != 1:
                    raise ParseError(f"{path}:{lineno}: {gap:g} hour jump in the load series "
                                     "(gaps in load are not allowed)")
            stamps.append(ts)
            value = _parse_float(row[cols["load"]], path, lineno, schema.load)
            if not np.isfinite(value):
                raise ParseError(f"{path}:{lineno}: missing load value")
            load.append(value)
            day_ahead.append(_parse_float(row[cols["day_ahead"]], path, lineno, schema.day_ahead))
            intraday.append(_parse_float(row[cols["intraday"]], path, lineno, schema.intraday))

    if len(stamps) < 2:
        raise ParseError(f"{path}: need at least two data rows")
    first = stamps[0]
    return MarketSeries(epoch=first.date(),
                        taus=first.hour + np.arange(len(stamps), dtype=float),
                        load=np.array(load), day_ahead=np.array(day_ahead),
                        intraday=np.array(intraday))


def write_series(series: MarketSeries, path, schema: CsvSchema = CsvSchema()):
    """Write a series in the CSV schema; floats use shortest round-trip form."""
    midnight = _dt.datetime.combine(series.epoch, _dt.time())

    def cell(x: float) -> str:
        return repr(float(x)) if np.isfinite(x) else ""

    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([schema.timestamp, schema.load, schema.day_ahead, schema.intraday])
        for k in range(len(series)):
            ts = midnight + _dt.timedelta(hours=float(series.taus[k]))
            writer.writerow([ts.isoformat(sep=" "), cell(series.load[k]),
                             cell(series.day_ahead[k]), cell(series.intraday[k])])


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
    states plus independent Gaussian noise.  ``noise_sd`` is one value or
    an ``(intraday, day_ahead)`` pair.  ``monthly_theta`` optionally
    overrides the pricing ``theta`` per delivery month ("YYYY-MM" keys);
    the load seasonality keeps using the scalar ``theta``.  Deterministic
    for a fixed seed.
    """
    n = int(span_hours)
    if n < 720:
        raise DomainError("synthetic span must cover at least one month (720 hours)")
    conv = model.conv
    if conv.delta != int(conv.delta) or conv.epsilon != int(conv.epsilon):
        raise DomainError("synthetic generation assumes whole-hour delta and epsilon")
    try:
        sd_intraday, sd_day_ahead = noise_sd
    except TypeError:
        sd_intraday = sd_day_ahead = float(noise_sd)

    rng = np.random.default_rng(seed)
    epoch = model.load_seasonality.epoch
    taus = np.arange(n, dtype=float)
    g_tilde = p_seasonality_from_q(model.load_seasonality, model.ou, theta)
    deviation = _sample_path(model.ou, np.ones(n - 1), rng)
    load = evaluate(g_tilde, taus) + deviation

    lag = int(conv.delta)
    g_tilde_tau_e = evaluate(g_tilde, taus + conv.epsilon)
    gamma3_tau = evaluate(model.price_seasonality, taus)
    x_fix = np.full(n, np.nan)
    x_fix[lag:] = deviation[:-lag]

    if monthly_theta:
        months, month_of_row = np.unique(_month_keys(taus, epoch), return_inverse=True)
        theta_row = np.array([monthly_theta.get(k, theta) for k in months])[month_of_row]
    else:
        theta_row = np.full(n, theta)

    intraday = np.empty(n)
    day_ahead = np.empty(n)
    for th in np.unique(theta_row):
        rows = theta_row == th
        ivals, svals = model_spot_prices(
            model.ou, model.supply, float(th), conv, taus[rows], g_tilde_tau_e[rows],
            gamma3_tau[rows], deviation[rows], np.nan_to_num(x_fix[rows]))
        intraday[rows] = ivals
        day_ahead[rows] = svals
    day_ahead[:lag] = np.nan

    intraday += sd_intraday * rng.standard_normal(n)
    day_ahead += sd_day_ahead * rng.standard_normal(n)
    day_ahead[:lag] = np.nan
    return MarketSeries(epoch=epoch, taus=taus, load=load,
                        day_ahead=day_ahead, intraday=intraday)


def reference_model(epoch: _dt.date = _dt.date(2015, 1, 1),
                    cal: Calendar | None = None,
                    conv: MarketConventions | None = None) -> tuple[ModelQ, float]:
    """A fully specified model with the reference parameter set used across
    the demos and the verification suite; returns ``(model, theta)``."""
    cal = cal or Calendar()
    conv = conv or MarketConventions()
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
                   load_seasonality=g, price_seasonality=gamma3, conv=conv)
    return model, -0.0036
