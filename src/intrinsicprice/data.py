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
import itertools
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


# rows parsed or formatted at a time: whole columns are fast, a whole file in
# memory at once is not
_BLOCK_ROWS = 4096
_ONE_HOUR = _dt.timedelta(hours=1)
_NAN = float("nan")


def _first_failure(parse, texts):
    """``(values, k)``: ``parse`` over ``texts`` up to the first one that
    raises ``ValueError``, at index ``k`` (``len(texts)`` when none does)."""
    try:
        return [parse(t) for t in texts], len(texts)
    except ValueError:
        pass
    values = []
    for t in texts:
        try:
            values.append(parse(t))
        except ValueError:
            break
    return values, len(values)


def _first(flags) -> int:
    """Index of the first true flag, or the length when none is."""
    return next((k for k, bad in enumerate(flags) if bad), len(flags))


def _parse_floats(fields) -> tuple[list[float], int]:
    """:func:`_first_failure` of ``float`` over the stripped fields, with NaN
    for an empty one."""
    texts = [f.strip() for f in fields]
    try:   # the same parse as below, inlined: a call per field costs more
        return [float(t) if t else _NAN for t in texts], len(texts)
    except ValueError:
        return _first_failure(lambda t: float(t) if t else _NAN, texts)


def _parse_block(rows, cols, header, prev, path, schema):
    """Parse one block of ``(lineno, row)`` pairs column by column.

    Returns the block's timestamps and its load, day-ahead and intraday
    arrays.  ``prev`` is the last timestamp of the previous block, or
    ``None``.  The error raised is the one a row-by-row parse meets first:
    each check runs on the rows before the earliest failure found so far,
    in the order one row is checked.
    """
    limit, error = len(rows), None

    def fail(k, message):
        nonlocal limit, error
        limit, error = k, f"{path}:{rows[k][0]}: {message}"

    width = max(cols.values()) + 1
    k = _first([len(row) < width for _, row in rows])
    if k < limit:
        fail(k, f"expected {len(header)} fields, got {len(rows[k][1])}")
    raw = [row[cols["timestamp"]] for _, row in rows[:limit]]
    stamps, k = _first_failure(_dt.datetime.fromisoformat, [t.strip() for t in raw])
    if k < limit:
        fail(k, f"bad timestamp {raw[k]!r}")
    k = _first([ts.minute or ts.second or ts.microsecond for ts in stamps[:limit]])
    if k < limit:
        fail(k, "timestamps must be on the hour")
    chain = stamps[:limit] if prev is None else [prev] + stamps[:limit]
    steps = [b - a for a, b in zip(chain, chain[1:])]
    j = _first([step != _ONE_HOUR for step in steps])
    if j < len(steps):
        k = j + (prev is None)   # the row that ends step j
        gap = steps[j].total_seconds() / 3600.0
        if gap == 0:
            fail(k, f"duplicated timestamp {stamps[k].isoformat()}")
        elif gap < 0:
            fail(k, "timestamps not increasing")
        else:
            fail(k, f"{gap:g} hour jump in the load series (gaps in load are not allowed)")
    columns = []
    for name, column in (("load", schema.load), ("day_ahead", schema.day_ahead),
                         ("intraday", schema.intraday)):
        raw = [row[cols[name]] for _, row in rows[:limit]]
        values, k = _parse_floats(raw)
        if k < limit:
            fail(k, f"column {column!r}: {raw[k]!r} is not a number")
        values = np.array(values[:limit], dtype=float)
        if name == "load":
            missing = np.flatnonzero(~np.isfinite(values))
            if missing.size:
                fail(int(missing[0]), "missing load value")
        columns.append(values)
    if error is not None:
        raise ParseError(error)
    return stamps, *columns


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

        numbered = enumerate(reader, start=2)
        first = last = None
        blocks = []
        while block := list(itertools.islice(numbered, _BLOCK_ROWS)):
            rows = [(n, row) for n, row in block if "".join(row).strip()]
            if not rows:
                continue
            stamps, *columns = _parse_block(rows, cols, header, last, path, schema)
            if first is None:
                first = stamps[0]
            last = stamps[-1]
            blocks.append(columns)

    n_rows = sum(len(load) for load, _, _ in blocks)
    if n_rows < 2:
        raise ParseError(f"{path}: need at least two data rows")
    load, day_ahead, intraday = (np.concatenate(c) for c in zip(*blocks))
    return MarketSeries(epoch=first.date(), taus=first.hour + np.arange(n_rows, dtype=float),
                        load=load, day_ahead=day_ahead, intraday=intraday)


def _stamp_strings(taus: np.ndarray, epoch: _dt.date) -> list[str]:
    """``isoformat(sep=" ")`` of ``epoch`` midnight plus ``taus`` hours, as
    ``datetime + timedelta(hours=tau)`` gives it: whole hours plus the
    fraction rounded half-even to a microsecond, with the microseconds
    printed only when they are not zero."""
    fraction, whole = np.modf(taus)
    micros = whole.astype(np.int64) * 3_600_000_000 + np.rint(fraction * 3.6e9).astype(np.int64)
    stamps = np.datetime64(epoch, "us") + micros.astype("timedelta64[us]")
    return [f"{s[:10]} {s[11:19]}" if s.endswith(".000000") else f"{s[:10]} {s[11:]}"
            for s in np.datetime_as_string(stamps, unit="us").tolist()]


def _cells(values: np.ndarray) -> list[str]:
    """Shortest round-trip ``repr`` of each finite value, empty otherwise."""
    cells = list(map(repr, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        cells[k] = ""
    return cells


def write_series(series: MarketSeries, path, schema: CsvSchema = CsvSchema()):
    """Write a series in the CSV schema; floats use shortest round-trip form."""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            [schema.timestamp, schema.load, schema.day_ahead, schema.intraday])
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
