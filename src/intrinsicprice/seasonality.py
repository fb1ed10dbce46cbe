"""Deterministic seasonality with calendar-aware dummy variables.

The same functional shape serves both the load seasonality and the price
seasonality: a level, a linear trend per hour, one annual harmonic
(year length fixed at 365*24 hours, no leap handling), four weekday
classes and 24 hour-of-day classes.  To keep the design full rank the
Tue/Wed/Thu class and hour 0 act as reference categories: their
coefficients are pinned to zero and the intercept absorbs them.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass

import numpy as np

from .conventions import HOURS_PER_YEAR, MarketConventions, _read_pairs
from .errors import DomainError, EstimationError, ParseError

_TWO_PI = 2.0 * np.pi


class WeekdayClass(enum.IntEnum):
    MON_FRI = 0
    TUE_WED_THU = 1          # reference class, coefficient 0
    SAT_BRIDGE_PARTIAL = 2
    SUN_HOLIDAY = 3


@dataclass(frozen=True)
class Calendar:
    """Holiday, partial-holiday and bridge-day dates (pairwise disjoint)."""

    holidays: frozenset = frozenset()
    partial_holidays: frozenset = frozenset()
    bridge_days: frozenset = frozenset()

    def __post_init__(self):
        overlap = (self.holidays & self.partial_holidays) | (
            self.holidays & self.bridge_days) | (self.partial_holidays & self.bridge_days)
        if overlap:
            raise DomainError(f"calendar classes must be disjoint, shared dates: {sorted(overlap)}")


def weekday_class(date: _dt.date, cal: Calendar) -> WeekdayClass:
    """Classify a date; holiday membership takes precedence over the weekday."""
    return WeekdayClass(_classify_days(np.zeros(1, dtype=np.int64), date, cal)[0])


# design columns: 4 base terms, 3 weekday dummies, 23 hour dummies
COLUMN_NAMES = (
    "level", "trend", "sin_annual", "cos_annual",
    "dow_mon_fri", "dow_sat_bridge_partial", "dow_sun_holiday",
    *[f"hod_{h:02d}" for h in range(1, 24)],
)
N_COLUMNS = len(COLUMN_NAMES)

# the weekday class of each dummy column, 4:7
_DOW_DUMMY_CLASSES = np.array([WeekdayClass.MON_FRI, WeekdayClass.SAT_BRIDGE_PARTIAL,
                               WeekdayClass.SUN_HOLIDAY])


def _month_keys(taus: np.ndarray, epoch: _dt.date) -> np.ndarray:
    """The delivery month (``datetime64[M]``, printed "YYYY-MM") of each hour
    offset from midnight of ``epoch``."""
    hours = np.datetime64(epoch, "h") + np.floor(taus).astype("timedelta64[h]")
    return hours.astype("datetime64[M]")


# class of each weekday (Monday = 0) before the calendar overrides it
_WEEKDAY_CLASSES = np.array([
    WeekdayClass.MON_FRI, WeekdayClass.TUE_WED_THU, WeekdayClass.TUE_WED_THU,
    WeekdayClass.TUE_WED_THU, WeekdayClass.MON_FRI, WeekdayClass.SAT_BRIDGE_PARTIAL,
    WeekdayClass.SUN_HOLIDAY])


def _classify_days(day_indices: np.ndarray, epoch: _dt.date, cal: Calendar) -> np.ndarray:
    """Weekday class of each day index (days since ``epoch``).  Holidays are
    Sunday class; partial holidays and bridge days are Saturday class unless
    they fall on a Sunday.  An empty date set is not looked up."""
    weekday = (day_indices + epoch.weekday()) % 7
    classes = _WEEKDAY_CLASSES[weekday]

    def listed(dates):
        return np.isin(day_indices, [(d - epoch).days for d in dates])

    bridging = cal.partial_holidays | cal.bridge_days
    if bridging:
        classes[listed(bridging) & (weekday != 6)] = WeekdayClass.SAT_BRIDGE_PARTIAL
    if cal.holidays:
        classes[listed(cal.holidays)] = WeekdayClass.SUN_HOLIDAY
    return classes


_TAU_END = 2.0 ** 63   # the first float whose whole hours do not fit an int64


def _hours_and_classes(tau, epoch: _dt.date, cal: Calendar):
    """``tau`` (finite hours since midnight of ``epoch``, at least 0 and
    below 2**63, so that its whole hours fit an int64) as a float array of
    at least one dimension, with the hour of day and the weekday class of
    each entry."""
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    # two reductions on the hot path; both comparisons are False for a NaN
    if taus.size and not (taus.min() >= 0 and taus.max() < _TAU_END):
        if not np.isfinite(taus).all():
            raise DomainError("seasonality needs finite times tau")
        outside = (taus < 0) | (taus >= _TAU_END)
        raise DomainError("seasonality is defined for tau >= 0 only, below 2**63 hours; "
                          f"got tau = {float(taus[outside][0])!r}")
    whole = np.floor(taus).astype(np.int64)
    return taus, whole % 24, _classify_days(whole // 24, epoch, cal)


def design_matrix(taus, epoch: _dt.date, cal: Calendar) -> np.ndarray:
    """Design rows for a vector of times (hours since midnight of ``epoch``)."""
    taus, hours, classes = _hours_and_classes(taus, epoch, cal)
    X = np.zeros((taus.size, N_COLUMNS))
    X[:, 0] = 1.0
    X[:, 1] = taus
    X[:, 2] = np.sin(_TWO_PI * taus / HOURS_PER_YEAR)
    X[:, 3] = np.cos(_TWO_PI * taus / HOURS_PER_YEAR)
    X[:, 4:7] = classes[:, None] == _DOW_DUMMY_CLASSES
    rows = np.flatnonzero(hours > 0)
    X[rows, 6 + hours[rows]] = 1.0
    return X


@dataclass(frozen=True)
class SeasonalityModel:
    """Fitted (or constructed) seasonal shape evaluable at any ``tau >= 0``.

    ``dow_weights`` has one entry per ``WeekdayClass`` with the
    Tue/Wed/Thu entry zero; ``hod_weights`` has 24 entries with hour 0
    zero.  Both are kept as read-only copies, so an instance never
    changes and :func:`evaluate` may keep its last result on it.
    """

    level: float
    trend: float
    sin_annual: float
    cos_annual: float
    dow_weights: np.ndarray
    hod_weights: np.ndarray
    calendar: Calendar
    epoch: _dt.date

    def __post_init__(self):
        dow = np.array(self.dow_weights, dtype=float)
        hod = np.array(self.hod_weights, dtype=float)
        if dow.shape != (4,):
            raise DomainError("dow_weights must have one entry per weekday class")
        if hod.shape != (24,):
            raise DomainError("hod_weights must have one entry per hour of day")
        if dow[WeekdayClass.TUE_WED_THU] != 0.0:
            raise DomainError("the Tue/Wed/Thu weekday coefficient is the reference and must be 0")
        if hod[0] != 0.0:
            raise DomainError("the hour-0 coefficient is the reference and must be 0")
        if not np.all(np.isfinite(dow)) or not np.all(np.isfinite(hod)):
            raise DomainError("seasonality coefficients must be finite")
        dow.flags.writeable = hod.flags.writeable = False
        object.__setattr__(self, "dow_weights", dow)
        object.__setattr__(self, "hod_weights", hod)
        # (input bytes, output) of the last evaluate call; not a field
        object.__setattr__(self, "_last_evaluation", (None, None))

    @classmethod
    def constant(cls, level: float, epoch: _dt.date | None = None,
                 cal: Calendar | None = None) -> "SeasonalityModel":
        return cls(level=level, trend=0.0, sin_annual=0.0, cos_annual=0.0,
                   dow_weights=np.zeros(4), hod_weights=np.zeros(24),
                   calendar=cal or Calendar(), epoch=epoch or _dt.date(2015, 1, 1))

    def coefficients(self) -> np.ndarray:
        """Parameters in design-column order."""
        beta = np.empty(N_COLUMNS)
        beta[0:4] = (self.level, self.trend, self.sin_annual, self.cos_annual)
        beta[4:7] = self.dow_weights[_DOW_DUMMY_CLASSES]
        beta[7:] = self.hod_weights[1:]
        return beta


def _from_coefficients(beta: np.ndarray, cal: Calendar, epoch: _dt.date) -> SeasonalityModel:
    dow = np.zeros(4)
    dow[_DOW_DUMMY_CLASSES] = beta[4:7]
    hod = np.zeros(24)
    hod[1:] = beta[7:]
    return SeasonalityModel(level=float(beta[0]), trend=float(beta[1]),
                            sin_annual=float(beta[2]), cos_annual=float(beta[3]),
                            dow_weights=dow, hod_weights=hod, calendar=cal, epoch=epoch)


def evaluate(model: SeasonalityModel, tau):
    """Seasonal value at ``tau`` (scalar or array of hours since epoch), in
    a new array of the shape of ``tau``; the annual phase is computed once.

    The model keeps its last input and result, so a call on the same float
    values (the pricers of one delivery strip each ask for ``g3(tau)`` or
    ``g(tau + eps)``) copies that result.  Only a validated input is kept."""
    tau = np.asarray(tau, dtype=float)
    key = tau.tobytes()
    last_key, out = model._last_evaluation
    if key != last_key:
        taus, hours, classes = _hours_and_classes(tau, model.epoch, model.calendar)
        phase = _TWO_PI * taus / HOURS_PER_YEAR
        out = (model.level
               + model.trend * taus
               + model.sin_annual * np.sin(phase)
               + model.cos_annual * np.cos(phase)
               + model.dow_weights[classes]
               + model.hod_weights[hours])
        object.__setattr__(model, "_last_evaluation", (key, out))
    return out.reshape(tau.shape).copy()


def fit(taus, values, cal: Calendar, epoch: _dt.date) -> SeasonalityModel:
    """Ordinary least squares fit of the seasonal shape to (tau, value) pairs.

    Uses an SVD-based solve; a rank-deficient design raises an
    estimation error naming the collinear columns.
    """
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if taus.shape != values.shape or taus.ndim != 1:
        raise DomainError("taus and values must be 1-d arrays of equal length")
    if taus.size < N_COLUMNS:
        raise EstimationError(
            f"need at least {N_COLUMNS} observations to fit the seasonal shape, got {taus.size}")
    X = design_matrix(taus, epoch, cal)
    beta, _, rank, _ = np.linalg.lstsq(X, values, rcond=None)
    if rank < N_COLUMNS:
        from scipy.linalg import qr

        _, R, piv = qr(X, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        tol = diag.max() * max(X.shape) * np.finfo(float).eps
        bad = sorted(COLUMN_NAMES[piv[k]] for k in range(len(diag)) if diag[k] <= tol)
        raise EstimationError(f"rank-deficient design (rank {rank} < {N_COLUMNS}); "
                              f"collinear columns: {', '.join(bad)}")
    return _from_coefficients(beta, cal, epoch)


def price_seasonality_target(day_ahead, intraday, conv: MarketConventions) -> np.ndarray:
    """Per-hour mixture of the two spot series whose seasonal fit approximates
    the seasonality of the settlement price: ``(I + S) / (1 + e^{-r_h delta})``."""
    day_ahead = np.asarray(day_ahead, dtype=float)
    intraday = np.asarray(intraday, dtype=float)
    if day_ahead.shape != intraday.shape:
        raise DomainError(
            f"misaligned series: day-ahead {day_ahead.shape} vs intraday {intraday.shape}")
    return (intraday + day_ahead) / (1.0 + np.exp(-conv.hourly_rate * conv.delta))


_CALENDAR_TAGS = {"holiday": "holidays", "partial": "partial_holidays", "bridge": "bridge_days"}


def load_calendar(path) -> Calendar:
    """Read a calendar file in the key/value grammar of
    :func:`~intrinsicprice.conventions._read_pairs`: an ISO-8601 date per
    line followed by a tag in {holiday, partial, bridge}."""
    sets: dict[str, set] = {name: set() for name in _CALENDAR_TAGS.values()}
    for where, text, tag in _read_pairs(path):
        if tag not in _CALENDAR_TAGS:
            raise ParseError(f"{where}: expected '<ISO date> holiday|partial|bridge', "
                             f"got tag {tag!r}")
        try:
            date = _dt.date.fromisoformat(text)
        except ValueError as exc:
            raise ParseError(f"{where}: invalid date {text!r}") from exc
        sets[_CALENDAR_TAGS[tag]].add(date)
    return Calendar(**{name: frozenset(dates) for name, dates in sets.items()})
