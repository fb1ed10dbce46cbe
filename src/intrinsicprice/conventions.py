"""Market conventions, the delivery-set container, and discounting.

Time is a continuous number of hours since the epoch of the data set.
Contracts are quoted for delivery periods ``[tau, tau + epsilon)``; the
quantity that settles them is only known at the ex-post time
``tau_e = tau + epsilon``.  The risk-free rate is stated per year and
converted once to an hourly rate ``r_h = annual_rate / hours_per_year``,
which is the rate used in every discount factor.
"""

from __future__ import annotations

import codecs
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError

HOURS_PER_YEAR = 365 * 24


@dataclass(frozen=True)
class MarketConventions:
    """Delivery length, day length and risk-free rate shared by all contracts."""

    epsilon: float = 1.0
    delta: float = 24.0
    annual_rate: float = 0.001
    hours_per_year: float = float(HOURS_PER_YEAR)

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise DomainError(f"delivery length must be positive and finite, got {self.epsilon}")
        if not 0 < self.delta < math.inf:
            raise DomainError(f"day length must be positive and finite, got {self.delta}")
        if not 0 < self.hours_per_year < math.inf:
            raise DomainError(
                f"hours_per_year must be positive and finite, got {self.hours_per_year}")
        r_h = self.annual_rate / self.hours_per_year
        if not math.isfinite(r_h) or r_h < 0:
            raise DomainError(f"hourly rate must be finite and non-negative, got {r_h}")

    @property
    def hourly_rate(self) -> float:
        return self.annual_rate / self.hours_per_year


@dataclass(frozen=True, eq=False)
class DeliverySet:
    """Strictly increasing delivery hours backing one futures contract, each the
    start ``tau`` of a delivery period in hours since epoch, as one read-only copy."""

    taus: np.ndarray

    def __post_init__(self):
        try:
            taus = (self.taus.astype(float) if isinstance(self.taus, np.ndarray)
                    else np.fromiter(self.taus, dtype=float))
        except (TypeError, ValueError):   # not iterable, or items that are not numbers
            raise DomainError("delivery times must be a flat sequence of numbers, "
                              f"got {self.taus!r}") from None
        if taus.ndim != 1:
            raise DomainError(f"delivery times must be one-dimensional, got shape {taus.shape}")
        if taus.size < 1:
            raise DomainError("a delivery set needs at least one delivery time")
        if not ((taus >= 0.0) & (taus < math.inf)).all():
            raise DomainError(
                f"delivery times must be finite and non-negative, got {tuple(taus.tolist())}")
        if not (taus[1:] > taus[:-1]).all():
            raise DomainError(f"delivery times must be strictly increasing, got {taus.tolist()}")
        taus.flags.writeable = False
        object.__setattr__(self, "taus", taus)

    @classmethod
    def from_hours(cls, hours) -> "DeliverySet":
        """A delivery set from any iterable of hours (an array is read whole)."""
        return cls(hours)

    def __len__(self) -> int:
        return self.taus.size


def _hour_rows(hours: float, what: str) -> int:
    """A length in hours as a number of rows of an hourly series; a length
    that is not a whole number of hours is a :class:`DomainError` naming
    ``what``."""
    if hours != int(hours):
        raise DomainError(f"hourly series need a whole-hour {what}")
    return int(hours)


def discount(t1: float, t2: float, conv: MarketConventions) -> float:
    """Discount factor ``exp(-r_h (t2 - t1))`` between two times in hours.

    Equals 1 when ``t1 == t2``; requires finite times with ``t2 >= t1``.
    """
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise DomainError(f"discount needs finite times, got t1={t1}, t2={t2}")
    if t2 < t1:
        raise DomainError(f"cannot discount backwards: t1={t1} > t2={t2}")
    return math.exp(-conv.hourly_rate * (t2 - t1))


_CONVENTION_KEYS = {
    "epsilon_hours": "epsilon",
    "delta_hours": "delta",
    "annual_rate": "annual_rate",
    "hours_per_year": "hours_per_year",
}


def _read_text(path) -> str:
    """The text of an input file, read as UTF-8 with an optional BOM.

    Every way reading can fail is a :class:`ParseError` naming the file:
    a missing file, a directory or any other ``OSError``, and bytes that
    are not UTF-8, whose line (counted by ``\\n``) the error names too.
    """
    path = Path(path)
    try:
        raw = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: byte {raw[exc.start]:#04x} is not UTF-8 text") from None


def _number(value, where: str) -> float:
    """One number from outside the package as a float: a params-JSON value,
    a numeric flag, a ``--deliveries`` item, a conventions value or a
    report coefficient.

    Anything that is not a finite number is a :class:`ParseError` naming
    ``where``: text that does not parse, NaN, the infinities (JSON reads
    ``1e999`` as one) and an integer past the float range.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: {value!r} is not a number") from None
    except OverflowError:
        raise ParseError(f"{where}: integer past the float range") from None
    if not math.isfinite(number):
        raise ParseError(f"{where}: {value!r} is not a finite number")
    return number


def _read_pairs(path):
    """``(where, key, value)`` for each entry of a key/value file, where
    ``where`` is ``"path:line"``.

    The one key/value grammar of the package's input files: ``#`` starts a
    comment, blank lines are skipped, and whitespace, ``=`` or ``:``
    separate the two fields of every other line.
    """
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        parts = raw.split("#", 1)[0].replace("=", " ").replace(":", " ").split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'key value', got {raw!r}")
        yield f"{path}:{lineno}", *parts


def load_conventions(path) -> MarketConventions:
    """Read conventions from a key/value file (see :func:`_read_pairs`).

    Recognised keys: ``epsilon_hours``, ``delta_hours``, ``annual_rate``,
    ``hours_per_year``.  Missing keys keep their defaults.
    """
    values: dict[str, float] = {}
    for where, key, value in _read_pairs(path):
        if key not in _CONVENTION_KEYS:
            raise ParseError(f"{where}: unknown conventions key {key!r}")
        values[_CONVENTION_KEYS[key]] = _number(value, where)
    return MarketConventions(**values)
