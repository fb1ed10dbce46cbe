"""Three-stage calibration of the structural model to market data.

Stage 1 fits the real-world load seasonality by least squares, stage 2
estimates the OU driver from the deseasonalised load, and stage 3
minimises the joint day-ahead/intraday pricing error over the supply
parameters and the measure-change parameter ``theta``:

    (1 / 2N) sqrt( sum (I_mkt - I_mod)^2 + sum (S_mkt - S_mod)^2 )

Model prices are evaluated at the observed deseasonalised state of the
pricing time (the delivery hour for intraday, one day earlier for the
day-ahead quote), shifted to the pricing measure with the first-order
relation, and with the pricing-measure seasonality derived from the
stage-1 fit as ``g = g~ - lam sigma theta tau``.  The price seasonality
is fitted beforehand and held fixed throughout stage 3.
"""

from __future__ import annotations

import datetime as _dt
import warnings
from dataclasses import dataclass

import numpy as np

from .conventions import MarketConventions, _hour_rows
from .errors import DomainError, EstimationError, NumericError
from .model import SupplyParams, _leg_moments
from .ou import OuParams, fit_mle
from .seasonality import (Calendar, SeasonalityModel, _month_keys, evaluate, fit,
                          price_seasonality_target)

_OVERFLOW_PENALTY = 1e12
_BFGS_MAXITER = 500
_MONTH_MIN_OBS = 48     # fewest aligned hours that give a month its own theta


@dataclass(frozen=True)
class MarketSeries:
    """Aligned hourly series of load and spot prices.

    ``taus`` are hours since midnight of ``epoch`` with exactly hourly
    spacing.  The load must be complete; price entries may be NaN (the
    price window is typically shorter than the load window).
    """

    epoch: _dt.date
    taus: np.ndarray
    load: np.ndarray
    day_ahead: np.ndarray
    intraday: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        load = np.asarray(self.load, dtype=float)
        day_ahead = np.asarray(self.day_ahead, dtype=float)
        intraday = np.asarray(self.intraday, dtype=float)
        if not (taus.shape == load.shape == day_ahead.shape == intraday.shape):
            raise DomainError("all series must have equal length")
        if taus.ndim != 1 or taus.size < 2:
            raise DomainError("need at least two hourly observations")
        # one-hour steps up to rounding, so that a fractional offset stays hourly
        if not np.all(np.abs(np.diff(taus) - 1.0) <= 1e-9):
            raise DomainError("timestamps must be strictly increasing and hourly")
        if taus[0] < 0:
            raise DomainError("series cannot start before its epoch")
        if not np.all(np.isfinite(load)):
            raise DomainError("gaps in the load series are not allowed")
        for name, arr in (("taus", taus), ("load", load),
                          ("day_ahead", day_ahead), ("intraday", intraday)):
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.taus.size

    def timestamp(self, k: int) -> _dt.datetime:
        return _dt.datetime.combine(self.epoch, _dt.time()) + _dt.timedelta(hours=float(self.taus[k]))


@dataclass(frozen=True)
class CalibrationDiagnostics:
    iterations: int
    converged: bool
    message: str = ""
    overflow_evaluations: int = 0


@dataclass(frozen=True)
class CalibrationResult:
    g_tilde: SeasonalityModel
    ou: OuParams
    gamma3: SeasonalityModel
    supply: SupplyParams
    theta: float
    objective_value: float
    diagnostics: CalibrationDiagnostics

    def __post_init__(self):
        if not np.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta}")
        if self.objective_value < 0:
            raise DomainError("objective value cannot be negative")


def fit_load_seasonality(series: MarketSeries, cal: Calendar) -> SeasonalityModel:
    """Stage 1: least-squares seasonal fit of the hourly load (needs >= 1 year)."""
    if len(series) < 365 * 24:
        raise EstimationError(
            f"load seasonality needs at least one year of hourly data, got {len(series)} hours")
    return fit(series.taus, series.load, cal, series.epoch)


def fit_ou(series: MarketSeries, g_tilde: SeasonalityModel) -> OuParams:
    """Stage 2: OU maximum likelihood on the deseasonalised load."""
    residuals = series.load - evaluate(g_tilde, series.taus)
    return fit_mle(residuals, dt=1.0)


def fit_price_seasonality(series: MarketSeries, cal: Calendar,
                          conv: MarketConventions) -> SeasonalityModel:
    """Seasonal fit of the day-ahead/intraday price mixture (both quotes present)."""
    target = price_seasonality_target(series.day_ahead, series.intraday, conv)
    ok = np.isfinite(target)
    if not np.any(ok):
        raise EstimationError("no hours with both intraday and day-ahead quotes")
    return fit(series.taus[ok], target[ok], cal, series.epoch)


def _quote_legs(ou: OuParams, supply: SupplyParams, theta: float, conv: MarketConventions,
                tau, g_tilde_tau_e, gamma3_tau, x_tilde_spot, x_tilde_fix):
    """Model quotes for delivery hours ``tau`` with the supply-leg moments
    behind them.  ``g_tilde_tau_e`` is the stage-1 seasonality at the
    ex-post times, ``x_tilde_spot`` / ``x_tilde_fix`` the deseasonalised
    load at the delivery hour and at the fixing one day earlier, and
    ``theta`` one value or one per delivery hour.

    Returns ``(g_q, quotes)``: ``g_q`` is the pricing-measure seasonality at
    the ex-post times, and ``quotes`` holds for the intraday quote, then
    the day-ahead one, the tuple ``(price, discount, horizon, s, x, L1, L2)``:
    the model price ``discount * (L1 - L2 + gamma3)``, its discount factor,
    the horizon ``tau_e - s`` from the state time ``s``, the
    pricing-measure state at ``s`` and the two leg moments.
    """
    tau = np.asarray(tau, dtype=float)
    tau_e = tau + conv.epsilon
    drift = ou.lam * ou.sigma * theta
    g_q = g_tilde_tau_e - drift * tau_e
    quotes = []
    for lead, x_tilde in ((0.0, x_tilde_spot), (conv.delta, x_tilde_fix)):
        horizon = conv.epsilon + lead
        s = tau - lead
        x = x_tilde + drift * s
        leg1, leg2 = _leg_moments(supply, ou, g_q, horizon, x)
        discount = np.exp(-conv.hourly_rate * horizon)
        quotes.append((discount * ((leg1 - leg2) + gamma3_tau), discount, horizon, s, x,
                       leg1, leg2))
    return g_q, quotes


def _check_epoch(series: MarketSeries, model: SeasonalityModel, name: str) -> None:
    """Raise unless ``model`` counts its hours from the series' epoch."""
    if model.epoch != series.epoch:
        raise DomainError(f"the {name} seasonality counts hours from {model.epoch}, "
                          f"but the data count them from {series.epoch}")


class PricingObjective:
    """Stage-3 objective with all data-dependent quantities precomputed for
    the aligned rows: the hours past the first day with both quotes."""

    def __init__(self, series: MarketSeries, g_tilde: SeasonalityModel, ou: OuParams,
                 gamma3: SeasonalityModel, conv: MarketConventions):
        _check_epoch(series, g_tilde, "load")
        _check_epoch(series, gamma3, "price")
        lag = _hour_rows(conv.delta, "day length")
        n = len(series)
        aligned = np.isfinite(series.intraday) & np.isfinite(series.day_ahead)
        aligned &= np.arange(n) >= lag
        self.rows = np.flatnonzero(aligned)
        if self.rows.size == 0:
            raise EstimationError("no aligned intraday/day-ahead observations")
        self.n_obs = self.rows.size
        self.ou = ou
        self.conv = conv

        k = self.rows
        self.tau = series.taus[k]
        self.g_tilde_tau_e = evaluate(g_tilde, self.tau + conv.epsilon)
        self.gamma3_tau = evaluate(gamma3, self.tau)
        g_spot = evaluate(g_tilde, self.tau)
        g_fix = evaluate(g_tilde, self.tau - conv.delta)
        self.x_tilde_spot = series.load[k] - g_spot
        self.x_tilde_fix = series.load[k - lag] - g_fix
        self.intraday_mkt = series.intraday[k]
        self.day_ahead_mkt = series.day_ahead[k]
        self.overflow_evaluations = 0

    def _errors(self, supply: SupplyParams, theta, block=slice(None)):
        """``(g_q, quotes, errors)`` on ``block`` of the aligned rows: the
        :func:`_quote_legs` output and the market-minus-model errors of both
        quotes.  ``theta`` is one value or one per row of the block.  A leg
        overflow raises :class:`NumericError`."""
        g_q, quotes = _quote_legs(self.ou, supply, theta, self.conv, self.tau[block],
                                  self.g_tilde_tau_e[block], self.gamma3_tau[block],
                                  self.x_tilde_spot[block], self.x_tilde_fix[block])
        return g_q, quotes, (self.intraday_mkt[block] - quotes[0][0],
                             self.day_ahead_mkt[block] - quotes[1][0])

    def _fit(self, supply: SupplyParams, theta, block=slice(None)):
        """``(ss, g_q, quotes, errors)``: the sum of squared pricing errors and
        what :meth:`_errors` returns.  A leg overflow, or a sum of squares
        past the float range, gives ``ss`` the penalty value and is counted
        once."""
        try:
            g_q, quotes, errors = self._errors(supply, theta, block)
            ss = _sum_of_squares(errors)
        except NumericError:
            ss = np.inf
        if not np.isfinite(ss):
            self.overflow_evaluations += 1
            return _OVERFLOW_PENALTY, None, None, None
        return ss, g_q, quotes, errors

    def __call__(self, supply: SupplyParams, theta: float, gradient: bool = False):
        """The objective; with ``gradient`` the pair ``(value, grad)``, where
        ``grad`` is taken in the stage-3 coordinates
        ``(log alpha1, log(-alpha2), beta1, beta2, theta)``.

        The gradient is analytic: each leg moment is ``L = exp(E)``, and the
        derivatives of the exponent ``E`` are ``alpha (g_q + m x - beta) +
        2 alpha^2 kappa`` in ``log |alpha|``, ``-alpha`` in ``beta`` and
        ``alpha lam sigma (m s - tau_e)`` in ``theta``, with ``m = e^{-lam h}``
        and ``kappa = sigma^2 (1 - m^2) / (4 lam)``.  It is zero on the
        overflow-penalty plateau, and at an exact fit, where the square root
        has no gradient.
        """
        ss, g_q, quotes, errors = self._fit(supply, theta)
        value = _value(ss, self.n_obs)
        if not gradient:
            return value
        if value == _OVERFLOW_PENALTY:
            return value, np.zeros(5)
        root = np.sqrt(ss)
        grad = np.zeros(5)
        if root == 0.0:
            return value, grad
        ou, a1, a2 = self.ou, supply.alpha1, supply.alpha2
        tau_e = self.tau + self.conv.epsilon
        for err, (_, discount, horizon, s, x, leg1, leg2) in zip(errors, quotes):
            m = np.exp(-ou.lam * horizon)
            kappa = ou.sigma**2 / (4.0 * ou.lam) * (1.0 - m * m)
            level = g_q + m * x
            w1 = discount * err * leg1
            w2 = discount * err * leg2
            grad[0] += w1 @ (a1 * (level - supply.beta1) + 2.0 * a1 * a1 * kappa)
            grad[1] -= w2 @ (a2 * (level - supply.beta2) + 2.0 * a2 * a2 * kappa)
            grad[2] -= a1 * w1.sum()
            grad[3] += a2 * w2.sum()
            grad[4] += (a1 * w1 - a2 * w2) @ (ou.lam * ou.sigma * (m * s - tau_e))
        # the model price enters ss = sum(err^2) with a minus sign
        return value, -grad / (2.0 * self.n_obs * root)


def _sum_of_squares(errors, block=slice(None)) -> float:
    """The sum of squared errors of both quotes on ``block``; ``inf`` when it
    passes the float range."""
    err_i, err_s = errors[0][block], errors[1][block]
    with np.errstate(over="ignore"):
        return float(err_i @ err_i + err_s @ err_s)


def _value(ss: float, n_obs: int) -> float:
    """The objective ``sqrt(ss) / (2 n_obs)`` from the sum of squared errors
    over ``n_obs`` hours, or the overflow penalty once ``ss`` reaches it."""
    return _OVERFLOW_PENALTY if ss >= _OVERFLOW_PENALTY else np.sqrt(ss) / (2.0 * n_obs)


def numerical_gradient(f, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate steps
    ``rel_step * max(|x_i|, 1)``."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        h = rel_step * max(abs(x[i]), 1.0)
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up) - f(dn)) / (2.0 * h)
    return grad


def _unpack(u) -> tuple[SupplyParams, float]:
    supply = SupplyParams(alpha1=float(np.exp(u[0])), alpha2=-float(np.exp(u[1])),
                          beta1=float(u[2]), beta2=float(u[3]))
    return supply, float(u[4])


def _pack(supply: SupplyParams, theta: float) -> np.ndarray:
    return np.array([np.log(supply.alpha1), np.log(-supply.alpha2),
                     supply.beta1, supply.beta2, theta])


def calibrate_supply_theta(series: MarketSeries, g_tilde: SeasonalityModel, ou: OuParams,
                           gamma3: SeasonalityModel, conv: MarketConventions,
                           init_supply: SupplyParams,
                           init_theta: float = 0.0) -> CalibrationResult:
    """Stage 3: quasi-Newton minimisation of the pricing objective.

    The sign constraints are built into a log / negative-log
    reparameterisation of the exponents; the gradient is analytic (see
    :class:`PricingObjective`), so BFGS gets value and gradient from one
    pass over the leg moments.  Convergence means a final gradient norm
    below 1e-6; otherwise the result is returned with the flag down.  A
    result on the overflow-penalty plateau is never converged.
    """
    from scipy.optimize import minimize

    objective = PricingObjective(series, g_tilde, ou, gamma3, conv)

    def f(u):
        supply, theta = _unpack(u)
        return objective(supply, theta, gradient=True)

    result = minimize(f, _pack(init_supply, init_theta), method="BFGS", jac=True,
                      options={"gtol": 1e-6, "maxiter": _BFGS_MAXITER})

    supply, theta = _unpack(result.x)
    grad_norm = float(np.linalg.norm(result.jac))
    # an exact fit leaves the square-root objective conical, so the gradient
    # test cannot trigger; a numerically zero objective counts as converged.
    # The penalty plateau is flat, so its zero gradient says nothing.
    converged = bool((grad_norm < 1e-6 or result.success or result.fun <= 1e-10)
                     and result.fun < _OVERFLOW_PENALTY)
    diagnostics = CalibrationDiagnostics(
        iterations=int(result.nit), converged=converged,
        message=str(result.message), overflow_evaluations=objective.overflow_evaluations)
    return CalibrationResult(g_tilde=g_tilde, ou=ou, gamma3=gamma3, supply=supply,
                             theta=theta, objective_value=float(result.fun),
                             diagnostics=diagnostics)


_GUESS_DEFAULT_ALPHA = 0.2


def initial_supply_guess(series: MarketSeries, gamma3: SeasonalityModel,
                         conv: MarketConventions) -> SupplyParams:
    """Starting point for stage 3: fit the intraday quotes directly to the
    settlement-price formula at the realised load (no measure change, no
    convexity terms).  Falls back to documented defaults on failure."""
    from scipy.optimize import least_squares

    lead = _hour_rows(conv.epsilon, "delivery length")
    n = len(series)
    rows = np.flatnonzero(np.isfinite(series.intraday) & (np.arange(n) + lead < n))
    mean_load = float(np.mean(series.load))
    fallback = SupplyParams(alpha1=_GUESS_DEFAULT_ALPHA, alpha2=-_GUESS_DEFAULT_ALPHA,
                            beta1=mean_load, beta2=mean_load)
    if rows.size < 8:
        warnings.warn("too few intraday quotes for a direct supply fit; using defaults")
        return fallback
    load_ex_post = series.load[rows + lead]
    gamma3_tau = evaluate(gamma3, series.taus[rows])
    target = series.intraday[rows]

    def residuals(u):
        a1, a2 = np.exp(min(u[0], 20.0)), -np.exp(min(u[1], 20.0))
        curve = (np.exp(np.minimum(a1 * (load_ex_post - u[2]), 700.0))
                 - np.exp(np.minimum(a2 * (load_ex_post - u[3]), 700.0)))
        return target - (curve + gamma3_tau)

    start = np.array([np.log(_GUESS_DEFAULT_ALPHA), np.log(_GUESS_DEFAULT_ALPHA),
                      mean_load, mean_load])
    try:
        res = least_squares(residuals, start, method="lm", max_nfev=800)
    except Exception as exc:  # pragma: no cover - scipy internal failures
        warnings.warn(f"direct supply fit raised {exc!r}; using defaults")
        return fallback
    degenerate = (not res.success or not np.all(np.isfinite(res.x))
                  or abs(res.x[0]) > 10.0 or abs(res.x[1]) > 10.0)
    if degenerate:
        warnings.warn("direct supply fit did not converge to a usable point; using defaults")
        return fallback
    supply, _ = _unpack(np.append(res.x, 0.0))
    return supply


def calibrate(series: MarketSeries, cal: Calendar, conv: MarketConventions,
              gamma3: SeasonalityModel | None = None) -> CalibrationResult:
    """Full pipeline: load seasonality, OU fit, price seasonality (unless a
    known one is supplied), direct supply guess, then the joint
    supply/theta optimisation."""
    if gamma3 is not None:
        _check_epoch(series, gamma3, "price")
    g_tilde = fit_load_seasonality(series, cal)
    ou = fit_ou(series, g_tilde)
    if gamma3 is None:
        gamma3 = fit_price_seasonality(series, cal, conv)
    return calibrate_supply_theta(series, g_tilde, ou, gamma3, conv,
                                  initial_supply_guess(series, gamma3, conv))


_GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)   # the factor a golden-section round shrinks by


def _golden_search(f, n: int, lower: float, upper: float, xatol: float) -> np.ndarray:
    """Minimise ``n`` functions of one variable on ``[lower, upper]`` at once
    by golden-section search (Kiefer 1953).

    ``f`` maps one point per lane to one value per lane.  Each round keeps
    the part of every lane's bracket beside its lower inner value (the upper
    part on a tie) and evaluates one new point, until the brackets are
    shorter than ``xatol``.  The round count depends only on the bounds, so
    each lane ends where a one-lane search of its own function would.
    Returns each lane's better inner point, the upper one on a tie.
    """
    a, b = np.full(n, float(lower)), np.full(n, float(upper))
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = np.asarray(f(c), dtype=float), np.asarray(f(d), dtype=float)
    for _ in range(int(np.ceil(np.log(xatol / (upper - lower)) / np.log(_GOLDEN)))):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = np.asarray(f(x), dtype=float)
        c, fc, d, fd = (np.where(left, x, d), np.where(left, fx, fd),
                        np.where(left, c, x), np.where(left, fc, fx))
    return np.where(fc < fd, c, d)


def implied_theta_monthly(series: MarketSeries, g_tilde: SeasonalityModel, ou: OuParams,
                          gamma3: SeasonalityModel, supply: SupplyParams,
                          conv: MarketConventions) -> list[tuple[_dt.date, float]]:
    """Per calendar month, the ``theta`` minimising the pricing objective
    on that month's hours with everything else frozen (golden-section
    search on [-1, 1] to within 1e-6, 33 evaluations).

    Months with fewer than 48 aligned delivery hours are
    skipped with a warning.  Returns (first-of-month, theta) pairs in
    chronological order.  All months are searched together: each round
    prices every aligned hour once, with its month's trial ``theta``.
    Both seasonalities must count their hours from the series' epoch.
    """
    month = _month_keys(series.taus, series.epoch)
    # taus increase, so each month's hours are one block
    months = month[np.flatnonzero(np.diff(month, prepend=month[0] - 1))]
    try:
        objective = PricingObjective(series, g_tilde, ou, gamma3, conv)
        month_of_row = month[objective.rows]
    except EstimationError:
        objective, month_of_row = None, month[:0]
    edges = np.searchsorted(month_of_row, months)
    counts = np.diff(edges, append=month_of_row.size)
    for key, count in zip(months, counts):
        if count == 0:
            warnings.warn(f"month {key}: no aligned observations; skipped")
        elif count < _MONTH_MIN_OBS:
            warnings.warn(f"month {key}: only {count} aligned hours; skipped")
    kept = np.flatnonzero(counts >= _MONTH_MIN_OBS)
    if kept.size == 0:
        return []
    blocks = [slice(edges[k], edges[k] + counts[k]) for k in kept]
    n_obs = counts[kept]
    theta_of_month = np.zeros(months.size)

    def values(theta):
        theta_of_month[kept] = theta
        try:
            errors = objective._errors(supply, np.repeat(theta_of_month, counts))[2]
            sums = [_sum_of_squares(errors, block) for block in blocks]
        except NumericError:   # a leg overflowed in some month: price month by month
            sums = [objective._fit(supply, th, block)[0] for th, block in zip(theta, blocks)]
        return [_value(ss, n) for ss, n in zip(sums, n_obs)]

    theta = _golden_search(values, kept.size, -1.0, 1.0, xatol=1e-6)
    return [(key.item(), float(th)) for key, th in zip(months[kept], theta)]
