"""Structural two-exponential supply-curve model under the pricing measure.

The single stochastic driver is the system load
``G_t = g(t) + X_t`` (seasonality plus OU deviation).  The settlement
price for delivery ``[tau, tau + eps)`` is the supply curve evaluated at
the realised load at the ex-post time ``tau_e = tau + eps``, plus a
deterministic price seasonality:

    p(tau) = exp(alpha1 (G_{tau_e} - beta1)) - exp(alpha2 (G_{tau_e} - beta2)) + g3(tau)

All tradable contracts are conditional expectations of ``p(tau)`` under
the pricing measure; because the load deviation is Gaussian they are
available in closed form through the conditional exponential moments of
the two supply legs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .conventions import DeliverySet, MarketConventions
from .errors import DomainError, NumericError
from .ou import OuParams
from .seasonality import SeasonalityModel, evaluate

# spec'd guard: fail loudly instead of returning inf on pathological calibrations
_MAX_EXPONENT = 700.0


@dataclass(frozen=True)
class SupplyParams:
    """Exponents and load shifts of the two supply-curve legs."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        if not self.alpha1 > 0:
            raise DomainError(f"alpha1 must be positive, got {self.alpha1}")
        if not self.alpha2 < 0:
            raise DomainError(f"alpha2 must be negative, got {self.alpha2}")


@dataclass(frozen=True)
class ModelQ:
    """Full pricing-measure model: OU driver, supply curve, seasonalities."""

    ou: OuParams
    supply: SupplyParams
    load_seasonality: SeasonalityModel
    price_seasonality: SeasonalityModel
    conv: MarketConventions


def _checked_exp(exponent, context: str):
    exponent = np.asarray(exponent, dtype=float)
    # one reduction; fmax skips a NaN, so a NaN exponent alone passes and gives a NaN
    worst = float(np.fmax.reduce(np.abs(exponent), axis=None, initial=0.0))
    if worst > _MAX_EXPONENT:
        raise NumericError(f"{context}: exponent magnitude {worst:.3g} exceeds {_MAX_EXPONENT:g}")
    return np.exp(exponent)


def intrinsic_price(model: ModelQ, load_at_tau_e, tau):
    """Settlement price for delivery ``tau`` given the realised ex-post load."""
    s = model.supply
    g3 = evaluate(model.price_seasonality, tau)
    leg1 = _checked_exp(s.alpha1 * (load_at_tau_e - s.beta1), "supply leg 1")
    leg2 = _checked_exp(s.alpha2 * (load_at_tau_e - s.beta2), "supply leg 2")
    return leg1 - leg2 + g3


def _leg_moments(supply: SupplyParams, ou: OuParams, g_tau_e, horizon, x):
    """Conditional moments ``E[exp(alpha_i (G_{tau_e} - beta_i)) | X_t = x]`` of
    both supply legs over ``horizon = tau_e - t``; returns ``(L1, L2)``.  Both
    legs share one ``g_tau_e + m x`` and one ``1 - m^2``, ``m = e^{-lam horizon}``."""
    m = np.exp(-ou.lam * np.asarray(horizon, dtype=float))
    mean = g_tau_e + m * x
    decay = 1.0 - m * m

    def leg(alpha, beta):
        convexity = alpha * ou.sigma**2 / (4.0 * ou.lam) * decay
        # one expression, so numpy reuses its temporaries on large arrays
        exponent = alpha * ((mean + convexity) - beta)
        return _checked_exp(exponent, f"supply leg expectation (alpha={alpha})")

    return leg(supply.alpha1, supply.beta1), leg(supply.alpha2, supply.beta2)


def _horizon_and_load(model: ModelQ, t, tau):
    """The horizon ``tau_e - t`` for delivery ``tau``, which must be finite
    and not negative, and the load seasonality ``g(tau_e)``."""
    tau_e = np.asarray(tau, dtype=float) + model.conv.epsilon
    horizon = tau_e - np.asarray(t, dtype=float)
    if not np.isfinite(horizon).all():
        raise DomainError("supply leg moments need finite times t and tau")
    if (horizon < 0).any():
        first = np.flatnonzero(horizon < 0)[0]
        t_bad, tau_bad = (float(np.broadcast_to(v, horizon.shape).flat[first]) for v in (t, tau))
        raise DomainError("supply leg moments require t <= tau + epsilon; "
                          f"got t = {t_bad!r} with tau = {tau_bad!r}")
    return horizon, evaluate(model.load_seasonality, tau_e)


def _legs(model: ModelQ, t, tau, x):
    """``(horizon, L1, L2)`` for delivery ``tau`` given ``X_t = x``, ``horizon = tau_e - t``."""
    horizon, g_tau_e = _horizon_and_load(model, t, tau)
    return (horizon, *_leg_moments(model.supply, model.ou, g_tau_e, horizon, x))


def supply_leg_expectation(model: ModelQ, t, tau, x):
    """Closed-form ``E[exp(alpha_i (G_{tau_e} - beta_i)) | X_t = x]`` of both
    supply legs, as ``(L1, L2)``.

    Requires ``t <= tau_e``.  At ``t = tau_e`` the convexity term vanishes
    and each value is the realised supply leg.
    """
    return _legs(model, t, tau, x)[1:]


def forward_price(model: ModelQ, t, tau, x):
    """Undiscounted conditional expectation of the settlement price (a martingale in t)."""
    g3 = evaluate(model.price_seasonality, tau)
    _, leg1, leg2 = _legs(model, t, tau, x)
    return leg1 - leg2 + g3


def tradable_price(model: ModelQ, t, tau, x):
    """Price at ``t`` of the (hypothetical) storable claim on delivery ``tau``:
    the forward discounted from the settlement date ``tau_e``."""
    g3 = evaluate(model.price_seasonality, tau)
    horizon, leg1, leg2 = _legs(model, t, tau, x)
    df = np.exp(-model.conv.hourly_rate * horizon)
    return df * (leg1 - leg2 + g3)


def intraday_price(model: ModelQ, tau, x_at_tau):
    """Tradable price quoted at the start of delivery, ``t = tau``."""
    return tradable_price(model, tau, tau, x_at_tau)


def day_ahead_price(model: ModelQ, tau, x_at_tau_minus_delta):
    """Tradable price fixed one day ahead, ``t = tau - delta``; requires ``tau >= delta``."""
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < model.conv.delta):
        raise DomainError(f"day-ahead price needs tau >= delta ({model.conv.delta} h)")
    return tradable_price(model, tau_arr - model.conv.delta, tau, x_at_tau_minus_delta)


def price_generating(model: ModelQ, t, tau, x):
    """Integrand of the martingale representation of the forward price.

    ``sigma e^{-lam (tau_e - t)} [alpha1 L1(t) - alpha2 L2(t)]`` for
    ``t <= tau_e`` and 0 afterwards, with ``L_i`` the supply leg
    expectations.
    """
    t_arr = np.asarray(t, dtype=float)
    tau_e = np.asarray(tau, dtype=float) + model.conv.epsilon
    if not np.isfinite(tau_e - t_arr).all():   # a NaN is never live, so check first
        raise DomainError("price_generating needs finite times t and tau")
    live = t_arr <= tau_e
    if not np.any(live):
        return np.zeros(np.broadcast(t_arr, tau_e, np.asarray(x)).shape)
    horizon, leg1, leg2 = _legs(model, np.where(live, t_arr, tau_e), tau, x)
    s = model.supply
    value = model.ou.sigma * np.exp(-model.ou.lam * horizon) * (s.alpha1 * leg1 - s.alpha2 * leg2)
    return np.where(live, value, 0.0)


def _stopped_times(t: float, taus: np.ndarray, conv: MarketConventions):
    """Per delivery, the time ``min(t, tau_i - delta)`` after which its forward
    no longer moves (the day-ahead fixing, or ``t`` if that is earlier), and
    those times each once, in order, as ``(stops, times)``."""
    if not np.isfinite(t):
        raise DomainError(f"futures need a finite time t, got {t}")
    stops = np.minimum(t, taus - conv.delta)
    return stops, stops[np.diff(stops, prepend=np.nan) != 0]   # stops never decrease


def required_state_times(t: float, deliveries: DeliverySet, conv: MarketConventions) -> list[float]:
    """The times ``min(t, tau_i - delta)``, each once and in order, at which the
    driver state must be known to price the futures contract at time ``t``."""
    return _stopped_times(t, deliveries.taus, conv)[1].tolist()


def futures_price(model: ModelQ, t: float, deliveries: DeliverySet,
                  states: Mapping[float, float]) -> float:
    """Price of a futures contract settled against the day-ahead fixings.

    Each delivery contributes its forward frozen at the fixing time
    ``tau_i - delta``; forwards not yet fixed are taken at ``t``.
    ``states`` must map every required time ``min(t, tau_i - delta)``
    (see :func:`required_state_times`) to the driver value there.
    """
    conv = model.conv
    taus = deliveries.taus
    if taus[0] < conv.delta:
        raise DomainError(f"delivery at {taus[0]} h fixes before the series epoch")
    stops, times = _stopped_times(t, taus, conv)
    try:
        x = np.array([states[u] for u in times.tolist()], dtype=float)
    except KeyError as exc:
        raise DomainError(f"missing driver state at stopped time {exc.args[0]} h") from None
    total = forward_price(model, stops, taus, x[np.searchsorted(times, stops)]).sum()
    return float(np.exp(-conv.hourly_rate * (conv.delta + conv.epsilon)) / taus.size * total)
