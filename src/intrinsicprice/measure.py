"""Change of measure between the pricing and real-world dynamics.

A constant Girsanov parameter ``theta`` (drift rate ``lam * theta``)
relates the two worlds.  Under the real-world measure the load splits as
``G = g~ + X~`` where ``X~`` is again a centred OU process and the
seasonality picks up the drift:

    g~(tau) = g(tau) + (1 - e^{-lam tau}) sigma theta            (exact)
            ~ g(tau) + lam sigma theta tau                        (first order)

Calibration works with the first-order form, which only moves the linear
trend coefficient of the seasonal shape; the exact form is kept for
sensitivity analysis and for the Monte Carlo verification engine.  The
risk premium for a delivery is the forward price minus the real-world
conditional expectation of the at-delivery quote; it is identically zero
when ``theta = 0``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DomainError
from .model import ModelQ, _horizon_and_load, _leg_moments
from .ou import OuParams
from .seasonality import SeasonalityModel


def to_risk_neutral_state(x_tilde, ou: OuParams, theta: float, tau,
                          mode: str = "first_order"):
    """Map a real-world (deseasonalised) load deviation at time ``tau`` to the
    pricing-measure driver state.

    First order: ``x~ + lam sigma theta tau`` (the calibration convention);
    exact: ``x~ + (1 - e^{-lam tau}) sigma theta``.
    """
    modes = ("first_order", "exact")
    if mode not in modes:
        raise DomainError(f"mode must be one of {modes}, got {mode!r}")
    tau = np.asarray(tau, dtype=float)
    if not np.isfinite(tau).all():
        raise DomainError("tau must be finite")
    if np.any(tau < 0):
        raise DomainError("tau must be non-negative")
    if mode == "exact":
        shift = -np.expm1(-ou.lam * tau) * ou.sigma * theta
    else:
        shift = ou.lam * ou.sigma * theta * tau
    return x_tilde + shift


def p_seasonality_from_q(g: SeasonalityModel, ou: OuParams, theta: float) -> SeasonalityModel:
    """First-order real-world seasonal shape: the trend gains ``lam sigma theta``."""
    return replace(g, trend=g.trend + ou.lam * ou.sigma * theta)


def q_seasonality_from_p(g_tilde: SeasonalityModel, ou: OuParams, theta: float) -> SeasonalityModel:
    """Invert the first-order relation: the trend loses ``lam sigma theta``."""
    return replace(g_tilde, trend=g_tilde.trend - ou.lam * ou.sigma * theta)


def radon_nikodym_path(drift: float, w_increments, grid) -> np.ndarray:
    """Density process of the measure change along a Brownian path.

    ``drift`` is the constant parameter value ``lam * theta``;
    ``w_increments`` holds the Brownian increments over consecutive grid
    intervals (last axis), ``grid`` the n+1 increasing times.  Returns the
    stochastic exponential ``exp(drift W - drift^2 t / 2)`` at every grid
    time (1 at the first).  For a constant parameter the Novikov condition
    holds automatically, so the result is a positive unit-mean martingale.
    """
    grid = np.asarray(grid, dtype=float)
    w_increments = np.asarray(w_increments, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("grid must be a non-empty 1-d array")
    if not np.isfinite(grid).all():
        raise DomainError("grid times must be finite")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be strictly increasing")
    if w_increments.shape[-1] != grid.size - 1:
        raise DomainError("need one Brownian increment per grid interval")
    w_cum = np.cumsum(w_increments, axis=-1)
    elapsed = grid[1:] - grid[0]
    log_density = drift * w_cum - 0.5 * drift**2 * elapsed
    ones = np.ones(w_increments.shape[:-1] + (1,))
    return np.concatenate([ones, np.exp(log_density)], axis=-1)


def _terminal_density(drift: float, w_increments: np.ndarray, horizon: float) -> np.ndarray:
    """The last column of :func:`radon_nikodym_path` on a grid spanning
    ``horizon``, bit for bit, without building the path: the increments
    are summed from zero in the order ``cumsum`` adds them."""
    w_end = np.zeros(w_increments.shape[:-1])
    for k in range(w_increments.shape[-1]):
        w_end += w_increments[..., k]
    return np.exp(drift * w_end - 0.5 * drift**2 * horizon)


def _real_world_legs(model: ModelQ, theta: float, tau, horizon, g_tau_e, x_tilde):
    """Real-world leg moments: the pricing-measure kernel at ``x_tilde``, with
    the load ``g_tau_e`` moved by ``e^{-lam eps}(1 - e^{-lam tau}) sigma theta``."""
    ou = model.ou
    tau_arr = np.asarray(tau, dtype=float)
    shift = np.exp(-ou.lam * model.conv.epsilon) * -np.expm1(-ou.lam * tau_arr) * ou.sigma * theta
    return _leg_moments(model.supply, ou, g_tau_e + shift, horizon, x_tilde)


def supply_leg_real_world_expectation(model: ModelQ, theta: float, t, tau, x_tilde):
    """Real-world conditional moments of both supply legs, as ``(L1~, L2~)``,
    given the deseasonalised deviation ``x_tilde`` at time ``t``.

    Identical to the pricing-measure leg expectations apart from a
    deterministic load shift ``e^{-lam eps}(1 - e^{-lam tau}) sigma theta``
    that carries the accumulated measure drift.  At ``theta = 0`` they
    coincide exactly with :func:`intrinsicprice.model.supply_leg_expectation`.
    """
    horizon, g_tau_e = _horizon_and_load(model, t, tau)
    return _real_world_legs(model, theta, tau, horizon, g_tau_e, x_tilde)


def risk_premium(model: ModelQ, theta: float, t, tau, x_tilde):
    """Forward price minus the real-world expectation of the at-delivery quote.

    Closed form: ``(L1 - L2) - (L1~ - L2~)`` with the pricing-measure legs
    evaluated at the first-order shifted state.  Zero exactly when
    ``theta = 0``.  Both pairs of legs share one horizon check and one
    evaluation of the load seasonality at ``tau_e``.  The trading times
    ``t`` must not precede the epoch, where the measure change starts.
    """
    horizon, g_tau_e = _horizon_and_load(model, t, tau)
    if (np.asarray(t) < 0).any():
        raise DomainError(f"risk premium needs trading times t >= 0, got t = {float(np.min(t))!r}")
    x = to_risk_neutral_state(x_tilde, model.ou, theta, t)
    leg1, leg2 = _leg_moments(model.supply, model.ou, g_tau_e, horizon, x)
    leg1_p, leg2_p = _real_world_legs(model, theta, tau, horizon, g_tau_e, x_tilde)
    return (leg1 - leg2) - (leg1_p - leg2_p)
