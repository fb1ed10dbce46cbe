"""Gaussian Ornstein-Uhlenbeck process with zero long-run mean.

The load deviation follows ``dX = -lambda X dt + sigma dW`` (any mean level
is absorbed by the seasonality function, so none is modelled here).  The
module provides the exact one-step transition law, the one exact
recursion every simulated state in the package comes from (``_walk``),
and closed-form maximum likelihood for ``(lambda, sigma)`` from an
equally spaced sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError


@dataclass(frozen=True)
class OuParams:
    """Mean-reversion speed per hour, volatility per sqrt-hour, initial value."""

    lam: float
    sigma: float
    x0: float = 0.0

    def __post_init__(self):
        if not self.lam > 0:
            raise DomainError(f"mean-reversion speed must be positive, got {self.lam}")
        if self.sigma < 0:
            raise DomainError(f"volatility must be non-negative, got {self.sigma}")

    @property
    def stationary_variance(self) -> float:
        return self.sigma**2 / (2.0 * self.lam)


def transition(params: OuParams, x, dt):
    """Exact conditional law of ``X_{t+dt}`` given ``X_t = x``.

    Returns ``(mean, variance)`` with ``mean = x e^{-lam dt}`` and
    ``variance = sigma^2 (1 - e^{-2 lam dt}) / (2 lam)``, taken through
    ``expm1`` so it stays accurate down to the ``sigma^2 dt`` limit of small
    ``lam dt``.  Accepts scalars or arrays for ``x`` and ``dt``.
    """
    dt = np.asarray(dt, dtype=float)
    if not ((dt >= 0) & (dt < np.inf)).all():
        raise DomainError("transition requires finite dt >= 0")
    mean = x * np.exp(-params.lam * dt)
    variance = params.sigma**2 * -np.expm1(-2.0 * params.lam * dt) / (2.0 * params.lam)
    return mean, variance


def _step_law(params: OuParams, dt, drift: float = 0.0):
    """``(decay, shift, sd)`` of the exact step over each ``dt``: ``e^{-lam dt}``,
    the mean shift ``d (1 - e^{-lam dt}) / lam`` of a constant SDE drift
    ``d`` (``dX = (-lam X + d) dt + sigma dW``) and the transition sd."""
    decay, variance = transition(params, 1.0, dt)   # the mean from a unit state
    shift = drift * -np.expm1(-params.lam * np.asarray(dt, dtype=float)) / params.lam
    return decay, shift, np.sqrt(variance)


def _walk(params: OuParams, x, steps, shocks, drift: float = 0.0) -> list:
    """Exact recursion ``x <- decay_k x + shift_k + shock_k`` from ``x`` (scalar
    or array) over consecutive ``steps``; ``shocks`` yields each step's
    zero-mean noise in order.  Returns the state after each step."""
    decay, shift, _ = _step_law(params, steps, drift)
    states = []
    for a, b, e in zip(decay.tolist(), shift.tolist(), shocks):
        x = a * x + b + e
        states.append(x)
    return states


def sample_transition(params: OuParams, x, dt, rng: np.random.Generator, drift: float = 0.0):
    """Draw ``X_{t+dt}`` given ``X_t = x`` from the exact transition over one
    step ``dt``; ``drift`` is the constant SDE drift of ``_step_law``."""
    noise = _step_law(params, dt)[2] * rng.standard_normal(np.shape(x))
    return _walk(params, x, [dt], [noise], drift)[0]


def simulate(params: OuParams, grid, seed: int) -> np.ndarray:
    """Simulate one path on ``grid`` by exact-transition sampling (no Euler bias),
    returning its value at each grid point.

    The grid must be strictly increasing and start at 0, where the path
    takes the value ``params.x0``.  Reproducible for a fixed seed.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("grid must be a non-empty 1-d array")
    if not np.isfinite(grid).all():
        raise DomainError("grid times must be finite")
    if grid[0] != 0.0:
        raise DomainError(f"grid must start at 0, got {grid[0]}")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be strictly increasing")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")

    return _sample_path(params, np.diff(grid), np.random.default_rng(seed))


def _sample_path(params: OuParams, steps: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact path from ``params.x0`` over consecutive ``steps``, one standard
    normal per step from ``rng``; returns the ``steps.size + 1`` values."""
    shocks = _step_law(params, steps)[2] * rng.standard_normal(steps.size)
    return np.array([params.x0] + _walk(params, params.x0, steps, shocks.tolist()), dtype=float)


def fit_mle(series, dt: float) -> OuParams:
    """Maximum likelihood ``(lambda, sigma)`` from equally spaced observations.

    Maximises the exact Gaussian AR(1) likelihood with zero long-run mean,
    conditioning on the first observation:
    ``X_{k+1} | X_k ~ N(X_k a, sigma^2 (1 - a^2) / (2 lambda))`` with
    ``a = e^{-lambda dt}``.  The profile over ``a`` is closed form
    (least squares through the origin), then ``lambda = -ln(a)/dt`` and
    the variance estimate is inverted for ``sigma``.  ``x0`` is set to the
    first observation.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise EstimationError(f"need at least 3 observations, got {x.size}")
    if not dt > 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if not np.all(np.isfinite(x)):
        raise EstimationError("sample contains non-finite values")

    prev, nxt = x[:-1], x[1:]
    denom = float(prev @ prev)
    if denom == 0.0:
        raise EstimationError("non-mean-reverting sample: degenerate (all-zero) series")
    a_hat = float(prev @ nxt) / denom
    if not np.isfinite(a_hat) or a_hat <= 0.0 or a_hat >= 1.0:
        raise EstimationError(f"non-mean-reverting sample: AR coefficient estimate {a_hat}")

    lam = -np.log(a_hat) / dt
    resid = nxt - a_hat * prev
    v_hat = float(resid @ resid) / resid.size
    sigma = np.sqrt(v_hat * 2.0 * lam / (1.0 - a_hat**2))
    return OuParams(lam=float(lam), sigma=float(sigma), x0=float(x[0]))
