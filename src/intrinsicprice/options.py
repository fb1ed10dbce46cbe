"""European options on futures for two tractable volatility structures.

When the forward-curve integrand is deterministic the futures price is
normally distributed and options price by the normal (Bachelier-style)
formula.  When the integrand is proportional to the forward itself the
futures price is lognormal and the Black-76 formula applies.

The lognormal ``d_pm`` is implemented in two variants: ``verbatim`` puts
the full integrated variance ``v`` in the numerator, ``conventional``
uses ``v/2`` as in the standard Black-76 derivation.  The Monte Carlo
engine adjudicates between them (the conventional variant is the one
consistent with the lognormal forward representation); both remain
available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_SQRT_TWO = math.sqrt(2.0)


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT_TWO)


@dataclass(frozen=True)
class NormalOptionInputs:
    """Forward, strike, integrated standard deviation over the option life,
    discount span in hours, and hourly rate."""

    forward: float
    strike: float
    sigma_ut: float
    span: float
    rate: float = 0.0

    def __post_init__(self):
        if self.sigma_ut < 0:
            raise DomainError(f"integrated std dev must be non-negative, got {self.sigma_ut}")
        if self.span < 0:
            raise DomainError(f"discount span must be non-negative, got {self.span}")


@dataclass(frozen=True)
class LognormalOptionInputs:
    """Forward, strike, integrated variance over the option life,
    discount span in hours, and hourly rate."""

    forward: float
    strike: float
    var_integral: float
    span: float
    rate: float = 0.0

    def __post_init__(self):
        if self.var_integral < 0:
            raise DomainError(f"integrated variance must be non-negative, got {self.var_integral}")
        if self.span < 0:
            raise DomainError(f"discount span must be non-negative, got {self.span}")
        if not self.forward > 0:
            raise DomainError(f"lognormal model needs forward > 0, got {self.forward}")
        if not self.strike > 0:
            raise DomainError(f"lognormal model needs strike > 0, got {self.strike}")


def integrated_vol(phi, u: float, t: float) -> float:
    """Integrated volatility ``sqrt(int_u^t |phi(s)|^2 ds)`` of a deterministic,
    possibly vector-valued integrand, by adaptive quadrature (rel. tol 1e-8)."""
    if u > t:
        raise DomainError(f"integration bounds out of order: u={u} > t={t}")
    if u == t:
        return 0.0

    from scipy.integrate import quad

    def squared_norm(s: float) -> float:
        v = np.atleast_1d(np.asarray(phi(s), dtype=float))
        return float(v @ v)

    value, _ = quad(squared_norm, u, t, epsrel=1e-8, limit=200)
    return math.sqrt(value)


def bachelier_call(inp: NormalOptionInputs) -> float:
    """Call on a normally distributed futures price; degenerates to the
    discounted intrinsic value when ``sigma_ut = 0``."""
    df = math.exp(-inp.rate * inp.span)
    if inp.sigma_ut == 0.0:
        return df * max(inp.forward - inp.strike, 0.0)
    d = (inp.forward - inp.strike) / inp.sigma_ut
    return df * (inp.forward - inp.strike) * _norm_cdf(d) + df * inp.sigma_ut * _norm_pdf(d)


def bachelier_put(inp: NormalOptionInputs) -> float:
    df = math.exp(-inp.rate * inp.span)
    if inp.sigma_ut == 0.0:
        return df * max(inp.strike - inp.forward, 0.0)
    d = (inp.forward - inp.strike) / inp.sigma_ut
    return df * (inp.strike - inp.forward) * _norm_cdf(-d) + df * inp.sigma_ut * _norm_pdf(d)


def _d_plus_minus(inp: LognormalOptionInputs, conventional: bool) -> tuple[float, float]:
    v = inp.var_integral
    num = math.log(inp.forward) - math.log(inp.strike)
    shift = 0.5 * v if conventional else v
    root = math.sqrt(v)
    return (num + shift) / root, (num - shift) / root


def black76_call(inp: LognormalOptionInputs, conventional: bool = False) -> float:
    """Call on a lognormal futures price.

    ``conventional=False`` uses the full integrated variance in the
    ``d_pm`` numerator; ``conventional=True`` uses half of it (standard
    Black-76).  ``var_integral = 0`` degenerates to the discounted
    intrinsic value.
    """
    df = math.exp(-inp.rate * inp.span)
    if inp.var_integral == 0.0:
        return df * max(inp.forward - inp.strike, 0.0)
    d_plus, d_minus = _d_plus_minus(inp, conventional)
    return df * (inp.forward * _norm_cdf(d_plus) - inp.strike * _norm_cdf(d_minus))


def black76_put(inp: LognormalOptionInputs, conventional: bool = False) -> float:
    df = math.exp(-inp.rate * inp.span)
    if inp.var_integral == 0.0:
        return df * max(inp.strike - inp.forward, 0.0)
    d_plus, d_minus = _d_plus_minus(inp, conventional)
    return df * (inp.strike * _norm_cdf(-d_minus) - inp.forward * _norm_cdf(-d_plus))
