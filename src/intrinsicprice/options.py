"""European options on futures for two tractable volatility structures.

When the forward-curve integrand is deterministic the futures price is
normally distributed and options price by the normal (Bachelier-style)
formula.  When the integrand is proportional to the forward itself the
futures price is lognormal and the Black-76 formula applies.

The lognormal ``d_pm`` is implemented in two variants: ``verbatim`` puts
the full integrated variance ``v`` in the numerator, ``conventional``
uses ``v/2`` as in the standard Black-76 derivation.  The Monte Carlo
engine adjudicates between them: the conventional variant, the default,
is the one consistent with the lognormal forward representation; the
verbatim one stays available as ``conventional=False``.

The variance itself, :func:`integrated_vol`, integrates the squared
forward-curve integrand on arrays: each round of its adaptive
Gauss-Legendre quadrature (a 25- and a 48-point rule on every open
subinterval) makes one call of the integrand on all nodes at once, so
it needs numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

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


_RTOL = 1e-8
_MAX_INTERVALS = 200


@functools.cache
def _gauss_pair() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of the 25- and 48-point Gauss-Legendre rules on [-1, 1], the
    25 first, and the weights of each rule.

    One rule has a node at the centre and the other has not: two symmetric
    rules without one both put weight exactly 1 on each side of the centre,
    so a jump between their innermost nodes gives them the same wrong value.
    """
    from numpy.polynomial.legendre import leggauss

    x25, w25 = leggauss(25)
    x48, w48 = leggauss(48)
    return np.concatenate([x25, x48]), w25, w48


def _squared_norms(phi, s: np.ndarray) -> np.ndarray:
    """``|phi(s)|^2`` at each time of the 1-d array ``s``."""
    v = np.asarray(phi(s), dtype=float)
    sq = v * v
    if sq.ndim == 2:
        sq = sq.sum(axis=1)
    if sq.shape not in ((), s.shape):
        raise DomainError(f"integrand must return a scalar or one value or row per time, "
                          f"got shape {v.shape} for {s.size} times")
    return np.broadcast_to(sq, s.shape)


def integrated_vol(phi, u: float, t: float) -> float:
    """Integrated volatility ``sqrt(int_u^t |phi(s)|^2 ds)`` of a deterministic,
    possibly vector-valued integrand.

    ``phi`` takes a 1-d float array of times and returns one value per time
    (shape ``(n,)``), one row per time for a vector integrand (shape
    ``(n, k)``, whose squares are summed over ``k``), or a scalar, which
    holds at every time.  The integral is adaptive Gauss-Legendre
    quadrature to a relative tolerance of 1e-8: each round calls ``phi``
    once, on the nodes of the 25- and 48-point rules over every open
    subinterval, keeps a subinterval whose two rules differ by at most
    ``1e-8 * |estimate| * length / (t - u)`` and adds its 48-point value,
    and halves every other one.  The bounds must be finite.  A non-finite
    integrand or integral raises :class:`NumericError`, and so does a round
    that would need more than 200 subintervals.
    """
    if not (math.isfinite(u) and math.isfinite(t)):
        raise DomainError(f"integration bounds must be finite, got u={u}, t={t}")
    if u > t:
        raise DomainError(f"integration bounds out of order: u={u} > t={t}")
    if u == t:
        return 0.0
    nodes, w25, w48 = _gauss_pair()
    lo, hi = np.array([u], dtype=float), np.array([t], dtype=float)
    total, kept = 0.0, 0
    while True:
        half = 0.5 * (hi - lo)
        s = (lo + half)[:, None] + half[:, None] * nodes
        f = _squared_norms(phi, s.ravel()).reshape(s.shape)
        g25 = half * (f[:, :w25.size] @ w25)
        g48 = half * (f[:, w25.size:] @ w48)
        estimate = total + g48.sum()
        if not math.isfinite(estimate):
            raise NumericError(f"integrated variance over [{u}, {t}] is not finite: {estimate}")
        done = np.abs(g48 - g25) <= _RTOL * abs(estimate) * ((hi - lo) / (t - u))
        total += g48[done].sum()
        kept += np.count_nonzero(done)
        if done.all():
            return math.sqrt(total)
        lo, hi = lo[~done], hi[~done]
        if kept + 2 * lo.size > _MAX_INTERVALS:
            raise NumericError(f"integrated variance over [{u}, {t}] did not reach relative "
                               f"tolerance {_RTOL:g} within {_MAX_INTERVALS} subintervals")
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])


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


def black76_call(inp: LognormalOptionInputs, conventional: bool = True) -> float:
    """Call on a lognormal futures price.

    ``conventional=True`` (the default) uses half the integrated variance
    in the ``d_pm`` numerator (standard Black-76); ``conventional=False``
    uses all of it.  ``var_integral = 0`` degenerates to the discounted
    intrinsic value.
    """
    df = math.exp(-inp.rate * inp.span)
    if inp.var_integral == 0.0:
        return df * max(inp.forward - inp.strike, 0.0)
    d_plus, d_minus = _d_plus_minus(inp, conventional)
    return df * (inp.forward * _norm_cdf(d_plus) - inp.strike * _norm_cdf(d_minus))


def black76_put(inp: LognormalOptionInputs, conventional: bool = True) -> float:
    df = math.exp(-inp.rate * inp.span)
    if inp.var_integral == 0.0:
        return df * max(inp.strike - inp.forward, 0.0)
    d_plus, d_minus = _d_plus_minus(inp, conventional)
    return df * (inp.strike * _norm_cdf(-d_minus) - inp.forward * _norm_cdf(-d_plus))
