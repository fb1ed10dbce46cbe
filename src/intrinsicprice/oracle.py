"""Brute-force Monte Carlo verification of every closed-form price.

Terminal quantities are sampled with exact OU transitions so that any
disagreement measures formula error, not discretisation error; fine Euler
grids appear only in the pathwise representation check.  Every estimator
that moves the state draws its exact walk through ``_walk_job``, and the
three martingale checks share one tower loop, ``_tower_checks``, each
giving only its quote and closed form.  Estimates are produced in
fixed-size batches, each drawing from an independent substream of the
master seed, with a fixed reduction order, so a given seed is bitwise
reproducible.

The batch substreams of a seed do not depend on how many normals a path
takes, and a draw fills row by row, so a job of ``k`` normals per path
reads the first ``m k`` normals of each batch's stream.  Jobs of one
``(seed, n_paths)`` stream therefore share one draw of it (``_run_jobs``):
the stream is drawn as wide as the widest job, in chunks one chunk ahead
on one helper thread while the main thread values the chunk before
(``_draw_ahead``), and each job values its own rows of each chunk and sums
its own whole-batch values, so its estimate is the one drawing alone
gives, bit for bit.  An estimator is a ``_Plan`` of such jobs, and
``_run_plans`` values every plan: one plan for an ``mc_*`` call or a
martingale step, all of them at once for ``run_verification_suite``.

A mutation mode (``McConfig.mutation_drift``) adds a constant drift to
every simulated dynamic; agreement checks must demonstrably fail under
it, which proves they have statistical power.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from operator import itemgetter
from typing import Callable

import numpy as np

from .conventions import DeliverySet, discount
from .errors import DomainError, NumericError
from .measure import _terminal_density, risk_premium, to_risk_neutral_state
from .model import (ModelQ, forward_price, futures_price, intraday_price,
                    day_ahead_price, intrinsic_price, price_generating,
                    required_state_times, tradable_price)
from .options import (LognormalOptionInputs, NormalOptionInputs,
                      bachelier_call, bachelier_put, black76_call, black76_put)
from .ou import OuParams, _step_law, _walk, transition
from .seasonality import evaluate

_BATCH = 1 << 18
_BLOCK = 1 << 15       # rows of a batch valued at a time
_CHUNK = 3 << 17       # normals of a batch's stream drawn, one chunk ahead, at a time
_STREAM_JOBS = 3       # jobs valued from one draw of a stream: bounds the batch values held
_DENSITY_STEPS = 8     # grid intervals of the two density estimators


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 1_000_000
    seed: int = 0
    time_step: float = 1e-3        # pathwise representation checks only
    mutation_drift: float = 0.0    # constant drift injected into simulated dynamics

    def __post_init__(self):
        if self.n_paths < 2:
            raise DomainError(f"need at least 2 paths, got {self.n_paths}")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        if not self.time_step > 0:
            raise DomainError(f"time step must be positive, got {self.time_step}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int

    def __post_init__(self):
        if self.std_error < 0:
            raise DomainError("standard error cannot be negative")


@dataclass(frozen=True)
class OracleCheck:
    """One closed-form-versus-Monte-Carlo comparison."""

    name: str
    closed_form: float
    estimate: McEstimate
    informational: bool = False   # reported but not counted as a failure

    @property
    def z(self) -> float:
        gap = self.estimate.mean - self.closed_form
        if self.estimate.std_error == 0.0:
            # deterministic case: equality up to accumulation rounding
            scale = max(abs(self.closed_form), abs(self.estimate.mean), 1e-300)
            return 0.0 if abs(gap) <= 1e-12 * scale else math.inf
        return gap / self.estimate.std_error

    @property
    def passed(self) -> bool:
        return abs(self.z) <= 3.0

    def report_line(self) -> str:
        verdict = "recorded" if self.informational else ("PASS" if self.passed else "FAIL")
        return (f"{self.name:<42s} closed={self.closed_form:+.6f} "
                f"mc={self.estimate.mean:+.6f} se={self.estimate.std_error:.2e} "
                f"z={self.z:+8.2f} {verdict}")


def format_report(checks) -> str:
    return "\n".join(c.report_line() for c in checks)


def all_passed(checks) -> bool:
    return all(c.passed for c in checks if not c.informational)


def _draw_ahead(draws):
    """Yield ``draw()`` for each thunk of ``draws`` in turn, the next thunk
    running on one helper thread while the caller works on this result.

    The thread runs one thunk at a time, in order, so thunks sharing a
    generator draw the same numbers as calling them one by one.
    ``Generator.standard_normal`` releases the GIL, so a draw overlaps the
    caller's work.  The thread is joined when the generator ends or is
    closed; callers close it with ``contextlib.closing``, so that an error
    in their own work joins it too."""
    from concurrent.futures import ThreadPoolExecutor   # kept out of ``import intrinsicprice``

    with ThreadPoolExecutor(max_workers=1) as pool:
        futures = (pool.submit(draw) for draw in draws)
        pending = next(futures, None)
        for ahead in futures:
            yield pending.result()
            pending = ahead
        if pending is not None:
            yield pending.result()


def _run_jobs(cfg: McConfig, jobs) -> list[McEstimate]:
    """For each job ``(n_normals, values_fn)``, estimate the mean of
    ``values_fn(Z)`` over standard-normal draws ``Z`` of shape (paths,
    n_normals), all jobs reading one draw of each batch's stream.  The
    variance sums the squared deviations from a shift, the job's first
    value, so equal values have a standard error of exactly 0.  A sum or
    sum of squares that is not finite, as when path values are finite but
    their squares overflow, is a ``NumericError``.

    Each batch of ``_BATCH`` paths draws from its own substream, the one a
    job drew on its own, and a draw of ``k`` columns is the first ``m k``
    normals of that stream.  So the stream is drawn once, as wide as the
    widest job, in chunks of whole rows of every job (at most ``_CHUNK``
    normals and ``_BLOCK`` rows of the widest), one chunk ahead by
    ``_draw_ahead``.  A job values its rows of a chunk, at most ``_BLOCK``
    at a time and without writing to them, while its ``m k`` normals last;
    its batch's values are summed together, so each estimate is the one a
    whole-batch draw of its own gives, bit for bit."""
    n = cfg.n_paths
    strides = [max(k, 1) for k, _ in jobs]     # a job of no columns takes its rows from one
    wide = max(strides)
    step = math.lcm(*strides)
    chunk = max(step, min(_CHUNK, _BLOCK * wide) // step * step)
    sizes = [min(_BATCH, n - start) for start in range(0, n, _BATCH)]
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(cfg.seed).spawn(len(sizes))]
    draws = (partial(rng.standard_normal, min(chunk, m * wide - start))
             for rng, m in zip(rngs, sizes) for start in range(0, m * wide, chunk))
    totals = [0.0] * len(jobs)
    totals_sq = [0.0] * len(jobs)     # of the deviations from ``shifts``
    shifts = []
    with closing(_draw_ahead(draws)) as chunks:
        for m in sizes:
            units = [np.empty(m) for _ in jobs]
            for start in range(0, m * wide, chunk):
                normals = next(chunks)
                for (k, values_fn), stride, out in zip(jobs, strides, units):
                    rows = normals[:max(m * stride - start, 0)].reshape(-1, stride)
                    first = start // stride
                    for r in range(0, len(rows), _BLOCK):
                        block = rows[r:r + _BLOCK, :k]
                        out[first + r:first + r + len(block)] = values_fn(block)
            shifts = shifts or [float(out[0]) for out in units]
            with np.errstate(over="ignore", invalid="ignore"):   # reported below instead
                for j, out in enumerate(units):
                    totals[j] += float(out.sum())
                    out -= shifts[j]
                    totals_sq[j] += float(out @ out)

    estimates = []
    for total, total_sq, shift in zip(totals, totals_sq, shifts):
        if not (math.isfinite(total) and math.isfinite(total_sq)):
            raise NumericError(f"Monte Carlo sums are not finite: sum {total!r}, "
                               f"sum of squares {total_sq!r}")
        mean = total / n
        var = max(total_sq - n * (mean - shift) ** 2, 0.0) / (n - 1)
        estimates.append(McEstimate(mean=mean, std_error=math.sqrt(var / n), n_paths=n))
    return estimates


def _scale(est: McEstimate, factor: float, offset: float = 0.0) -> McEstimate:
    return McEstimate(mean=offset + factor * est.mean,
                      std_error=abs(factor) * est.std_error, n_paths=est.n_paths)


@dataclass(frozen=True)
class _Plan:
    """An estimator as Monte Carlo jobs, each ``(cfg, n_normals, values_fn)``
    for ``_run_jobs``, and ``finish``, which makes the estimator's result
    from their estimates, in order."""

    jobs: list
    finish: Callable = itemgetter(0)


def _run_plans(plans) -> list:
    """The result of each plan.  The jobs of one stream, ``(seed, n_paths)``,
    are valued from one draw in waves of at most ``_STREAM_JOBS``, widest
    first, so no prefix of a stream is drawn twice; each estimate is still
    the one its job gives alone."""
    streams: dict = {}
    for i, plan in enumerate(plans):
        for j, (cfg, k, values_fn) in enumerate(plan.jobs):
            streams.setdefault((cfg.seed, cfg.n_paths), []).append((k, values_fn, i, j))
    estimates = [[None] * len(plan.jobs) for plan in plans]
    for (seed, n_paths), jobs in streams.items():
        jobs.sort(key=lambda job: -job[0])
        for w in range(0, len(jobs), _STREAM_JOBS):
            wave = jobs[w:w + _STREAM_JOBS]
            wave_estimates = _run_jobs(McConfig(n_paths=n_paths, seed=seed),
                                       [(k, values_fn) for k, values_fn, _, _ in wave])
            for (_, _, i, j), est in zip(wave, wave_estimates):
                estimates[i][j] = est
    return [plan.finish(ests) for plan, ests in zip(plans, estimates)]


def _solo(plan: _Plan):
    return _run_plans([plan])[0]


def _walk_job(ou: OuParams, x, steps, cfg: McConfig, payoff):
    """The job estimating the mean of ``payoff(states)``, ``states`` being the
    list of states after each of the exact ``steps`` from ``x`` under the
    mutation drift of ``cfg``; the shock of step ``k`` is its transition sd
    times column ``k`` of the batch's standard normals."""
    sds = _step_law(ou, steps)[2]

    def values(z):
        shocks = np.empty((len(sds), len(z)))      # one pass, and each step's shocks contiguous
        np.multiply(z.T, sds[:, None], out=shocks)
        return payoff(_walk(ou, x, steps, shocks, cfg.mutation_drift))

    return cfg, len(sds), values


def _w_integral_law(ou: OuParams, h: float) -> tuple[float, float, float]:
    """Joint Gaussian of the Brownian increment ``dW`` over a step ``h`` and the
    OU integral ``I = int_0^h e^{-lam (h - s)} dW_s``, as ``(sd_w, slope,
    resid_sd)``: ``dW = sd_w Z1`` and ``I = slope dW + resid_sd Z2`` for
    independent standard normals.  All zero for ``h = 0``."""
    if h <= 0:
        return 0.0, 0.0, 0.0
    var_i = -math.expm1(-2.0 * ou.lam * h) / (2.0 * ou.lam)
    cov = -math.expm1(-ou.lam * h) / ou.lam
    return math.sqrt(h), cov / h, math.sqrt(max(var_i - cov**2 / h, 0.0))


def _w_walk(ou: OuParams, x, h: float, z_w, z_i, drift: float = 0.0):
    """Brownian increments over consecutive steps ``h`` and the exact OU
    states they drive from ``x`` under the constant ``drift``: column ``k``
    of the standard normals ``z_w`` and ``z_i`` draws step ``k``'s ``dW``
    and the rest of its OU integral.  Returns ``(dW, states)``."""
    sd_w, slope, resid_sd = _w_integral_law(ou, h)
    dw = sd_w * z_w
    shocks = ou.sigma * (slope * dw + resid_sd * z_i)   # whole arrays: faster than by column
    return dw, _walk(ou, x, np.full(dw.shape[1], h), shocks.T, drift)


# ---------------------------------------------------------------------------
# direct price estimators
# ---------------------------------------------------------------------------

def _forward_plan(model: ModelQ, t: float, tau: float, x_t: float, cfg: McConfig) -> _Plan:
    horizon = tau + model.conv.epsilon - t
    if not 0 <= horizon < math.inf:
        raise DomainError("mc_forward requires finite times with t <= tau + epsilon")
    g_tau_e = evaluate(model.load_seasonality, tau + model.conv.epsilon)
    return _Plan([_walk_job(model.ou, x_t, [horizon], cfg,
                            lambda states: intrinsic_price(model, g_tau_e + states[0], tau))])


def mc_forward(model: ModelQ, t: float, tau: float, x_t: float, cfg: McConfig) -> McEstimate:
    """Estimate the conditional expectation of the settlement price by
    drawing the ex-post driver state in a single exact transition."""
    return _solo(_forward_plan(model, t, tau, x_t, cfg))


def mc_tradable(model: ModelQ, t: float, tau: float, x_t: float, cfg: McConfig) -> McEstimate:
    return _scale(mc_forward(model, t, tau, x_t, cfg),
                  discount(t, tau + model.conv.epsilon, model.conv))


def _day_ahead_tower_plan(model: ModelQ, tau: float, x_at_fix: float, cfg: McConfig) -> _Plan:
    conv = model.conv
    closed = math.exp(conv.hourly_rate * conv.delta) * day_ahead_price(model, tau, x_at_fix)
    return _Plan([_walk_job(model.ou, x_at_fix, [conv.delta], cfg,
                            lambda states: intraday_price(model, tau, states[0]))],
                 lambda ests: OracleCheck("day-ahead tower identity", closed, ests[0]))


def mc_day_ahead_tower(model: ModelQ, tau: float, x_at_fix: float, cfg: McConfig) -> OracleCheck:
    """Average at-delivery quote from the fixing state against
    ``e^{r delta} S(tau)``."""
    return _solo(_day_ahead_tower_plan(model, tau, x_at_fix, cfg))


def _futures_plan(model: ModelQ, t: float, deliveries: DeliverySet, x_t: float,
                  cfg: McConfig) -> _Plan:
    conv = model.conv
    taus = deliveries.taus
    if not -math.inf < t <= taus[0] - conv.delta:
        raise DomainError("mc_futures requires a finite t at or before the first fixing")
    steps = np.diff(taus + conv.epsilon, prepend=t)
    g_vals = evaluate(model.load_seasonality, taus + conv.epsilon)
    weight = math.exp(-conv.hourly_rate * (conv.delta + conv.epsilon)) / taus.size
    return _Plan([_walk_job(model.ou, x_t, steps, cfg, lambda states: weight * sum(
        intrinsic_price(model, g + x, tau) for g, x, tau in zip(g_vals, states, taus)))])


def mc_futures(model: ModelQ, t: float, deliveries: DeliverySet, x_t: float,
               cfg: McConfig) -> McEstimate:
    """Average the discounted settlement payoff of the delivery strip;
    only valid before the first fixing, where the closed form needs a
    single state."""
    return _solo(_futures_plan(model, t, deliveries, x_t, cfg))


# ---------------------------------------------------------------------------
# risk premium estimators
# ---------------------------------------------------------------------------

def _risk_premium_plan(model: ModelQ, theta: float, t: float, tau: float,
                       x_tilde_t: float, cfg: McConfig) -> _Plan:
    if t > tau:
        raise DomainError("mc_risk_premium requires t <= tau")
    closed = risk_premium(model, theta, t, tau, x_tilde_t)   # checks t and tau first
    ou = model.ou
    span = tau - t
    f_t = forward_price(model, t, tau, to_risk_neutral_state(x_tilde_t, ou, theta, t))

    # (a) direct: real-world transition of the centred deviation, exact shift at tau
    tau_shift = to_risk_neutral_state(0.0, ou, theta, tau, mode="exact")
    direct_job = _walk_job(ou, x_tilde_t, [span], cfg,
                           lambda states: intraday_price(model, tau, states[0] + tau_shift))

    # (b) density-weighted: pricing-measure sampling of (W increment, OU integral)
    density_drift = ou.lam * theta
    x_q = to_risk_neutral_state(x_tilde_t, ou, theta, t, mode="exact")

    def values_weighted(z):
        dw, (x_tau,) = _w_walk(ou, x_q, span, z[:, :1], z[:, 1:], cfg.mutation_drift)
        return _terminal_density(density_drift, dw, span) * intraday_price(model, tau, x_tau)

    def finish(ests):
        direct, weighted = (_scale(est, -1.0, offset=f_t) for est in ests)
        joint = McEstimate(mean=weighted.mean,
                           std_error=math.hypot(direct.std_error, weighted.std_error),
                           n_paths=weighted.n_paths)
        return [
            OracleCheck("risk premium (direct real-world MC)", closed, direct),
            OracleCheck("risk premium (density-weighted MC)", closed, weighted),
            OracleCheck("risk premium estimator cross-check", direct.mean, joint,
                        informational=True),
        ]

    return _Plan([direct_job, (replace(cfg, seed=cfg.seed + 1), 2, values_weighted)], finish)


def mc_risk_premium(model: ModelQ, theta: float, t: float, tau: float,
                    x_tilde_t: float, cfg: McConfig) -> list[OracleCheck]:
    """Two independent premium estimators against the closed form, then the
    one against the other.

    ``direct`` simulates the deseasonalised deviation under the real-world
    dynamics and maps it to the driver with the exact shift; ``weighted``
    samples under the pricing measure and reweights by the density
    process.  The cross-check is recorded, not counted: an error in one
    estimator already fails its own check, and one common to both (as the
    mutation drift is) moves both alike."""
    return _solo(_risk_premium_plan(model, theta, t, tau, x_tilde_t, cfg))


# ---------------------------------------------------------------------------
# option estimators
# ---------------------------------------------------------------------------

def _option_plan(inputs, payoff: str, cfg: McConfig) -> _Plan:
    if payoff not in ("call", "put"):
        raise DomainError(f"payoff must be 'call' or 'put', got {payoff!r}")
    if not isinstance(inputs, (NormalOptionInputs, LognormalOptionInputs)):
        raise DomainError(f"unsupported option inputs type {type(inputs).__name__}")
    sign = 1.0 if payoff == "call" else -1.0
    df = math.exp(-inputs.rate * inputs.span)
    bump = cfg.mutation_drift * inputs.span

    if isinstance(inputs, NormalOptionInputs):
        def values(z):
            f_end = inputs.forward + bump + inputs.sigma_ut * z[:, 0]
            return df * np.maximum(sign * (f_end - inputs.strike), 0.0)
    else:
        root_v = math.sqrt(inputs.var_integral)

        def values(z):
            f_end = inputs.forward * np.exp(-0.5 * inputs.var_integral + root_v * z[:, 0] + bump)
            return df * np.maximum(sign * (f_end - inputs.strike), 0.0)

    return _Plan([(cfg, 1, values)])


def mc_option(inputs, payoff: str, cfg: McConfig) -> McEstimate:
    """Average discounted payoff for the normal or lognormal futures law.

    Mutation shifts the location by ``mutation_drift * span`` (additively
    for the normal family, in the log for the lognormal one).
    """
    return _solo(_option_plan(inputs, payoff, cfg))


def _lognormal_forward_plan(f0: float, var_integral: float, cfg: McConfig) -> _Plan:
    root_v = math.sqrt(var_integral)

    def values(z):
        return f0 * np.exp(-0.5 * var_integral + root_v * z[:, 0])

    return _Plan([(cfg, 1, values)])


def mc_lognormal_forward(f0: float, var_integral: float, cfg: McConfig) -> McEstimate:
    """Mean of the lognormal forward representation (must reproduce ``f0``)."""
    return _solo(_lognormal_forward_plan(f0, var_integral, cfg))


# ---------------------------------------------------------------------------
# density / measure-change checks
# ---------------------------------------------------------------------------

def _density_unit_mean_plan(ou: OuParams, theta: float, horizon: float,
                            cfg: McConfig) -> _Plan:
    if not 0 <= horizon < math.inf:
        raise DomainError(f"density horizon must be finite and non-negative, got {horizon}")
    h = horizon / _DENSITY_STEPS
    sqrt_h = math.sqrt(h)
    density_drift = ou.lam * theta

    def values(z):
        return _terminal_density(density_drift, sqrt_h * z + cfg.mutation_drift * h, horizon)

    return _Plan([(cfg, _DENSITY_STEPS, values)],
                 lambda ests: OracleCheck("density process unit mean", 1.0, ests[0]))


def mc_density_unit_mean(ou: OuParams, theta: float, horizon: float,
                         cfg: McConfig) -> OracleCheck:
    """The density process has unit expectation at the horizon.  Mutation
    adds ``mutation_drift * h`` to each Brownian increment over a step ``h``."""
    return _solo(_density_unit_mean_plan(ou, theta, horizon, cfg))


def _girsanov_moments_plan(ou: OuParams, theta: float, horizon: float,
                           cfg: McConfig) -> _Plan:
    h = horizon / _DENSITY_STEPS
    density_drift = ou.lam * theta
    mean_p, var_p = transition(ou, ou.x0, horizon)

    def terminal(z):
        # centred deviation under P: the pricing-measure path with drift -lam sigma theta
        dw, states = _w_walk(ou, ou.x0, h, z[:, :_DENSITY_STEPS], z[:, _DENSITY_STEPS:],
                             -ou.lam * ou.sigma * theta + cfg.mutation_drift)
        return states[-1], _terminal_density(density_drift, dw, horizon)

    def values_mean(z):
        x, nu = terminal(z)
        return nu * x

    def values_second(z):
        x, nu = terminal(z)
        return nu * x * x

    return _Plan([(cfg, 2 * _DENSITY_STEPS, values_mean),
                  (replace(cfg, seed=cfg.seed + 1), 2 * _DENSITY_STEPS, values_second)],
                 lambda ests: [
                     OracleCheck("density-weighted mean of real-world deviation",
                                 mean_p, ests[0]),
                     OracleCheck("density-weighted second moment of real-world deviation",
                                 var_p + mean_p**2, ests[1]),
                 ])


def mc_girsanov_moments(ou: OuParams, theta: float, horizon: float,
                        cfg: McConfig) -> list[OracleCheck]:
    """Weighting pricing-measure samples by the density must reproduce the
    real-world mean and variance of the centred deviation.  Mutation adds
    ``mutation_drift`` to the drift of the simulated deviation."""
    return _solo(_girsanov_moments_plan(ou, theta, horizon, cfg))


# ---------------------------------------------------------------------------
# martingale checks (nested simulation)
# ---------------------------------------------------------------------------

def _tower_checks(model: ModelQ, label: str, t_list, x_start, cfg: McConfig,
                  needs, quote, closed) -> list[OracleCheck]:
    """For consecutive checkpoints ``t < u`` of the strictly increasing
    ``t_list``, the Monte Carlo mean of ``quote(u, states)`` from a fixed
    state at ``t`` against ``closed(t, backbone)``.

    The backbone is the conditional mean (zero shocks) from ``x_start``, or
    from ``x0`` when ``x_start`` is ``None``, under the mutation drift,
    through the checkpoints and every time ``needs(u)`` names.  ``states``
    maps the times of ``needs(u)`` past ``t`` to their states on the exact
    walk from the backbone at ``t``, and earlier times to the backbone."""
    t_list = [float(t) for t in t_list]
    if not all(-math.inf < a < b < math.inf for a, b in zip(t_list, t_list[1:])):
        raise DomainError("t_list must be finite and strictly increasing")
    times = sorted(set(t_list).union(*map(needs, t_list[1:])))
    x = model.ou.x0 if x_start is None else float(x_start)
    backbone = dict(zip(times, [x] + _walk(model.ou, x, np.diff(times), [0.0] * (len(times) - 1),
                                           cfg.mutation_drift)))
    checks = []
    for t, u in zip(t_list, t_list[1:]):
        ahead = [s for s in needs(u) if s > t]
        estimate = _solo(_Plan([_walk_job(model.ou, backbone[t], np.diff([t] + ahead), cfg,
                                          lambda drawn: quote(u, {**backbone,
                                                                  **dict(zip(ahead, drawn))}))]))
        checks.append(OracleCheck(f"{label} martingale {t:g}h -> {u:g}h",
                                  closed(t, backbone), estimate))
    return checks


def mc_martingale_check(model: ModelQ, t_list, tau: float, cfg: McConfig,
                        x_start: float | None = None,
                        discounted: bool = False) -> list[OracleCheck]:
    """For consecutive times the conditional average of the later forward
    (or discounted tradable) price must equal the earlier one.

    States along the checkpoints follow the conditional mean, so every
    comparison is a genuine conditional expectation test from a fixed
    state.
    """
    if float(t_list[-1]) > tau + model.conv.epsilon:
        raise DomainError("martingale checkpoints must not pass tau + epsilon")
    r_h = model.conv.hourly_rate

    def quote(t, states):
        if discounted:
            return np.exp(-r_h * np.asarray(t)) * tradable_price(model, t, tau, states[t])
        return forward_price(model, t, tau, states[t])

    label = "discounted tradable" if discounted else "forward"
    return _tower_checks(model, label, t_list, x_start, cfg, lambda u: [u], quote,
                         lambda t, backbone: float(quote(t, backbone)))


def mc_futures_martingale(model: ModelQ, t_list, deliveries: DeliverySet, cfg: McConfig,
                          x_start: float | None = None) -> list[OracleCheck]:
    """Same tower test for the futures price, crossing fixing times.

    The quote at ``u`` is the weighted sum of the forwards at ``min(u,
    fixing)``, so a delivery fixed by ``t`` contributes its forward frozen
    at the backbone state of its fixing.
    """
    conv = model.conv
    taus = deliveries.taus
    if taus[0] - conv.delta < float(t_list[0]):
        raise DomainError("first checkpoint must not lie beyond the first fixing")
    weight = math.exp(-conv.hourly_rate * (conv.delta + conv.epsilon)) / taus.size

    def quote(u, states):
        # fixings increase, so the frozen terms are summed first
        return sum(weight * forward_price(model, min(u, f), tau, states[min(u, f)])
                   for f, tau in zip((taus - conv.delta).tolist(), taus.tolist()))

    return _tower_checks(model, "futures", t_list, x_start, cfg,
                         lambda u: required_state_times(u, deliveries, conv), quote,
                         lambda t, backbone: futures_price(model, t, deliveries, backbone))


# ---------------------------------------------------------------------------
# pathwise representation check
# ---------------------------------------------------------------------------

def euler_representation_error(model: ModelQ, tau: float, t0: float, span: float,
                               cfg: McConfig, x_t0: float) -> dict[float, float]:
    """Mean absolute gap between exact forward increments and the Euler sum
    of the representation integrand, per step size ``(1, 2, 4) *
    cfg.time_step``, all on one shared Brownian path per draw."""
    h_fine = cfg.time_step
    n_fine = int(round(span / h_fine))
    if abs(n_fine * h_fine - span) > 1e-12 * span or n_fine % 4:
        raise DomainError("span must be a whole number of 4 * cfg.time_step")
    factors = (1, 2, 4)

    rng = np.random.default_rng(cfg.seed)

    def draw(m):
        return rng.standard_normal((m, n_fine)), rng.standard_normal((m, n_fine))  # dW first

    batch = 65536
    draws = (partial(draw, min(batch, cfg.n_paths - done))
             for done in range(0, cfg.n_paths, batch))
    sums = [0.0] * len(factors)
    with closing(_draw_ahead(draws)) as batches:
        for z_w, z_i in batches:
            m = len(z_w)
            dw, states = _w_walk(model.ou, x_t0, h_fine, z_w, z_i)
            x = [x_t0] + states
            df = forward_price(model, t0 + span, tau, x[-1]) - forward_price(model, t0, tau, x[0])
            dw_coarse = [dw.reshape(m, n_fine // fac, fac).sum(axis=2) for fac in factors]
            totals = [np.zeros(m) for _ in factors]
            for k in range(n_fine):
                # the integrand at fine step k serves every step size that starts there
                integrand = price_generating(model, t0 + k * h_fine, tau, x[k])
                for fac, dw_c, total in zip(factors, dw_coarse, totals):
                    if k % fac == 0:
                        total += integrand * dw_c[:, k // fac]
            for i, total in enumerate(totals):
                sums[i] += float(np.abs(df - total).sum())
    return {fac * h_fine: err / cfg.n_paths for fac, err in zip(factors, sums)}


# ---------------------------------------------------------------------------
# standard verification suite
# ---------------------------------------------------------------------------

def run_verification_suite(model: ModelQ, theta: float, cfg: McConfig,
                           nested_paths: int = 100_000) -> list[OracleCheck]:
    """Closed-form/oracle agreement for every priced quantity, the
    martingale suite, the measure-change identities, and the lognormal
    ``d_pm`` adjudication.  Nested (martingale) checks run at
    ``nested_paths`` paths; everything else at ``cfg.n_paths``, each
    estimate equal to that of its ``mc_*`` estimator, but valued by
    ``_run_plans`` so that the estimators of one stream share its draws."""
    conv = model.conv
    ou = model.ou
    tau = 90.0 * conv.delta             # delivery ~3 months into the series
    x_ref = math.sqrt(ou.stationary_variance)
    nested_cfg = replace(cfg, n_paths=min(cfg.n_paths, nested_paths))
    t = tau - 168.0
    strip = DeliverySet.from_hours([tau + k for k in range(24)])
    t_fut = tau - conv.delta - 48.0
    f_ref = forward_price(model, t, tau, x_ref)
    normal_inp = NormalOptionInputs(forward=f_ref, strike=0.95 * f_ref, sigma_ut=0.1 * f_ref,
                                    span=24.0, rate=conv.hourly_rate)
    logn_inp = LognormalOptionInputs(forward=f_ref, strike=0.95 * f_ref, var_integral=0.04,
                                     span=24.0, rate=conv.hourly_rate)

    (forward, intraday, day_ahead, tower, futures, premium, density, girsanov,
     normal_call, normal_put, logn_call, logn_put, logn_forward) = _run_plans([
        _forward_plan(model, t, tau, x_ref, cfg),
        _forward_plan(model, tau, tau, x_ref, cfg),
        _forward_plan(model, tau - conv.delta, tau, x_ref, cfg),
        _day_ahead_tower_plan(model, tau, x_ref, cfg),
        _futures_plan(model, t_fut, strip, x_ref, cfg),
        _risk_premium_plan(model, theta, tau - 168.0, tau, x_ref, cfg),
        _density_unit_mean_plan(ou, theta, 168.0, cfg),
        _girsanov_moments_plan(ou, theta, 96.0, cfg),
        _option_plan(normal_inp, "call", cfg),
        _option_plan(normal_inp, "put", cfg),
        _option_plan(logn_inp, "call", cfg),
        _option_plan(logn_inp, "put", cfg),
        _lognormal_forward_plan(f_ref, 0.04, cfg),
    ])

    checks = [
        OracleCheck("forward price", f_ref, forward),
        # the tradable price is the discounted forward: mc_tradable scales mc_forward
        OracleCheck("tradable price", tradable_price(model, t, tau, x_ref),
                    _scale(forward, discount(t, tau + conv.epsilon, conv))),
        OracleCheck("intraday price (one-period expectation)", intraday_price(model, tau, x_ref),
                    _scale(intraday, discount(tau, tau + conv.epsilon, conv))),
        OracleCheck("day-ahead price (one-day expectation)", day_ahead_price(model, tau, x_ref),
                    _scale(day_ahead, discount(tau - conv.delta, tau + conv.epsilon, conv))),
        tower,
        OracleCheck("futures price (24h strip)",
                    futures_price(model, t_fut, strip, {t_fut: x_ref}), futures),
        *premium,
        density,
        *girsanov,
        OracleCheck("normal option call", bachelier_call(normal_inp), normal_call),
        OracleCheck("normal option put", bachelier_put(normal_inp), normal_put),
        OracleCheck("lognormal option call (conventional d_pm)",
                    black76_call(logn_inp, conventional=True), logn_call),
        OracleCheck("lognormal option call (verbatim d_pm)",
                    black76_call(logn_inp, conventional=False), logn_call, informational=True),
        OracleCheck("lognormal option put (conventional d_pm)",
                    black76_put(logn_inp, conventional=True), logn_put),
        # recorded, not counted: the counted lognormal option checks draw the same
        # law and carry the mutation, which this estimator has no span to scale by
        OracleCheck("lognormal forward unit drift", f_ref, logn_forward, informational=True),
    ]

    checks.extend(mc_martingale_check(model, [tau - 336.0, tau - 168.0, tau - 24.0],
                                      tau, nested_cfg, x_start=x_ref))
    checks.extend(mc_martingale_check(model, [tau - 336.0, tau - 168.0], tau, nested_cfg,
                                      x_start=x_ref, discounted=True))
    checks.extend(mc_futures_martingale(
        model, [t_fut - 96.0, t_fut, float(strip.taus[6]) - conv.delta + 0.5], strip,
        nested_cfg, x_start=x_ref))
    return checks
