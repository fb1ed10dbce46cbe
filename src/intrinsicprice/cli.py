"""Command-line surface tying the pipeline together.

Subcommands: ``simulate``, ``fit-seasonality``, ``fit-ou``, ``calibrate``,
``price``, ``risk-premium``, ``implied-theta``, ``verify``.  Figure-style
outputs are CSV files for external plotting; reports are key/value text.
Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as _dt
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import calibration, data, oracle
from .conventions import (DeliverySet, MarketConventions, _number, _read_pairs, _read_text,
                          load_conventions)
from .errors import DomainError, EstimationError, NumericError, ParseError
from .measure import p_seasonality_from_q, q_seasonality_from_p, risk_premium
from .model import ModelQ, SupplyParams, forward_price, futures_price
from .options import (LognormalOptionInputs, NormalOptionInputs, bachelier_call,
                      bachelier_put, black76_call, black76_put)
from .oracle import McConfig
from .ou import OuParams
from .seasonality import (_CALENDAR_TAGS, COLUMN_NAMES, Calendar, SeasonalityModel,
                          _from_coefficients, load_calendar)

_SEASONALITY_KEYS = ("level", "trend", "sin_annual", "cos_annual")


def _seasonality_to_dict(model: SeasonalityModel) -> dict:
    return {
        **{k: getattr(model, k) for k in _SEASONALITY_KEYS},
        "dow_weights": [float(w) for w in model.dow_weights],
        "hod_weights": [float(w) for w in model.hod_weights],
    }


def _seasonality_from_dict(params: dict, name: str, cal: Calendar,
                           epoch: _dt.date) -> SeasonalityModel:
    d = params[name]
    return SeasonalityModel(
        **{k: _number(d[k], f"{name}.{k}") for k in _SEASONALITY_KEYS},
        dow_weights=np.asarray(d["dow_weights"], dtype=float),
        hod_weights=np.asarray(d["hod_weights"], dtype=float),
        calendar=cal, epoch=epoch)


def model_to_params(model: ModelQ, theta: float) -> dict:
    cal = model.load_seasonality.calendar
    return {
        "epoch": model.load_seasonality.epoch.isoformat(),
        "conventions": dataclasses.asdict(model.conv),
        "ou": {"lambda": model.ou.lam, "sigma": model.ou.sigma, "x0": model.ou.x0},
        "supply": dataclasses.asdict(model.supply),
        "theta": theta,
        "load_seasonality": _seasonality_to_dict(model.load_seasonality),
        "price_seasonality": _seasonality_to_dict(model.price_seasonality),
        "calendar": {tag: sorted(d.isoformat() for d in getattr(cal, name))
                     for tag, name in _CALENDAR_TAGS.items()},
    }


def model_from_params(params: dict) -> tuple[ModelQ, float]:
    try:
        epoch = _dt.date.fromisoformat(params["epoch"])
        cal_dict = params.get("calendar", {})
        cal = Calendar(**{name: frozenset(map(_dt.date.fromisoformat, cal_dict.get(tag, [])))
                          for tag, name in _CALENDAR_TAGS.items()})
        conv = MarketConventions(**{k: _number(v, f"conventions.{k}")
                                    for k, v in params.get("conventions", {}).items()})
        ou_d = params["ou"]
        ou = OuParams(lam=_number(ou_d["lambda"], "ou.lambda"),
                      sigma=_number(ou_d["sigma"], "ou.sigma"),
                      x0=_number(ou_d.get("x0", 0.0), "ou.x0"))
        supply = SupplyParams(**{k: _number(v, f"supply.{k}")
                                 for k, v in params["supply"].items()})
        g = _seasonality_from_dict(params, "load_seasonality", cal, epoch)
        gamma3 = _seasonality_from_dict(params, "price_seasonality", cal, epoch)
        theta = _number(params["theta"], "theta")
    except (DomainError, ParseError):   # ValueErrors whose message already names the value
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed params file: {exc!r}") from exc
    return ModelQ(ou=ou, supply=supply, load_seasonality=g,
                  price_seasonality=gamma3, conv=conv), theta


def load_model_file(path) -> tuple[ModelQ, float]:
    try:
        params = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: not JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    try:
        return model_from_params(params)
    except (DomainError, ParseError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _write_report(path, pairs):
    lines = [f"{key} {float(value)!r}" if isinstance(value, float) else f"{key} {value}"
             for key, value in pairs]
    Path(path).write_text("\n".join(lines) + "\n")


def _seasonality_report_pairs(model: SeasonalityModel):
    return [("epoch", model.epoch.isoformat()),
            *zip(COLUMN_NAMES, model.coefficients().tolist())]


def read_seasonality_report(path, cal: Calendar) -> SeasonalityModel:
    values = {key: (value, where) for where, key, value in _read_pairs(path)}
    try:
        epoch = _dt.date.fromisoformat(values.pop("epoch")[0])
        entries = [values.pop(k) for k in COLUMN_NAMES]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: malformed seasonality report: {exc!r}") from exc
    beta = np.array([_number(value, where) for value, where in entries])
    return _from_coefficients(beta, cal, epoch)


def _finite_float(text: str) -> float:
    """Argparse type for numeric flags: :func:`_number` as a usage error."""
    try:
        return _number(text, "value")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _seed(text: str) -> int:
    """Argparse type for ``--seed``: a non-negative integer in decimal digits."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _path_count(text: str) -> int:
    """Argparse type for ``--paths`` and ``--nested-paths``: at least 2 paths,
    the fewest a standard error needs, in decimal digits."""
    if not (text.isdecimal() and int(text) >= 2):
        raise argparse.ArgumentTypeError(f"expected an integer of at least 2, got {text!r}")
    return int(text)


def _load_calendar_arg(args) -> Calendar:
    return load_calendar(args.calendar) if args.calendar else Calendar()


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    model, theta = load_model_file(args.params)
    noise = (args.noise, args.noise if args.noise_day_ahead is None else args.noise_day_ahead)
    series = data.generate_synthetic(model, theta, args.span, noise, args.seed)
    data.write_series(series, args.out)
    print(f"wrote {len(series)} hourly rows to {args.out}")
    return 0


def _cmd_fit_seasonality(args) -> int:
    series = data.load_series(args.data)
    cal = _load_calendar_arg(args)
    g_tilde = calibration.fit_load_seasonality(series, cal)
    _write_report(args.out, _seasonality_report_pairs(g_tilde))
    print(f"wrote load seasonality report to {args.out}")
    return 0


def _cmd_fit_ou(args) -> int:
    series = data.load_series(args.data)
    cal = _load_calendar_arg(args)
    g_tilde = calibration.fit_load_seasonality(series, cal)
    ou = calibration.fit_ou(series, g_tilde)
    _write_report(args.out, [("lambda", ou.lam), ("sigma", ou.sigma), ("x0", ou.x0),
                             ("observations", len(series))])
    print(f"wrote OU report to {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    series = data.load_series(args.data)
    cal = _load_calendar_arg(args)
    conv = load_conventions(args.conventions) if args.conventions else MarketConventions()
    coverage = data.price_coverage(series)
    for name, info in coverage.items():
        print(f"{name}: {info['present']} quoted hours "
              f"({info['first']} .. {info['last']}), {info['missing']} missing")
    gamma3 = read_seasonality_report(args.gamma3, cal) if args.gamma3 else None
    result = calibration.calibrate(series, cal, conv, gamma3=gamma3)
    pairs = [("lambda", result.ou.lam), ("sigma", result.ou.sigma), ("x0", result.ou.x0),
             ("alpha1", result.supply.alpha1), ("alpha2", result.supply.alpha2),
             ("beta1", result.supply.beta1), ("beta2", result.supply.beta2),
             ("theta", result.theta), ("objective_value", result.objective_value),
             ("iterations", result.diagnostics.iterations),
             ("converged", result.diagnostics.converged),
             ("overflow_evaluations", result.diagnostics.overflow_evaluations)]
    _write_report(args.out, pairs)
    print(f"wrote calibration report to {args.out}")
    if args.params_out:
        model = ModelQ(ou=result.ou, supply=result.supply,
                       load_seasonality=q_seasonality_from_p(
                           result.g_tilde, result.ou, result.theta),
                       price_seasonality=result.gamma3, conv=conv)
        Path(args.params_out).write_text(
            json.dumps(model_to_params(model, result.theta), indent=2) + "\n")
        print(f"wrote fitted model params to {args.params_out}")
    if not result.diagnostics.converged:
        print("warning: optimiser did not reach the gradient tolerance", file=sys.stderr)
    return 0


def _cmd_price(args) -> int:
    if args.contract == "forward":
        model, _ = load_model_file(args.params)
        value = forward_price(model, args.t, args.tau, args.x)
    elif args.contract == "futures":
        model, _ = load_model_file(args.params)
        hours = [_number(h, "--deliveries") for h in args.deliveries.split(",") if h.strip()]
        deliveries = DeliverySet.from_hours(hours)
        first_fix = float(deliveries.taus[0]) - model.conv.delta
        if args.t > first_fix:
            raise DomainError("price futures supports t at or before the first fixing; "
                              f"got t={args.t} > {first_fix}")
        value = futures_price(model, args.t, deliveries, {args.t: args.x})
    else:  # option
        if args.family == "normal":
            inp = NormalOptionInputs(forward=args.forward, strike=args.strike,
                                     sigma_ut=args.sigma_ut, span=args.span, rate=args.rate)
            value = bachelier_put(inp) if args.put else bachelier_call(inp)
        else:
            inp = LognormalOptionInputs(forward=args.forward, strike=args.strike,
                                        var_integral=args.var_integral, span=args.span,
                                        rate=args.rate)
            price = black76_put if args.put else black76_call
            value = price(inp)
    print(repr(float(value)))
    return 0


def _cmd_risk_premium(args) -> int:
    model, theta = load_model_file(args.params)
    if args.t_step <= 0 or args.t_end < args.t_start:
        raise DomainError("need t_step > 0 and t_end >= t_start")
    try:
        n_points = int(np.floor((args.t_end - args.t_start) / args.t_step + 1e-9)) + 1
        t_grid = args.t_start + args.t_step * np.arange(n_points)
    except (OverflowError, ValueError):   # past the float range, or past any array's size
        raise DomainError(f"--t-step {args.t_step!r} gives more grid points than an array "
                          "can hold") from None
    except MemoryError:                   # numpy could not allocate the grid
        raise DomainError(f"--t-step {args.t_step!r} gives {n_points} grid points, more than "
                          "memory can hold") from None
    premium = risk_premium(model, theta, t_grid, args.tau, args.x_tilde)
    lines = ["t,premium"] + [f"{t!r},{pi!r}" for t, pi in zip(t_grid.tolist(), premium.tolist())]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {t_grid.size} premium points to {args.out}")
    return 0


def _cmd_implied_theta(args) -> int:
    model, theta = load_model_file(args.params)
    series = data.load_series(args.data)
    # params files store the pricing-measure shape; the objective wants the real-world fit
    g_tilde = p_seasonality_from_q(model.load_seasonality, model.ou, theta)
    monthly = calibration.implied_theta_monthly(
        series, g_tilde=g_tilde, ou=model.ou, gamma3=model.price_seasonality,
        supply=model.supply, conv=model.conv)
    lines = ["month,theta"] + [f"{d.strftime('%Y-%m')},{value!r}" for d, value in monthly]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(monthly)} monthly theta values to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    if args.params:
        model, theta = load_model_file(args.params)
    else:
        model, theta = data.reference_model()
    cfg = McConfig(n_paths=args.paths, seed=args.seed, mutation_drift=args.mutation)
    checks = oracle.run_verification_suite(model, theta, cfg, nested_paths=args.nested_paths)
    print(oracle.format_report(checks))
    counted = [c for c in checks if not c.informational]
    failures = [c for c in counted if not c.passed]
    print(f"{len(counted) - len(failures)}/{len(counted)} checks passed "
          f"(paths={args.paths}, seed={args.seed}, mutation={args.mutation})")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intrinsicprice",
        description="Structural electricity pricing: simulation, calibration, "
                    "contract valuation, and Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic market data CSV")
    p.add_argument("--params", required=True, help="model params JSON")
    p.add_argument("--span", type=int, required=True, help="hours to simulate")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--noise", type=_finite_float, default=0.5, help="intraday noise sd")
    p.add_argument("--noise-day-ahead", type=_finite_float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-seasonality", help="stage 1: load seasonality report")
    p.add_argument("--data", required=True)
    p.add_argument("--calendar", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_seasonality)

    p = sub.add_parser("fit-ou", help="stage 2: OU parameter report")
    p.add_argument("--data", required=True)
    p.add_argument("--calendar", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_ou)

    p = sub.add_parser("calibrate", help="full pipeline; writes a parameter report")
    p.add_argument("--data", required=True)
    p.add_argument("--calendar", default=None)
    p.add_argument("--conventions", default=None)
    p.add_argument("--gamma3", default=None,
                   help="seasonality report file fixing the price seasonality")
    p.add_argument("--out", required=True)
    p.add_argument("--params-out", default=None,
                   help="also write the fitted model as a params JSON")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("price", help="value a single contract")
    psub = p.add_subparsers(dest="contract", required=True)
    pf = psub.add_parser("forward")
    pf.add_argument("--params", required=True)
    pf.add_argument("--t", type=_finite_float, required=True)
    pf.add_argument("--tau", type=_finite_float, required=True)
    pf.add_argument("--x", type=_finite_float, default=0.0, help="driver state at t")
    pf.set_defaults(func=_cmd_price)
    pu = psub.add_parser("futures")
    pu.add_argument("--params", required=True)
    pu.add_argument("--t", type=_finite_float, required=True)
    pu.add_argument("--deliveries", required=True, help="comma list of delivery hours")
    pu.add_argument("--x", type=_finite_float, default=0.0)
    pu.set_defaults(func=_cmd_price)
    po = psub.add_parser("option")
    po.add_argument("--family", choices=("normal", "lognormal"), required=True)
    po.add_argument("--forward", type=_finite_float, required=True)
    po.add_argument("--strike", type=_finite_float, required=True)
    po.add_argument("--sigma-ut", type=_finite_float, default=0.0,
                    help="integrated std dev (normal family)")
    po.add_argument("--var-integral", type=_finite_float, default=0.0,
                    help="integrated variance (lognormal family)")
    po.add_argument("--span", type=_finite_float, default=0.0, help="discount span in hours")
    po.add_argument("--rate", type=_finite_float, default=0.0, help="hourly rate")
    po.add_argument("--put", action="store_true")
    po.add_argument("--conventional", action="store_true",
                    help="accepted for compatibility: the half-variance d_pm is the default")
    po.set_defaults(func=_cmd_price)

    p = sub.add_parser("risk-premium", help="premium path over a grid of trading times")
    p.add_argument("--params", required=True)
    p.add_argument("--tau", type=_finite_float, required=True)
    p.add_argument("--t-start", type=_finite_float, required=True)
    p.add_argument("--t-end", type=_finite_float, required=True)
    p.add_argument("--t-step", type=_finite_float, default=24.0)
    p.add_argument("--x-tilde", type=_finite_float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_risk_premium)

    p = sub.add_parser("implied-theta", help="monthly implied measure-change parameter")
    p.add_argument("--params", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_implied_theta)

    p = sub.add_parser("verify", help="run the Monte Carlo verification suite")
    p.add_argument("--params", default=None)
    p.add_argument("--paths", type=_path_count, default=1_000_000)
    p.add_argument("--nested-paths", type=_path_count, default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--mutation", type=_finite_float, default=0.0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # a library warning reaches the user as one line, as the CLI's own do
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (ParseError, DomainError, EstimationError, NumericError, OSError,
                MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
