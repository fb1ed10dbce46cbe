"""Structural electricity pricing off an unobservable settlement price.

A single OU-driven load model prices every standard contract (intraday,
day-ahead, forward, futures, options on futures) in closed form;
a constant-parameter measure change connects the pricing and real-world
dynamics and yields the risk premium; a three-stage pipeline calibrates
the model to hourly market data; and a Monte Carlo engine independently
verifies every closed form.

``import intrinsicprice`` loads no submodule: each public name, and each
submodule of the table below, is imported on first use (PEP 562) and the
name is then kept in the package namespace.
"""

from importlib import import_module as _import_module

# the public names, by the submodule that defines them
_EXPORTS = {
    "calibration": ("MarketSeries", "PricingObjective", "calibrate", "calibrate_supply_theta",
                    "fit_load_seasonality", "fit_ou", "fit_price_seasonality",
                    "implied_theta_monthly", "initial_supply_guess", "numerical_gradient"),
    "conventions": ("DeliverySet", "MarketConventions", "discount", "load_conventions"),
    "data": ("generate_synthetic", "load_series", "price_coverage", "reference_model",
             "write_series"),
    "errors": ("DomainError", "EstimationError", "NumericError", "ParseError"),
    "measure": ("p_seasonality_from_q", "q_seasonality_from_p", "radon_nikodym_path",
                "risk_premium", "supply_leg_real_world_expectation", "to_risk_neutral_state"),
    "model": ("ModelQ", "SupplyParams", "day_ahead_price", "forward_price", "futures_price",
              "intraday_price", "intrinsic_price", "price_generating", "required_state_times",
              "supply_leg_expectation", "tradable_price"),
    "options": ("LognormalOptionInputs", "NormalOptionInputs", "bachelier_call",
                "bachelier_put", "black76_call", "black76_put", "integrated_vol"),
    "oracle": ("McConfig", "McEstimate", "OracleCheck", "all_passed",
               "euler_representation_error", "format_report", "mc_day_ahead_tower",
               "mc_density_unit_mean", "mc_forward", "mc_futures", "mc_futures_martingale",
               "mc_girsanov_moments", "mc_lognormal_forward", "mc_martingale_check",
               "mc_option", "mc_risk_premium", "mc_tradable", "run_verification_suite"),
    "ou": ("OuParams", "fit_mle", "sample_transition", "simulate", "transition"),
    "seasonality": ("Calendar", "SeasonalityModel", "WeekdayClass", "design_matrix",
                    "evaluate", "fit", "load_calendar", "price_seasonality_target",
                    "weekday_class"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _EXPORTS:   # importing a submodule binds it here
            return _import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value    # later reads do not come back here
    return value


def __dir__():
    return sorted({*globals(), *__all__})
