"""Structural electricity pricing off an unobservable settlement price.

A single OU-driven load model prices every standard contract (intraday,
day-ahead, forward, futures, options on futures) in closed form;
a constant-parameter measure change connects the pricing and real-world
dynamics and yields the risk premium; a three-stage pipeline calibrates
the model to hourly market data; and a Monte Carlo engine independently
verifies every closed form.
"""

from .calibration import (MarketSeries, PricingObjective, calibrate,
                          calibrate_supply_theta, fit_load_seasonality, fit_ou,
                          fit_price_seasonality, implied_theta_monthly,
                          initial_supply_guess, numerical_gradient)
from .conventions import DeliverySet, MarketConventions, discount, load_conventions
from .data import (generate_synthetic, load_series, price_coverage, reference_model,
                   write_series)
from .errors import DomainError, EstimationError, NumericError, ParseError
from .measure import (p_seasonality_from_q, q_seasonality_from_p, radon_nikodym_path,
                      risk_premium, supply_leg_real_world_expectation,
                      to_risk_neutral_state)
from .model import (ModelQ, SupplyParams, day_ahead_price, forward_price,
                    futures_price, intraday_price, intrinsic_price,
                    price_generating, required_state_times,
                    supply_leg_expectation, tradable_price)
from .options import (LognormalOptionInputs, NormalOptionInputs, bachelier_call,
                      bachelier_put, black76_call, black76_put, integrated_vol)
from .oracle import (McConfig, McEstimate, OracleCheck, all_passed,
                     euler_representation_error, format_report, mc_day_ahead_tower,
                     mc_density_unit_mean, mc_forward, mc_futures,
                     mc_futures_martingale, mc_girsanov_moments,
                     mc_lognormal_forward, mc_martingale_check, mc_option,
                     mc_risk_premium, mc_tradable, run_verification_suite)
from .ou import OuParams, fit_mle, sample_transition, simulate, transition
from .seasonality import (Calendar, SeasonalityModel, WeekdayClass, design_matrix,
                          evaluate, fit, load_calendar, price_seasonality_target,
                          weekday_class)

__version__ = "0.1.0"
