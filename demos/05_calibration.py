"""Full calibration round-trip on synthetic market data.

Generate three years of hourly load and spot quotes from known
parameters plus observation noise, then run the three-stage pipeline:
seasonal least squares, OU maximum likelihood, and the joint
supply-curve/theta optimisation of the day-ahead and intraday pricing
error.  Finally extract the implied theta month by month.
"""


import intrinsicprice as ip

model, theta = ip.reference_model()
print("generating 3 years of hourly data with noise sd 0.5 ...")
series = ip.generate_synthetic(model, theta, span_hours=3 * 8760, noise_sd=0.5, seed=42)

cal = ip.Calendar()
g_tilde = ip.fit_load_seasonality(series, cal)
ou_hat = ip.fit_ou(series, g_tilde)
guess = ip.initial_supply_guess(series, model.price_seasonality, model.conv)
print("initial supply guess: alpha=(%.3f, %.3f)  beta=(%.2f, %.2f)"
      % (guess.alpha1, guess.alpha2, guess.beta1, guess.beta2))

result = ip.calibrate_supply_theta(series, g_tilde, ou_hat, model.price_seasonality,
                                   model.conv, guess)
rows = [
    ("lambda", model.ou.lam, ou_hat.lam),
    ("sigma", model.ou.sigma, ou_hat.sigma),
    ("alpha1", model.supply.alpha1, result.supply.alpha1),
    ("alpha2", model.supply.alpha2, result.supply.alpha2),
    ("beta1", model.supply.beta1, result.supply.beta1),
    ("beta2", model.supply.beta2, result.supply.beta2),
    ("theta", theta, result.theta),
]
print()
print("parameter     true      fitted")
for name, true, fitted in rows:
    print("%-9s %9.4f  %9.4f" % (name, true, fitted))
print("objective %.5f after %d iterations (converged=%s)"
      % (result.objective_value, result.diagnostics.iterations,
         result.diagnostics.converged))
print()

print("monthly implied theta (first six months):")
monthly = ip.implied_theta_monthly(series, g_tilde, ou_hat, model.price_seasonality,
                                   result.supply, model.conv)
for month, value in monthly[:6]:
    print("  %s  %+0.5f" % (month.strftime("%Y-%m"), value))
print("(early months lean hard on the fitted seasonality: the theta sensitivity")
print(" of quotes grows with elapsed time, so month-one estimates inherit any")
print(" local seasonal-fit error; later months tighten around the true value)")
