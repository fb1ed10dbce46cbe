"""The risk premium between the pricing and real-world measures.

A constant parameter theta tilts the Brownian driver between the two
worlds.  The premium for a delivery is the forward price minus the
real-world expectation of the at-delivery quote; it vanishes identically
at theta = 0.  This script traces a premium path over trading time
(writing a plot-ready CSV) and confirms the closed form against both
Monte Carlo estimators.

Note the sign structure with a negative theta: strongly negative close
to delivery, where the linearly accumulated state shift still reaches
the quote, but saturating at a small positive value further out.
"""

import csv

import numpy as np

import intrinsicprice as ip

model, theta = ip.reference_model()
tau = 2.5 * 8760.0  # a delivery two and a half years past the epoch
print("theta = %+.4f, delivery at tau = %.0f h" % (theta, tau))

grid = tau - np.arange(0.0, 2001.0, 25.0)[::-1]
premium = np.array([ip.risk_premium(model, theta, float(t), tau, 0.0) for t in grid])
print("premium at tau-2000h: %+.5f   at tau-500h: %+.5f   at tau: %+.5f"
      % (premium[0], premium[-21], premium[-1]))
print("sign flips %d times along the path" % int(np.sum(np.diff(np.sign(premium)) != 0)))

with open("risk_premium_path.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["t", "premium"])
    writer.writerows(zip(grid, premium))
print("wrote risk_premium_path.csv (%d points)" % grid.size)
print()

# two independent estimators: direct real-world simulation, and
# pricing-measure simulation reweighted by the density process
cfg = ip.McConfig(n_paths=500_000, seed=3)
checks = ip.mc_risk_premium(model, theta, tau - 168.0, tau, 0.0, cfg)
print("closed form %.5f" % checks[0].closed_form)
print(ip.format_report(checks))
print()

# theta sweep at a fixed horizon: the premium scales almost linearly
print("premium one week out as theta varies:")
for th in (-0.03, -0.0036, 0.0, 0.0036, 0.03):
    print("  theta %+0.4f -> %+0.5f" % (th, ip.risk_premium(model, th, tau - 168.0, tau, 0.0)))
