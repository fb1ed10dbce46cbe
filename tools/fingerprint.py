"""Write the numerical fingerprint of a checkout into one directory.

    python3 tools/fingerprint.py OUT_DIR

Every artifact comes from the ``src/`` of the checkout this script lives
in, run in fresh interpreters with ``OUT_DIR`` as the working directory
and relative file names, so two checkouts of the same code give the same
bytes and "byte-identical to the parent" is one ``diff -r`` of two
output directories.  The set:

- ``verify --paths 300000`` at seed 0, and at seed 5 with ``--mutation 0.01``;
- the same seed-0 ``run_verification_suite`` in full precision: one
  ``name mean std_error`` line per check, the numbers as ``float.hex``, so
  equal files mean equal estimates to the last bit, not to the six printed
  decimals (300,000 paths are one full batch and a ragged 37,856-path one);
- the martingale checks in the same full precision, as
  ``martingale_seed0.hex`` (300,000 paths, seed 0): the futures martingale
  on a 12 h strip with checkpoints before, between and past its fixings, so
  the frozen forwards count, and the forward martingale from ``x0``
  (``x_start=None``);
- ``integrated_vol`` in full precision, as ``float.hex``: demo 04's integral
  and the option integrals of three ``curve_batch`` months (the cases of
  ``perfbench/workloads.py``), so a change to the quadrature shows to the
  last bit;
- the forward, tradable and premium curves and the futures price of the same
  three ``curve_batch`` requests, one ``float.hex`` line per value, as
  ``curves.hex``;
- the stdout of the six demos, and the CSV that demo 03 writes;
- ``price forward``, ``price futures`` on a 744 h strip, and ``price option``
  for both families, with and without ``--conventional``;
- a ``risk-premium`` CSV;
- ``simulate --span 26280 --seed 0`` and, on its CSV, ``calibrate`` (report,
  stdout and ``--params-out`` JSON), ``implied-theta``, ``fit-seasonality``,
  ``fit-ou``, and ``calibrate --gamma3`` with the reference price seasonality
  written as a seasonality report, in the format ``fit-seasonality`` writes;
- ``simulate --span 26280 --seed 1`` and, on its CSV, ``calibrate`` and
  ``implied-theta``: 20 of that run's 36 months start their search on the
  overflow-penalty plateau of the objective, so the plateau path shows here;
- ``calibrate`` on two inputs holding a number that is not finite: a
  conventions file with ``delta_hours inf`` and that seasonality report with
  ``level nan``;
- ``fit-ou`` on seven market-data CSVs with one defect each, written by the
  setup script and named in ``BAD_CSV``: a 2 h jump, a duplicated stamp and
  ``x`` as the intraday value on data row 4,096 (the first row after 4,096
  clean ones), ``inf`` as a day-ahead price, a ``+01:00`` stamp after naive
  ones, a short row, and blank rows only;
- ``implied-theta --params params.json`` and ``calibrate --gamma3
  gamma3.txt`` on a 400-day synthetic CSV cut to start on its 31st day, so
  that the seasonalities count their hours from another day than the data:
  the ``EPOCH_RUNS``, which must exit 2;
- the ``WARNING_RUNS``, on a 9,504 h synthetic CSV (seed 1): ``calibrate``,
  whose direct supply fit does not converge, and ``implied-theta`` on a copy
  with January's prices blanked but for its last day, which skips January.

Each ``*.out`` file holds one command's stdout and ends with its exit code;
the ``fit_ou_bad_*``, ``EPOCH_RUNS`` and ``WARNING_RUNS`` ones hold its
stderr too, where the error or warning goes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

SETUP_SCRIPT = """
import json
from intrinsicprice.cli import _seasonality_report_pairs, _write_report, model_to_params
from intrinsicprice.data import reference_model
model, theta = reference_model()
with open("params.json", "w") as fh:
    fh.write(json.dumps(model_to_params(model, theta), indent=2) + "\\n")
pairs = _seasonality_report_pairs(model.price_seasonality)
_write_report("gamma3.txt", pairs)
_write_report("gamma3_nan.txt", [(k, "nan" if k == "level" else v) for k, v in pairs])
_write_report("conventions_inf.txt", [("epsilon_hours", 1.0), ("delta_hours", float("inf"))])

import datetime
start = datetime.datetime(2015, 3, 1)
rows = [f"{start + datetime.timedelta(hours=h)},{50 + h % 7},{30 + h % 5},{31 + h % 3}"
        for h in range(4200)]

def write_bad(name, lines):
    with open(f"bad_{name}.csv", "w") as fh:
        fh.write("timestamp,load,day_ahead,intraday\\n" + "".join(line + "\\n" for line in lines))

def edit(r, column, text):
    fields = rows[r].split(",")
    fields[column] = text
    return rows[:r] + [",".join(fields)] + rows[r + 1:]

write_bad("gap", rows[:4096] + rows[4097:])
write_bad("duplicate", edit(4096, 0, rows[4095].split(",")[0]))
write_bad("number", edit(4096, 3, "x"))
write_bad("inf", edit(10, 2, "inf"))
write_bad("offset", edit(5, 0, rows[5].split(",")[0] + "+01:00"))
write_bad("short", rows[:3] + [rows[3].rsplit(",", 1)[0]] + rows[4:])
write_bad("blank", ["", " ", ",,,"])

from intrinsicprice.data import generate_synthetic, write_series
write_series(generate_synthetic(model, theta, 400 * 24, 0.5, seed=0), "series_late.csv")
with open("series_late.csv") as fh:
    lines = fh.readlines()
with open("series_late.csv", "w") as fh:
    fh.writelines(lines[:1] + lines[1 + 30 * 24:])

write_series(generate_synthetic(model, theta, 8760 + 31 * 24, 0.5, seed=1), "series_short.csv")
with open("series_short.csv") as fh:
    lines = fh.readlines()
with open("series_gap.csv", "w") as fh:
    fh.writelines(lines[:1] + [line.rsplit(",", 2)[0] + ",,\\n" for line in lines[1:1 + 30 * 24]]
                  + lines[1 + 30 * 24:])
"""

ORACLE_HEX_SCRIPT = """
from intrinsicprice.data import reference_model
from intrinsicprice.oracle import McConfig, run_verification_suite
model, theta = reference_model()
with open("verify_seed0.hex", "w") as fh:
    for c in run_verification_suite(model, theta, McConfig(n_paths=300_000, seed=0)):
        fh.write(f"{c.name} {c.estimate.mean.hex()} {c.estimate.std_error.hex()}\\n")
"""

MARTINGALE_HEX_SCRIPT = """
from intrinsicprice import DeliverySet, mc_futures_martingale, mc_martingale_check
from intrinsicprice.data import reference_model
from intrinsicprice.oracle import McConfig
model, _ = reference_model()
cfg = McConfig(n_paths=300_000, seed=0)
strip = DeliverySet.from_hours([2160.0 + k for k in range(12)])
fix = 2160.0 - model.conv.delta
checks = (mc_futures_martingale(model, [fix - 24.0, fix + 3.5, fix + 7.5, fix + 30.0], strip,
                                cfg, x_start=1.0)
          + mc_martingale_check(model, [1824.0, 1992.0, 2136.0], 2160.0, cfg))
with open("martingale_seed0.hex", "w") as fh:
    for c in checks:
        fh.write(f"{c.name} {c.estimate.mean.hex()} {c.estimate.std_error.hex()}\\n")
"""

QUADRATURE_HEX_SCRIPT = """
import math, sys
sys.path.insert(0, sys.argv[1])                  # perfbench/, for the cases
from workloads import curve_case
from intrinsicprice import DeliverySet, futures_price, integrated_vol, price_generating
from intrinsicprice.data import reference_model
model, _ = reference_model()
sd = math.sqrt(model.ou.stationary_variance)
with open("integrated_vol.hex", "w") as fh:
    vol = integrated_vol(lambda s: price_generating(model, s, 2160.0, 2.0), 2088.0, 2136.0)
    fh.write(f"demo_04 {vol.hex()}\\n")
    for k in (0, 19, 47):
        case = curve_case(k, sd)
        taus, t, x = case["taus"], case["t"], case["x"]
        fut = futures_price(model, t, DeliverySet.from_hours(taus), {t: x})
        first = float(taus[0])
        vol = integrated_vol(lambda s: price_generating(model, s, first, x) / fut,
                             t, first - model.conv.delta)
        fh.write(f"curve_batch_{k} {vol.hex()}\\n")
"""

CURVES_HEX_SCRIPT = """
import math, sys
import numpy as np
sys.path.insert(0, sys.argv[1])                  # perfbench/, for the cases
from workloads import curve_case, price_curve_request
from intrinsicprice.data import reference_model
model, theta = reference_model()
sd = math.sqrt(model.ou.stationary_variance)
with open("curves.hex", "w") as fh:
    for k in (0, 19, 47):
        result = price_curve_request(model, theta, curve_case(k, sd))
        for key in ("forward", "tradable", "premium", "futures"):
            for value in np.atleast_1d(result[key]).tolist():
                fh.write(f"curve_batch_{k} {key} {value.hex()}\\n")
"""

TAU = 2160.0                                   # a delivery 90 days past the epoch
STRIP = [TAU + k for k in range(744)]          # one month of hours
OPTION = ["price", "option", "--forward", "50", "--strike", "45", "--sigma-ut", "6",
          "--var-integral", "0.04", "--span", "24", "--rate", "1e-7"]
CLI_RUNS = [
    ("verify_seed0", ["verify", "--paths", "300000", "--seed", "0"]),
    ("verify_seed5_mutation", ["verify", "--paths", "300000", "--seed", "5",
                               "--mutation", "0.01"]),
    ("price_forward", ["price", "forward", "--params", "params.json",
                       "--t", str(TAU - 168.0), "--tau", str(TAU), "--x", "1.5"]),
    ("price_futures", ["price", "futures", "--params", "params.json",
                       "--t", str(TAU - 72.0), "--x", "-2.0",
                       "--deliveries", ",".join(repr(h) for h in STRIP)]),
    ("price_option_normal", [*OPTION, "--family", "normal"]),
    ("price_option_normal_conventional", [*OPTION, "--family", "normal", "--conventional"]),
    ("price_option_lognormal", [*OPTION, "--family", "lognormal"]),
    ("price_option_lognormal_conventional", [*OPTION, "--family", "lognormal",
                                             "--conventional"]),
    ("risk_premium", ["risk-premium", "--params", "params.json", "--tau", "21900",
                      "--t-start", "19900", "--t-end", "21900", "--t-step", "25",
                      "--out", "risk_premium.csv"]),
    ("simulate", ["simulate", "--params", "params.json", "--span", "26280", "--seed", "0",
                  "--out", "series.csv"]),
    ("calibrate", ["calibrate", "--data", "series.csv", "--out", "calibration_report.txt",
                   "--params-out", "fitted_params.json"]),
    ("implied_theta", ["implied-theta", "--params", "fitted_params.json",
                       "--data", "series.csv", "--out", "implied_theta.csv"]),
    ("fit_seasonality", ["fit-seasonality", "--data", "series.csv",
                         "--out", "seasonality_report.txt"]),
    ("fit_ou", ["fit-ou", "--data", "series.csv", "--out", "ou_report.txt"]),
    ("calibrate_gamma3", ["calibrate", "--data", "series.csv", "--gamma3", "gamma3.txt",
                          "--out", "calibration_gamma3_report.txt",
                          "--params-out", "fitted_gamma3_params.json"]),
    ("simulate_seed1", ["simulate", "--params", "params.json", "--span", "26280", "--seed", "1",
                        "--out", "series_seed1.csv"]),
    ("calibrate_seed1", ["calibrate", "--data", "series_seed1.csv",
                         "--out", "calibration_seed1_report.txt",
                         "--params-out", "fitted_seed1_params.json"]),
    ("implied_theta_seed1", ["implied-theta", "--params", "fitted_seed1_params.json",
                             "--data", "series_seed1.csv", "--out", "implied_theta_seed1.csv"]),
    ("calibrate_conventions_inf", ["calibrate", "--data", "series.csv",
                                   "--conventions", "conventions_inf.txt",
                                   "--out", "calibration_conventions_inf_report.txt"]),
    ("calibrate_gamma3_nan", ["calibrate", "--data", "series.csv", "--gamma3", "gamma3_nan.txt",
                              "--out", "calibration_gamma3_nan_report.txt"]),
]
BAD_CSV = ("gap", "duplicate", "number", "inf", "offset", "short", "blank")
EPOCH_RUNS = [
    ("implied_theta_late", ["implied-theta", "--params", "params.json",
                            "--data", "series_late.csv", "--out", "implied_theta_late.csv"]),
    ("calibrate_gamma3_late", ["calibrate", "--data", "series_late.csv", "--gamma3", "gamma3.txt",
                               "--out", "calibration_gamma3_late_report.txt"]),
]
WARNING_RUNS = [
    ("calibrate_short", ["calibrate", "--data", "series_short.csv",
                         "--out", "calibration_short_report.txt"]),
    ("implied_theta_gap", ["implied-theta", "--params", "params.json",
                           "--data", "series_gap.csv", "--out", "implied_theta_gap.csv"]),
]


def run(out: Path, name: str, argv: list[str], env: dict, stderr: bool = False) -> None:
    """Run ``argv`` in ``out`` and keep its stdout (and with ``stderr`` its
    stderr) and exit code as ``name.out``."""
    proc = subprocess.run([sys.executable, *argv], cwd=out, env=env,
                          capture_output=True, text=True)
    kept = proc.stdout + (proc.stderr if stderr else "")
    (out / f"{name}.out").write_text(f"{kept}exit code {proc.returncode}\n")
    print(f"{name}: exit code {proc.returncode}", flush=True)


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/fingerprint.py OUT_DIR")
    out = Path(sys.argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-c", SETUP_SCRIPT], cwd=out, env=env, check=True)
    subprocess.run([sys.executable, "-c", ORACLE_HEX_SCRIPT], cwd=out, env=env, check=True)
    subprocess.run([sys.executable, "-c", MARTINGALE_HEX_SCRIPT], cwd=out, env=env, check=True)
    subprocess.run([sys.executable, "-c", QUADRATURE_HEX_SCRIPT, str(ROOT / "perfbench")],
                   cwd=out, env=env, check=True)
    subprocess.run([sys.executable, "-c", CURVES_HEX_SCRIPT, str(ROOT / "perfbench")],
                   cwd=out, env=env, check=True)
    for name, argv in CLI_RUNS:
        run(out, name, ["-m", "intrinsicprice", *argv], env)
    for name in BAD_CSV:
        run(out, f"fit_ou_bad_{name}", ["-m", "intrinsicprice", "fit-ou", "--data",
                                        f"bad_{name}.csv", "--out", f"ou_bad_{name}.txt"],
            env, stderr=True)
    for name, argv in EPOCH_RUNS + WARNING_RUNS:
        run(out, name, ["-m", "intrinsicprice", *argv], env, stderr=True)
    for demo in DEMOS:
        run(out, f"demo_{demo.stem}", [str(demo)], env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
