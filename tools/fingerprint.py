"""Write the numerical fingerprint of a checkout into one directory.

    python3 tools/fingerprint.py OUT_DIR

Every artifact comes from the ``src/`` of the checkout this script lives
in, run in fresh interpreters with ``OUT_DIR`` as the working directory
and relative file names, so two checkouts of the same code give the same
bytes and "byte-identical to the parent" is one ``diff -r`` of two
output directories.  The set:

- ``verify --paths 300000`` at seed 0, and at seed 5 with ``--mutation 0.01``;
- the stdout of the six demos, and the CSV that demo 03 writes;
- ``price forward`` and ``price futures`` on a 744 h strip;
- a ``risk-premium`` CSV;
- ``simulate --span 26280 --seed 0`` and, on its CSV, ``calibrate`` (report,
  stdout and ``--params-out`` JSON) and ``implied-theta``.

Each ``*.out`` file holds one command's stdout and ends with its exit code.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

PARAMS_SCRIPT = """
import json
from intrinsicprice.cli import model_to_params
from intrinsicprice.data import reference_model
print(json.dumps(model_to_params(*reference_model()), indent=2))
"""

TAU = 2160.0                                   # a delivery 90 days past the epoch
STRIP = [TAU + k for k in range(744)]          # one month of hours
CLI_RUNS = [
    ("verify_seed0", ["verify", "--paths", "300000", "--seed", "0"]),
    ("verify_seed5_mutation", ["verify", "--paths", "300000", "--seed", "5",
                               "--mutation", "0.01"]),
    ("price_forward", ["price", "forward", "--params", "params.json",
                       "--t", str(TAU - 168.0), "--tau", str(TAU), "--x", "1.5"]),
    ("price_futures", ["price", "futures", "--params", "params.json",
                       "--t", str(TAU - 72.0), "--x", "-2.0",
                       "--deliveries", ",".join(repr(h) for h in STRIP)]),
    ("risk_premium", ["risk-premium", "--params", "params.json", "--tau", "21900",
                      "--t-start", "19900", "--t-end", "21900", "--t-step", "25",
                      "--out", "risk_premium.csv"]),
    ("simulate", ["simulate", "--params", "params.json", "--span", "26280", "--seed", "0",
                  "--out", "series.csv"]),
    ("calibrate", ["calibrate", "--data", "series.csv", "--out", "calibration_report.txt",
                   "--params-out", "fitted_params.json"]),
    ("implied_theta", ["implied-theta", "--params", "fitted_params.json",
                       "--data", "series.csv", "--out", "implied_theta.csv"]),
]


def run(out: Path, name: str, argv: list[str], env: dict) -> None:
    """Run ``argv`` in ``out`` and keep its stdout and exit code as ``name.out``."""
    proc = subprocess.run([sys.executable, *argv], cwd=out, env=env,
                          capture_output=True, text=True)
    (out / f"{name}.out").write_text(f"{proc.stdout}exit code {proc.returncode}\n")
    print(f"{name}: exit code {proc.returncode}", flush=True)


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/fingerprint.py OUT_DIR")
    out = Path(sys.argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    params = subprocess.run([sys.executable, "-c", PARAMS_SCRIPT], env=env, check=True,
                            capture_output=True, text=True).stdout
    (out / "params.json").write_text(params)
    for name, argv in CLI_RUNS:
        run(out, name, ["-m", "intrinsicprice", *argv], env)
    for demo in DEMOS:
        run(out, f"demo_{demo.stem}", [str(demo)], env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
