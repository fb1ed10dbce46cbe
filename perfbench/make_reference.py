"""Write ``reference.json``: the output of every case the workloads draw from.

Run from the root of a checkout whose outputs are taken as correct:

    PYTHONPATH=src python3 perfbench/make_reference.py

The CLI quotes are computed in process with the same arguments the
benchmark passes to the command line.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from run import BLAS_ENV, OUT_DIR

os.environ.update(BLAS_ENV)     # as in the benchmark's workers, before numpy loads

from workloads import (CALIBRATION_DATA_SEEDS, CLI_CASES, CURVE_YEARS, REFERENCE, VERIFY_SEEDS,
                       Workload, _quiet_main, calibration_job, cli_case_args, cli_result,
                       curve_case, curve_fingerprint, price_curve_request, verify_job)


def main() -> int:
    workdir = Path(OUT_DIR) / "make_reference"
    workdir.mkdir(parents=True, exist_ok=True)
    base = Workload(0, workdir, {})
    params = base.write_params()
    premium_out = workdir / "premium.csv"
    cli_ref = {}
    for k in range(CLI_CASES):
        cli_ref[str(k)] = {}
        for kind, argv in cli_case_args(k, params, premium_out, base.state_sd).items():
            code, stdout = _quiet_main(argv)
            if code != 0:
                raise SystemExit(f"cli case {k} {kind} exited with {code}")
            cli_ref[str(k)][kind] = cli_result(kind, stdout, premium_out)
    curve_ref = {}
    for k in range(12 * len(CURVE_YEARS)):
        curve_ref[str(k)] = curve_fingerprint(
            price_curve_request(base.model, base.theta, curve_case(k, base.state_sd)))
    calibration_ref = {str(s): calibration_job(params, workdir, s)
                       for s in CALIBRATION_DATA_SEEDS}
    verify_ref = {str(s): verify_job(s) for s in VERIFY_SEEDS}
    REFERENCE.write_text(json.dumps({
        "cli_quote": cli_ref, "curve_batch": curve_ref,
        "calibrate_3y": calibration_ref, "verify_1e6": verify_ref}, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
