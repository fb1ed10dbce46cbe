import os
import subprocess
import sys
from pathlib import Path

import pytest

import intrinsicprice as ip

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run_demo(name, cwd):
    package_root = os.path.dirname(os.path.dirname(ip.__file__))
    return subprocess.run([sys.executable, str(DEMOS / name)], cwd=cwd,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": package_root})


# 06_verification.py is left out: it is run_verification_suite at 400k paths,
# which TestVerify and the acceptance suite already run
@pytest.mark.parametrize("name", ["01_load_model.py", "02_contract_prices.py",
                                  "03_risk_premium.py", "04_options.py",
                                  "05_calibration.py"])
def test_demo_runs(name, tmp_path):
    run = _run_demo(name, tmp_path)
    assert run.returncode == 0, run.stderr


def test_risk_premium_demo_reports_the_cross_check_once(tmp_path):
    # one line, from checks(), so the cross-check z is printed with one sign
    lines = _run_demo("03_risk_premium.py", tmp_path).stdout.splitlines()
    assert sum("cross-check" in line for line in lines) == 1

