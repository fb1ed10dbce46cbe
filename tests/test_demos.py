import os
import subprocess
import sys
from pathlib import Path

import pytest

import intrinsicprice as ip

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# 06_verification.py is left out: it is run_verification_suite at 400k paths,
# which TestVerify and the acceptance suite already run
@pytest.mark.parametrize("name", ["01_load_model.py", "02_contract_prices.py",
                                  "03_risk_premium.py", "04_options.py",
                                  "05_calibration.py"])
def test_demo_runs(name, tmp_path):
    package_root = os.path.dirname(os.path.dirname(ip.__file__))
    run = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": package_root})
    assert run.returncode == 0, run.stderr
