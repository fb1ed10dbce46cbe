"""``import intrinsicprice`` loads no submodule, and a quote loads only what it runs.

Each check that counts modules starts a fresh interpreter, so that modules
other tests imported do not count.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import intrinsicprice as ip
from intrinsicprice import cli

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(ip.__file__))
_NOT_FOR_QUOTES = {"intrinsicprice.calibration", "intrinsicprice.data", "intrinsicprice.oracle"}


def loaded_submodules(*args):
    """Exit code and the ``intrinsicprice.*`` modules that ``python -X importtime
    ARGS`` imports, read from the import-time lines on stderr."""
    run = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": _PACKAGE_ROOT})
    names = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
             if line.startswith("import time:")}
    return run.returncode, {name for name in names if name.startswith("intrinsicprice.")}


@pytest.fixture(scope="module")
def quotes(tmp_path_factory, ref_model, ref_theta):
    """The four quote commands of the benchmark's ``cli_quote`` workload."""
    root = tmp_path_factory.mktemp("quotes")
    params = root / "model.json"
    params.write_text(json.dumps(cli.model_to_params(ref_model, ref_theta)))
    params = str(params)
    return {
        "forward": ["price", "forward", "--params", params, "--t", "100", "--tau", "268"],
        "futures": ["price", "futures", "--params", params, "--t", "100",
                    "--deliveries", "268,269,270"],
        "option": ["price", "option", "--family", "lognormal", "--forward", "50",
                   "--strike", "45", "--var-integral", "0.04"],
        "risk-premium": ["risk-premium", "--params", params, "--tau", "2160",
                         "--t-start", "1000", "--t-end", "2160", "--t-step", "100",
                         "--out", str(root / "premium.csv")],
    }


def test_package_import_loads_no_submodule():
    assert loaded_submodules("-c", "import intrinsicprice") == (0, set())


@pytest.mark.parametrize("kind", ["forward", "futures", "option", "risk-premium"])
def test_a_quote_leaves_calibration_data_and_oracle_unloaded(quotes, kind):
    code, modules = loaded_submodules("-m", "intrinsicprice", *quotes[kind])
    assert code == 0
    assert not modules & _NOT_FOR_QUOTES
    if kind == "forward":
        assert not modules & {"intrinsicprice.options", "intrinsicprice.measure"}


def test_every_exported_name_is_its_module_object():
    for module_name, names in ip._EXPORTS.items():
        module = importlib.import_module(f"intrinsicprice.{module_name}")
        assert getattr(ip, module_name) is module
        for name in names:
            assert getattr(ip, name) is getattr(module, name), name
            assert name in vars(ip)     # kept, so the next read is a plain lookup


def test_unknown_names_and_dir():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ip.no_such_name
    listed = dir(ip)
    assert set(ip._EXPORTS) <= set(listed) and set(ip._MODULE_OF) <= set(listed)
    assert set(ip.__all__) == set(ip._EXPORTS) | set(ip._MODULE_OF)
