"""Every function the benchmark traces (``perfbench/spans.py``) exists in the
package, and the calls it makes on a delivery strip still work."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import intrinsicprice as ip

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_spans", _PATH)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

_NAMES = [entry for entries in spans.TRACED.values() for entry in entries]


@pytest.mark.parametrize("module, qualname", _NAMES, ids=[f"{m}.{q}" for m, q in _NAMES])
def test_traced_name_resolves(module, qualname):
    target = importlib.import_module(f"intrinsicprice.{module}")
    for attr in qualname.split("."):
        target = getattr(target, attr)
    assert callable(target)


def test_month_strip_calls_of_the_benchmark(ref_model):
    # as perfbench/workloads.py prices a curve_batch month and spans.py sizes it
    t, x = 2000.0, 1.5
    strip = ip.DeliverySet.from_hours(2160.0 + np.arange(744.0))
    assert len(strip) == 744
    price = ip.futures_price(ref_model, t, strip, {t: x})
    assert type(price) is float and math.isfinite(price)
