"""Every function the benchmark traces (``perfbench/spans.py``) exists in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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

