"""The summary of ``tools/bench_record.py``, on synthetic runs (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _runs(parent, change):
    """Runs in the recorded order: each pair alternates which side goes first."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p), ("change", c)]
        for side, value in sides if pair % 2 == 0 else sides[::-1]:
            runs.append({"pair": pair, "side": side,
                         "metrics": {"wall_s": value, "zero": 0.0},
                         "units": {"wall_s": "s", "zero": "count"}})
    return runs


def test_ratios_follow_pairs_not_a_slow_phase():
    # the machine slows by half from pair 2 on; the change is 2% faster in every pair
    parent = [1.0, 1.0, 1.5, 1.5, 1.5]
    change = [0.98 * p for p in parent]
    summary = bench_record.summarise(_runs(parent, change))
    ratio = summary["change_over_parent"]["wall_s"]
    assert ratio["median"] == pytest.approx(0.98)
    assert ratio["q1"] == pytest.approx(0.98) and ratio["q3"] == pytest.approx(0.98)
    assert ratio["n"] == 5
    assert summary["change_wins"]["wall_s"] == "5/5"
    # the per-side medians stay, as before
    assert summary["parent"]["wall_s"]["median"] == 1.5
    assert summary["change"]["wall_s"]["median"] == pytest.approx(1.47)


def test_ratio_quartiles_and_zero_parent_values():
    parent = [2.0, 2.0, 2.0, 2.0]
    change = [1.0, 2.0, 3.0, 4.0]
    summary = bench_record.summarise(_runs(parent, change))
    ratio = summary["change_over_parent"]["wall_s"]
    assert (ratio["q1"], ratio["median"], ratio["q3"]) == pytest.approx((0.875, 1.25, 1.625))
    # a metric that reads zero on the parent side has no ratio
    assert summary["change_over_parent"]["zero"] is None
