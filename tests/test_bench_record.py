"""The summary of ``tools/bench_record.py``, on synthetic runs (no subprocess)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _runs(parent, change, others=None):
    """Runs in the recorded order: each pair alternates which side goes first.
    ``others`` maps more metric names to their ``(parent, change)`` values."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p, 0), ("change", c, 1)]
        for side, value, k in sides if pair % 2 == 0 else sides[::-1]:
            more = {name: values[k][pair] for name, values in (others or {}).items()}
            runs.append({"pair": pair, "side": side,
                         "metrics": {"wall_s": value, "zero": 0.0, **more},
                         "units": {"wall_s": "s", "zero": "count", **dict.fromkeys(more, "s")}})
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


def _end_to_end():
    root = Path(__file__).resolve().parents[1]
    return json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]


def test_the_bounds_come_from_the_benchmark_file():
    bounds = {m["name"]: m["bound"] for m in _end_to_end()}
    assert bounds["setup_s"] == 0.25 and bounds["wall_s"] == 0.24
    assert bench_record.BENCHMARK.name == "BENCHMARK.json"


def test_a_median_past_its_bound_is_flagged():
    # a cold start 27% slower against a 25% bound, while wall time improves:
    # only setup_s is flagged, and by how much
    setup = ([0.20, 0.203, 0.21, 0.19, 0.203], [0.25, 0.257, 0.26, 0.24, 0.257])
    summary = bench_record.summarise(_runs([10.0] * 5, [9.5] * 5, {"setup_s": setup}))
    flagged = bench_record.over_bound(summary, _end_to_end())
    assert list(flagged) == ["setup_s"]
    assert flagged["setup_s"] == pytest.approx(0.257 / 0.203 - 1.0)


def test_within_the_bound_zero_parents_and_missing_metrics_are_not_flagged():
    # 20% worse wall time is inside its 24% bound; "zero" reads 0 on the
    # parent, and peak_rss_mb is not in these runs at all
    summary = bench_record.summarise(_runs([1.0] * 3, [1.2] * 3))
    end_to_end = _end_to_end() + [{"name": "zero", "better": "lower", "bound": 0.1}]
    assert bench_record.over_bound(summary, end_to_end) == {}


def test_a_higher_is_better_metric_is_flagged_when_it_falls():
    summary = bench_record.summarise(_runs([100.0] * 3, [80.0] * 3))
    rate = [{"name": "wall_s", "better": "higher", "bound": 0.1}]
    assert bench_record.over_bound(summary, rate) == {"wall_s": pytest.approx(0.2)}


def test_wrong_output_and_failed_operations_are_listed():
    runs = _runs([1.0] * 3, [0.9] * 3)
    for run in runs:
        run.update(correct=True, failed=0, attempted=10)
    runs[1].update(correct=False)              # pair 0, change
    runs[4].update(failed=2)                   # pair 2, parent
    listed = bench_record.incorrect(runs)
    assert listed == [{"pair": 0, "side": "change", "correct": False, "failed": 0},
                      {"pair": 2, "side": "parent", "correct": True, "failed": 2}]
    for run in runs:
        run.update(correct=True, failed=0)
    assert bench_record.incorrect(runs) == []
