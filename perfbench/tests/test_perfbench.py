"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q

The smoke runs start the real benchmark for one second per mode, so a
pass is the smallest unit of work; they take a few minutes in all.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, trace: int, seconds: str = "1"):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", seconds, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_metric_with_its_unit(workload, trace):
    proc, lines = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    text = "\n".join(lines[:-1])
    for metric in SPEC["end_to_end"]:
        assert f"# {metric['name']} " in text and f" {metric['unit']} (n=" in text
    assert "# fail_ratio 0 " in text and '"nproc"' in text and '"blas_threads"' in text
    if trace:
        for name in spans.RESULT_METRICS:
            assert f"# {name} " in text


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run_bench(tmp_path, "curve_batch", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


# ---------------------------------------------------------------------------
# tamper tests: a reference nudged past tolerance makes the operation fail
# ---------------------------------------------------------------------------

REFERENCE = workloads.load_reference()
MODEL, THETA = workloads.ip.reference_model()
SD = MODEL.ou.stationary_variance ** 0.5


def checker(name: str, reference: dict):
    return workloads.WORKLOADS[name](0, Path("."), reference)


def nudged(path, factor):
    """A deep copy of the reference with the value at ``path`` multiplied."""
    ref = copy.deepcopy(REFERENCE)
    node = ref
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= factor
    return ref


def outputs(name):
    ref = REFERENCE[name]
    if name == "cli_quote":
        return [(k, kind, values) for k in ("0", "7") for kind, values in ref[k].items()]
    if name == "curve_batch":
        return [(k, workloads.price_curve_request(MODEL, THETA, workloads.curve_case(int(k), SD)))
                for k in ("0", "13")]
    return [(k, ref[k]) for k in ref]


TAMPERS = {
    "cli_quote": [(("cli_quote", "0", "price_futures", 0), 1 + 1e-8),
                  (("cli_quote", "0", "risk_premium", 40), 1 + 1e-8)],
    "curve_batch": [(("curve_batch", "0", "forward", 1), 1 + 1e-8),
                    (("curve_batch", "0", "option", 0), 1 + 1e-8)],
    "calibrate_3y": [(("calibrate_3y", "1", "report", "theta"), 1 + 1e-3),
                     (("calibrate_3y", "1", "report", "sigma"), 1 + 1e-8),
                     (("calibrate_3y", "1", "report", "beta1"), 1 + 1e-2),
                     (("calibrate_3y", "1", "implied_theta", 3), 1.5)],
    "verify_1e6": [(("verify_1e6", "2", "checks", 5, 4), 1.5),
                   (("verify_1e6", "2", "checks", 0, 2), 1 + 1e-6)],
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_matches_itself(name):
    check = checker(name, REFERENCE).check
    for output in outputs(name):
        key = output[0]
        assert check((int(key),) + output[1:]) is None


@pytest.mark.parametrize("name,path,factor",
                         [(name, path, factor) for name, cases in TAMPERS.items()
                          for path, factor in cases])
def test_tampered_reference_fails_the_affected_operation(name, path, factor):
    check = checker(name, nudged(path, factor)).check
    verdicts = {output[0] if name != "cli_quote" else (output[0], output[1]):
                check((int(output[0]),) + output[1:]) for output in outputs(name)}
    affected = path[1] if name != "cli_quote" else (path[1], path[2])
    assert verdicts.pop(affected) is not None
    assert all(v is None for v in verdicts.values())


def test_verify_exit_code_is_judged_against_the_seed_reference():
    ref = copy.deepcopy(REFERENCE)
    ref["verify_1e6"]["4"]["exit"] = 1       # as if seed 4 had failed a check by chance
    check = checker("verify_1e6", ref).check
    assert check((4, REFERENCE["verify_1e6"]["4"])) is not None
    assert check((4, {**REFERENCE["verify_1e6"]["4"], "exit": 1})) is None


def test_tampered_reference_raises_fail_ratio_end_to_end(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    ref = copy.deepcopy(REFERENCE)
    for case in ref["curve_batch"].values():
        case["futures"][0] *= 1 + 1e-6
    (tmp_path / "perfbench" / "reference.json").write_text(json.dumps(ref))
    proc, lines = run_bench(tmp_path, "curve_batch", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any(line.startswith("# fail_ratio 1 ") for line in lines)


# ---------------------------------------------------------------------------
# the importtime parser and the tracer
# ---------------------------------------------------------------------------

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy._core
import time:       200 |        300 |   numpy
import time:        50 |         50 |         scipy.integrate._quadpack
import time:        70 |        120 |       scipy.integrate._quadpack_py
import time:        30 |         30 |       scipy.integrate._ode
import time:        10 |        160 |     scipy.stats
import time:        40 |        200 |   scipy.signal
import time:        60 |        560 | intrinsicprice
"""


def test_import_times_cumulative_and_outermost_submodules():
    times = spans.import_times(IMPORTTIME)
    assert times["intrinsicprice"] == pytest.approx(560e-6)
    assert times["numpy"] == pytest.approx(300e-6)
    assert times["scipy.signal"] == pytest.approx(200e-6)
    # no line of its own: the outermost submodule lines, not their children
    assert times["scipy.integrate"] == pytest.approx(150e-6)
    assert times["scipy.optimize"] == 0.0


def test_tracer_wraps_every_namespace_and_subtracts_children():
    import intrinsicprice as ip
    from intrinsicprice import cli, model, oracle

    original = model.forward_price
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.forward_price is oracle.forward_price is model.forward_price is ip.forward_price
        assert model.forward_price is not original
        m, _ = ip.reference_model()
        strip = ip.DeliverySet.from_hours([9000.0, 9001.0, 9002.0])
        cli.futures_price(m, 8000.0, strip, {8000.0: 0.5})
    finally:
        tracer.uninstall()
    assert model.forward_price is original and cli.forward_price is original
    assert not tracer.missing
    stats, top_level = spans.span_stats(tracer.names, tracer.spans)
    futures, forward = stats["model.futures_price"], stats["model.forward_price"]
    assert futures["calls"] == 1 and forward["calls"] == 3
    assert top_level == pytest.approx(futures["total_s"])
    children = forward["total_s"]
    assert futures["self_s"] == pytest.approx(futures["total_s"] - children)
    assert tracer.counts["model.futures_price"]["deliveries"] == 3
