"""Benchmark of intrinsicprice.  Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_quote, curve_batch, calibrate_3y, verify_1e6 (see README.md).
The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give every metric with its unit and sample count, and the provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3          # set-up is timed in this many fresh processes; median reported
DEADLINE_S = 170.0      # whole run, set-ups included
OUT_DIR = ".perfbench"  # scratch files and spans, inside the checkout
# one worker at a time and single-threaded BLAS keep the load within the cores
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def spawn_worker(root: Path, env: dict, args, workdir: Path, deadline: float,
                 setup_only: bool) -> tuple[float, dict]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    # a session of its own, so a timeout also stops the CLI child of cli_quote
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker did not finish before the run's deadline") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    return record["ready"] - spawned, record


def end_to_end(workload: str, setups: list[float], record: dict) -> tuple[dict, list[str]]:
    timed = record["timed"]
    latencies = [latency for _, latency in timed["ops"]]
    walls = timed["pass_walls"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms", len(latencies)),
        "peak_rss_mb": (record["peak_rss_mb"], "MB", 1),
    }
    extra = []
    if workload == "curve_batch":
        extra.append(f"contracts_per_s {timed['contracts'] / sum(latencies):.6g} 1/s "
                     f"(n={len(latencies)} requests)")
        if len(latencies) >= 100:     # at least ten samples beyond the 90th percentile
            p90 = statistics.quantiles(latencies, n=10)[-1]
            extra.append(f"op_p90_ms {1e3 * p90:.6g} ms (n={len(latencies)})")
    return metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_quote", "curve_batch", "calibrate_3y", "verify_1e6"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "intrinsicprice" / "__init__.py").is_file():
        print(f"error: no src/intrinsicprice under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workdir = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(src)}
    deadline = time.monotonic() + DEADLINE_S

    try:
        setups = [spawn_worker(root, env, args, workdir, deadline, True)[0]
                  for _ in range(SETUP_RUNS - 1)]
        setup, record = spawn_worker(root, env, args, workdir, deadline, False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    for scratch in workdir.glob("*.csv"):      # market data and quotes; results stay
        scratch.unlink()

    runs = [record["timed"]] + ([record["traced"]] if args.trace else [])
    attempted = sum(len(run["ops"]) for run in runs)
    failures = [problem for run in runs for problem in run["failures"]]
    metrics, extra = end_to_end(args.workload, setups, record)

    provenance = {**record["provenance"], "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace}
    print(f"# provenance {json.dumps(provenance)}")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name} {value:.6g} {unit} (n={n})")
    for line in extra:
        print(f"# {line}")
    print(f"# fail_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for problem in failures[:10]:
        print(f"# failed: {problem}")
    correct = not failures

    if args.trace:
        from spans import RESULT_METRICS, unit_of
        layers = record["layers"]
        for layer, seconds in sorted(record["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"# layer {layer} self {seconds:.6g} s per pass")
        for name, value in layers.items():
            print(f"# {name} {value:.6g} {unit_of(name)} per pass "
                  f"(n={len(record['traced']['pass_walls'])} passes)")
        if record["missing"]:
            print(f"# not traced (not found in the package): {', '.join(record['missing'])}")
        if record["silent_layers"]:
            print(f"# self-check failed: no spans from {', '.join(record['silent_layers'])}")
            correct = False
        print(f"# spans written to {record['spans_file']}")
        result_metrics = {name: {"value": layers[name], "unit": unit_of(name)}
                          for name in RESULT_METRICS}
    else:
        result_metrics = {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": result_metrics}
    (workdir / "result.json").write_text(json.dumps({**result, "worker": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
