"""One benchmark process: set a workload up, then time passes of it.

``run.py`` starts this script with the package's ``src`` on the path and
reads the JSON object on the last line of its output.  With
``--setup-only`` it stops once set-up is done, so ``run.py`` can time
set-up in several fresh processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path


def provenance(root: Path) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top, _, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                     capture_output=True, text=True,
                                     timeout=10).stdout.strip().partition("\n")
    except OSError:
        top = sha = ""
    sha = sha if top and Path(top).resolve() == root.resolve() else None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def run_for(workload, seconds: float) -> dict:
    """Run whole passes until ``seconds`` have elapsed; check every output."""
    record = {"pass_walls": [], "ops": [], "failures": [], "contracts": 0}
    start = time.perf_counter()
    while not record["pass_walls"] or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        ops = workload.run_pass()
        record["pass_walls"].append(time.perf_counter() - pass_start)
        for label, latency, output in ops:
            if isinstance(output[-1], Exception):
                problem = f"{label} raised {output[-1]!r}"
            else:
                try:
                    problem = workload.check(output)
                except Exception as exc:      # a malformed output is a failed operation
                    problem = f"checking {label} raised {exc!r}"
            record["ops"].append([label, latency])
            if problem:
                record["failures"].append(problem)
            else:
                record["contracts"] += workload.contracts(output)
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS, load_reference
    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir, load_reference())
    workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready, "provenance": provenance(Path.cwd())}
    if not args.trace:
        result["timed"] = run_for(workload, args.seconds)
    else:
        from spans import Tracer, import_times, layer_metrics
        plain = run_for(workload, args.seconds / 2)
        tracer = Tracer()
        workload.tracer = tracer
        if args.workload != "cli_quote":      # cli_quote traces inside its child processes
            tracer.install()
        try:
            traced = run_for(workload, args.seconds / 2)
        finally:
            tracer.uninstall()
            workload.tracer = None
        probe = subprocess.run([sys.executable, "-X", "importtime", "-c", "import intrinsicprice"],
                               capture_output=True, text=True, timeout=120)
        metrics, layer_self, silent = layer_metrics(
            tracer, workload.dominant_layers, plain["pass_walls"], traced["pass_walls"],
            import_times(probe.stderr), getattr(workload, "cli_inproc", {}))
        spans_path = workdir / "spans.json"
        tracer.dump(spans_path, args.workload, metrics=metrics, layer_self_s=layer_self,
                    missing=tracer.missing)
        result.update(timed=plain, traced=traced, layers=metrics, layer_self_s=layer_self,
                      silent_layers=silent, missing=tracer.missing, spans_file=str(spans_path))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_quote" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
