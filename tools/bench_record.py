"""Record a parent-against-change benchmark comparison as a BENCH_*.json file.

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_6.json \
        --workloads calibrate_3y cli_quote --pairs 10 --seed 7 --seconds 20

``DIR`` is the root of a checkout (made with ``git clone``, so that the
provenance carries its git SHA).  For each workload and each pair the
script runs ``perfbench/run.py --trace 0`` of both checkouts, one after
the other, alternating which side runs first; it never edits the
benchmark.  The output keeps every run (its metrics, ``correct``,
``failed`` and ``attempted``) and, per side and metric, the median and
quartiles, plus the number of pairs the change won and the median and
quartiles of the per-pair change/parent ratios.  A slow phase of the
machine that falls on one side moves that side's median, but it moves
both runs of a pair alike, so the ratios do not follow it.  An existing output
file gains the workloads run now, so workloads may use different pair
counts.  The provenance of
each side is the git SHA and the SHA-256 of ``src/`` that ``run.py``
prints.

Each workload's summary also lists, under ``over_bound``, every end-to-end
metric of the repository's ``BENCHMARK.json`` whose change median is worse
than the parent median by more than that metric's ``bound`` (a share of the
parent median), and the script prints one line for each.  A metric can be
flagged while it wins most pairs, or pass while it loses them: the bound
judges the two medians, not the ratios.

It also lists, under ``incorrect``, every run that reported ``correct:
false`` or a ``failed`` count above 0, and prints one line for each: the
benchmark refuses a change with such a run whatever its medians read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its result and provenance."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {workload} exited with code {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    provenance = next(json.loads(line.split(" ", 2)[2]) for line in lines
                      if line.startswith("# provenance "))
    result = json.loads(lines[-1])
    return {"provenance": provenance, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "units": {name: m["unit"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs: list[dict]) -> dict:
    """Per side and metric the median and quartiles; per metric the change's
    wins over the pairs (lower is better for every end-to-end metric) and
    the median and quartiles of the change/parent ratio of each pair whose
    parent value is not zero (``None`` when no pair has one)."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    names = list(by_side["parent"][0]["metrics"])
    summary = {side: {name: quartiles([r["metrics"][name] for r in side_runs])
                      for name in names}
               for side, side_runs in by_side.items()}
    pairs = list(zip(by_side["parent"], by_side["change"]))
    summary["change_wins"] = {
        name: f"{sum(c['metrics'][name] < p['metrics'][name] for p, c in pairs)}/{len(pairs)}"
        for name in names}
    ratios = {name: [c["metrics"][name] / p["metrics"][name]
                     for p, c in pairs if p["metrics"][name]] for name in names}
    summary["change_over_parent"] = {name: quartiles(r) if r else None
                                     for name, r in ratios.items()}
    summary["units"] = by_side["parent"][0]["units"]
    return summary


def over_bound(summary: dict, end_to_end: list[dict]) -> dict:
    """For each metric of ``end_to_end`` (the ``BENCHMARK.json`` entries,
    each with ``name``, ``better`` and ``bound``) whose change median is
    worse than the parent median by more than ``bound``, relative to the
    parent median, that relative change (positive when worse).  A metric the
    runs do not report, or whose parent median is 0, is not judged."""
    flagged = {}
    for metric in end_to_end:
        name = metric["name"]
        parent = summary["parent"].get(name, {}).get("median")
        if not parent:
            continue
        worse = summary["change"][name]["median"] / parent - 1.0
        if metric["better"] == "higher":
            worse = -worse
        if worse > metric["bound"]:
            flagged[name] = worse
    return flagged


def incorrect(runs: list[dict]) -> list[dict]:
    """The pair, side, ``correct`` and ``failed`` of each run that reported
    wrong output or a failed operation, in the recorded order."""
    return [{key: run[key] for key in ("pair", "side", "correct", "failed")}
            for run in runs if not run["correct"] or run["failed"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    parser.add_argument("--change", type=Path, required=True, help="change checkout root")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    bounds = {metric["name"]: metric["bound"] for metric in end_to_end}

    record = {"seed": args.seed, "seconds": args.seconds, "sides": {}, "workloads": {}}
    if args.out.exists():   # add to an earlier record of the same comparison
        record = json.loads(args.out.read_text())
        if (record["seed"], record["seconds"]) != (args.seed, args.seconds):
            raise SystemExit(f"{args.out} holds runs with another seed or run length")
    for workload in args.workloads:
        runs = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(roots[side], workload, args.seed, args.seconds)
                prov = run.pop("provenance")
                side_prov = {"git_sha": prov["git_sha"], "src_sha256": prov["src_sha256"]}
                if record["sides"].setdefault(side, side_prov) != side_prov:
                    raise SystemExit(f"{roots[side]} is not the checkout recorded as {side}")
                runs.append({"pair": pair, "side": side, "position": position, **run})
                print(f"{workload} pair {pair} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
                      + f" correct={run['correct']} failed={run['failed']}", flush=True)
        summary = summarise(runs)
        summary["over_bound"] = over_bound(summary, end_to_end)
        for name, worse in summary["over_bound"].items():
            print(f"{workload}: {name} median is {worse:+.1%} against the parent, "
                  f"past its bound of {bounds[name]:.0%}", flush=True)
        summary["incorrect"] = incorrect(runs)
        for run in summary["incorrect"]:
            print(f"{workload} pair {run['pair']} {run['side']}: correct={run['correct']} "
                  f"failed={run['failed']}, a run the benchmark refuses", flush=True)
        for run in runs:
            run.pop("units")
        record["workloads"][workload] = {"pairs": args.pairs, "summary": summary, "runs": runs}
        # written after each workload, so a long session keeps what it measured
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
