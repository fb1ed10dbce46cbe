"""Spans around calls into the package, recorded from outside it.

``Tracer.install`` replaces each traced function by a wrapper in every
namespace of the loaded package that holds it, because modules such as
``cli`` and ``oracle`` bind ``forward_price`` with ``from .model import``
and patching ``model`` alone would record nothing for their calls.  Spans
stay in memory as ``(name, start, end, parent)`` tuples until the run
writes them out; self time is a span's duration minus that of its
direct children.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

# (module, qualified name) of every traced callable, grouped by layer
TRACED = {
    "cli": [("cli", "main"), ("cli", "load_model_file")],
    "seasonality": [("seasonality", "evaluate"), ("seasonality", "design_matrix"),
                    ("seasonality", "fit")],
    "model": [("model", "forward_price"), ("model", "futures_price"),
              ("model", "tradable_price"), ("model", "price_generating"),
              ("model", "intrinsic_price")],
    "measure": [("measure", "risk_premium")],
    "options": [("options", "integrated_vol"), ("options", "black76_call"),
                ("options", "black76_put")],
    "ou": [("ou", "fit_mle")],
    "calibration": [("calibration", n) for n in (
        "calibrate", "fit_load_seasonality", "fit_ou", "fit_price_seasonality",
        "initial_supply_guess", "calibrate_supply_theta", "implied_theta_monthly",
        "PricingObjective.__init__", "PricingObjective.__call__")],
    "data": [("data", "generate_synthetic"), ("data", "write_series"),
             ("data", "load_series"), ("data", "price_coverage")],
    "oracle": [("oracle", n) for n in (
        "run_verification_suite", "mc_forward", "mc_tradable", "mc_day_ahead_tower",
        "mc_futures", "mc_risk_premium", "mc_option", "mc_lognormal_forward",
        "mc_density_unit_mean", "mc_girsanov_moments", "mc_martingale_check",
        "mc_futures_martingale")],
}

LAYER_OF = {f"{mod}.{name}": layer for layer, entries in TRACED.items()
            for mod, name in entries}
# spans the benchmark records itself; they belong to the named layer
LAYER_OF["import"] = "import"


def _size(*arrays) -> int:
    import numpy as np   # not at module level: the traced CLI times the import after this one
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _mc_paths(args, kwargs):
    cfg = next(a for a in list(args) + list(kwargs.values()) if hasattr(a, "n_paths"))
    return {"paths": cfg.n_paths}


# per-call counts taken from a traced call's arguments and result
COUNTERS = {
    "model.forward_price": lambda a, k, r: {
        "states": _size(_arg(a, k, 1, "t"), _arg(a, k, 2, "tau"), _arg(a, k, 3, "x"))},
    "model.futures_price": lambda a, k, r: {"deliveries": len(_arg(a, k, 2, "deliveries"))},
    "data.write_series": lambda a, k, r: {"rows": len(_arg(a, k, 0, "series"))},
    "data.load_series": lambda a, k, r: {"rows": len(r)},
    "calibration.calibrate_supply_theta": lambda a, k, r: {
        "iterations": r.diagnostics.iterations,
        "overflow_evaluations": r.diagnostics.overflow_evaluations},
    "oracle.run_verification_suite": lambda a, k, r: {
        "checks_total": sum(1 for c in r if not c.informational),
        "checks_failed": sum(1 for c in r if not c.informational and not c.passed)},
}
for _name in LAYER_OF:
    if _name.startswith("oracle.mc_"):
        COUNTERS[_name] = lambda a, k, r: _mc_paths(a, k)


class Tracer:
    """Records spans and per-call counts for the functions in ``TRACED``."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list = []
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._undo: list = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def count(self, name: str, key: str, amount: float = 1):
        bucket = self.counts.setdefault(name, {})
        bucket[key] = bucket.get(key, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack
        slot = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(slot)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[slot] = (nid, start, end, parent)
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, amount in counter(args, kwargs, result).items():
                self.count(name, key, amount)
        return result

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "intrinsicprice"):
        """Wrap every traced function wherever the loaded package binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for layer_entries in TRACED.values():
            for mod, qual in layer_entries:
                name = f"{mod}.{qual}"
                home = sys.modules.get(f"{package}.{mod}")
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrapper(name, original)
                if owner_name:   # a method: patch the class once
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, target, attr, value):
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self):
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def extend(self, names, spans, counts):
        """Merge spans recorded by another process (same monotonic clock)."""
        remap = [self.name_id(n) for n in names]
        base = len(self.spans)
        for nid, start, end, parent in spans:
            self.spans.append((remap[nid], start, end, parent + base if parent >= 0 else -1))
        for name, bucket in counts.items():
            for key, amount in bucket.items():
                self.count(name, key, amount)

    def dump(self, path, workload: str, **extra):
        spans = [(nid, round(s, 7), round(e, 7), p) for nid, s, e, p in self.spans]
        Path(path).write_text(json.dumps({
            "workload": workload, "columns": ["name", "start", "end", "parent"],
            "names": self.names, "spans": spans, "counts": self.counts, **extra}))


def span_stats(names, spans):
    """Per span name: calls, total duration and self time (seconds), plus the
    summed duration of top-level spans."""
    durations = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    top_level = 0.0
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
        else:
            top_level += durations[i]
    stats: dict[str, dict[str, float]] = {}
    for i, (nid, _, _, _) in enumerate(spans):
        entry = stats.setdefault(names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += durations[i]
        entry["self_s"] += durations[i] - child_time[i]
    return stats, top_level


def spans_under(names, spans, ancestor: str, name: str) -> int:
    """Number of ``name`` spans nested at any depth under an ``ancestor`` span."""
    inside = []      # per span: is it an ``ancestor`` span or nested under one
    hits = 0
    for nid, _, _, parent in spans:
        under = parent >= 0 and inside[parent]
        hits += under and names[nid] == name
        inside.append(under or names[nid] == ancestor)
    return hits


# ---------------------------------------------------------------------------
# the per-layer metrics of one traced run
# ---------------------------------------------------------------------------

IMPORT_MODULES = (("cold", "intrinsicprice"), ("numpy", "numpy"),
                  ("scipy_signal", "scipy.signal"), ("scipy_optimize", "scipy.optimize"),
                  ("scipy_integrate", "scipy.integrate"))
CLI_KINDS = ("price_forward", "price_futures", "price_option", "risk_premium")
ORACLE_ESTIMATORS = (
    "mc_forward", "mc_tradable", "mc_day_ahead_tower", "mc_futures", "mc_risk_premium",
    "mc_option", "mc_lognormal_forward", "mc_density_unit_mean", "mc_girsanov_moments",
    "mc_martingale_check", "mc_futures_martingale")
CALIBRATION_STAGES = ("fit_load_seasonality", "fit_ou", "fit_price_seasonality",
                      "initial_supply_guess", "calibrate_supply_theta", "implied_theta_monthly")

# The per-layer metrics the result line carries.  The other metrics of the
# table are times of layers that run on one workload only; they read 0 on the
# others and are printed, and written with the spans, but not put in it.
RESULT_METRICS = (
    *(f"import.{key}_s" for key, _ in IMPORT_MODULES),
    "seasonality.evaluate.calls", "seasonality.evaluate.busy_s",
    "model.forward_price.calls", "model.forward_price.states_per_s",
    "model.futures_price.calls", "model.futures_price.deliveries_per_s",
    "model.price_generating.calls", "model.intrinsic_price.calls",
    "measure.risk_premium.calls",
    "options.integrated_vol.calls", "options.integrand_evals",
    "calibration.objective.evals", "calibration.stage3.iterations",
    "calibration.stage3.evals_per_iteration", "calibration.overflow_evaluations",
    "data.write_series.rows_per_s", "data.load_series.rows_per_s",
    "oracle.paths_per_s", "oracle.checks_total", "oracle.checks_failed",
    "trace.overhead_s", "trace.unattributed_s", "trace.dominant_share", "trace.spans",
)


def unit_of(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "%"
    if name.endswith("_per_iteration"):
        return "ratio"
    return "count"


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module of ``IMPORT_MODULES`` from ``-X importtime``.

    A module without a line of its own (imported through one of its
    submodules) gets the summed time of its outermost submodule lines.
    importtime prints a module after its children, one indent level deeper,
    so the lines are walked in reverse to see each parent first.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(parts[1]) * 1e-6))
    out = {}
    for _, module in IMPORT_MODULES:
        total, ancestors = 0.0, []
        for depth, name, cumulative in reversed(entries):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            inside = any(matched for _, matched in ancestors)
            matches = name == module or name.startswith(module + ".")
            if matches and not inside:
                total += cumulative
            ancestors.append((depth, matches or inside))
        out[module] = total
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, dominant, plain_walls, traced_walls, imports,
                  cli_inproc) -> tuple[dict[str, float], dict[str, float], list[str]]:
    """Per-layer metrics per traced pass, self time per layer per pass, and
    the dominant layers that recorded no span (the self-check)."""
    stats, top_level = span_stats(tracer.names, tracer.spans)
    n = max(len(traced_walls), 1)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def st(name):
        return stats.get(name, empty)

    def busy(name):
        return st(name)["self_s"] / n

    def calls(name):
        return st(name)["calls"] / n

    def counted(name, key):
        return tracer.counts.get(name, {}).get(key, 0) / n

    def ratio(amount, base):
        return amount / base if base > 0 else 0.0

    def mean_ms(name):
        return 1e3 * ratio(st(name)["total_s"], st(name)["calls"])

    m = {f"import.{key}_s": imports.get(module, 0.0) for key, module in IMPORT_MODULES}
    for kind in CLI_KINDS:
        m[f"cli.{kind}.inproc_ms"] = 1e3 * _median(cli_inproc.get(kind, []))
    m["cli.load_model_file.ms"] = mean_ms("cli.load_model_file")

    m["seasonality.evaluate.calls"] = calls("seasonality.evaluate")
    for fn in ("evaluate", "design_matrix", "fit"):
        m[f"seasonality.{fn}.busy_s"] = busy(f"seasonality.{fn}")

    for fn in ("forward_price", "futures_price", "tradable_price", "price_generating",
               "intrinsic_price"):
        m[f"model.{fn}.calls"] = calls(f"model.{fn}")
        m[f"model.{fn}.busy_s"] = busy(f"model.{fn}")
    m["model.forward_price.states_per_s"] = ratio(
        tracer.counts.get("model.forward_price", {}).get("states", 0),
        st("model.forward_price")["total_s"])
    m["model.futures_price.deliveries_per_s"] = ratio(
        tracer.counts.get("model.futures_price", {}).get("deliveries", 0),
        st("model.futures_price")["total_s"])

    m["measure.risk_premium.calls"] = calls("measure.risk_premium")
    m["measure.risk_premium.busy_s"] = busy("measure.risk_premium")

    m["options.integrated_vol.calls"] = calls("options.integrated_vol")
    m["options.integrated_vol.busy_s"] = busy("options.integrated_vol")
    m["options.integrand_evals"] = counted("options.integrand", "evals")
    m["options.black76.busy_s"] = busy("options.black76_call") + busy("options.black76_put")

    m["ou.fit_mle.busy_s"] = busy("ou.fit_mle")

    for stage in CALIBRATION_STAGES:
        m[f"calibration.{stage}.busy_s"] = busy(f"calibration.{stage}")
    m["calibration.objective.evals"] = calls("calibration.PricingObjective.__call__")
    m["calibration.objective.eval_ms"] = mean_ms("calibration.PricingObjective.__call__")
    m["calibration.objective.build_ms"] = mean_ms("calibration.PricingObjective.__init__")
    iterations = counted("calibration.calibrate_supply_theta", "iterations")
    m["calibration.stage3.iterations"] = iterations
    stage3_evals = spans_under(tracer.names, tracer.spans, "calibration.calibrate_supply_theta",
                               "calibration.PricingObjective.__call__") / n
    m["calibration.stage3.evals_per_iteration"] = ratio(stage3_evals, iterations)
    m["calibration.overflow_evaluations"] = counted("calibration.calibrate_supply_theta",
                                                    "overflow_evaluations")

    for fn in ("generate_synthetic", "write_series", "load_series", "price_coverage"):
        m[f"data.{fn}.busy_s"] = busy(f"data.{fn}")
    for fn in ("write_series", "load_series"):
        m[f"data.{fn}.rows_per_s"] = ratio(
            tracer.counts.get(f"data.{fn}", {}).get("rows", 0), st(f"data.{fn}")["total_s"])

    for est in ORACLE_ESTIMATORS:
        m[f"oracle.{est}.busy_s"] = busy(f"oracle.{est}")
    # mc_tradable draws its paths through mc_forward, so it is not counted twice
    paths = sum(tracer.counts.get(f"oracle.{est}", {}).get("paths", 0)
                for est in ORACLE_ESTIMATORS if est != "mc_tradable")
    m["oracle.paths_per_s"] = ratio(paths, st("oracle.run_verification_suite")["total_s"])
    m["oracle.checks_total"] = counted("oracle.run_verification_suite", "checks_total")
    m["oracle.checks_failed"] = counted("oracle.run_verification_suite", "checks_failed")

    layer_self: dict[str, float] = {}
    for name, entry in stats.items():
        layer = LAYER_OF.get(name, "other")
        layer_self[layer] = layer_self.get(layer, 0.0) + entry["self_s"] / n
    attributed = sum(layer_self.values())
    m["trace.overhead_s"] = _median(traced_walls) - _median(plain_walls)
    m["trace.unattributed_s"] = (sum(traced_walls) - top_level) / n
    m["trace.dominant_share"] = 100.0 * ratio(
        sum(layer_self.get(layer, 0.0) for layer in dominant), attributed)
    m["trace.spans"] = len(tracer.spans) / n
    silent = [layer for layer in dominant if layer_self.get(layer, 0.0) <= 0.0]
    return m, layer_self, silent
