"""The four workloads: inputs drawn from the seed, passes of timed
operations, and the check of every output against the stored reference.

Inputs come from finite pools of cases whose outputs are stored in
``reference.json`` (see ``make_reference.py``), because a reference can
only be stored for inputs known in advance.  The workload seed decides
which cases a run uses and in what order; each case's own inputs are
drawn from a generator seeded by its case number.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import intrinsicprice as ip
from intrinsicprice import cli, measure, model as model_mod, options

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
EPOCH = dt.date(2015, 1, 1)     # epoch of ``reference_model``

CLI_CASES = 16
CURVE_YEARS = (2016, 2017, 2018, 2019)      # four cases per calendar month
CALIBRATION_DATA_SEEDS = (0, 1, 2)          # every pass calibrates all of them
VERIFY_SEEDS = tuple(range(8))

# Tolerances of the output check.  ``rel`` is relative to max(|reference|, scale).
TOLERANCE = {
    "cli_quote": {"rel": 1e-9, "scale": 1e-3},
    "curve_batch": {"rel": 1e-9, "scale": 1e-3},
    # The OU stage is closed form.  Stage 3 can land at different points of a
    # flat valley when the arithmetic changes in the last bit (seed 0 does,
    # between one and two BLAS threads), so it is judged by what the data
    # identify: theta, the objective and the supply curve over the load range.
    "calibrate_3y": {"ou_rel": 1e-9, "theta_rel": 1e-4, "objective_rel": 1e-4,
                     "curve_rel": 1e-2, "implied_theta_abs": 3e-4, "scale": 1e-3},
    # verify prints closed/mc with 6 decimals, se with 3 digits, z with 2 decimals
    "verify_1e6": {"value_abs": 2e-6, "se_rel": 1e-2, "z_abs": 0.02},
}


def hour_of(year: int, month: int) -> int:
    return (dt.date(year, month, 1) - EPOCH).days * 24


def month_hours(year: int, month: int) -> tuple[int, int]:
    nxt = (year + month // 12, month % 12 + 1)
    return hour_of(year, month), hour_of(*nxt)


def close(actual: float, expected: float, rel: float, scale: float) -> bool:
    return abs(actual - expected) <= rel * max(abs(expected), scale)


def digest(values) -> list[float]:
    """Sum and ramp-weighted sum: a shift of one element moves at least one."""
    values = np.asarray(values, dtype=float)
    ramp = np.arange(1, values.size + 1) / values.size
    return [float(values.sum()), float(values @ ramp)]


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


class Workload:
    """A pass is a list of operations; each returns ``(label, seconds, output)``."""

    name = ""
    dominant_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.reference = reference.get(self.name, {})
        self.tracer = None
        self.model, self.theta = ip.reference_model()
        self.state_sd = math.sqrt(self.model.ou.stationary_variance)

    def setup(self):
        """Input generation and warm-up, before timing starts."""

    def run_pass(self) -> list[tuple[str, float, object]]:
        raise NotImplementedError

    def check(self, output) -> str | None:
        """``None`` when the output matches the reference, else the reason."""
        raise NotImplementedError

    def contracts(self, output) -> int:
        return 0

    def write_params(self) -> Path:
        path = self.workdir / "params.json"
        path.write_text(json.dumps(cli.model_to_params(self.model, self.theta)))
        return path


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:      # an operation that raises is a failed operation
        result = exc
    return time.perf_counter() - start, result


def _quiet_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# cli_quote: one fresh interpreter per quote
# ---------------------------------------------------------------------------

def _arg(value: float, digits: int) -> str:
    return repr(round(float(value), digits))


def cli_case_args(k: int, params: Path, premium_out: Path, sd: float) -> dict[str, list[str]]:
    """The four CLI calls of case ``k``."""
    rng = np.random.default_rng([0xC11, k])
    year = CURVE_YEARS[k % len(CURVE_YEARS)]
    month = (1, 3, 5, 7, 8, 10, 12)[rng.integers(7)]     # 31 days: a 744 h strip
    h0, h1 = month_hours(year, month)
    tau_fwd = h0 + int(rng.integers(0, 744))
    t_fwd = tau_fwd - rng.uniform(1.0, 2000.0)
    t_fut = h0 - 24.0 - rng.uniform(0.0, 720.0)
    forward = round(rng.uniform(25.0, 45.0), 4)
    tau_prem = h0 + int(rng.integers(0, 744))
    t_end = round(tau_prem - rng.uniform(0.0, 48.0), 3)
    x = rng.normal(0.0, sd, 3)
    p = str(params)
    return {
        "price_forward": ["price", "forward", "--params", p, "--t", _arg(t_fwd, 3),
                          "--tau", _arg(tau_fwd, 0), "--x", _arg(x[0], 4)],
        "price_futures": ["price", "futures", "--params", p, "--t", _arg(t_fut, 3),
                          "--deliveries", ",".join(str(h) for h in range(h0, h1)),
                          "--x", _arg(x[1], 4)],
        "price_option": ["price", "option", "--family", "lognormal",
                         "--forward", _arg(forward, 4),
                         "--strike", _arg(forward * rng.uniform(0.9, 1.1), 4),
                         "--var-integral", _arg(rng.uniform(0.01, 0.09), 5),
                         "--span", _arg(rng.uniform(24.0, 720.0), 2),
                         "--rate", "1e-05", "--conventional"],
        "risk_premium": ["risk-premium", "--params", p, "--tau", _arg(tau_prem, 0),
                         "--t-start", _arg(t_end - 83 * 24.0, 3), "--t-end", _arg(t_end, 3),
                         "--t-step", "24", "--x-tilde", _arg(x[2], 4),
                         "--out", str(premium_out)],
    }


def cli_result(kind: str, stdout: str, premium_out: Path) -> list[float]:
    if kind == "risk_premium":
        rows = premium_out.read_text().splitlines()[1:]
        return [float(r.split(",")[1]) for r in rows]
    return [float(stdout.strip().splitlines()[-1])]


class CliQuote(Workload):
    name = "cli_quote"
    dominant_layers = ("import", "cli")

    def setup(self):
        self.params = self.write_params()
        self.premium_out = self.workdir / "premium.csv"
        self.cli_inproc: dict[str, list[float]] = {}

    def _call(self, kind: str, argv: list[str]):
        traced = self.tracer is not None
        spans_file = self.workdir / "cli_spans.json"
        cmd = ([sys.executable, str(HERE / "tracecli.py"), str(spans_file)] if traced
               else [sys.executable, "-m", "intrinsicprice"]) + argv
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        seconds = time.perf_counter() - start
        if traced and spans_file.exists():
            recorded = json.loads(spans_file.read_text())
            spans_file.unlink()
            self.tracer.extend(recorded["names"], recorded["spans"], recorded["counts"])
            self.cli_inproc.setdefault(kind, []).append(recorded["main_s"])
        return seconds, proc

    def run_pass(self):
        k = int(self.rng.integers(CLI_CASES))
        ops = []
        for kind, argv in cli_case_args(k, self.params, self.premium_out,
                                        self.state_sd).items():
            seconds, proc = self._call(kind, argv)
            if proc.returncode != 0:
                output = (k, kind, f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
            else:
                output = (k, kind, cli_result(kind, proc.stdout, self.premium_out))
            ops.append((kind, seconds, output))
        return ops

    def check(self, output):
        k, kind, values = output
        if isinstance(values, str):
            return values
        expected = self.reference[str(k)][kind]
        tol = TOLERANCE[self.name]
        if len(values) != len(expected):
            return f"case {k} {kind}: {len(values)} values, reference has {len(expected)}"
        bad = [i for i, (a, e) in enumerate(zip(values, expected))
               if not close(a, e, tol["rel"], tol["scale"])]
        return f"case {k} {kind}: values {bad[:5]} differ from the reference" if bad else None


# ---------------------------------------------------------------------------
# curve_batch: in-process pricing of a book of delivery months
# ---------------------------------------------------------------------------

def curve_case(k: int, sd: float) -> dict:
    rng = np.random.default_rng([0xC0BE, k])
    year, month = CURVE_YEARS[k // 12], k % 12 + 1
    h0, h1 = month_hours(year, month)
    return {"taus": np.arange(h0, h1, dtype=float),
            "t": float(h0 - 24.0 - rng.uniform(0.0, 720.0)),
            "x": float(rng.normal(0.0, sd)),
            "moneyness": float(rng.uniform(0.9, 1.1))}


def price_curve_request(m, theta, case, counter=None) -> dict:
    """Forward and tradable curves, futures, hourly premia and one Black-76
    call on the futures for one delivery month."""
    taus, t, x = case["taus"], case["t"], case["x"]
    conv = m.conv
    fwd = model_mod.forward_price(m, t, taus, x)
    trd = model_mod.tradable_price(m, t, taus, x)
    fut = model_mod.futures_price(m, t, ip.DeliverySet.from_hours(taus), {t: x})
    prem = measure.risk_premium(m, theta, t, taus, x)
    expiry = float(taus[0] - conv.delta)     # the first fixing
    first = float(taus[0])

    def phi(s):
        if counter is not None:
            counter()
        return model_mod.price_generating(m, s, first, x) / fut

    vol = options.integrated_vol(phi, t, expiry)
    inputs = ip.LognormalOptionInputs(forward=fut, strike=case["moneyness"] * fut,
                                      var_integral=vol * vol, span=expiry - t,
                                      rate=conv.hourly_rate)
    call = options.black76_call(inputs, conventional=True)
    return {"forward": fwd, "tradable": trd, "futures": fut, "premium": prem, "option": call}


def curve_fingerprint(result: dict) -> dict[str, list[float]]:
    return {key: digest(value) if np.ndim(value) else [float(value)]
            for key, value in result.items()}


class CurveBatch(Workload):
    name = "curve_batch"
    dominant_layers = ("seasonality", "model", "measure", "options")

    def setup(self):
        self.cases = {k: curve_case(k, self.state_sd) for k in range(12 * len(CURVE_YEARS))}
        price_curve_request(self.model, self.theta, self.cases[0])   # warm-up

    def _count_integrand(self):
        self.tracer.count("options.integrand", "evals")

    def run_pass(self):
        counter = self._count_integrand if self.tracer is not None else None
        ops = []
        for month in range(12):      # a pass is a book of one request per calendar month
            k = month + 12 * int(self.rng.integers(len(CURVE_YEARS)))
            seconds, result = _timed(price_curve_request, self.model, self.theta,
                                     self.cases[k], counter)
            ops.append(("request", seconds, (k, result)))
        return ops

    def contracts(self, output):
        _, result = output
        return sum(np.size(value) for value in result.values())

    def check(self, output):
        k, result = output
        expected = self.reference[str(k)]
        got = curve_fingerprint(result)
        tol = TOLERANCE[self.name]
        bad = [key for key, values in expected.items()
               if len(got[key]) != len(values)
               or not all(close(a, e, tol["rel"], tol["scale"]) for a, e in zip(got[key], values))]
        return f"case {k}: {', '.join(bad)} differ from the reference" if bad else None


# ---------------------------------------------------------------------------
# calibrate_3y: simulate, calibrate and implied theta on three years of hours
# ---------------------------------------------------------------------------

REPORT_KEYS = ("lambda", "sigma", "x0", "alpha1", "alpha2", "beta1", "beta2", "theta",
               "objective_value")
CURVE_LOADS = (40.0, 47.0, 54.0)     # the reference model's load range


def supply_curve(report: dict) -> list[float]:
    return [math.exp(report["alpha1"] * (g - report["beta1"]))
            - math.exp(report["alpha2"] * (g - report["beta2"])) for g in CURVE_LOADS]


def calibration_job(params: Path, workdir: Path, data_seed: int) -> dict:
    data = workdir / f"market_{data_seed}.csv"
    report = workdir / f"calibration_{data_seed}.txt"
    fitted = workdir / f"fitted_{data_seed}.json"
    theta_csv = workdir / f"implied_theta_{data_seed}.csv"
    steps = (
        ["simulate", "--params", str(params), "--span", "26280", "--seed", str(data_seed),
         "--out", str(data)],
        ["calibrate", "--data", str(data), "--out", str(report), "--params-out", str(fitted)],
        ["implied-theta", "--params", str(fitted), "--data", str(data), "--out", str(theta_csv)],
    )
    for argv in steps:
        code, _ = _quiet_main(argv)
        if code != 0:
            return {"error": f"{argv[0]} exited with {code}"}
    values = dict(line.split(" ", 1) for line in report.read_text().splitlines())
    return {
        "report": {k: float(values[k]) for k in REPORT_KEYS},
        "implied_theta": [float(r.split(",")[1])
                          for r in theta_csv.read_text().splitlines()[1:]],
    }


class Calibrate3y(Workload):
    name = "calibrate_3y"
    dominant_layers = ("seasonality", "ou", "calibration", "data")

    def setup(self):
        self.params = self.write_params()
        # warm-up: the CSV round trip on one month
        warm = self.workdir / "warmup.csv"
        _quiet_main(["simulate", "--params", str(self.params), "--span", "720",
                     "--out", str(warm)])
        ip.load_series(warm)

    def run_pass(self):
        ops = []
        for data_seed in self.rng.permutation(CALIBRATION_DATA_SEEDS):
            seconds, result = _timed(calibration_job, self.params, self.workdir, int(data_seed))
            ops.append(("job", seconds, (int(data_seed), result)))
        return ops

    def check(self, output):
        data_seed, result = output
        if "error" in result:
            return f"data seed {data_seed}: {result['error']}"
        expected = self.reference[str(data_seed)]
        tol = TOLERANCE[self.name]
        got, ref = result["report"], expected["report"]
        bad = [key for key in ("lambda", "sigma", "x0")
               if not close(got[key], ref[key], tol["ou_rel"], tol["scale"])]
        if not close(got["theta"], ref["theta"], tol["theta_rel"], tol["scale"]):
            bad.append("theta")
        if not close(got["objective_value"], ref["objective_value"], tol["objective_rel"], 0.0):
            bad.append("objective_value")
        if not all(close(a, e, tol["curve_rel"], tol["scale"])
                   for a, e in zip(supply_curve(got), supply_curve(ref))):
            bad.append("supply curve")
        got, ref = result["implied_theta"], expected["implied_theta"]
        if len(got) != len(ref) or any(abs(a - e) > tol["implied_theta_abs"]
                                       for a, e in zip(got, ref)):
            bad.append("implied_theta")
        return f"data seed {data_seed}: {', '.join(bad)} differ from the reference" if bad else None


# ---------------------------------------------------------------------------
# verify_1e6: the Monte Carlo oracle at one million paths
# ---------------------------------------------------------------------------

_CHECK_LINE = re.compile(r"^(?P<name>.*?)\s+closed=(?P<closed>\S+) mc=(?P<mc>\S+) "
                         r"se=(?P<se>\S+) z=\s*(?P<z>\S+) (?:PASS|FAIL|recorded)$")


def verify_job(seed: int) -> dict:
    code, text = _quiet_main(["verify", "--paths", "1000000", "--seed", str(seed)])
    checks = []
    for line in text.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            checks.append([match["name"]] + [float(match[k]) for k in ("closed", "mc", "se", "z")])
    return {"exit": code, "checks": checks}


class Verify1e6(Workload):
    name = "verify_1e6"
    dominant_layers = ("model", "oracle")

    def setup(self):
        # warm-up at one full batch of the oracle (2**18 paths), so the first
        # timed job does not pay for first-touching batch-sized arrays
        _quiet_main(["verify", "--paths", "262144", "--nested-paths", "2000", "--seed", "0"])

    def run_pass(self):
        seed = int(self.rng.choice(VERIFY_SEEDS))
        seconds, result = _timed(verify_job, seed)
        return [("job", seconds, (seed, result))]

    def check(self, output):
        seed, result = output
        expected = self.reference[str(seed)]
        # judged against this seed's reference, so a stored chance miss (exit 1) still matches
        if result["exit"] != expected["exit"]:
            return f"seed {seed}: exit code {result['exit']}, reference {expected['exit']}"
        if [c[0] for c in result["checks"]] != [c[0] for c in expected["checks"]]:
            return f"seed {seed}: the list of checks differs from the reference"
        tol = TOLERANCE[self.name]
        bad = [got[0] for got, ref in zip(result["checks"], expected["checks"])
               if abs(got[1] - ref[1]) > tol["value_abs"] or abs(got[2] - ref[2]) > tol["value_abs"]
               or not close(got[3], ref[3], tol["se_rel"], 0.0)
               or not (abs(got[4] - ref[4]) <= tol["z_abs"] or got[4] == ref[4])]
        return f"seed {seed}: {'; '.join(bad[:3])} differ from the reference" if bad else None


WORKLOADS = {cls.name: cls for cls in (CliQuote, CurveBatch, Calibrate3y, Verify1e6)}
