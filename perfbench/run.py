"""bellghz benchmark: two seeded closed-loop workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; bellghz is imported from
``src/`` of that checkout and from nowhere else.  Every workload is a
closed loop with one client in one single-threaded process:

- ``cli-cold``: one fresh ``python -m bellghz.cli`` process per request,
  rotating through the README's eight examples plus one out-of-range
  angle (exit 2), each rotation shuffled by the seed.  Only whole
  rotations are timed, so every command weighs the same in each run.
- ``lib-warm``: library calls in a fresh interpreter of its own
  (``worker.py``, ``workloads.py``); each request is a sweep, crossings
  and catalog scan, a noise evaluation and a tomography campaign.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, from spans recorded by
``tracer.py`` around bellghz's public functions and from
``python -X importtime``.  Outputs are checked outside the timed region;
a wrong exit code, an exception or a failed check counts as a failed
request.  The last stdout line is the JSON result; the lines before it
give the host (a reference timing that touches no bellghz code, the
versions, BLAS and ``nproc``) and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import (
    CLI_COMMANDS,
    END_TO_END_UNITS,
    INFO_UNITS,
    IMPORT_METRICS,
    LAYER_METRICS,
    latency_metrics,
    layer_unit,
    parse_importtime,
    span_metrics,
)

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("cli-cold", "lib-warm")

#: Fresh interpreters set up per run, half before the timed loop and half
#: after it, so that host drift during the run shows less; ``setup_s`` is
#: their median.
SETUP_SAMPLES = 4
#: ``python -X importtime`` processes per traced run.
IMPORTTIME_SAMPLES = 3
#: Any one child process running longer than this is a failed run.
CHILD_TIMEOUT_S = 60.0

NOISE_JSON = '{"pair_probability": 0.05, "efficiency": 0.2}'

#: The ``cli-cold`` rotation: (metric name, argv, expected exit code).
CLI_ROTATION = (
    ("derive", ["derive", "--gamma", "0.125pi"], 0),
    ("sweep", ["sweep", "--steps", "101", "--out", "sweep.csv"], 0),
    ("catalog", ["catalog"], 0),
    ("crossings", ["crossings"], 0),
    ("correlations", ["correlations", "--gamma", "0.05pi"], 0),
    ("witness", ["witness", "--gamma", "0.125pi"], 0),
    ("tomo", ["tomo", "--gamma", "0", "--shots", "100000", "--seed", "1"], 0),
    ("noise", ["noise", "--gamma", "0.098pi", "--noise-json", NOISE_JSON], 0),
    ("usage_error", ["witness", "--gamma", "0.3pi"], 2),
)
assert tuple(name for name, _, _ in CLI_ROTATION) == CLI_COMMANDS


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------- host


def host_reference_ms() -> float:
    """Median of 5 runs of a fixed pure-Python loop plus 16x16 ``eigh`` calls.

    It touches no bellghz code, so a shift in it between runs is the host
    drifting, not the program changing.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    herm = a + a.conj().T
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        for _ in range(200):
            np.linalg.eigh(herm)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def host_info() -> dict:
    import importlib.metadata

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "nproc": os.cpu_count(),
        "reference_ms": host_reference_ms(),
    }


# ------------------------------------------------------------ children


class Checkout:
    """Paths, scratch directory and child environment of one checkout.

    Used as a context manager: scratch files live under
    ``.perfbench-tmp`` in the checkout and are removed on exit.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.package = (self.src / "bellghz").resolve()
        if not (self.package / "__init__.py").is_file():
            raise BenchError(f"no bellghz sources under {self.src}; run from a checkout root")
        self._scratch = root / ".perfbench-tmp"

    def __enter__(self) -> "Checkout":
        self._scratch.mkdir(exist_ok=True)
        self._tmpdir = tempfile.TemporaryDirectory(dir=self._scratch)
        self.tmp = self._tmpdir.name
        env = dict(os.environ)
        env.pop("BELLGHZ_OUTDIR", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        env["PERFBENCH_TMP"] = self.tmp
        self.env = env
        return self

    def __exit__(self, *exc) -> None:
        self._tmpdir.cleanup()
        if not any(self._scratch.iterdir()):
            self._scratch.rmdir()

    def spawn(self, argv: list[str], env: dict | None = None, stderr=subprocess.DEVNULL):
        return subprocess.Popen(
            argv, cwd=self.root, env=env or self.env, stdout=subprocess.PIPE,
            stderr=stderr, text=True,
        )

    def time_to_ready(self, argv: list[str]):
        """Spawn a child and return (it, seconds until it printed ``READY``).

        The ``READY <path>`` line must name this checkout's bellghz.
        """
        start = time.perf_counter()
        proc = self.spawn(argv, stderr=None)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if not line.startswith("READY ") or Path(line[6:].strip()).resolve().parent != self.package:
            _stop(proc)
            raise BenchError(f"child did not import bellghz from {self.package}: {line!r}")
        return proc, elapsed

    def run_cli(self, argv: list[str], env: dict):
        """One command process: (exit code, stdout, wall seconds)."""
        start = time.perf_counter()
        proc = self.spawn(argv, env=env)
        out = _finish(proc, CHILD_TIMEOUT_S, " ".join(argv[1:]), check=False)
        # communicate() reaped the child; RUSAGE_CHILDREN holds the
        # largest peak of any reaped child, which is what cli-cold reports
        return proc.returncode, out, time.perf_counter() - start

    def importtime(self) -> dict[str, float]:
        samples = []
        for _ in range(IMPORTTIME_SAMPLES):
            proc = subprocess.Popen(
                [sys.executable, "-X", "importtime", "-c", "import bellghz.cli"],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            try:
                _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _stop(proc)
                raise BenchError("import bellghz.cli did not finish") from None
            if proc.returncode != 0:
                raise BenchError(f"import bellghz.cli failed:\n{err[-2000:]}")
            samples.append(parse_importtime(err))
        return {m: statistics.median(s[m] for s in samples) for m in IMPORT_METRICS}


def _finish(proc: subprocess.Popen, timeout: float, what: str, check: bool = True) -> str:
    """Wait for a child and return its stdout; a hung child is killed."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError(f"{what} ran longer than {timeout:g} s") from None
    if check and proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}")
    return out


def _stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def _peak_children_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ------------------------------------------------------------ cli-cold


def _kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _alpha(gamma: float) -> float:
    p = (5.0 - 4.0 * math.cos(4 * gamma) + 3.0 * math.cos(8 * gamma)) / 48.0
    return 2.0 * math.cos(4 * gamma) / math.sqrt(48.0 * p)


def _check_correlations(out: str) -> list[str]:
    a = _alpha(0.05 * math.pi)
    expected = {
        "iiii": 1.0, "0z0z": 1 - a * a, "00zz": abs(1 - 2 * a * a),
        "0x0x": math.sqrt(2.0) * abs(a) * math.sqrt(1 - a * a), "00xx": a * a,
    }
    rows = {line.split(",")[0]: float(line.split(",")[2]) for line in out.splitlines()[1:]}
    if rows.keys() != expected.keys():
        return [f"correlations lists classes {sorted(rows)}"]
    return [f"class {k} modulus {rows[k]!r} != {v!r}"
            for k, v in expected.items() if abs(rows[k] - v) > 1e-9]


def _check_cli(name: str, out: str, outdir: str) -> list[str]:
    """Content checks of one README example's stdout (and --out file)."""
    lines = out.splitlines()
    kv = _kv(out)
    if name == "derive":
        ok = (abs(float(kv["overlap"]) - 1.0) <= 1e-12
              and abs(float(kv["probability"]) - 1.0 / 24.0) <= 1e-12)
        return [] if ok else [f"derive at 0.125pi: overlap {kv['overlap']}, p {kv['probability']}"]
    if name == "sweep":
        with open(os.path.join(outdir, "sweep.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        return [] if out == "" and len(rows) == 102 else ["sweep --out wrote the wrong table"]
    if name == "catalog":
        return [] if len(lines) == 10 else [f"catalog printed {len(lines) - 1} rows, expected 9"]
    if name == "crossings":
        return [] if len(lines) == 5 else [f"crossings printed {len(lines) - 1} rows, expected 4"]
    if name == "correlations":
        return _check_correlations(out)
    if name == "witness":
        ok = (abs(float(kv["c"]) - 0.5) <= 1e-12 and abs(float(kv["fidelity"]) - 1.0) <= 1e-12
              and kv["detected"] == "true")
        return [] if ok else [f"witness at 0.125pi: {kv}"]
    if name == "tomo":
        # the Bell-pair product is biseparable (c = 1) but entangled in each pair
        ok = (abs(float(kv["c"]) - 1.0) <= 1e-12 and 0.99 <= float(kv["fidelity"]) <= 1.0
              and float(kv["pairwise_front"]) < 0.0 and float(kv["pairwise_back"]) < 0.0)
        return [] if ok else [f"tomo at gamma 0: {kv}"]
    if name == "noise":
        ok = all(0.0 <= float(kv[k]) <= 1.0 for k in ("fourfold_fidelity", "state_fidelity"))
        return [] if ok else [f"noise: {kv}"]
    return [] if out == "" else ["usage error printed to stdout"]


def cli_cold(co: Checkout, seed: int, seconds: float, traced: bool, min_rotations: int = 2):
    """Timed rotations of fresh CLI processes.

    A rotation starts only while the previous one would still fit in the
    window, with at least ``min_rotations`` of them.  Returns
    (latencies, success flags, failures, per-command walls, per-request spans).
    """
    rng = random.Random(seed)
    outdir = tempfile.mkdtemp(dir=co.tmp)
    env = dict(co.env, BELLGHZ_OUTDIR=outdir)
    first_out: dict[str, str] = {}
    latencies: list[float] = []
    ok: list[bool] = []
    failures: list[str] = []
    walls: dict[str, list[float]] = {name: [] for name in CLI_COMMANDS}
    spans: list[dict] = []
    span_file = os.path.join(co.tmp, "spans.json")
    start = time.perf_counter()
    rotations = 0
    last = 0.0
    while rotations < min_rotations or time.perf_counter() - start + last <= seconds:
        rot_start = time.perf_counter()
        order = list(CLI_ROTATION)
        rng.shuffle(order)
        for name, argv, expected_code in order:
            if traced:
                cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "cli-traced", span_file, *argv]
            else:
                cmd = [sys.executable, "-m", "bellghz.cli", *argv]
            code, out, wall = co.run_cli(cmd, env)
            latencies.append(wall)
            walls[name].append(wall)
            problems = [] if code == expected_code else [f"exit {code}, expected {expected_code}"]
            if not problems:
                key = " ".join(argv)
                if first_out.setdefault(key, out) != out:
                    problems.append("stdout differs from the first call with the same argv")
                try:
                    problems += _check_cli(name, out, outdir)
                except (KeyError, ValueError, IndexError, OSError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
            if traced:
                try:
                    with open(span_file, encoding="utf-8") as fh:
                        spans.append(json.load(fh))
                    os.remove(span_file)
                except FileNotFoundError:
                    spans.append({})
                    problems.append("traced call wrote no spans")
            ok.append(not problems)
            if problems:
                failures.append(f"{name}: {problems[0]}")
        rotations += 1
        last = time.perf_counter() - rot_start
    return latencies, ok, failures, walls, spans


# -------------------------------------------------------------- warm


def warm(co: Checkout, workload: str, seed: int, seconds: float, traced: bool,
         setup_samples: int = SETUP_SAMPLES):
    """Set up ``setup_samples`` fresh workers; one of them runs the loop."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "warm", workload, str(seed),
            repr(seconds), "1" if traced else "0"]

    def setup_only() -> float:
        proc, elapsed = co.time_to_ready(argv + ["--setup-only"])
        _finish(proc, CHILD_TIMEOUT_S, "set-up worker")
        return elapsed

    before = setup_samples // 2
    setups = [setup_only() for _ in range(before)]
    proc, elapsed = co.time_to_ready(argv)
    setups.append(elapsed)
    out = _finish(proc, seconds + CHILD_TIMEOUT_S, f"{workload} worker")
    setups += [setup_only() for _ in range(setup_samples - before - 1)]
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    return result


# -------------------------------------------------------------- runs


def cli_setup_s(co: Checkout, samples: int) -> list[float]:
    """Times from a fresh interpreter to ``import bellghz.cli`` done."""
    code = ("import os, bellghz.cli; "
            "print('READY', os.path.abspath(bellghz.cli.__file__), flush=True)")
    setups = []
    for _ in range(samples):
        proc, elapsed = co.time_to_ready([sys.executable, "-c", code])
        _finish(proc, CHILD_TIMEOUT_S, "import bellghz.cli")
        setups.append(elapsed)
    return setups


def run(co: Checkout, workload: str, seed: int, seconds: float, trace: bool,
        min_rotations: int = 2, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run: attempts, failures and the metrics of its trace mode."""
    if workload == "cli-cold":
        if not trace:
            setups = cli_setup_s(co, setup_samples // 2)
            lat, ok, failures, _, _ = cli_cold(co, seed, seconds, False, min_rotations)
            setups += cli_setup_s(co, setup_samples - setup_samples // 2)
            metrics = latency_metrics(lat, ok)
            metrics["peak_rss_mb"] = _peak_children_rss_mb()
            metrics["setup_s"] = statistics.median(setups)
        else:
            lat, _, failures, walls, _ = cli_cold(co, seed, seconds / 2, False, 1)
            t_lat, _, t_failures, _, spans = cli_cold(co, seed + 1, seconds / 2, True, 1)
            metrics = span_metrics(spans)
            metrics.update({f"cli.{c}.wall_ms": 1e3 * statistics.median(walls[c])
                            for c in CLI_COMMANDS})
            metrics["trace.overhead_ms"] = 1e3 * (statistics.median(t_lat)
                                                  - statistics.median(lat))
            lat, failures = lat + t_lat, failures + t_failures
        result = {"attempted": len(lat), "failed": len(failures),
                  "failures": failures[:5], "metrics": metrics}
    else:
        result = warm(co, workload, seed, seconds, trace, 1 if trace else setup_samples)
        if not trace:
            result["metrics"]["setup_s"] = result.pop("setup_s")
    if trace:
        result["metrics"].update(co.importtime())
        result["metrics"].update({f"cli.{c}.wall_ms": 0.0 for c in CLI_COMMANDS
                                  if f"cli.{c}.wall_ms" not in result["metrics"]})
    names = LAYER_METRICS if trace else tuple(END_TO_END_UNITS)
    result["info"] = {n: v for n, v in result["metrics"].items() if n in INFO_UNITS}
    result["metrics"] = {n: result["metrics"][n] for n in names}
    return result


def report(workload: str, seed: int, seconds: float, trace: bool, host: dict,
           result: dict) -> None:
    names = LAYER_METRICS if trace else tuple(END_TO_END_UNITS)
    units = {n: (layer_unit(n) if trace else END_TO_END_UNITS[n]) for n in names}
    print(f"bellghz benchmark: workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print("host " + json.dumps(host, sort_keys=True))
    print(f"requests: {result['attempted']} attempted, {result['failed']} failed, "
          f"error_rate = {result['failed'] / result['attempted']:.6g} "
          f"(latency samples: {result['attempted']})")
    for failure in result["failures"]:
        print(f"  failed: {failure.strip().splitlines()[-1]}")
    for n in names:
        print(f"  {n:48s} {result['metrics'][n]:>14.6g} {units[n]}")
    for n, value in result["info"].items():
        print(f"  {n:48s} {value:>14.6g} {INFO_UNITS[n]} (not in the result)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]} for n in names},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        with Checkout(Path.cwd()) as co:
            host = host_info()
            result = run(co, args.workload, args.seed, args.seconds, bool(args.trace))
            host["reference_end_ms"] = host_reference_ms()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.seconds, bool(args.trace), host, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
