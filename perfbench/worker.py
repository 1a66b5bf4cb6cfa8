"""One fresh interpreter running a warm workload, or one traced CLI call.

    worker.py warm WORKLOAD SEED SECONDS TRACE [--setup-only]
    worker.py cli-traced SPANFILE ARG...

``warm`` imports bellghz, runs one untimed warm-up request, prints
``READY`` and then runs the closed loop; its last stdout line is a JSON
result.  With TRACE 1 the window is split: the first half untraced, the
second half with every :data:`tracer.TARGETS` function wrapped, and the
difference of the two median latencies is the tracing overhead.

``cli-traced`` is the ``cli-cold`` request under the same tracer: it runs
``bellghz.cli.main(ARG...)``, writes the request's spans to SPANFILE and
exits with main's exit code.  ``run.py`` starts both with ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback

from stats import latency_metrics, span_metrics
from tracer import Tracer


def closed_loop(workload, rng: random.Random, seconds: float, tracer: Tracer | None = None):
    """Requests back to back until ``seconds`` of wall time have passed.

    Only the request is timed; its check runs after the clock stops.
    """
    latencies: list[float] = []
    ok: list[bool] = []
    spans: list[dict] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    while len(latencies) < 2 or time.perf_counter() < deadline:
        inp = workload.make_input(rng)
        if tracer is not None:
            tracer.end_request()  # drop what the previous check recorded
        start = time.perf_counter()
        try:
            result = workload.request(inp)
        except Exception:  # a failed request is counted, not fatal
            result = None
            problems = [traceback.format_exc(limit=2)]
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            spans.append(tracer.end_request())
        if result is not None:
            try:
                problems = workload.check(inp, result)
            except Exception:
                problems = [traceback.format_exc(limit=2)]
        ok.append(not problems)
        if problems:
            failures.append(f"request {len(latencies)}: {problems[0]}")
    return latencies, ok, spans, failures


def _warm(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> None:
    import bellghz
    from workloads import WARM

    with tempfile.TemporaryDirectory(dir=os.environ.get("PERFBENCH_TMP")) as workdir:
        workload = WARM[name](workdir)
        workload.request(workload.make_input(random.Random(seed)))
        print(f"READY {os.path.abspath(bellghz.__file__)}", flush=True)
        if setup_only:
            return
        rng = random.Random(seed)
        if not trace:
            latencies, ok, _, failures = closed_loop(workload, rng, seconds)
            metrics = latency_metrics(latencies, ok)
        else:
            latencies, _, _, failures = closed_loop(workload, rng, seconds / 2)
            tracer = Tracer()
            tracer.install()
            traced_lat, _, spans, traced_failures = closed_loop(
                workload, rng, seconds / 2, tracer
            )
            tracer.uninstall()
            metrics = span_metrics(spans)
            metrics["trace.overhead_ms"] = 1e3 * (
                statistics.median(traced_lat) - statistics.median(latencies)
            )
            latencies += traced_lat
            failures += traced_failures
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
    }), flush=True)


def _cli_traced(span_file: str, argv: list[str]) -> int:
    from bellghz import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.end_request(), fh)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli-traced"]:
        return _cli_traced(argv[1], argv[2:])
    if argv[:1] == ["warm"] and len(argv) in (5, 6):
        name, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
        _warm(name, seed, seconds, trace, argv[5:] == ["--setup-only"])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
