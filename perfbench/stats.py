"""Metric names and the arithmetic that turns samples into metrics.

Standard library only: ``run.py`` imports this without importing numpy
or bellghz, so the orchestrating process stays out of what it measures.
"""

from __future__ import annotations

import statistics

#: Per-request span metrics of the traced run: (metric, span, field).
#: ``calls`` is an exact count; ``self``/``total`` are seconds, reported
#: in ms; the rest are counters recorded at the span boundary.
SPAN_METRICS = (
    ("cli.main.total_ms", "cli.main", "total"),
    ("family.find_crossings.total_ms", "family.find_crossings", "total"),
    ("family.class_moduli.calls", "family.class_moduli", "calls"),
    ("family.class_moduli.self_ms", "family.class_moduli", "self"),
    ("family.state_at.calls", "family.state_at", "calls"),
    ("analysis.biseparable_bound.calls", "analysis.biseparable_bound", "calls"),
    ("analysis.biseparable_bound.self_ms", "analysis.biseparable_bound", "self"),
    ("fock.apply_transform.calls", "fock.apply_transform", "calls"),
    ("fock.apply_transform.self_ms", "fock.apply_transform", "self"),
    ("fock.apply_transform.terms_out", "fock.apply_transform", "terms_out"),
    ("fock.postselect.calls", "fock.postselect", "calls"),
    ("fock.postselect.self_ms", "fock.postselect", "self"),
    ("fock.postselect.kept_ratio", "fock.postselect", "kept_ratio"),
    ("circuit.run_pipeline.calls", "circuit.run_pipeline", "calls"),
    ("circuit.run_pipeline.total_ms", "circuit.run_pipeline", "total"),
    ("circuit.pipeline_transform.calls", "circuit.pipeline_transform", "calls"),
    ("circuit.to_qubits.calls", "circuit.to_qubits", "calls"),
    ("imperfections._third_order_branches.calls", "imperfections._third_order_branches", "calls"),
    ("imperfections._third_order_branches.total_ms", "imperfections._third_order_branches", "total"),
    ("imperfections.higher_order_fourfolds.total_ms", "imperfections.higher_order_fourfolds", "total"),
    ("imperfections.noisy_density_matrix.total_ms", "imperfections.noisy_density_matrix", "total"),
    ("tomo.simulate_counts.self_ms", "tomo.simulate_counts", "self"),
    ("tomo.exact_frequency_records.self_ms", "tomo.exact_frequency_records", "self"),
    ("tomo.reconstruct.calls", "tomo.reconstruct", "calls"),
    ("tomo.reconstruct.self_ms", "tomo.reconstruct", "self"),
    ("tomo.setting_probabilities.calls", "tomo.setting_probabilities", "calls"),
    ("tomo.write_counts.self_ms", "tomo.write_counts", "self"),
    ("tomo.read_counts.self_ms", "tomo.read_counts", "self"),
    ("analysis.as_density.calls", "analysis.as_density", "calls"),
    ("analysis.correlations.calls", "analysis.correlations", "calls"),
    ("analysis.correlations.self_ms", "analysis.correlations", "self"),
    ("analysis.setting_cover.total_ms", "analysis.setting_cover", "total"),
    ("analysis.evaluate_witness.total_ms", "analysis.evaluate_witness", "total"),
)

#: ``cli-cold`` commands, by the name their ``wall_ms`` metric carries.
CLI_COMMANDS = (
    "derive", "sweep", "catalog", "crossings", "correlations",
    "witness", "tomo", "noise", "usage_error",
)

IMPORT_METRICS = ("cli.import_ms", "cli.import.scipy_ms", "cli.import.numpy_ms")

#: Every metric a ``--trace 1`` run reports, on every workload.
LAYER_METRICS = (
    IMPORT_METRICS
    + tuple(f"cli.{c}.wall_ms" for c in CLI_COMMANDS)
    + tuple(m for m, _, _ in SPAN_METRICS)
    + ("trace.overhead_ms",)
)

END_TO_END_UNITS = {
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Printed by a ``--trace 0`` run beside the end-to-end metrics, but left
#: out of its result line: see :func:`latency_metrics`.
INFO_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def latency_metrics(latencies: list[float], ok: list[bool]) -> dict[str, float]:
    """Closed-loop throughput and latency from request wall times (s).

    Throughput is successful requests per second of request time over the
    whole run; p50 and p90 are taken over all requests.  The host switches
    between a fast state and a ~1.5x slower one that lasts 10-30 s, and the
    slow share of a run drifts from minute to minute.  The median lands on
    whichever state held just over half the run, throughput follows the
    slow share, and p90 sits in the slow state in most runs, so it moves
    least: it is the gated timing, the other two are information.
    """
    return {
        "throughput_rps": sum(ok) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def _field(record: dict | None, field: str) -> float:
    if record is None:
        return 0
    if field == "kept_ratio":
        return record["terms_kept"] / record["terms_in"] if record["terms_in"] else 0.0
    return record[field]


def span_metrics(requests: list[dict[str, dict]]) -> dict[str, float]:
    """Median over requests of each :data:`SPAN_METRICS` entry.

    A span a request never entered counts as zero calls and zero time.
    """
    out = {}
    for metric, span, field in SPAN_METRICS:
        values = [_field(r.get(span), field) for r in requests]
        if field == "calls":
            out[metric] = statistics.median_low(values)
        elif field in ("self", "total"):
            out[metric] = 1e3 * statistics.median(values)
        else:
            out[metric] = statistics.median(values)
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """``cli.import*`` metrics from ``python -X importtime -c 'import bellghz.cli'``.

    ``cli.import_ms`` is the cumulative time of ``bellghz.cli``; the scipy
    and numpy shares sum the cumulative time of each outermost entry of
    that package, so modules scipy pulls in count as scipy's.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e3))
    out = {"cli.import_ms": 0.0, "cli.import.scipy_ms": 0.0, "cli.import.numpy_ms": 0.0}
    # importtime prints children before their parent; walk it backwards
    # so each entry's enclosing package is known when it is reached
    enclosing: list[tuple[int, str]] = []
    for depth, name, ms in reversed(rows):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        top = name.split(".")[0]
        outer = {n.split(".")[0] for _, n in enclosing}
        if name == "bellghz.cli":
            out["cli.import_ms"] = ms
        elif top in ("scipy", "numpy") and not outer & {"scipy", "numpy"}:
            out[f"cli.import.{top}_ms"] += ms
        enclosing.append((depth, name))
    return out
