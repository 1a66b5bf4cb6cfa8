"""Fast checks of the benchmark itself: tiny runs of every workload.

    python3 -m pytest perfbench -q

Not part of the package's own suite (``testpaths`` is ``tests``); each
test starts real bellghz processes from this checkout's ``src``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from stats import (  # noqa: E402
    END_TO_END_UNITS,
    INFO_UNITS,
    LAYER_METRICS,
    layer_unit,
    parse_importtime,
)

#: ``sweep --steps N`` exits 2 for these N in [901, 1001]: the last grid
#: angle GAMMA_MAX*(N-1)/(N-1) rounds one ulp above pi/4.
SWEEP_DEFECT = (910, 972, 983)

#: Calls per request that scale with lib-warm's seeded sweep size.
SIZE_DEPENDENT = {
    "family.class_moduli.calls",
    "family.state_at.calls",
    "analysis.biseparable_bound.calls",
}


@pytest.fixture(scope="module")
def checkout():
    with run.Checkout(ROOT) as co:
        yield co


def _tiny(checkout, workload: str, seed: int, trace: bool) -> dict:
    return run.run(checkout, workload, seed, 0.5, trace, min_rotations=1, setup_samples=1)


def _assert_no_failures(result: dict) -> None:
    assert result["attempted"] >= 1
    assert (result["failed"], result["failures"]) == (0, [])


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert [m["name"] for m in bench["per_layer"]] == list(LAYER_METRICS)
    assert all(m["unit"] == layer_unit(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(checkout, workload):
    result = _tiny(checkout, workload, 1, False)
    _assert_no_failures(result)
    assert list(result["metrics"]) == list(END_TO_END_UNITS)
    assert all(value > 0 for value in result["metrics"].values())
    assert list(result["info"]) == list(INFO_UNITS)
    assert all(value > 0 for value in result["info"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_calls_repeat_across_seeds(checkout, workload):
    first, second = (_tiny(checkout, workload, seed, True) for seed in (1, 2))
    for result in (first, second):
        _assert_no_failures(result)
        assert list(result["metrics"]) == list(LAYER_METRICS)
    calls = [m for m in LAYER_METRICS if m.endswith(".calls")]
    if workload == "lib-warm":
        calls = [m for m in calls if m not in SIZE_DEPENDENT]
    assert {m: first["metrics"][m] for m in calls} == {m: second["metrics"][m] for m in calls}
    expected = {
        "lib-warm": {
            "circuit.run_pipeline.calls": 2,
            "imperfections._third_order_branches.calls": 2,
            "fock.postselect.calls": 77,
            "tomo.setting_probabilities.calls": 162,
        },
        "cli-cold": {},
    }[workload]
    assert {m: first["metrics"][m] for m in expected} == expected


def test_lib_warm_leaves_out_exactly_the_defective_sweep_sizes():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SWEEP_STEPS

    assert sorted(set(range(901, 1002)) - set(SWEEP_STEPS)) == list(SWEEP_DEFECT)


@pytest.mark.xfail(strict=True, reason="known defect: the last sweep angle rounds above pi/4; "
                   "once fixed, put these sizes back into lib-warm's SWEEP_STEPS")
@pytest.mark.parametrize("steps", SWEEP_DEFECT)
def test_sweep_accepts_every_step_count(checkout, steps):
    argv = [sys.executable, "-m", "bellghz.cli", "sweep", "--steps", str(steps)]
    code, out, _ = checkout.run_cli(argv, checkout.env)
    assert code == 0
    assert len(out.splitlines()) == steps + 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lib-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_importtime_attributes_nested_imports_to_the_outermost_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.f2py",
        "import time:       200 |        300 |     scipy.linalg",
        "import time:       400 |        700 |   scipy.optimize",
        "import time:       500 |        500 |   numpy",
        "import time:        50 |       1250 | bellghz.cli",
    ])
    assert parse_importtime(stderr) == {
        "cli.import_ms": 1.25,
        "cli.import.scipy_ms": 0.7,
        "cli.import.numpy_ms": 0.5,
    }
