"""Cold start: each command loads only the modules it runs, and the package
re-exports its public names lazily."""

import json
import os
import subprocess
import sys

import pytest

import bellghz

SRC = os.path.dirname(os.path.dirname(bellghz.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))

#: Runs ``cli.main`` on the given argv and prints the loaded module names.
CLI_MODULES = """\
import contextlib, io, json, sys
from bellghz import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def fresh_python(code, *args, env=ENV):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def loaded_by(argv, exit_code=0):
    code, modules = fresh_python(CLI_MODULES, *argv)
    assert code == exit_code
    return set(modules)


def test_cli_import_does_not_load_numpy():
    modules = fresh_python("import json, sys, bellghz.cli; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("bellghz")} == {"bellghz", "bellghz.cli"}


def test_cli_import_builds_no_parser():
    code = "import json, bellghz.cli as c; print(json.dumps(c._parser.cache_info().currsize))"
    assert fresh_python(code) == 0


@pytest.mark.parametrize("argv, exit_code", [
    (["--version"], 0),
    (["--help"], 0),
    (["frobnicate"], 2),
    (["tomo", "--gamma", "0", "--method", "mle"], 2),
])
def test_version_help_and_flag_errors_do_not_load_numpy(argv, exit_code):
    assert "numpy" not in loaded_by(argv, exit_code)


@pytest.mark.parametrize("argv", [
    ["derive", "--gamma", "0.125pi"],
    ["sweep", "--steps", "5"],
    ["catalog"],
    ["crossings"],
    ["correlations", "--gamma", "0.05pi"],
])
def test_closed_form_commands_do_not_load_noise_or_tomography(argv):
    assert not loaded_by(argv) & {"bellghz.tomo", "bellghz.imperfections"}


def test_noise_does_not_load_tomography():
    argv = ["noise", "--gamma", "0.098pi",
            "--noise-json", '{"pair_probability": 0.05, "efficiency": 0.2}']
    modules = loaded_by(argv)
    assert "bellghz.tomo" not in modules
    assert "bellghz.circuit" in modules  # the six-photon branch propagates photons


@pytest.mark.parametrize("argv", [
    ["tomo", "--gamma", "0", "--shots", "1000"],
    ["witness", "--gamma", "0.125pi"],
])
def test_noiseless_state_commands_do_not_load_the_optics(argv):
    assert not loaded_by(argv) & {"bellghz.circuit", "bellghz.fock"}


def test_every_public_name_resolves_in_a_fresh_interpreter():
    code = """\
import json, bellghz
listed = dir(bellghz)
star = {}
exec("from bellghz import *", star)
star.pop("__builtins__")
missing = [n for n in bellghz.__all__ if getattr(bellghz, n, None) is None]
print(json.dumps([bellghz.__all__, listed, sorted(star), missing]))
"""
    names, listed, star, missing = fresh_python(code)
    assert missing == []
    assert "noise_report" not in names
    assert set(names) <= set(listed)
    assert star == sorted(names)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        bellghz.nope  # noqa: B018


@pytest.mark.parametrize("argv", [
    ["derive", "--gamma", "0.1", "--frobnicate"],  # a bad flag
    ["witness", "--gamma", "abc"],  # an angle that does not parse
    ["witness", "--gamma", "0.3pi"],  # an angle outside [0, pi/4]
    ["tomo", "--gamma", "0", "--seed", "-1"],
    ["tomo", "--gamma", "0", "--shots", "2e18"],  # not an integer literal
    ["tomo", "--gamma", "0", "--shots", str(2 * 10**18)],  # above MAX_SHOTS_PER_SETTING
    ["sweep", "--steps", "1"],
    ["sweep", "--steps", "1000001"],  # above MAX_SWEEP_STEPS
])
def test_usage_errors_exit_2_without_loading_numpy(argv):
    assert "numpy" not in loaded_by(argv, exit_code=2)


def test_numpy_free_checks_are_the_ones_family_exports():
    modules = fresh_python(
        "import json, sys, bellghz._checks; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in modules
    from bellghz import _checks, family, tomo

    for name in ("GAMMA_MIN", "GAMMA_MAX", "_real", "check_gamma"):
        assert getattr(family, name) is getattr(_checks, name)
    assert tomo.MAX_SHOTS_PER_SETTING is _checks.MAX_SHOTS_PER_SETTING
    assert tomo.RECONSTRUCTION_METHODS is _checks.RECONSTRUCTION_METHODS


def test_noise_report_loads_no_masked_arrays():
    # the Fock kernel's plans are built from dicts and lists; numpy.ma alone
    # costs about 0.5 MB
    code = """\
import json, sys
from bellghz import imperfections
cfg = imperfections.NoiseConfig(pair_probability=0.05, efficiency=0.3, visibility=0.9,
                                depolarizing_q=0.02)
imperfections.noise_report(0.3, cfg)
print(json.dumps(sorted(sys.modules)))
"""
    modules = fresh_python(code)
    assert {"bellghz.fock", "bellghz.circuit"} <= set(modules)
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("bytecode", ["not written", "cached"])
def test_tomo_import_retains_under_one_and_a_half_mib(bytecode, tmp_path):
    # numpy's own import is not counted; the Pauli and setting tables live once,
    # in analysis, so tomo adds no 256-matrix stack
    code = """\
import json, tracemalloc
import numpy
tracemalloc.start()
import bellghz.tomo
print(json.dumps(tracemalloc.get_traced_memory()[0]))
"""
    env = dict(ENV)
    if bytecode == "not written":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(tmp_path)
        fresh_python("import bellghz.tomo; print(0)", env=env)
        assert any(tmp_path.rglob("tomo.*.pyc"))
    assert fresh_python(code, env=env) < 1.5 * 2**20
