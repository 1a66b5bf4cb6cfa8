"""Flag parsing, output formats, exit codes, and determinism of the CLI."""

import contextlib
import csv
import io
import json
import math
import re

import numpy as np
import pytest

from bellghz import alpha, biseparable_bound, class_moduli, cli, probability, tomo
from bellghz.family import CLASS_NAMES

SUBCOMMANDS = (
    "derive",
    "sweep",
    "catalog",
    "crossings",
    "correlations",
    "witness",
    "tomo",
    "noise",
)

TOP_HELP = """\
usage: bellghz [-h] [--version] command ...

Simulate the tunable four-photon family interpolating between two Bell pairs
and a GHZ state, and analyze its correlations.

positional arguments:
  command
    derive      closed-form state at one angle, checked against the circuit
    sweep       CSV over the full angle range
    catalog     the nine distinguished family members
    crossings   angles where correlation-class moduli meet
    correlations
                correlation-class moduli at one angle
    witness     biseparable-bound witness at one angle
    tomo        simulated tomography and reconstruction
    noise       imperfection study at one angle

options:
  -h, --help    show this help message and exit
  --version     show program's version number and exit

exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O error
"""

DERIVE_HELP = """\
usage: bellghz derive [-h] --gamma ANGLE [--json | --table] [--out PATH]

Print alpha, the coincidence probability, the 16 basis amplitudes, and the
overlap between the closed form and the simulated circuit output at one tuning
angle.

options:
  -h, --help     show this help message and exit
  --gamma ANGLE  tuning angle: radians, or a pi multiple like 0.125pi; range
                 [0, 0.25pi]
  --json         emit JSON
  --table        emit a table (default)
  --out PATH     write output to PATH instead of stdout (relative paths
                 resolve against $BELLGHZ_OUTDIR)
"""

#: ``COMMAND --help`` at 80 columns for the commands other than derive.
COMMAND_HELP = {
    "sweep": """\
usage: bellghz sweep [-h] [--steps N] [--out PATH]

Write one CSV row per angle across [0, 0.25pi] inclusive: alpha, probability,
the five correlation-class moduli, and the biseparable fidelity bound.

options:
  -h, --help  show this help message and exit
  --steps N   row count, N >= 2 (default 101)
  --out PATH  write output to PATH instead of stdout (relative paths resolve
              against $BELLGHZ_OUTDIR)
""",
    "catalog": """\
usage: bellghz catalog [-h] [--json] [--out PATH]

List the named states the family passes through, with their angles,
amplitudes, probabilities, and biseparable bounds.

options:
  -h, --help  show this help message and exit
  --json      emit JSON instead of the default format
  --out PATH  write output to PATH instead of stdout (relative paths resolve
              against $BELLGHZ_OUTDIR)
""",
    "crossings": """\
usage: bellghz crossings [-h] [--all] [--json] [--out PATH]

List the angles at which exactly one pair of correlation-class curves crosses.
--all adds the degenerate meetings (several pairs at one angle) and the
tangential contacts at the GHZ point.

options:
  -h, --help  show this help message and exit
  --all       include degenerate and tangential contacts
  --json      emit JSON instead of the default format
  --out PATH  write output to PATH instead of stdout (relative paths resolve
              against $BELLGHZ_OUTDIR)
""",
    "correlations": """\
usage: bellghz correlations [-h] --gamma ANGLE [--json] [--out PATH]

Evaluate the full correlation tensor at one angle and print the modulus and
term count of each of the five classes.

options:
  -h, --help     show this help message and exit
  --gamma ANGLE  tuning angle: radians, or a pi multiple like 0.125pi; range
                 [0, 0.25pi]
  --json         emit JSON instead of the default format
  --out PATH     write output to PATH instead of stdout (relative paths
                 resolve against $BELLGHZ_OUTDIR)
""",
    "witness": """\
usage: bellghz witness [-h] --gamma ANGLE [--noise-json JSON|PATH] [--json]
                       [--out PATH]

Evaluate the fidelity witness at one angle, optionally on a noisy state: bound
c, fidelity F, witness value c - F, and whether genuine four-partite
entanglement is detected (F > c).

options:
  -h, --help            show this help message and exit
  --gamma ANGLE         tuning angle: radians, or a pi multiple like 0.125pi;
                        range [0, 0.25pi]
  --noise-json JSON|PATH
                        noise settings as an inline JSON object or a path to a
                        JSON file; keys: pair_probability, efficiency,
                        visibility, depolarizing_q
  --json                emit JSON instead of the default format
  --out PATH            write output to PATH instead of stdout (relative paths
                        resolve against $BELLGHZ_OUTDIR)
""",
    "tomo": """\
usage: bellghz tomo [-h] --gamma ANGLE [--shots N] [--seed S]
                    [--method {linear-inversion,physical-projection}]
                    [--noise-json JSON|PATH] [--json] [--out PATH]

Simulate counts over all 81 local measurement settings (exact frequencies when
--shots is omitted), reconstruct the density matrix, and report the witness
and both pairwise witnesses.

options:
  -h, --help            show this help message and exit
  --gamma ANGLE         tuning angle: radians, or a pi multiple like 0.125pi;
                        range [0, 0.25pi]
  --shots N             Poisson-mean shots per setting; omit for exact
                        frequencies
  --seed S              RNG seed (default 0)
  --method {linear-inversion,physical-projection}
                        reconstruction method (default physical-projection)
  --noise-json JSON|PATH
                        noise settings as an inline JSON object or a path to a
                        JSON file; keys: pair_probability, efficiency,
                        visibility, depolarizing_q
  --json                emit JSON instead of the default format
  --out PATH            write output to PATH instead of stdout (relative paths
                        resolve against $BELLGHZ_OUTDIR)
""",
    "noise": """\
usage: bellghz noise [-h] --gamma ANGLE [--noise-json JSON|PATH] [--json]
                     [--out PATH]

Report the fidelity impact of higher-order emission with loss, reduced
interference visibility, and white noise at one angle.

options:
  -h, --help            show this help message and exit
  --gamma ANGLE         tuning angle: radians, or a pi multiple like 0.125pi;
                        range [0, 0.25pi]
  --noise-json JSON|PATH
                        noise settings as an inline JSON object or a path to a
                        JSON file; keys: pair_probability, efficiency,
                        visibility, depolarizing_q
  --json                emit JSON instead of the default format
  --out PATH            write output to PATH instead of stdout (relative paths
                        resolve against $BELLGHZ_OUTDIR)
""",
}

#: ``crossings`` and ``crossings --all`` stdout: libm and the catalog's Brent
#: inversion alone fix these bytes; every row sits at a catalog angle exactly.
CROSSINGS_CSV = """\
gamma,gamma_in_pi,alpha,class_a,class_b
0.238829154531,0.0760216809962,0.888073833977,00zz,0x0x
0.285929435101,0.0910141659435,0.707106781187,0z0z,00xx
0.324883143267,0.103413516356,0.459700843381,00zz,0x0x
0.546569008866,0.173978319004,-0.459700843381,00zz,0x0x
"""
CROSSINGS_ALL_CSV = """\
gamma,gamma_in_pi,alpha,class_a,class_b
0.238829154531,0.0760216809962,0.888073833977,00zz,0x0x
0.261799387799,0.0833333333333,0.816496580928,0x0x,00xx
0.261799387799,0.0833333333333,0.816496580928,0z0z,00zz
0.285929435101,0.0910141659435,0.707106781187,0z0z,00xx
0.307739854335,0.0979566380077,0.57735026919,00zz,00xx
0.307739854335,0.0979566380077,0.57735026919,0z0z,0x0x
0.324883143267,0.103413516356,0.459700843381,00zz,0x0x
0.392699081699,0.125,8.65956056235e-17,0x0x,00xx
0.392699081699,0.125,8.65956056235e-17,0z0z,00zz
0.392699081699,0.125,8.65956056235e-17,iiii,00zz
0.392699081699,0.125,8.65956056235e-17,iiii,0z0z
0.546569008866,0.173978319004,-0.459700843381,00zz,0x0x
"""


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_angle():
    assert cli.parse_angle("0.125pi") == pytest.approx(math.pi / 8)
    assert cli.parse_angle("0.2") == pytest.approx(0.2)
    assert cli.parse_angle("0") == 0.0
    assert math.copysign(1.0, cli.parse_angle("-0")) == 1.0
    assert cli.parse_angle(" 0.25PI ") == pytest.approx(math.pi / 4)
    with pytest.raises(ValueError, match="pi/4"):
        cli.parse_angle("0.3pi")
    with pytest.raises(ValueError, match="cannot parse"):
        cli.parse_angle("twelve")


def test_golden_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert out == TOP_HELP
    code, out, _ = run(["derive", "--help"], capsys)
    assert code == 0
    assert out == DERIVE_HELP


@pytest.mark.parametrize("name", sorted(COMMAND_HELP))
def test_golden_command_help(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([name, "--help"], capsys) == (0, COMMAND_HELP[name], "")


@pytest.mark.parametrize(
    "argv,want",
    [(["crossings"], CROSSINGS_CSV), (["crossings", "--all"], CROSSINGS_ALL_CSV)],
    ids=["crossings", "crossings-all"],
)
def test_golden_crossings(argv, want, capsys):
    assert run(argv, capsys) == (0, want, "")


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_every_subcommand_documents_itself(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run([name, "--help"], capsys)
    assert code == 0
    assert out.startswith(f"usage: bellghz {name}")


def test_derive_table(capsys):
    code, out, err = run(["derive", "--gamma", "0.125pi"], capsys)
    assert code == 0
    assert err == ""
    assert "alpha       = 8.65956056235e-17" in out
    assert "probability = 0.0416666666667" in out
    assert "overlap     = 1" in out
    assert "|HHVV>  0.707106781187" in out
    assert "|VVHH>  0.707106781187" in out
    assert out.count("|") == 16  # all 16 kets listed


def test_derive_json(capsys):
    code, out, _ = run(["derive", "--gamma", "0", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 1
    assert payload["probability"] == pytest.approx(1 / 12, abs=1e-12)
    assert payload["overlap"] == 1
    assert payload["amplitudes"]["HVHV"] == 0.5
    assert payload["amplitudes"]["HHHH"] == 0
    assert len(payload["amplitudes"]) == 16


def test_derive_rejects_out_of_range(capsys):
    code, out, err = run(["derive", "--gamma", "0.3pi"], capsys)
    assert code == 2
    assert out == ""
    assert "pi/4" in err  # the message names the bound


def test_sweep_structure(capsys):
    code, out, _ = run(["sweep", "--steps", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,gamma_in_pi,alpha,probability,iiii,0z0z,00zz,0x0x,00xx,c_bound"
    assert len(lines) == 6
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert first[0] == "0" and first[2] == "1"
    assert float(first[3]) == pytest.approx(1 / 12, abs=1e-12)
    assert float(last[0]) == pytest.approx(math.pi / 4)
    assert float(last[2]) == pytest.approx(-math.sqrt(1 / 3))
    assert float(last[3]) == 0.25
    assert "\r" not in out


def test_sweep_probability_profile(capsys):
    # p falls from 1/12 to its minimum of 1/36 at 4*gamma = arccos(1/3)
    # (grid index 39 for 101 steps), passes 1/24 at the GHZ angle on the
    # way back up, and ends at 1/4
    code, out, _ = run(["sweep", "--steps", "101"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    probs = [float(r[3]) for r in rows]
    assert probs[0] == pytest.approx(1 / 12, abs=1e-12)
    assert probs[50] == pytest.approx(1 / 24, abs=1e-12)
    assert probs[-1] == pytest.approx(0.25, abs=1e-12)
    low = probs.index(min(probs))
    assert low == 39
    assert min(probs) == pytest.approx(1 / 36, abs=1e-4)
    assert all(a > b for a, b in zip(probs[:low], probs[1 : low + 1]))
    assert all(a < b for a, b in zip(probs[low:-1], probs[low + 1 :]))


def test_sweep_grid_containing_dicke_angle(capsys):
    # 97 steps put gamma = pi/12 exactly on the grid (index 32 of 96)
    code, out, _ = run(["sweep", "--steps", "97"], capsys)
    assert code == 0
    row = out.splitlines()[33].split(",")
    assert float(row[1]) == pytest.approx(1 / 12, abs=1e-12)
    assert float(row[2]) == pytest.approx(math.sqrt(2 / 3), abs=1e-10)


def test_sweep_rejects_single_step(capsys):
    code, _, err = run(["sweep", "--steps", "1"], capsys)
    assert code == 2
    assert "at least 2" in err


@pytest.mark.parametrize("steps", [1000001, 10**13])
def test_sweep_rejects_more_than_a_million_steps(steps, capsys):
    # checked before numpy is asked for a grid of that size
    code, out, err = run(["sweep", "--steps", str(steps)], capsys)
    assert (code, out) == (2, "")
    assert err == f"bellghz: error: steps must be at most 1000000, got {steps}\n"


@pytest.mark.parametrize("steps", [14, 100, 910, 972, 983])
def test_sweep_grid_ends_exactly_at_quarter_pi(steps, capsys):
    # (steps - 1) * (pi/4) / (steps - 1) rounds one ulp above pi/4 here
    code, out, _ = run(["sweep", "--steps", str(steps)], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == steps
    last = rows[-1].split(",")
    assert last[0] == cli._fmt(math.pi / 4)
    assert last[1] == "0.25"


def test_catalog_lists_nine(capsys):
    code, out, _ = run(["catalog"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    names = [line.split(",")[0] for line in lines[1:]]
    assert names[0] == "BellPair²"
    assert "GHZ" in names and "D4(2)" in names
    assert names[-1] == "Ψ4−"


def test_crossings_default_lists_four(capsys):
    code, out, _ = run(["crossings"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 4
    in_pi = [float(r[1]) for r in rows]
    for got, want in zip(in_pi, (0.076, 0.091, 0.1034, 0.174)):
        assert got == pytest.approx(want, abs=5e-4)
    alphas = [float(r[2]) for r in rows]
    assert alphas[0] == pytest.approx(math.sqrt((3 + math.sqrt(3)) / 6), abs=1e-6)
    assert alphas[1] == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert alphas[2] == pytest.approx(math.sqrt((3 - math.sqrt(3)) / 6), abs=1e-6)
    assert alphas[3] == pytest.approx(-math.sqrt((3 - math.sqrt(3)) / 6), abs=1e-6)


def test_crossings_all_includes_contacts(capsys):
    code, out, _ = run(["crossings", "--all", "--json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 12
    ghz_rows = [r for r in rows if r["gamma_in_pi"] == pytest.approx(0.125)]
    assert len(ghz_rows) == 4
    code, out, _ = run(["crossings", "--all"], capsys)
    assert code == 0
    assert sum(line.startswith("0.392699081699,0.125,") for line in out.splitlines()) == 4


@pytest.mark.parametrize("argv", [["catalog"], ["crossings"], ["crossings", "--all"]])
def test_json_rows_carry_the_csv_fields_and_values(argv, capsys):
    code, table, _ = run(argv, capsys)
    assert code == 0
    code, text, _ = run([*argv, "--json"], capsys)
    assert code == 0
    header, *rows = [line.split(",") for line in table.splitlines()]
    objects = json.loads(text)
    assert len(objects) == len(rows) > 0
    for obj, row in zip(objects, rows):
        assert sorted(obj) == sorted(header)
        assert [cli._fmt(obj[key]) for key in header] == row


def test_correlations_output(capsys):
    code, out, _ = run(["correlations", "--gamma", "0.05pi", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    classes = payload["classes"]
    assert sum(c["terms"] for c in classes.values()) == 40
    assert classes["iiii"]["modulus"] == 1
    a2 = (2 * math.cos(0.2 * math.pi)) ** 2 / (
        48 * (5 - 4 * math.cos(0.2 * math.pi) + 3 * math.cos(0.4 * math.pi)) / 48
    )
    assert classes["00xx"]["modulus"] == pytest.approx(a2, abs=1e-10)


def test_witness_at_ghz_angle(capsys):
    code, out, _ = run(["witness", "--gamma", "0.125pi"], capsys)
    assert code == 0
    assert "c             = 0.5" in out
    assert "fidelity      = 1" in out
    assert "detected      = true" in out


def test_witness_with_noise(capsys):
    noise = '{"depolarizing_q": 0.2}'
    code, out, _ = run(
        ["witness", "--gamma", "0.125pi", "--noise-json", noise, "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fidelity"] == pytest.approx(0.8125, abs=1e-10)
    assert payload["detected"] is True


def test_witness_rejects_bad_noise(capsys):
    code, _, err = run(
        ["witness", "--gamma", "0", "--noise-json", '{"bogus": 1}'], capsys
    )
    assert code == 2
    assert "bad noise config" in err


@pytest.mark.parametrize("command", ["witness", "tomo", "noise"])
@pytest.mark.parametrize("noise", ['{"pair_probability": 0.5}', '{"efficiency": true}'])
def test_every_noise_command_rejects_the_same_configs(command, noise, capsys):
    code, out, err = run([command, "--gamma", "0.1", "--noise-json", noise], capsys)
    assert code == 2
    assert out == ""
    assert "bad noise config" in err


@pytest.mark.parametrize("command", ["witness", "tomo", "noise"])
@pytest.mark.parametrize("noise", ["[1]", "null", "0.1", '"x"', "true"])
def test_noise_json_that_is_not_an_object_is_a_bad_config_not_a_path(command, noise, capsys):
    code, out, err = run([command, "--gamma", "0.1", "--noise-json", noise], capsys)
    assert code == 2
    assert out == ""
    assert "bad noise config: noise configuration text must hold a JSON object, got " in err


def test_noise_json_from_file(tmp_path, capsys):
    cfg = tmp_path / "noise.json"
    cfg.write_text('{"pair_probability": 0.05, "efficiency": 0.2}')
    code, out, _ = run(
        ["noise", "--gamma", "0", "--noise-json", str(cfg), "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fourfold_reduction"] == pytest.approx(0.00628, abs=5e-5)
    code2, _, err = run(
        ["noise", "--gamma", "0", "--noise-json", str(tmp_path / "missing.json")],
        capsys,
    )
    assert code2 == 4
    assert "i/o error" in err


def test_noise_without_imperfections_reports_unity(capsys):
    code, out, _ = run(["noise", "--gamma", "0.098pi", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["fourfold_fidelity"] == 1
    assert payload["fourfold_reduction"] == 0
    assert payload["state_fidelity"] == 1


def test_tomo_pairwise_example(capsys):
    code, out, _ = run(
        ["tomo", "--gamma", "0", "--shots", "100000", "--seed", "1", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairwise_front"] == pytest.approx(-0.5, abs=0.01)
    assert payload["pairwise_back"] == pytest.approx(-0.5, abs=0.01)
    assert payload["shots"] == 100000
    assert payload["method"] == "physical-projection"


def test_tomo_exact_mode(capsys):
    code, out, _ = run(["tomo", "--gamma", "0.125pi"], capsys)
    assert code == 0
    assert "shots          = exact" in out
    assert "fidelity       = 1" in out


def test_tomo_rejects_bad_flags(tmp_path, capsys):
    # the flags are checked before the noise file is read
    for noise in ([], ["--noise-json", str(tmp_path / "missing.json")]):
        code, out, err = run(["tomo", "--gamma", "0", "--shots", "0", *noise], capsys)
        assert (code, out) == (2, "")
        assert err == "bellghz: error: --shots must be finite, at least 1 and at most 1e+18, got 0\n"
    code, _, _ = run(["tomo", "--gamma", "0", "--method", "mle"], capsys)
    assert code == 2
    for shots in (["--shots", "100"], []):
        code, out, err = run(["tomo", "--gamma", "0.1", *shots, "--seed", "-1"], capsys)
        assert (code, out) == (2, "")
        assert "--seed must be a non-negative integer, got -1" in err


def test_tomo_maps_unsampleable_shots_to_usage_error(capsys):
    code, out, err = run(["tomo", "--gamma", "0.1", "--shots", str(10**30)], capsys)
    assert (code, out) == (2, "")
    assert f"--shots must be finite, at least 1 and at most 1e+18, got {10**30}" in err


def test_method_choices_are_the_reconstruction_methods():
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    (method,) = [a for a in commands.choices["tomo"]._actions if a.dest == "method"]
    assert tuple(method.choices) == tomo.RECONSTRUCTION_METHODS


def test_negative_zero_angle_prints_as_zero(capsys):
    code, out, _ = run(["derive", "--gamma", "-0"], capsys)
    assert code == 0
    assert out.startswith("gamma       = 0\ngamma_in_pi = 0\n")


def test_too_few_shots_is_numeric_failure(capsys):
    # a Poisson draw leaves settings empty: valid flags, numeric failure
    code, out, err = run(["tomo", "--gamma", "0.1", "--shots", "1"], capsys)
    assert code == 3
    assert out == ""
    assert "more shots are needed" in err


def printed_gammas(text):
    """Every printed gamma and gamma_in_pi value, as text: key = value and
    JSON lines, and the gamma columns of a CSV table."""
    found = re.findall(r'^\s*"?gamma(?:_in_pi)?"?\s*[=:]\s*([^,\s]+)', text, re.M)
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    columns = [i for i, name in enumerate(header) if name in ("gamma", "gamma_in_pi")]
    return found + [line.split(",")[i] for line in lines[1:] for i in columns]


#: Flags each subcommand accepts, by the names of the strategies below.
FLAG_GRAMMAR = {
    "derive": ("gamma", "json", "table", "out"),
    "sweep": ("steps", "out"),
    "catalog": ("json", "out"),
    "crossings": ("all", "json", "out"),
    "correlations": ("gamma", "json", "out"),
    "witness": ("gamma", "noise", "json", "out"),
    "tomo": ("gamma", "shots", "seed", "method", "noise", "json", "out"),
    "noise": ("gamma", "noise", "json", "out"),
}


def test_random_argv_exits_with_a_documented_code(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    good = tmp_path / "noise.json"
    good.write_text('{"pair_probability": 0.02, "efficiency": 0.5}')
    bad = tmp_path / "bad.json"
    bad.write_text('{"efficiency": "high"}')
    noise = st.sampled_from([
        '{"depolarizing_q": 0.1}', '{"visibility": 0.9, "pair_probability": 0.01}',
        '{"bogus": 1}', '{"efficiency": true}', '{"pair_probability": 0.5}', "{",
        "[1]", "null", "0.1", str(good), str(bad), str(tmp_path / "missing.json"), str(tmp_path),
    ])
    gamma = st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "-0", "0", "0.3pi", "", "pi", "0.25pi",
                         "0.125pi", "1e-300", "twelve"]),
        st.floats(-0.1, 0.9).map(repr),
        st.floats(0.0, 0.26).map(lambda x: f"{x}pi"),
    )
    values = {
        "gamma": gamma.map(lambda g: ["--gamma", g]),
        "steps": st.integers(-3, 300).map(lambda n: ["--steps", str(n)]),
        "shots": st.integers(-1, 200).map(lambda n: ["--shots", str(n)]),
        "seed": st.one_of(st.integers(-2, 3), st.integers(0, 2**40)).map(
            lambda n: ["--seed", str(n)]
        ),
        "method": st.sampled_from(["linear-inversion", "physical-projection", "mle"]).map(
            lambda m: ["--method", m]
        ),
        "noise": noise.map(lambda text: ["--noise-json", text]),
        "json": st.just(["--json"]),
        "table": st.just(["--table"]),
        "all": st.just(["--all"]),
        "out": st.sampled_from(["out.txt", "no/such/dir.txt", ""]).map(
            lambda name: ["--out", str(tmp_path / name)]
        ),
    }

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(sorted(FLAG_GRAMMAR)))
        # the required --gamma, optional flags of the command, sometimes a foreign one
        names = [name for name in FLAG_GRAMMAR[command]
                 if name == "gamma" or draw(st.booleans())]
        if draw(st.integers(0, 4)) == 0:
            names.append(draw(st.sampled_from(sorted(values))))
        return [command] + [piece for name in draw(st.permutations(names))
                            for piece in draw(values[name])]

    def main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def parses(argv):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                cli._parser().parse_args(argv)
            except SystemExit:
                return False
        return True

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(argvs())
    def check(argv):
        code, out, err = main(argv)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert (out == "") == ("--out" in argv)
        else:
            assert out == "" and err != ""
        # a flag given twice takes its last value
        last = {flag: i + 1 for i, flag in enumerate(argv[:-1]) if flag.startswith("--")}
        if "--out" in last and argv[last["--out"]] != str(tmp_path / "out.txt") and parses(argv):
            # a missing directory or a directory, checked before the command runs
            assert code == 4
        elif "--noise-json" in last and argv[last["--noise-json"]] in ("[1]", "null", "0.1"):
            # JSON that is not an object is a bad config whether or not the command takes it
            assert code == 2
        if code == 0 and "--out" in last:
            with open(argv[last["--out"]], encoding="utf-8") as fh:
                out = fh.read()
        assert not any(g.startswith("-") for g in printed_gammas(out))
        if argv[0] == "tomo" and "--seed" in last and int(argv[last["--seed"]]) < 0:
            # a negative seed is the error whenever the same flags with seed 0 run
            fixed = argv[:last["--seed"]] + ["0"] + argv[last["--seed"] + 1:]
            if main(fixed)[0] == 0:
                assert code == 2 and "--seed" in err
            else:
                assert code != 0

    check()


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 2


def test_linalg_error_is_numeric_failure(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert run(["catalog"], capsys) == (3, "", "bellghz: numeric failure: SVD did not converge\n")


def test_outputs_byte_identical(capsys):
    argvs = (
        ["sweep", "--steps", "25"],
        ["derive", "--gamma", "0.07pi", "--json"],
        ["tomo", "--gamma", "0.125pi", "--shots", "2000", "--seed", "9"],
        ["catalog", "--json"],
    )
    for argv in argvs:
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second


def test_out_flag_and_outdir(tmp_path, monkeypatch, capsys):
    direct = tmp_path / "direct.csv"
    code, out, _ = run(["sweep", "--steps", "7", "--out", str(direct)], capsys)
    assert code == 0
    assert out == ""
    monkeypatch.setenv("BELLGHZ_OUTDIR", str(tmp_path))
    code, _, _ = run(["sweep", "--steps", "7", "--out", "relative.csv"], capsys)
    assert code == 0
    assert (tmp_path / "relative.csv").read_bytes() == direct.read_bytes()
    assert b"\r" not in direct.read_bytes()


def csv_writer_text(header, rows):
    """The csv.writer table that ``cli._csv_text`` replaced, kept as its oracle."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cli._fmt(cell) for cell in row])
    return buf.getvalue()


@pytest.mark.parametrize("steps", [2, 3, 14, 100, 101, 901, 951, 1001, 2000, 4095, 4096, 4097, 8193])
def test_sweep_rows_equal_the_scalar_library(steps, capsys):
    # sweep formats its own rows in blocks of 4,096 angles; each row must be
    # what the public calls give at that angle of the clamped grid
    header = ["gamma", "gamma_in_pi", "alpha", "probability", *CLASS_NAMES, "c_bound"]
    rows = []
    for i in range(steps):
        g = min(math.pi / 4, math.pi / 4 * i / (steps - 1))
        moduli = class_moduli(g)
        rows.append([g, g / math.pi, alpha(g), probability(g),
                     *(moduli[name] for name in CLASS_NAMES), biseparable_bound(g)])
    code, out, _ = run(["sweep", "--steps", str(steps)], capsys)
    assert code == 0
    assert out == csv_writer_text(header, rows)


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["crossings"],
    ["crossings", "--all"],
    ["correlations", "--gamma", "0.05pi"],
    ["correlations", "--gamma", "0"],
])
def test_tables_equal_the_csv_writer(argv, monkeypatch, capsys):
    tables = []
    real = cli._csv_text

    def recording(header, rows):
        rows = list(rows)
        tables.append((header, rows))
        return real(header, rows)

    monkeypatch.setattr(cli, "_csv_text", recording)
    code, out, _ = run(argv, capsys)
    assert code == 0
    ((header, rows),) = tables
    assert out == csv_writer_text(header, rows)


def test_csv_text_formats_every_cell_type_like_the_csv_writer():
    header = ["a", "b", "c"]
    rows = [
        (0.0, -0.0, 1e-300),
        (math.inf, -math.inf, math.nan),
        [1.0 / 3.0, 2.0, 123456789012.5],
        (True, False, 7),
        ("S^c−", "Ψ4+", 0.25),
        (np.float64(0.1), 0.2, 0.3),
        (0.5, 0.25),
        (),
    ]
    assert cli._csv_text(header, rows) == csv_writer_text(header, rows)


@pytest.mark.parametrize("argv, exit_code", [
    (["witness", "--gamma", "0.3pi"], 2),
    (["tomo", "--gamma", "0.1", "--shots", "1"], 3),
    (["noise", "--gamma", "0.1", "--noise-json", "MISSING"], 4),
])
def test_failed_command_creates_and_changes_no_out_file(argv, exit_code, tmp_path, capsys):
    argv = [str(tmp_path / "missing.json") if a == "MISSING" else a for a in argv]
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_bytes(b"kept\n")
    for out in (new, old):
        code, text, err = run([*argv, "--out", str(out)], capsys)
        assert (code, text) == (exit_code, "")
        assert err.startswith("bellghz: ")
    assert not new.exists()
    assert old.read_bytes() == b"kept\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--steps", "1000000"],
    ["noise", "--gamma", "0.1", "--noise-json", '{"pair_probability": 0.05, "efficiency": 0.2}'],
    # the --out error comes before the handler's own checks
    ["witness", "--gamma", "0.3pi"],
    ["witness", "--gamma", "0", "--noise-json", "null"],
])
@pytest.mark.parametrize("out, error", [
    ("no/such/dir/s.csv", "[Errno 2] No such file or directory"),
    (".", "[Errno 21] Is a directory"),
])
def test_bad_out_exits_4_before_the_command_runs(argv, out, error, tmp_path, monkeypatch, capsys):
    parser, ran = cli._parser(), []

    class Recording:
        def parse_args(self, argv):
            args = parser.parse_args(argv)
            args.func = ran.append
            return args

    monkeypatch.setattr(cli, "_parser", Recording)
    monkeypatch.setenv("BELLGHZ_OUTDIR", str(tmp_path))
    code, text, err = run([*argv, "--out", out], capsys)
    assert (code, text, ran) == (4, "", [])
    assert err == f"bellghz: i/o error: {error}: {f'{tmp_path}/{out}'!r}\n"
    assert list(tmp_path.iterdir()) == []


#: Every subcommand, --json, --out, usage errors and a --seed error, run in
#: this order; repeats after a variant catch state one call leaves behind.
REUSE_ARGVS = (
    ["derive", "--gamma", "0.125pi", "--json"],
    ["derive", "--gamma", "0.125pi"],
    ["sweep", "--steps", "9", "--out", "OUT"],
    ["sweep", "--steps", "5"],
    ["catalog", "--json"],
    ["catalog"],
    ["crossings", "--all", "--json"],
    ["crossings"],
    ["correlations", "--gamma", "0.05pi", "--json", "--out", "OUT"],
    ["correlations", "--gamma", "0.05pi"],
    ["witness", "--gamma", "0.3pi"],
    ["witness", "--gamma", "0.125pi", "--noise-json", '{"depolarizing_q": 0.1}'],
    ["witness", "--gamma", "0.125pi"],
    ["tomo", "--gamma", "0.1", "--shots", "100", "--seed", "-1"],
    ["tomo", "--gamma", "0.1", "--shots", "1000", "--method", "linear-inversion"],
    ["tomo", "--gamma", "0.1"],
    ["noise", "--gamma", "0.098pi", "--noise-json", '{"pair_probability": 0.05}', "--json"],
    ["noise", "--gamma", "0.098pi"],
    ["sweep", "--steps", "1"],
    ["derive", "--gamma", "0.1", "--json", "--table"],
    ["frobnicate"],
    ["tomo", "--gamma", "0", "--method", "mle"],
    ["sweep", "--help"],
    ["--version"],
    ["derive", "--gamma", "0.125pi"],
)


def test_reused_parser_answers_like_a_fresh_one(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out_path = tmp_path / "out.txt"

    def answers(fresh):
        cli._parser.cache_clear()
        results = []
        for argv in REUSE_ARGVS:
            if fresh:
                cli._parser.cache_clear()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([str(out_path) if a == "OUT" else a for a in argv])
            written = out_path.read_bytes() if out_path.exists() else None
            out_path.unlink(missing_ok=True)
            results.append((argv, code, stdout.getvalue(), stderr.getvalue(), written))
        return results

    reused = answers(fresh=False)
    assert cli._parser.cache_info().misses == 1
    fresh = answers(fresh=True)
    assert reused == fresh
    codes = [code for _, code, _, _, _ in fresh]
    assert codes.count(2) == 6 and codes.count(0) == len(REUSE_ARGVS) - 6
