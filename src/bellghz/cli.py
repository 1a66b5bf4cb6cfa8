"""Command-line surface over the family, analysis, tomography, and noise tools.

Every command prints to stdout; ``--out PATH`` redirects the same bytes
to a file instead.  A relative ``--out`` resolves against the directory
named by the ``BELLGHZ_OUTDIR`` environment variable when it is set (the
only environment variable the tool reads).  Floats are printed with 12
significant digits and all randomness is seeded, so identical flag sets
produce byte-identical output.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O error.

Each command imports numpy and the library modules it runs inside its
handler, so ``--help``, ``--version`` and flag errors start without numpy
and no command loads a module it does not use.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import __version__

if TYPE_CHECKING:
    from .family import CrossingPoint
    from .imperfections import NoiseConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

OUTDIR_ENV = "BELLGHZ_OUTDIR"


def parse_angle(text: str) -> float:
    """Angle from a radian literal or a pi-suffixed multiple like ``0.125pi``."""
    raw = text.strip().lower()
    scale = 1.0
    body = raw
    if raw.endswith("pi"):
        scale = math.pi
        body = raw[:-2] or "1"
    try:
        value = float(body) * scale
    except ValueError:
        raise ValueError(
            f"cannot parse angle {text!r}; give radians or a pi multiple like 0.125pi"
        ) from None
    from ._checks import check_gamma

    return check_gamma(value)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jsonable(value):
    """Round floats to the 12-digit print precision so JSON matches text."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _json_text(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _kv_text(pairs) -> str:
    width = max(len(key) for key, _ in pairs)
    return "".join(f"{key.ljust(width)} = {_fmt(val)}\n" for key, val in pairs)


def _csv_text(header: Sequence[str], rows) -> str:
    """Header and rows as CSV lines, one format call per row.

    No cell of any table contains a comma, quote or newline, so no cell is
    quoted.  A row of floats alone takes one ``%`` format, whose ``%.12g``
    gives the same digits as :func:`_fmt`.
    """
    floats = ",".join(["%.12g"] * len(header)) + "\n"
    lines = [",".join(header) + "\n"]
    for row in rows:
        if len(row) == len(header) and set(map(type, row)) == {float}:
            lines.append(floats % tuple(row))
        else:
            lines.append(",".join(map(_fmt, row)) + "\n")
    return "".join(lines)


def _basis_label(index: int) -> str:
    return "".join("HV"[(index >> (3 - k)) & 1] for k in range(4))


def _noise_config(text: str | None) -> NoiseConfig:
    """Noise settings from inline JSON (text that starts with ``{`` or parses
    as JSON) or from the file any other text names."""
    from .imperfections import NoiseConfig

    if text is None:
        return NoiseConfig()
    raw = text.strip()
    if not raw.startswith("{"):
        try:
            json.loads(raw)
        except ValueError:
            with open(raw, encoding="utf-8") as fh:
                raw = fh.read()
    try:
        return NoiseConfig.from_json(raw)
    except ValueError as exc:
        raise ValueError(f"bad noise config: {exc}") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = out
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cmd_derive(args) -> str:
    g = parse_angle(args.gamma)
    from .circuit import run_pipeline
    from .family import state_at

    point = state_at(g)
    simulated = run_pipeline(g)
    overlap = abs(point.state.overlap(simulated.state))
    amps = {_basis_label(i): float(point.state.vec[i].real) for i in range(16)}
    if args.json:
        return _json_text(
            {
                "gamma": point.gamma,
                "gamma_in_pi": point.gamma / math.pi,
                "alpha": point.alpha,
                "probability": point.probability,
                "overlap": overlap,
                "amplitudes": amps,
            }
        )
    head = _kv_text(
        [
            ("gamma", point.gamma),
            ("gamma_in_pi", point.gamma / math.pi),
            ("alpha", point.alpha),
            ("probability", point.probability),
            ("overlap", overlap),
        ]
    )
    body = "".join(f"  |{label}>  {_fmt(amp)}\n" for label, amp in amps.items())
    return head + "amplitudes:\n" + body


def _cmd_sweep(args) -> str:
    if args.steps < 2:
        raise ValueError(f"steps must be at least 2, got {args.steps}")
    import numpy as np

    from . import analysis, family
    from .family import CLASS_NAMES, GAMMA_MAX

    # the last angle can round one ulp above pi/4 (N = 14, 100); clamped, none needs a check
    grid = np.minimum(GAMMA_MAX, GAMMA_MAX * np.arange(args.steps) / (args.steps - 1))
    gammas = grid.tolist()
    alphas, probabilities = zip(*map(family._alpha_probability, gammas))
    a = np.array(alphas)
    columns = [
        gammas,
        (grid / math.pi).tolist(),
        alphas,
        probabilities,
        *(family._CLASS_FUNCS[name](a).tolist() for name in CLASS_NAMES),
        analysis._bounds_at_alphas(list(alphas)),
    ]
    header = ["gamma", "gamma_in_pi", "alpha", "probability", *CLASS_NAMES, "c_bound"]
    return _csv_text(header, zip(*columns))


def _cmd_catalog(args) -> str:
    from . import analysis, family

    entries = family.catalog()
    bounds = analysis.biseparable_bounds([entry.gamma for entry in entries])
    rows = [
        {
            "name": entry.name,
            "gamma": entry.gamma,
            "gamma_in_pi": entry.gamma / math.pi,
            "alpha": entry.alpha,
            "probability": family.probability(entry.gamma),
            "c_bound": c_bound,
        }
        for entry, c_bound in zip(entries, bounds)
    ]
    if args.json:
        return _json_text(rows)
    header = ["name", "gamma", "gamma_in_pi", "alpha", "probability", "c_bound"]
    return _csv_text(header, [[row[key] for key in header] for row in rows])


def _crossing_clusters() -> list[list[CrossingPoint]]:
    from .family import find_crossings

    clusters: list[list[CrossingPoint]] = []
    for point in find_crossings():
        if clusters and abs(point.gamma - clusters[-1][0].gamma) <= 1e-6:
            clusters[-1].append(point)
        else:
            clusters.append([point])
    return clusters


def _cmd_crossings(args) -> str:
    from .family import alpha

    rows = []
    for cluster in _crossing_clusters():
        if not args.all and len(cluster) != 1:
            continue
        for point in cluster:
            rows.append(
                {
                    "gamma": point.gamma,
                    "gamma_in_pi": point.gamma / math.pi,
                    "alpha": alpha(point.gamma),
                    "class_a": point.classes[0],
                    "class_b": point.classes[1],
                }
            )
    if args.json:
        return _json_text(rows)
    header = ["gamma", "gamma_in_pi", "alpha", "class_a", "class_b"]
    return _csv_text(header, [[row[key] for key in header] for row in rows])


def _cmd_correlations(args) -> str:
    g = parse_angle(args.gamma)
    from . import analysis
    from .family import CLASS_NAMES

    moduli = analysis.correlation_classes(g)
    if args.json:
        return _json_text(
            {
                "gamma": g,
                "gamma_in_pi": g / math.pi,
                "classes": {
                    name: {
                        "modulus": moduli[name],
                        "terms": len(analysis.CLASS_MEMBERS[name]),
                    }
                    for name in CLASS_NAMES
                },
            }
        )
    header = ["class", "terms", "modulus"]
    rows = [[name, len(analysis.CLASS_MEMBERS[name]), moduli[name]] for name in CLASS_NAMES]
    return _csv_text(header, rows)


def _cmd_witness(args) -> str:
    g = parse_angle(args.gamma)
    cfg = _noise_config(args.noise_json)
    from .analysis import evaluate_witness
    from .imperfections import noisy_density_matrix

    report = evaluate_witness(noisy_density_matrix(g, cfg), g)
    pairs = [
        ("gamma", g),
        ("gamma_in_pi", g / math.pi),
        ("c", report.c),
        ("fidelity", report.fidelity),
        ("witness_value", report.witness_value),
        ("detected", report.detected),
    ]
    if args.json:
        return _json_text(dict(pairs))
    return _kv_text(pairs)


def _cmd_tomo(args) -> str:
    g = parse_angle(args.gamma)
    from ._checks import MAX_SHOTS_PER_SETTING

    if args.shots is not None and not 1 <= args.shots <= MAX_SHOTS_PER_SETTING:
        raise ValueError(
            f"shots_per_setting must be at least 1 and at most {MAX_SHOTS_PER_SETTING:g}, "
            f"got {args.shots}"
        )
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    cfg = _noise_config(args.noise_json)
    from .analysis import pairwise_witness
    from .tomo import reconstruct_and_report

    report, dm = reconstruct_and_report(
        g, cfg, shots=args.shots, seed=args.seed, method=args.method
    )
    front, back = pairwise_witness(dm)
    pairs = [
        ("gamma", g),
        ("gamma_in_pi", g / math.pi),
        ("method", args.method),
        ("shots", "exact" if args.shots is None else args.shots),
        ("seed", args.seed),
        ("c", report.c),
        ("fidelity", report.fidelity),
        ("witness_value", report.witness_value),
        ("detected", report.detected),
        ("pairwise_front", front),
        ("pairwise_back", back),
    ]
    if args.json:
        payload = dict(pairs)
        payload["shots"] = args.shots
        return _json_text(payload)
    return _kv_text(pairs)


def _cmd_noise(args) -> str:
    g = parse_angle(args.gamma)
    cfg = _noise_config(args.noise_json)
    from .analysis import fidelity
    from .imperfections import noise_report

    fourfold_fidelity, fourfold_weight, rho = noise_report(g, cfg)
    pairs = [
        ("gamma", g),
        ("gamma_in_pi", g / math.pi),
        ("pair_probability", cfg.pair_probability),
        ("efficiency", cfg.efficiency),
        ("visibility", cfg.visibility),
        ("depolarizing_q", cfg.depolarizing_q),
        ("fourfold_fidelity", fourfold_fidelity),
        ("fourfold_reduction", 1.0 - fourfold_fidelity),
        ("fourfold_weight", fourfold_weight),
        ("state_fidelity", fidelity(rho, g)),
    ]
    if args.json:
        return _json_text(dict(pairs))
    return _kv_text(pairs)


def _add_gamma(parser) -> None:
    parser.add_argument(
        "--gamma",
        required=True,
        metavar="ANGLE",
        help="tuning angle: radians, or a pi multiple like 0.125pi; range [0, 0.25pi]",
    )


def _add_out(parser) -> None:
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write output to PATH instead of stdout "
        "(relative paths resolve against $BELLGHZ_OUTDIR)",
    )


def _add_json(parser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of the default format"
    )


def _add_noise_json(parser) -> None:
    parser.add_argument(
        "--noise-json",
        metavar="JSON|PATH",
        help="noise settings as an inline JSON object or a path to a JSON file; "
        "keys: pair_probability, efficiency, visibility, depolarizing_q",
    )


def build_parser() -> argparse.ArgumentParser:
    from ._checks import RECONSTRUCTION_METHODS

    parser = argparse.ArgumentParser(
        prog="bellghz",
        description="Simulate the tunable four-photon family interpolating between "
        "two Bell pairs and a GHZ state, and analyze its correlations.",
        epilog="exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O error",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "derive",
        help="closed-form state at one angle, checked against the circuit",
        description="Print alpha, the coincidence probability, the 16 basis "
        "amplitudes, and the overlap between the closed form and the simulated "
        "circuit output at one tuning angle.",
    )
    _add_gamma(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help="emit JSON")
    mode.add_argument("--table", action="store_true", help="emit a table (default)")
    _add_out(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser(
        "sweep",
        help="CSV over the full angle range",
        description="Write one CSV row per angle across [0, 0.25pi] inclusive: "
        "alpha, probability, the five correlation-class moduli, and the "
        "biseparable fidelity bound.",
    )
    p.add_argument(
        "--steps", type=int, default=101, metavar="N", help="row count, N >= 2 (default 101)"
    )
    _add_out(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "catalog",
        help="the nine distinguished family members",
        description="List the named states the family passes through, with their "
        "angles, amplitudes, probabilities, and biseparable bounds.",
    )
    _add_json(p)
    _add_out(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser(
        "crossings",
        help="angles where correlation-class moduli meet",
        description="List the angles at which exactly one pair of correlation-class "
        "curves crosses.  --all adds the degenerate meetings (several pairs at one "
        "angle) and the tangential contacts at the GHZ point.",
    )
    p.add_argument(
        "--all", action="store_true", help="include degenerate and tangential contacts"
    )
    _add_json(p)
    _add_out(p)
    p.set_defaults(func=_cmd_crossings)

    p = sub.add_parser(
        "correlations",
        help="correlation-class moduli at one angle",
        description="Evaluate the full correlation tensor at one angle and print "
        "the modulus and term count of each of the five classes.",
    )
    _add_gamma(p)
    _add_json(p)
    _add_out(p)
    p.set_defaults(func=_cmd_correlations)

    p = sub.add_parser(
        "witness",
        help="biseparable-bound witness at one angle",
        description="Evaluate the fidelity witness at one angle, optionally on a "
        "noisy state: bound c, fidelity F, witness value c - F, and whether "
        "genuine four-partite entanglement is detected (F > c).",
    )
    _add_gamma(p)
    _add_noise_json(p)
    _add_json(p)
    _add_out(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser(
        "tomo",
        help="simulated tomography and reconstruction",
        description="Simulate counts over all 81 local measurement settings "
        "(exact frequencies when --shots is omitted), reconstruct the density "
        "matrix, and report the witness and both pairwise witnesses.",
    )
    _add_gamma(p)
    p.add_argument(
        "--shots",
        type=int,
        metavar="N",
        help="Poisson-mean shots per setting; omit for exact frequencies",
    )
    p.add_argument("--seed", type=int, default=0, metavar="S", help="RNG seed (default 0)")
    p.add_argument(
        "--method",
        choices=RECONSTRUCTION_METHODS,
        default="physical-projection",
        help="reconstruction method (default physical-projection)",
    )
    _add_noise_json(p)
    _add_json(p)
    _add_out(p)
    p.set_defaults(func=_cmd_tomo)

    p = sub.add_parser(
        "noise",
        help="imperfection study at one angle",
        description="Report the fidelity impact of higher-order emission with "
        "loss, reduced interference visibility, and white noise at one angle.",
    )
    _add_gamma(p)
    _add_noise_json(p)
    _add_json(p)
    _add_out(p)
    p.set_defaults(func=_cmd_noise)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call to :func:`main` and reused by later calls."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        text = args.func(args)
        _write_output(text, args.out)
    except ValueError as exc:
        # numpy's LinAlgError is a ValueError, but a numeric failure; without
        # numpy loaded, no error can be one
        linalg = sys.modules.get("numpy.linalg")
        if linalg is not None and isinstance(exc, linalg.LinAlgError):
            print(f"bellghz: numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"bellghz: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError) as exc:
        print(f"bellghz: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"bellghz: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
