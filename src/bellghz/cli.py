"""Command-line surface over the family, analysis, tomography, and noise tools.

Every command prints to stdout; ``--out PATH`` redirects the same bytes
to a file instead.  A relative ``--out`` resolves against the directory
named by the ``BELLGHZ_OUTDIR`` environment variable when it is set (the
only environment variable the tool reads).  Floats are printed with 12
significant digits and all randomness is seeded, so identical flag sets
produce byte-identical output.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O error.

Importing this module loads only the package and :mod:`bellghz._checks`,
whose flag checks need no numpy.  Each command imports numpy and the
library modules it runs inside its handler, so ``--help``, ``--version``
and flag errors start without numpy and no command loads a module it
does not use.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from . import __version__
from ._checks import MAX_SWEEP_STEPS, RECONSTRUCTION_METHODS, _nonnegative_int, _shots, check_gamma

if TYPE_CHECKING:
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
    return check_gamma(value)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jsonable(value):
    """Round floats to the 12-digit print precision so JSON matches text."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _json_text(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _csv_text(header: Sequence[str], rows) -> str:
    """Header and rows as CSV lines, every cell printed by :func:`_fmt`.

    No cell of any table contains a comma, quote or newline, so no cell is
    quoted.
    """
    return "".join(",".join(map(_fmt, row)) + "\n" for row in (header, *rows))


def _fields(args, pairs, **json_only) -> str:
    """``key = value`` lines aligned on ``=``; with ``--json``, one object of
    the pairs and the ``json_only`` extras, which replace a pair of their key."""
    if args.json:
        return _json_text({**dict(pairs), **json_only})
    width = max(len(key) for key, _ in pairs)
    return "".join(f"{key.ljust(width)} = {_fmt(val)}\n" for key, val in pairs)


def _rows(args, header: Sequence[str], rows) -> str:
    """Rows in header order as CSV; with ``--json``, a list of header-keyed objects."""
    if args.json:
        return _json_text([dict(zip(header, row)) for row in rows])
    return _csv_text(header, rows)


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


def _out_path(out: str | None) -> str | None:
    """The file ``--out`` names; before any computation, the OSError the final
    open would raise if its directory is missing or it is a directory.  It
    creates nothing, and the open after the command stays the last word."""
    if out is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    path = os.path.join(outdir, out) if outdir else out  # an absolute out drops outdir
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return path


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _angle(g: float) -> list:
    return [("gamma", g), ("gamma_in_pi", g / math.pi)]


def _cmd_derive(args) -> str:
    g = parse_angle(args.gamma)
    from .circuit import run_pipeline
    from .family import state_at

    point = state_at(g)
    overlap = abs(point.state.overlap(run_pipeline(g).state))
    amps = {
        format(i, "04b").replace("0", "H").replace("1", "V"): float(point.state.vec[i].real)
        for i in range(16)
    }
    pairs = [*_angle(point.gamma), ("alpha", point.alpha),
             ("probability", point.probability), ("overlap", overlap)]
    text = _fields(args, pairs, amplitudes=amps)
    if args.json:
        return text
    return text + "amplitudes:\n" + "".join(
        f"  |{label}>  {_fmt(amp)}\n" for label, amp in amps.items()
    )


def _cmd_sweep(args) -> str:
    if args.steps < 2:
        raise ValueError(f"steps must be at least 2, got {args.steps}")
    if args.steps > MAX_SWEEP_STEPS:
        raise ValueError(f"steps must be at most {MAX_SWEEP_STEPS}, got {args.steps}")
    import numpy as np

    from . import analysis, family
    from .family import CLASS_NAMES, GAMMA_MAX

    header = ["gamma", "gamma_in_pi", "alpha", "probability", *CLASS_NAMES, "c_bound"]
    row = ",".join(["%.12g"] * len(header)) + "\n"  # every cell a float, in _fmt's digits
    n = args.steps
    blocks = [",".join(header) + "\n"]
    # 4,096 angles of the one grid at a time bound the memory; every column is
    # elementwise in the angle, so a block gets the bits the whole grid would
    for start in range(0, n, 4096):
        # the last angle can round one ulp above pi/4 (N = 14, 100); clamped, none needs a check
        grid = np.minimum(GAMMA_MAX, GAMMA_MAX * np.arange(start, min(start + 4096, n)) / (n - 1))
        gammas = grid.tolist()
        alphas, probabilities = zip(*map(family._alpha_probability, gammas))
        columns = [
            gammas,
            (grid / math.pi).tolist(),
            alphas,
            probabilities,
            *(values.tolist() for values in family._class_values(np.array(alphas))),
            analysis._bounds_at_alphas(list(alphas)),
        ]
        blocks.append("".join(row % cells for cells in zip(*columns)))
    return "".join(blocks)


def _cmd_catalog(args) -> str:
    from . import analysis, family

    entries = family.catalog()
    bounds = analysis.biseparable_bounds([entry.gamma for entry in entries])
    rows = [
        (e.name, e.gamma, e.gamma / math.pi, e.alpha, family.probability(e.gamma), c_bound)
        for e, c_bound in zip(entries, bounds)
    ]
    return _rows(args, ("name", "gamma", "gamma_in_pi", "alpha", "probability", "c_bound"), rows)


def _cmd_crossings(args) -> str:
    from .family import alpha, find_crossings

    # crossings sit at catalog angles exactly: points at one angle are one meeting of several curves
    points = find_crossings()
    meeting = Counter(p.gamma for p in points)
    rows = [
        (p.gamma, p.gamma / math.pi, alpha(p.gamma), *p.classes)
        for p in points
        if args.all or meeting[p.gamma] == 1
    ]
    return _rows(args, ("gamma", "gamma_in_pi", "alpha", "class_a", "class_b"), rows)


def _cmd_correlations(args) -> str:
    g = parse_angle(args.gamma)
    from . import analysis
    from .family import CLASS_NAMES

    moduli = analysis.correlation_classes(g)
    terms = {name: len(analysis.CLASS_MEMBERS[name]) for name in CLASS_NAMES}
    if args.json:
        classes = {name: {"modulus": moduli[name], "terms": terms[name]} for name in CLASS_NAMES}
        return _json_text({**dict(_angle(g)), "classes": classes})
    rows = [[name, terms[name], moduli[name]] for name in CLASS_NAMES]
    return _csv_text(["class", "terms", "modulus"], rows)


def _cmd_witness(args) -> str:
    g = parse_angle(args.gamma)
    cfg = _noise_config(args.noise_json)
    from .analysis import evaluate_witness
    from .imperfections import noisy_density_matrix

    report = evaluate_witness(noisy_density_matrix(g, cfg), g)
    return _fields(args, [*_angle(g), *zip(report._fields, report)])


def _cmd_tomo(args) -> str:
    g = parse_angle(args.gamma)
    if args.shots is not None:
        _shots("--shots", args.shots)
    _nonnegative_int("--seed", args.seed)
    cfg = _noise_config(args.noise_json)
    from .analysis import pairwise_witness
    from .tomo import reconstruct_and_report

    report, dm = reconstruct_and_report(
        g, cfg, shots=args.shots, seed=args.seed, method=args.method
    )
    front, back = pairwise_witness(dm)
    pairs = [
        *_angle(g),
        ("method", args.method),
        ("shots", "exact" if args.shots is None else args.shots),
        ("seed", args.seed),
        *zip(report._fields, report),
        ("pairwise_front", front),
        ("pairwise_back", back),
    ]
    return _fields(args, pairs, shots=args.shots)


def _cmd_noise(args) -> str:
    g = parse_angle(args.gamma)
    cfg = _noise_config(args.noise_json)
    from .analysis import fidelity
    from .imperfections import noise_report

    fourfold_fidelity, fourfold_weight, rho = noise_report(g, cfg)
    pairs = [
        *_angle(g),
        ("pair_probability", cfg.pair_probability),
        ("efficiency", cfg.efficiency),
        ("visibility", cfg.visibility),
        ("depolarizing_q", cfg.depolarizing_q),
        ("fourfold_fidelity", fourfold_fidelity),
        ("fourfold_reduction", 1.0 - fourfold_fidelity),
        ("fourfold_weight", fourfold_weight),
        ("state_fidelity", fidelity(rho, g)),
    ]
    return _fields(args, pairs)


#: Each flag: its argparse name and keywords.
_FLAGS = {
    "gamma": ("--gamma", dict(required=True, metavar="ANGLE", help="tuning angle: radians, "
                              "or a pi multiple like 0.125pi; range [0, 0.25pi]")),
    "steps": ("--steps", dict(type=int, default=101, metavar="N",
                              help="row count, N >= 2 (default 101)")),
    "all": ("--all", dict(action="store_true",
                          help="include degenerate and tangential contacts")),
    "shots": ("--shots", dict(type=int, metavar="N", help="Poisson-mean shots per setting; "
                              "omit for exact frequencies")),
    "seed": ("--seed", dict(type=int, default=0, metavar="S", help="RNG seed (default 0)")),
    "method": ("--method", dict(default="physical-projection", choices=RECONSTRUCTION_METHODS,
                                help="reconstruction method (default physical-projection)")),
    "noise": ("--noise-json", dict(
        metavar="JSON|PATH",
        help="noise settings as an inline JSON object or a path to a JSON file; "
        "keys: pair_probability, efficiency, visibility, depolarizing_q",
    )),
    "json": ("--json", dict(action="store_true",
                            help="emit JSON instead of the default format")),
    "derive-json": ("--json", dict(action="store_true", help="emit JSON")),
    "table": ("--table", dict(action="store_true", help="emit a table (default)")),
    "out": ("--out", dict(metavar="PATH", help="write output to PATH instead of stdout "
                          "(relative paths resolve against $BELLGHZ_OUTDIR)")),
}

#: Each command: its handler and one-line help, its description, and its
#: flags in order; a tuple of flags is a mutually exclusive group.
_COMMANDS = {
    "derive": (
        _cmd_derive, "closed-form state at one angle, checked against the circuit",
        "Print alpha, the coincidence probability, the 16 basis amplitudes, and the overlap "
        "between the closed form and the simulated circuit output at one tuning angle.",
        ("gamma", ("derive-json", "table"), "out"),
    ),
    "sweep": (
        _cmd_sweep, "CSV over the full angle range",
        "Write one CSV row per angle across [0, 0.25pi] inclusive: alpha, probability, "
        "the five correlation-class moduli, and the biseparable fidelity bound.",
        ("steps", "out"),
    ),
    "catalog": (
        _cmd_catalog, "the nine distinguished family members",
        "List the named states the family passes through, with their angles, amplitudes, "
        "probabilities, and biseparable bounds.",
        ("json", "out"),
    ),
    "crossings": (
        _cmd_crossings, "angles where correlation-class moduli meet",
        "List the angles at which exactly one pair of correlation-class curves crosses.  "
        "--all adds the degenerate meetings (several pairs at one angle) and the "
        "tangential contacts at the GHZ point.",
        ("all", "json", "out"),
    ),
    "correlations": (
        _cmd_correlations, "correlation-class moduli at one angle",
        "Evaluate the full correlation tensor at one angle and print the modulus and term "
        "count of each of the five classes.",
        ("gamma", "json", "out"),
    ),
    "witness": (
        _cmd_witness, "biseparable-bound witness at one angle",
        "Evaluate the fidelity witness at one angle, optionally on a noisy state: bound c, "
        "fidelity F, witness value c - F, and whether genuine four-partite entanglement "
        "is detected (F > c).",
        ("gamma", "noise", "json", "out"),
    ),
    "tomo": (
        _cmd_tomo, "simulated tomography and reconstruction",
        "Simulate counts over all 81 local measurement settings (exact frequencies when "
        "--shots is omitted), reconstruct the density matrix, and report the witness and "
        "both pairwise witnesses.",
        ("gamma", "shots", "seed", "method", "noise", "json", "out"),
    ),
    "noise": (
        _cmd_noise, "imperfection study at one angle",
        "Report the fidelity impact of higher-order emission with loss, reduced "
        "interference visibility, and white noise at one angle.",
        ("gamma", "noise", "json", "out"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellghz",
        description="Simulate the tunable four-photon family interpolating between "
        "two Bell pairs and a GHZ state, and analyze its correlations.",
        epilog="exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O error",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (func, summary, description, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary, description=description)
        p.set_defaults(func=func)
        for item in flags:
            group = p if isinstance(item, str) else p.add_mutually_exclusive_group()
            for key in [item] if isinstance(item, str) else item:
                flag, kwargs = _FLAGS[key]
                group.add_argument(flag, **kwargs)
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
        path = _out_path(args.out)
        _write_output(args.func(args), path)
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
