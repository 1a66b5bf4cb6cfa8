"""The warm workload: seeded inputs, one request, and its correctness check.

``lib-warm`` is a closed loop with one client inside one fresh
interpreter (see ``worker.py``).  Each of its requests runs three parts
in turn, each of which loads different layers of bellghz: a ``scan``
(family), a ``noise`` evaluation (fock, circuit, imperfections) and a
``tomo`` campaign (tomo, analysis).  Every part has the same three
methods: ``make_input`` draws the request's inputs from the seeded
``random.Random``; ``request`` is the timed call into bellghz; ``check``
runs outside the timed region and returns a list of problems, empty when
the outputs are correct.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from bellghz import analysis, family, imperfections, tomo
from bellghz.circuit import run_pipeline

GAMMA_MAX = math.pi / 4

#: The four crossing states of the catalog; their angles are where
#: exactly one pair of correlation-class curves meets.
SIMPLE_CROSSINGS = ("S^a", "S^b", "S^c+", "S^c−")

#: Rows of a ``sweep`` table compared against the full correlation tensor.
SWEEP_ROWS_CHECKED = 8


def sweep_overshoots(steps: int) -> bool:
    """Whether ``sweep --steps N``'s last grid angle rounds above pi/4.

    This is the grid arithmetic of ``bellghz.cli``; for such N the command
    exits 2 (133 of N in [2, 2000], among them 14 and 100).  It is a known
    defect of the program, kept out of the timed workload because every
    request of a run must succeed, and pinned by ``test_perfbench.py``.
    """
    return GAMMA_MAX * (steps - 1) / (steps - 1) > GAMMA_MAX


#: Sweep sizes the scan part draws from: [901, 1001] less the sizes that
#: hit the defect above (910, 972 and 983).
SWEEP_STEPS = tuple(n for n in range(901, 1002) if not sweep_overshoots(n))

TOMO_SHOTS = 100_000


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


class Scan:
    """``sweep --steps N``, ``crossings --all`` and ``catalog --json`` via ``cli.main``."""

    def __init__(self, workdir: str) -> None:
        from bellghz import cli

        # looked up per call, so the traced run sees the wrapped cli.main
        self._cli = cli
        self._check_rng = random.Random(0)

    @staticmethod
    def make_input(rng: random.Random) -> int:
        return rng.choice(SWEEP_STEPS)

    def _call(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self._cli.main(argv)
        return code, out.getvalue()

    def request(self, steps: int):
        return [
            self._call(["sweep", "--steps", str(steps)]),
            self._call(["crossings", "--all"]),
            self._call(["catalog", "--json"]),
        ]

    def check(self, steps: int, result) -> list[str]:
        problems = []
        (sweep_code, sweep), (cross_code, cross), (cat_code, cat) = result
        if sweep_code != 0:
            problems.append(f"sweep --steps {steps} exited {sweep_code}")
        else:
            problems += self._check_sweep(steps, sweep)
        if cross_code != 0 or cat_code != 0:
            problems.append(f"crossings/catalog exited {cross_code}/{cat_code}")
            return problems
        entries = json.loads(cat)
        if len(entries) != 9:
            problems.append(f"catalog has {len(entries)} entries, expected 9")
        expected = sorted(e["gamma"] for e in entries if e["name"] in SIMPLE_CROSSINGS)
        found = _simple_crossings(cross)
        if len(found) != len(SIMPLE_CROSSINGS) or not all(
            _close(a, b, 1e-9) for a, b in zip(found, expected)
        ):
            problems.append("simple crossings do not match the catalog's crossing states")
        return problems

    def _check_sweep(self, steps: int, text: str) -> list[str]:
        lines = text.splitlines()
        if len(lines) != steps + 1:
            return [f"sweep printed {len(lines) - 1} rows, expected {steps}"]
        header = lines[0].split(",")
        problems = []
        for i in self._check_rng.sample(range(1, steps + 1), SWEEP_ROWS_CHECKED):
            row = dict(zip(header, lines[i].split(",")))
            g = float(row["gamma"])
            numeric = analysis.correlation_classes(g)
            for name in family.CLASS_NAMES:
                if not _close(float(row[name]), numeric[name], 1e-9):
                    problems.append(f"sweep row {i} class {name} differs from the tensor")
        return problems


def _simple_crossings(csv_text: str) -> list[float]:
    """Angles of the one-pair crossings in ``crossings --all`` output."""
    gammas = [float(line.split(",")[0]) for line in csv_text.splitlines()[1:]]
    clusters: list[list[float]] = []
    for g in gammas:
        if clusters and abs(g - clusters[-1][0]) <= 1e-6:
            clusters[-1].append(g)
        else:
            clusters.append([g])
    return [c[0] for c in clusters if len(c) == 1]


class Noise:
    """Higher-order emission, loss, visibility and white noise at one angle."""

    def __init__(self, workdir: str) -> None:
        pass

    @staticmethod
    def make_input(rng: random.Random):
        gamma = rng.uniform(0.0, GAMMA_MAX)
        cfg = imperfections.NoiseConfig(
            pair_probability=rng.uniform(0.01, 0.1),
            efficiency=rng.uniform(0.05, 0.95),
            visibility=rng.uniform(0.8, 1.0),
            depolarizing_q=rng.uniform(0.0, 0.1),
        )
        return gamma, cfg

    @staticmethod
    def request(inp):
        gamma, cfg = inp
        fourfold_fidelity, weight = imperfections.higher_order_fourfolds(gamma, cfg)
        rho = imperfections.noisy_density_matrix(gamma, cfg)
        state_fidelity = analysis.fidelity(rho, gamma)
        report = analysis.evaluate_witness(rho, gamma)
        return fourfold_fidelity, weight, rho, state_fidelity, report

    @staticmethod
    def check(inp, result) -> list[str]:
        gamma, _ = inp
        fourfold_fidelity, weight, rho, state_fidelity, report = result
        problems = []
        point = family.state_at(gamma)
        simulated = run_pipeline(gamma)
        if abs(point.state.overlap(simulated.state)) < 1.0 - 1e-12:
            problems.append("run_pipeline state differs from state_at")
        if not _close(simulated.probability, point.probability, 1e-12):
            problems.append("run_pipeline probability differs from p(gamma)")
        if np.abs(rho - rho.conj().T).max() > 1e-12:
            problems.append("rho is not Hermitian")
        if not _close(rho.trace().real, 1.0, 1e-12):
            problems.append("rho does not have unit trace")
        if np.linalg.eigvalsh(rho).min() < -1e-12:
            problems.append("rho is not positive semidefinite")
        for label, f in (("fourfold", fourfold_fidelity), ("state", state_fidelity)):
            if not 0.0 <= f <= 1.0:
                problems.append(f"{label} fidelity {f!r} outside [0, 1]")
        if not weight > 0.0:
            problems.append(f"four-fold weight {weight!r} is not positive")
        if report.fidelity != state_fidelity:
            problems.append("witness report disagrees with the fidelity")
        return problems


class Tomo:
    """81-setting tomography with a CSV round trip, plus exact-frequency and cover paths."""

    def __init__(self, workdir: str) -> None:
        self._path = os.path.join(workdir, "counts.csv")

    @staticmethod
    def make_input(rng: random.Random):
        return rng.uniform(0.0, GAMMA_MAX), rng.uniform(0.0, 0.1), rng.randrange(2**31)

    def request(self, inp):
        gamma, q, seed = inp
        rho = imperfections.noisy_density_matrix(
            gamma, imperfections.NoiseConfig(depolarizing_q=q)
        )
        records = tomo.simulate_counts(rho, TOMO_SHOTS, seed)
        tomo.write_counts(records, self._path)
        dm = tomo.reconstruct(tomo.read_counts(self._path), method="physical-projection")
        report = analysis.evaluate_witness(dm, gamma)
        pairwise = analysis.pairwise_witness(dm)
        cover = analysis.setting_cover(gamma)
        cover_fidelity = analysis.fidelity_from_cover(dm, gamma, cover)
        exact = tomo.reconstruct(tomo.exact_frequency_records(rho), method="linear-inversion")
        return rho, records, dm, report, pairwise, cover_fidelity, exact

    @staticmethod
    def check(inp, result) -> list[str]:
        _, q, _ = inp
        rho, records, dm, report, pairwise, cover_fidelity, exact = result
        problems = []
        in_memory = tomo.reconstruct(records, method="physical-projection")
        if np.abs(in_memory.matrix - dm.matrix).max() > 1e-12:
            problems.append("counts CSV round trip changed the reconstruction")
        if np.abs(exact.matrix - rho).max() > 1e-10:
            problems.append("exact frequencies do not reconstruct rho")
        if not _close(cover_fidelity, report.fidelity, 1e-9):
            problems.append("fidelity_from_cover differs from fidelity")
        if abs(report.fidelity - (1.0 - 15.0 * q / 16.0)) >= 0.02:
            problems.append(f"fidelity {report.fidelity!r} far from 1 - 15q/16 at q={q!r}")
        if not all(math.isfinite(v) for v in pairwise):
            problems.append("pairwise witness is not finite")
        return problems


class LibraryWarm:
    """One ``Scan``, one ``Noise`` and one ``Tomo`` request, on their own inputs."""

    name = "lib-warm"
    PARTS = (Scan, Noise, Tomo)

    def __init__(self, workdir: str) -> None:
        self.parts = [part(workdir) for part in self.PARTS]

    def make_input(self, rng: random.Random) -> list:
        return [part.make_input(rng) for part in self.parts]

    def request(self, inputs: list) -> list:
        return [part.request(inp) for part, inp in zip(self.parts, inputs)]

    def check(self, inputs: list, results: list) -> list[str]:
        return [
            f"{type(part).__name__.lower()}: {problem}"
            for part, inp, result in zip(self.parts, inputs, results)
            for problem in part.check(inp, result)
        ]


WARM = {LibraryWarm.name: LibraryWarm}
