"""Noise models for the coincidence pipeline.

Two mechanisms degrade the four-fold fidelity: the source's next emission
order leaking into the coincidence window once photons can be lost, and
imperfect interference at the overlap stage. Both are modeled on top of
the exact pipeline of :mod:`bellghz.circuit`; a white-noise admixture is
included as a catch-all for everything not modeled explicitly.

:mod:`bellghz.circuit` and :mod:`bellghz.fock` are imported by the
functions that propagate photons, so a noise configuration without
higher-order emission or reduced visibility never loads them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain

import numpy as np

from ._checks import _parse, _real, _shown, check_gamma
from .family import state_at

#: Largest pair-emission strength the truncated expansion supports;
#: beyond this the neglected fourth order is no longer subleading.
MAX_PAIR_PROBABILITY = 0.1


@dataclass(frozen=True)
class NoiseConfig:
    """Tunable imperfection strengths, all off by default.

    pair_probability is the per-pulse pair-emission amplitude tau (the
    n-pair term is emitted with relative weight (n+1) tau^(2n));
    efficiency is the per-photon detection probability; visibility is
    the interference quality at the overlap; depolarizing_q mixes in
    white noise after everything else.
    """

    pair_probability: float = 0.0
    efficiency: float = 1.0
    visibility: float = 1.0
    depolarizing_q: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            _real(f.name, getattr(self, f.name))
        if not 0.0 <= self.pair_probability <= MAX_PAIR_PROBABILITY:
            raise ValueError(
                f"pair_probability {_shown(self.pair_probability)} is outside the supported "
                f"range [0, {MAX_PAIR_PROBABILITY}]; higher orders would not be negligible"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if not 0.0 <= self.depolarizing_q <= 1.0:
            raise ValueError("depolarizing_q must lie in [0, 1]")

    def to_json(self) -> str:
        # numpy scalars and fractions, which __post_init__ accepts, are written as floats
        return json.dumps(asdict(self), sort_keys=True, default=float)

    @classmethod
    def from_json(cls, text: str) -> "NoiseConfig":
        """The configuration a JSON object gives; ValueError for anything
        else, and for keys that are not fields."""
        data = _parse("text", json.loads, text, "a JSON str or bytes")
        if not isinstance(data, dict):
            raise ValueError("noise configuration must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown noise configuration keys: {unknown}")
        return cls(**data)


def _check_config(cfg) -> None:
    """ValueError naming cfg unless it is a NoiseConfig."""
    if not isinstance(cfg, NoiseConfig):
        raise ValueError(f"cfg must be a NoiseConfig, got {_shown(cfg)}")


def _third_order_branches(gamma: float) -> tuple[np.ndarray, float]:
    """Coincidences the six-photon emission produces after losing two photons.

    Returns (sum over loss branches of q_L |phi_L><phi_L|, sum of q_L),
    with the efficiency factors stripped: every branch carries the same
    eta^4 (1-eta)^2 and it is reapplied by the caller. Distinct loss
    patterns mark orthogonal environment states, so branches add
    incoherently. A branch is one lost mode pair i <= j.
    """
    from .circuit import COINCIDENCE_PATTERN, REGISTER, pipeline_transform, spdc_term, to_qubits
    from .fock import FockState, _path_pairs, apply_transform, postselect

    # each path's (H, V) positions and the photons a coincidence leaves there,
    # the table postselect reads
    pairs = _path_pairs(REGISTER, tuple(COINCIDENCE_PATTERN.items()))
    h, v, wants = np.array(pairs).T
    out = apply_transform(spdc_term(3), pipeline_transform(gamma))
    occs = list(out.amps)
    # photons per path beyond what a coincidence leaves there, one row per term
    width = len(REGISTER)
    counts = np.fromiter(chain.from_iterable(occs), int, len(occs) * width).reshape(-1, width)
    excesses = counts[:, h] + counts[:, v] - wants
    lossy = (excesses >= 0).all(axis=1) & (excesses.sum(axis=1) == 2)
    branches: dict[tuple[int, int], dict[tuple[int, ...], complex]] = {}
    for t in np.flatnonzero(lossy).tolist():
        occ = occs[t]
        amp = out.amps[occ]
        # the paths the two lost photons come from; the same path twice if it holds three
        drain = [path[:2] for path, n in zip(pairs, excesses[t].tolist()) for _ in range(n)]
        for i in drain[0]:
            for j in drain[1]:
                if j < i or occ[j] < 1 or occ[i] < 1 + (i == j):
                    continue
                factor = math.sqrt(occ[i] * (occ[i] - 1) / 2.0 if i == j else occ[i] * occ[j])
                lost = list(occ)
                lost[i] -= 1
                lost[j] -= 1
                branches.setdefault((i, j), {})[tuple(lost)] = amp * factor
    rho = np.zeros((16, 16), dtype=complex)
    total = 0.0
    for pair in sorted(branches):
        kept, weight = postselect(FockState(REGISTER, branches[pair]), COINCIDENCE_PATTERN)
        if weight == 0.0:
            continue
        phi = to_qubits(kept).vec
        rho += weight * np.outer(phi, phi.conj())
        total += weight
    return rho, total


def higher_order_fourfolds(gamma: float, cfg: NoiseConfig) -> tuple[float, float]:
    """Fidelity and relative rate of four-folds once six-photon events leak in.

    A six-photon emission contributes only when exactly two photons are
    lost, so unit efficiency gives no reduction at all. The returned
    weight is the four-fold event rate per pulse to the two leading
    emission orders. Visibility and white noise leave both unchanged.
    """
    g = check_gamma(gamma)
    _check_config(cfg)
    return noise_report(g, replace(cfg, visibility=1.0, depolarizing_q=0.0))[:2]


def noisy_density_matrix(gamma: float, cfg: NoiseConfig) -> np.ndarray:
    """Four-qubit state of the pipeline under the full noise configuration.

    Applies, in order: interference visibility, six-photon contamination
    weighted by the relative event rates, and the white-noise admixture.
    With the default config this is exactly the ideal projector.
    """
    g = check_gamma(gamma)
    _check_config(cfg)
    if cfg.efficiency == 1.0:
        # no six-photon event leaks in, so the pipeline need not run
        cfg = replace(cfg, pair_probability=0.0)
    return noise_report(g, cfg)[2]


def noise_report(gamma: float, cfg: NoiseConfig) -> tuple[float, float, np.ndarray]:
    """(four-fold fidelity, four-fold weight, noisy state) from one emission expansion.

    The double-pair emission reaches a four-fold with weight
    3 tau^4 eta^4 p(gamma), the six-photon emission with weight c3 q3,
    where c3 = 4 tau^6 eta^4 (1-eta)^2 and q3 sums its loss branches. The
    four-fold fidelity and the state mix the two orders by these weights.
    At visibility V the double-pair state is V |psi><psi| + (1-V) rho_dist,
    where rho_dist sums the emission terms' outcome probabilities instead of
    amplitudes (at gamma = 0 and pi/4 the populations are untouched), and
    white noise q makes the final state (1-q) rho + q I/16.
    """
    g = check_gamma(gamma)
    _check_config(cfg)
    rho = state_at(g).state.density()
    v = cfg.visibility
    if v != 1.0:
        from .circuit import source_term_coincidences

        terms = source_term_coincidences(g)
        mixture = sum(weight * np.outer(phi, phi.conj()) for weight, phi in terms)
        total = sum(weight for weight, _ in terms)
        rho = v * rho + (1.0 - v) * mixture / total
    fidelity, weight = 1.0, 0.0
    tau, eta = cfg.pair_probability, cfg.efficiency
    if tau != 0.0:
        from .circuit import run_pipeline

        ideal, p = run_pipeline(g)
        weight = weight_double = 3.0 * tau**4 * eta**4 * p
        c3 = 4.0 * tau**6 * eta**4 * (1.0 - eta) ** 2
        rho3, q3 = _third_order_branches(g) if c3 else (None, 0.0)
        weight_triple = c3 * q3
        if weight_triple != 0.0:
            overlap3 = float(np.vdot(ideal.vec, rho3 @ ideal.vec).real)
            weight = weight_double + weight_triple
            fidelity = (weight_double + c3 * overlap3) / weight
            rho = (weight_double * rho + weight_triple * rho3 / q3) / weight
    q = cfg.depolarizing_q
    return fidelity, weight, (1.0 - q) * rho + q * np.eye(16, dtype=complex) / 16.0
