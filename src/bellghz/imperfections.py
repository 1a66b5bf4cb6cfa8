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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .family import QubitState4, _real, check_gamma, state_at

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
                f"pair_probability {self.pair_probability!r} is outside the supported "
                f"range [0, {MAX_PAIR_PROBABILITY}]; higher orders would not be negligible"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if not 0.0 <= self.depolarizing_q <= 1.0:
            raise ValueError("depolarizing_q must lie in [0, 1]")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NoiseConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("noise configuration must be a JSON object")
        return cls(**data)


def _third_order_branches(gamma: float) -> tuple[np.ndarray, float]:
    """Coincidences the six-photon emission produces after losing two photons.

    Returns (sum over loss branches of q_L |phi_L><phi_L|, sum of q_L),
    with the efficiency factors stripped: every branch carries the same
    eta^4 (1-eta)^2 and it is reapplied by the caller. Distinct loss
    patterns mark orthogonal environment states, so branches add
    incoherently. A branch is one lost mode pair i <= j.
    """
    from .circuit import (
        COINCIDENCE_PATTERN,
        REGISTER,
        SPATIALS,
        pipeline_transform,
        spdc_term,
        to_qubits,
    )
    from .fock import FockState, apply_transform, postselect

    # the H and V register positions of each spatial path and the photons a
    # coincidence leaves there
    paths = [
        (
            tuple(i for i, m in enumerate(REGISTER) if m.spatial == sp),
            COINCIDENCE_PATTERN.get(sp, 0),
        )
        for sp in SPATIALS
    ]
    out = apply_transform(spdc_term(3), pipeline_transform(gamma))
    branches: dict[tuple[int, int], dict[tuple[int, ...], complex]] = {}
    for occ, amp in out.amps.items():
        excess = [occ[h] + occ[v] - want for (h, v), want in paths]
        if min(excess) < 0 or sum(excess) != 2:
            continue
        # the paths the two lost photons come from; the same path twice if it holds three
        drain = [idxs for (idxs, _), n in zip(paths, excess) for _ in range(n)]
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


def _emission_orders(g: float, cfg: NoiseConfig):
    """(ideal state, weight_double, c3, rho3, q3) of the two leading emission orders.

    The six-photon weight is c3 * q3; at unit efficiency c3 is 0 and rho3 None.
    """
    from .circuit import run_pipeline

    tau, eta = cfg.pair_probability, cfg.efficiency
    ideal, p = run_pipeline(g)
    weight_double = 3.0 * tau**4 * eta**4 * p
    c3 = 4.0 * tau**6 * eta**4 * (1.0 - eta) ** 2
    rho3, q3 = _third_order_branches(g) if c3 else (None, 0.0)
    return ideal, weight_double, c3, rho3, q3


def higher_order_fourfolds(gamma: float, cfg: NoiseConfig) -> tuple[float, float]:
    """Fidelity and relative rate of four-folds once six-photon events leak in.

    A six-photon emission contributes only when exactly two photons are
    lost, so unit efficiency gives no reduction at all. The returned
    weight is the four-fold event rate per pulse to the two leading
    emission orders.
    """
    g = check_gamma(gamma)
    if cfg.pair_probability == 0.0:
        return 1.0, 0.0
    return _fourfolds(_emission_orders(g, cfg))


def _fourfolds(orders) -> tuple[float, float]:
    """Four-fold fidelity and weight from the result of :func:`_emission_orders`."""
    ideal, weight_double, c3, rho3, q3 = orders
    weight_triple = c3 * q3
    if weight_triple == 0.0:
        return 1.0, weight_double
    overlap3 = float(np.vdot(ideal.vec, rho3 @ ideal.vec).real)
    fidelity = (weight_double + c3 * overlap3) / (weight_double + weight_triple)
    return fidelity, weight_double + weight_triple


def visibility_noise(state: QubitState4, gamma: float, cfg: NoiseConfig) -> np.ndarray:
    """Mix the ideal state with the distinguishable-photon outcome.

    With visibility V the output is V |psi><psi| + (1-V) rho_dist, where
    rho_dist propagates each emission term separately and sums outcome
    probabilities instead of amplitudes. Where terms feed disjoint
    outcomes (gamma = 0 or pi/4) the populations are untouched.
    """
    g = check_gamma(gamma)
    v = cfg.visibility
    ideal = state.density()
    if v == 1.0:
        return ideal
    from .circuit import source_term_coincidences

    terms = source_term_coincidences(g)
    mixture = sum(weight * np.outer(phi, phi.conj()) for weight, phi in terms)
    total = sum(weight for weight, _ in terms)
    return v * ideal + (1.0 - v) * mixture / total


def depolarize(rho: np.ndarray, q: float) -> np.ndarray:
    """White-noise admixture (1-q) rho + q I/16."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("depolarizing fraction must lie in [0, 1]")
    return (1.0 - q) * rho + q * np.eye(16, dtype=complex) / 16.0


def noisy_density_matrix(gamma: float, cfg: NoiseConfig) -> np.ndarray:
    """Four-qubit state of the pipeline under the full noise configuration.

    Applies, in order: interference visibility, six-photon contamination
    weighted by the relative event rates, and the white-noise admixture.
    With the default config this is exactly the ideal projector.
    """
    g = check_gamma(gamma)
    leaks = cfg.pair_probability > 0.0 and cfg.efficiency < 1.0
    return _noisy_state(g, cfg, _emission_orders(g, cfg) if leaks else None)


def _noisy_state(g: float, cfg: NoiseConfig, orders) -> np.ndarray:
    """The noisy state at a checked angle, mixing in the six-photon branch
    of ``orders`` (the result of :func:`_emission_orders`, or None)."""
    rho = visibility_noise(state_at(g).state, g, cfg)
    if orders is not None:
        _, weight_double, c3, rho3, q3 = orders
        weight_triple = c3 * q3
        if weight_triple > 0.0:
            total = weight_double + weight_triple
            rho = (weight_double * rho + weight_triple * rho3 / q3) / total
    return depolarize(rho, cfg.depolarizing_q)


def noise_report(gamma: float, cfg: NoiseConfig) -> tuple[float, float, np.ndarray]:
    """(four-fold fidelity, four-fold weight, noisy state) from one emission expansion.

    The same bits as :func:`higher_order_fourfolds` followed by
    :func:`noisy_density_matrix`, with the pipeline and the six-photon
    loss branches computed once instead of twice.
    """
    g = check_gamma(gamma)
    if cfg.pair_probability == 0.0:
        return 1.0, 0.0, _noisy_state(g, cfg, None)
    orders = _emission_orders(g, cfg)
    return (*_fourfolds(orders), _noisy_state(g, cfg, orders))
