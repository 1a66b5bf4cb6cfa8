"""Noise-model behavior: emission orders, loss, visibility, white noise."""

import math
import random

import numpy as np
import pytest
from test_fock import postselect_by_sums

from bellghz import circuit, imperfections
from bellghz.analysis import fidelity
from bellghz.circuit import (
    COINCIDENCE_PATTERN,
    REGISTER,
    SPATIALS,
    pipeline_transform,
    run_pipeline,
    spdc_term,
    to_qubits,
)
from bellghz.family import catalog, probability, state_at
from bellghz.fock import FockState, apply_transform, postselect
from bellghz.imperfections import (
    MAX_PAIR_PROBABILITY,
    NoiseConfig,
    _third_order_branches,
    depolarize,
    higher_order_fourfolds,
    noise_report,
    noisy_density_matrix,
    visibility_noise,
)

LOSSY = NoiseConfig(pair_probability=0.05, efficiency=0.2)
PSI4P_GAMMA = next(e.gamma for e in catalog() if e.name == "Ψ4+")


def test_config_defaults_are_noiseless():
    cfg = NoiseConfig()
    assert cfg.pair_probability == 0.0
    assert cfg.efficiency == 1.0
    assert cfg.visibility == 1.0
    assert cfg.depolarizing_q == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"pair_probability": -0.1},
        {"pair_probability": 1.0},
        {"efficiency": 0.0},
        {"efficiency": 1.5},
        {"visibility": -0.2},
        {"visibility": 1.01},
        {"depolarizing_q": 2.0},
        {"pair_probability": 0.5},
        {"pair_probability": math.nan},
        {"efficiency": math.inf},
        {"efficiency": True},
        {"visibility": "0.9"},
        {"pair_probability": 0.05j},
        {"depolarizing_q": None},
    ],
)
def test_config_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        NoiseConfig(**kwargs)


def test_config_json_round_trip():
    cfg = NoiseConfig(pair_probability=0.03, efficiency=0.4, visibility=0.9,
                      depolarizing_q=0.05)
    assert NoiseConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(ValueError):
        NoiseConfig.from_json("[1, 2]")
    with pytest.raises(ValueError, match="real number"):
        NoiseConfig.from_json('{"efficiency": true}')
    assert NoiseConfig.from_json('{"efficiency": 1}').efficiency == 1
    with pytest.raises(TypeError):
        NoiseConfig.from_json('{"detector_count": 8}')


def test_higher_order_zero_tau_is_ideal():
    assert higher_order_fourfolds(0.1, NoiseConfig()) == (1.0, 0.0)


def test_higher_order_unit_efficiency_has_no_reduction():
    # six photons minus zero losses never makes a four-fold
    cfg = NoiseConfig(pair_probability=0.05, efficiency=1.0)
    for g in (0.0, PSI4P_GAMMA, math.pi / 4):
        f, weight = higher_order_fourfolds(g, cfg)
        assert f == 1.0
        assert weight == pytest.approx(3 * 0.05**4 * probability(g))


def test_higher_order_rejects_large_tau():
    cfg = NoiseConfig(pair_probability=MAX_PAIR_PROBABILITY)
    higher_order_fourfolds(0.0, cfg)  # boundary is allowed
    with pytest.raises(ValueError, match="supported range"):
        higher_order_fourfolds(0.0, NoiseConfig(pair_probability=0.11))


def test_higher_order_reduction_peaks_in_the_interior():
    f_edge, _ = higher_order_fourfolds(0.0, LOSSY)
    f_interior, _ = higher_order_fourfolds(PSI4P_GAMMA, LOSSY)
    f_end, _ = higher_order_fourfolds(math.pi / 4, LOSSY)
    assert (1 - f_interior) >= 2 * (1 - f_edge)
    assert (1 - f_interior) >= 2 * (1 - f_end)
    # regression anchors for the fixed config
    assert 1 - f_edge == pytest.approx(0.00628, abs=5e-5)
    assert 1 - f_interior == pytest.approx(0.04236, abs=5e-5)


def test_higher_order_fidelity_and_weight_ranges():
    for g in np.linspace(0.0, math.pi / 4, 9):
        f, weight = higher_order_fourfolds(g, LOSSY)
        assert 0.9 < f < 1.0
        assert weight > 0.0


def test_visibility_one_is_exact():
    st = state_at(0.1).state
    np.testing.assert_array_equal(visibility_noise(st, 0.1, NoiseConfig()), st.density())


def test_visibility_zero_kills_ghz_coherence():
    rho = visibility_noise(state_at(math.pi / 8).state, math.pi / 8,
                           NoiseConfig(visibility=0.0))
    assert rho[3, 3].real == pytest.approx(0.5, abs=1e-12)
    assert rho[12, 12].real == pytest.approx(0.5, abs=1e-12)
    assert abs(rho[3, 12]) <= 1e-12
    assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


@pytest.mark.parametrize("gamma", [0.0, math.pi / 4])
def test_visibility_preserves_populations_at_filter_points(gamma):
    ideal = state_at(gamma).state
    rho = visibility_noise(ideal, gamma, NoiseConfig(visibility=0.0))
    np.testing.assert_allclose(np.diag(rho), np.diag(ideal.density()), atol=1e-12)


def test_visibility_harmless_at_gamma_zero():
    ideal = state_at(0.0).state
    for v in (0.0, 0.5, 0.9):
        rho = visibility_noise(ideal, 0.0, NoiseConfig(visibility=v))
        np.testing.assert_allclose(rho, ideal.density(), atol=1e-13)


def test_visibility_fidelity_non_increasing():
    for g in np.linspace(0.0, math.pi / 4, 11):
        st = state_at(g).state
        fids = [
            fidelity(visibility_noise(st, g, NoiseConfig(visibility=v)), g)
            for v in (1.0, 0.9, 0.7, 0.3, 0.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))
        assert fids[0] == pytest.approx(1.0, abs=1e-12)


def test_depolarize_white_noise_fidelity():
    rho = noisy_density_matrix(math.pi / 8, NoiseConfig(depolarizing_q=0.2))
    assert fidelity(rho, math.pi / 8) == pytest.approx(0.8 + 0.2 / 16, abs=1e-12)
    with pytest.raises(ValueError):
        depolarize(np.eye(16) / 16, 1.2)


def test_noisy_density_matrix_default_is_projector():
    st = state_at(0.2).state
    np.testing.assert_allclose(noisy_density_matrix(0.2, NoiseConfig()),
                               st.density(), atol=1e-14)


def test_noisy_density_matrix_no_loss_keeps_ideal():
    cfg = NoiseConfig(pair_probability=0.05, efficiency=1.0, visibility=1.0)
    st = state_at(math.pi / 12).state
    rho = noisy_density_matrix(math.pi / 12, cfg)
    assert fidelity(rho, math.pi / 12) >= 1 - 1e-10


def test_noisy_density_matrix_is_physical():
    cfg = NoiseConfig(pair_probability=0.05, efficiency=0.2, visibility=0.9,
                      depolarizing_q=0.05)
    for g in (0.0, math.pi / 12, PSI4P_GAMMA, math.pi / 4):
        rho = noisy_density_matrix(g, cfg)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert fidelity(rho, g) < 1.0


def test_noise_report_equals_the_two_separate_calls():
    rng = np.random.default_rng(6)
    gammas = [e.gamma for e in catalog()] + [0.098 * math.pi]
    gammas += rng.uniform(0.0, math.pi / 4, 150 - len(gammas)).tolist()
    for gamma in gammas:
        cfg = NoiseConfig(
            pair_probability=float(rng.choice([0.0, 0.1, rng.uniform(0.0, 0.1)])),
            efficiency=float(rng.choice([1.0, rng.uniform(0.05, 1.0)])),
            visibility=float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)])),
            depolarizing_q=rng.uniform(0.0, 0.2),
        )
        fourfold_fidelity, weight, rho = noise_report(gamma, cfg)
        separate = (*higher_order_fourfolds(gamma, cfg), noisy_density_matrix(gamma, cfg))
        raw = [np.asarray(v).tobytes() for v in (fourfold_fidelity, weight, rho)]
        assert raw == [np.asarray(v).tobytes() for v in separate], (gamma, cfg)


def test_noisy_fidelity_dips_in_the_interior():
    fids = {g: fidelity(noisy_density_matrix(g, LOSSY), g)
            for g in (0.0, PSI4P_GAMMA, math.pi / 4)}
    assert fids[PSI4P_GAMMA] < fids[0.0]
    assert fids[PSI4P_GAMMA] < fids[math.pi / 4]


def _brute_force_branches(gamma):
    """Loss-branch sum by exhaustion: every one of the 136 mode pairs is
    removed from every propagated six-photon term, then post-selected."""
    out = apply_transform(spdc_term(3), pipeline_transform(gamma))
    nmodes = len(REGISTER)
    rho = np.zeros((16, 16), dtype=complex)
    total = 0.0
    for i in range(nmodes):
        for j in range(i, nmodes):
            branch = {}
            for occ, amp in out.amps.items():
                lost = list(occ)
                if i == j:
                    if occ[i] < 2:
                        continue
                    factor = math.sqrt(occ[i] * (occ[i] - 1) / 2.0)
                    lost[i] -= 2
                else:
                    if occ[i] < 1 or occ[j] < 1:
                        continue
                    factor = math.sqrt(occ[i] * occ[j])
                    lost[i] -= 1
                    lost[j] -= 1
                branch[tuple(lost)] = amp * factor
            if not branch:
                continue
            kept, weight = postselect(FockState(REGISTER, branch), COINCIDENCE_PATTERN)
            if weight == 0.0:
                continue
            phi = to_qubits(kept).vec
            rho += weight * np.outer(phi, phi.conj())
            total += weight
    return rho, total


@pytest.mark.parametrize(
    "gamma",
    sorted({e.gamma for e in catalog()})
    + [float(g) for g in np.random.default_rng(20).uniform(0.0, math.pi / 4, 20)],
)
def test_third_order_branches_equal_the_exhaustive_search(gamma):
    rho, total = _third_order_branches(gamma)
    want_rho, want_total = _brute_force_branches(gamma)
    assert total == want_total
    np.testing.assert_array_equal(rho, want_rho)


def third_order_branches_by_sums(gamma):
    """The generator-sum filter that ``_third_order_branches`` replaced, kept as its oracle."""
    paths = [
        ([i for i, m in enumerate(REGISTER) if m.spatial == sp], COINCIDENCE_PATTERN.get(sp, 0))
        for sp in SPATIALS
    ]
    out = apply_transform(spdc_term(3), pipeline_transform(gamma))
    branches = {}
    for occ, amp in out.amps.items():
        excess = [sum(occ[i] for i in idxs) - want for idxs, want in paths]
        if min(excess) < 0 or sum(excess) != 2:
            continue
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
        kept, weight = postselect_by_sums(FockState(REGISTER, branches[pair]), COINCIDENCE_PATTERN)
        if weight == 0.0:
            continue
        phi = to_qubits(kept).vec
        rho += weight * np.outer(phi, phi.conj())
        total += weight
    return rho, total


def noise_bytes(configs):
    out = []
    for gamma, cfg in configs:
        fourfold = higher_order_fourfolds(gamma, cfg)
        rho = noisy_density_matrix(gamma, cfg)
        ideal = run_pipeline(gamma)
        out.append([np.asarray(v).tobytes()
                    for v in (*fourfold, rho, ideal.state.vec, ideal.probability)])
    return out


def test_noise_outputs_equal_the_generator_sum_oracles(monkeypatch):
    rng = random.Random(77)
    configs = [
        (rng.uniform(0.0, math.pi / 4), NoiseConfig(
            pair_probability=rng.uniform(0.01, 0.1), efficiency=rng.uniform(0.05, 0.95),
            visibility=rng.uniform(0.8, 1.0), depolarizing_q=rng.uniform(0.0, 0.1)))
        for _ in range(60)
    ]
    indexed = noise_bytes(configs)
    monkeypatch.setattr(imperfections, "_third_order_branches", third_order_branches_by_sums)
    monkeypatch.setattr(circuit, "postselect", postselect_by_sums)
    assert noise_bytes(configs) == indexed
