"""Noise-model behavior: emission orders, loss, visibility, white noise."""

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from test_circuit import to_qubits_by_lookup
from test_fock import amplitudes_by_permanents, postselect_by_groups, postselect_by_sums

from bellghz import circuit, fock, imperfections
from bellghz.analysis import fidelity
from bellghz.circuit import (
    COINCIDENCE_PATTERN,
    REGISTER,
    SPATIALS,
    pipeline_transform,
    run_pipeline,
    source_term_coincidences,
    source_terms,
    spdc_term,
    to_qubits,
)
from bellghz.family import catalog, probability, state_at
from bellghz.fock import FockState, apply_transform, postselect
from bellghz.imperfections import (
    MAX_PAIR_PROBABILITY,
    NoiseConfig,
    _third_order_branches,
    higher_order_fourfolds,
    noise_report,
    noisy_density_matrix,
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
    with pytest.raises(ValueError, match="detector_count"):
        NoiseConfig.from_json('{"detector_count": 8}')
    # the real numbers __post_init__ accepts are written as floats; Python's keep their bytes
    for value in (np.float32(0.5), np.int64(1), Fraction(1, 2)):
        text = NoiseConfig(efficiency=value).to_json()
        assert NoiseConfig.from_json(text).efficiency == float(value)
    assert NoiseConfig(efficiency=1, visibility=0.5).to_json() == (
        '{"depolarizing_q": 0.0, "efficiency": 1, "pair_probability": 0.0, "visibility": 0.5}'
    )


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
    np.testing.assert_array_equal(noisy_density_matrix(0.1, NoiseConfig()),
                                  state_at(0.1).state.density())


def test_visibility_zero_kills_ghz_coherence():
    rho = noisy_density_matrix(math.pi / 8, NoiseConfig(visibility=0.0))
    assert rho[3, 3].real == pytest.approx(0.5, abs=1e-12)
    assert rho[12, 12].real == pytest.approx(0.5, abs=1e-12)
    assert abs(rho[3, 12]) <= 1e-12
    assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


@pytest.mark.parametrize("gamma", [0.0, math.pi / 4])
def test_visibility_preserves_populations_at_filter_points(gamma):
    rho = noisy_density_matrix(gamma, NoiseConfig(visibility=0.0))
    np.testing.assert_allclose(np.diag(rho), np.diag(state_at(gamma).state.density()),
                               atol=1e-12)


def test_visibility_harmless_at_gamma_zero():
    ideal = state_at(0.0).state
    for v in (0.0, 0.5, 0.9):
        rho = noisy_density_matrix(0.0, NoiseConfig(visibility=v))
        np.testing.assert_allclose(rho, ideal.density(), atol=1e-13)


def test_visibility_fidelity_non_increasing():
    for g in np.linspace(0.0, math.pi / 4, 11):
        fids = [
            fidelity(noisy_density_matrix(g, NoiseConfig(visibility=v)), g)
            for v in (1.0, 0.9, 0.7, 0.3, 0.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))
        assert fids[0] == pytest.approx(1.0, abs=1e-12)


def test_depolarize_white_noise_fidelity():
    rho = noisy_density_matrix(math.pi / 8, NoiseConfig(depolarizing_q=0.2))
    assert fidelity(rho, math.pi / 8) == pytest.approx(0.8 + 0.2 / 16, abs=1e-12)
    with pytest.raises(ValueError, match="depolarizing_q"):
        noisy_density_matrix(math.pi / 8, NoiseConfig(depolarizing_q=1.2))


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


def _emission_orders(g, cfg):
    """(ideal state, weight_double, c3, rho3, q3) of the two leading emission orders.

    The six-photon weight is c3 * q3; at unit efficiency c3 is 0 and rho3 None.
    """
    tau, eta = cfg.pair_probability, cfg.efficiency
    ideal, p = run_pipeline(g)
    weight_double = 3.0 * tau**4 * eta**4 * p
    c3 = 4.0 * tau**6 * eta**4 * (1.0 - eta) ** 2
    rho3, q3 = _third_order_branches(g) if c3 else (None, 0.0)
    return ideal, weight_double, c3, rho3, q3


def _fourfolds(orders):
    """Four-fold fidelity and weight from the result of :func:`_emission_orders`."""
    ideal, weight_double, c3, rho3, q3 = orders
    weight_triple = c3 * q3
    if weight_triple == 0.0:
        return 1.0, weight_double
    overlap3 = float(np.vdot(ideal.vec, rho3 @ ideal.vec).real)
    fidelity = (weight_double + c3 * overlap3) / (weight_double + weight_triple)
    return fidelity, weight_double + weight_triple


def _visibility_noise(state, gamma, cfg):
    """The visibility mixture as it was written before ``noise_report`` took it over."""
    v = cfg.visibility
    ideal = state.density()
    if v == 1.0:
        return ideal
    terms = source_term_coincidences(gamma)
    mixture = sum(weight * np.outer(phi, phi.conj()) for weight, phi in terms)
    total = sum(weight for weight, _ in terms)
    return v * ideal + (1.0 - v) * mixture / total


def _depolarize(rho, q):
    """The white-noise admixture as it was written before ``noise_report`` took it over."""
    return (1.0 - q) * rho + q * np.eye(16, dtype=complex) / 16.0


def _noisy_state(g, cfg, orders):
    """The noisy state at a checked angle, mixing in the six-photon branch
    of ``orders`` (the result of :func:`_emission_orders`, or None)."""
    rho = _visibility_noise(state_at(g).state, g, cfg)
    if orders is not None:
        _, weight_double, c3, rho3, q3 = orders
        weight_triple = c3 * q3
        if weight_triple > 0.0:
            total = weight_double + weight_triple
            rho = (weight_double * rho + weight_triple * rho3 / q3) / total
    return _depolarize(rho, cfg.depolarizing_q)


def noise_by_emission_orders(g, cfg):
    """(higher_order_fourfolds, noisy_density_matrix, noise_report) as three separate
    compositions of the helpers above: the noise model before ``noise_report`` was
    its one evaluation, kept as its oracle."""
    fourfolds = (1.0, 0.0) if cfg.pair_probability == 0.0 else _fourfolds(_emission_orders(g, cfg))
    leaks = cfg.pair_probability > 0.0 and cfg.efficiency < 1.0
    state = _noisy_state(g, cfg, _emission_orders(g, cfg) if leaks else None)
    if cfg.pair_probability == 0.0:
        report = 1.0, 0.0, _noisy_state(g, cfg, None)
    else:
        orders = _emission_orders(g, cfg)
        report = (*_fourfolds(orders), _noisy_state(g, cfg, orders))
    return fourfolds, state, report


def typed_bytes(values):
    return [(type(v), np.asarray(v).tobytes()) for v in values]


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
        fourfolds, state, report = noise_by_emission_orders(gamma, cfg)
        got = (higher_order_fourfolds(gamma, cfg), [noisy_density_matrix(gamma, cfg)],
               noise_report(gamma, cfg))
        want = (fourfolds, [state], report)
        assert [typed_bytes(v) for v in got] == [typed_bytes(v) for v in want], (gamma, cfg)
        assert typed_bytes(report) == typed_bytes([*fourfolds, state]), (gamma, cfg)


def test_noise_views_skip_what_their_outputs_do_not_depend_on(monkeypatch):
    def refuse(gamma):
        raise AssertionError("called for an output that does not depend on it")

    with monkeypatch.context() as m:
        # the four-folds do not see the visibility
        m.setattr(circuit, "source_term_coincidences", refuse)
        higher_order_fourfolds(0.3, NoiseConfig(pair_probability=0.05, efficiency=0.3,
                                                visibility=0.5))
    with monkeypatch.context() as m:
        # no six-photon event leaks in at unit efficiency
        m.setattr(circuit, "run_pipeline", refuse)
        noisy_density_matrix(0.3, NoiseConfig(pair_probability=0.05, efficiency=1.0,
                                              visibility=0.5, depolarizing_q=0.1))


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


def test_post_selection_keeps_every_loss_branch_whole(monkeypatch):
    # each branch term already holds one photon per output path, so no branch
    # loses a term to the coincidence filter, and every weight is positive
    calls = []

    def recorded(state, pattern):
        kept, weight = postselect(state, pattern)
        calls.append((kept.amps.keys() == state.amps.keys(), weight))
        return kept, weight

    monkeypatch.setattr(fock, "postselect", recorded)
    rng = np.random.default_rng(31)
    for gamma in [e.gamma for e in catalog()] + rng.uniform(0, math.pi / 4, 40).tolist():
        _third_order_branches(gamma)
    assert calls and all(whole and weight > 0.0 for whole, weight in calls)


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


def third_order_branches_by_path_list(gamma):
    """The ``_third_order_branches`` that built its path list on every call, kept as its oracle."""
    paths = [
        (tuple(i for i, m in enumerate(REGISTER) if m.spatial == sp),
         COINCIDENCE_PATTERN.get(sp, 0))
        for sp in SPATIALS
    ]
    out = apply_transform(spdc_term(3), pipeline_transform(gamma))
    branches = {}
    for occ, amp in out.amps.items():
        excess = [occ[h] + occ[v] - want for (h, v), want in paths]
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
        kept, weight = postselect_by_groups(
            FockState(REGISTER, branches[pair]), COINCIDENCE_PATTERN)
        if weight == 0.0:
            continue
        phi = to_qubits_by_lookup(kept)
        rho += weight * np.outer(phi, phi.conj())
        total += weight
    return rho, total


def test_third_order_branches_equal_the_path_list_oracle_byte_for_byte():
    rng = np.random.default_rng(21)
    for gamma in [0.0, math.pi / 12, math.pi / 8, math.pi / 4, *rng.uniform(0, math.pi / 4, 30)]:
        rho, total = _third_order_branches(float(gamma))
        want_rho, want_total = third_order_branches_by_path_list(float(gamma))
        assert total.hex() == want_total.hex()
        assert rho.tobytes() == want_rho.tobytes()


#: The register positions of the output modes eH, eV, fH, ..., hV.
OUTS = [i for i, m in enumerate(REGISTER) if m.spatial in COINCIDENCE_PATTERN]


def _coincidence(bits):
    """The occupation of basis state ``bits``: qubit k is path k of the outputs
    (H = 0, V = 1), qubit 1 most significant."""
    occ = [0] * len(REGISTER)
    for k in range(4):
        occ[OUTS[2 * k + ((bits >> (3 - k)) & 1)]] += 1
    return occ


COINCIDENCES = [_coincidence(bits) for bits in range(16)]


def three_point_tables(f):
    """(T0, T1, T2) of f(gamma) = T0 + T1 cos 4g + T2 cos 8g, solved at 0, pi/8
    and pi/4, where (cos 4g, cos 8g) is (1, 1), (0, -1) and (-1, 1)."""
    at_0, at_8, at_4 = map(f, (0.0, math.pi / 8, math.pi / 4))
    return ((at_0 + at_4) / 2 + at_8) / 2, (at_0 - at_4) / 2, ((at_0 + at_4) / 2 - at_8) / 2


def three_point_form(tables, gamma):
    t0, t1, t2 = tables
    return t0 + t1 * math.cos(4 * gamma) + t2 * math.cos(8 * gamma)


def third_order_branches_by_permanents(gamma):
    """The loss-branch sum rho3 with every six-photon amplitude a permanent: no Fock engine.

    A branch loses one pair i <= j of the output modes, and keeps the
    coincidence c with the amplitude of c + 1_i + 1_j times the loss factor
    sqrt(n_i n_j), or sqrt(n_i (n_i - 1) / 2) for i == j. Branches add incoherently.
    """
    u = pipeline_transform(gamma).embedded(REGISTER)
    rho = np.zeros((16, 16), dtype=complex)
    for a, i in enumerate(OUTS):
        for j in OUTS[a:]:
            lit = [list(c) for c in COINCIDENCES]
            for n in lit:
                n[i] += 1
                n[j] += 1
            factors = np.array([math.sqrt(n[i] * (n[i] - 1) / 2 if i == j else n[i] * n[j])
                                for n in lit])
            phi = factors * amplitudes_by_permanents(spdc_term(3), u, lit)
            rho += np.outer(phi, phi.conj())
    return rho


def mixture_by_permanents(gamma):
    """The visibility mixture M = sum_t w_t |phi_t><phi_t| over the three
    :func:`source_terms` propagated one by one, every amplitude a permanent:
    no Fock engine.  Term t reaches the coincidences with probability w_t."""
    u = pipeline_transform(gamma).embedded(REGISTER)
    psis = [amplitudes_by_permanents(term, u, COINCIDENCES) for term in source_terms()]
    return sum(np.outer(psi, psi.conj()) for psi in psis)


@functools.cache
def rho3_tables():
    """(A0, A1, A2) of rho3(gamma) = A0 + A1 cos 4g + A2 cos 8g, from permanents."""
    return three_point_tables(third_order_branches_by_permanents)


@functools.cache
def mixture_tables():
    """(B0, B1, B2) of M(gamma) = B0 + B1 cos 4g + B2 cos 8g, from permanents."""
    return three_point_tables(mixture_by_permanents)


def test_third_order_branches_equal_the_permanent_closed_form():
    # rho3(gamma) = A0 + A1 cos 4g + A2 cos 8g, solved at 0, pi/8 and pi/4
    a0, a1, a2 = rho3_tables()
    for a, trace, nonzero in ((a0, Fraction(39, 32), 68), (a1, Fraction(-3, 4), 52),
                              (a2, Fraction(9, 32), 36)):
        # real symmetric tables of multiples of 1/64, with the traces of q3's closed form
        table = np.round(64 * a.real)
        np.testing.assert_allclose(64 * a, table, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(table, table.T)
        assert np.count_nonzero(table) == nonzero
        assert np.trace(a) == pytest.approx(float(trace), rel=0, abs=1e-12)
    # the form holds off the solved points too, permanents against permanents
    for gamma in (math.pi / 12, 0.5):
        rho = third_order_branches_by_permanents(gamma)
        np.testing.assert_allclose(rho, three_point_form(rho3_tables(), gamma), rtol=0, atol=1e-14)
    rng = np.random.default_rng(25)
    for gamma in [0.0, math.pi / 12, math.pi / 8, math.pi / 4, *rng.uniform(0, math.pi / 4, 60)]:
        gamma = float(gamma)
        rho, q = _third_order_branches(gamma)
        np.testing.assert_allclose(rho, three_point_form(rho3_tables(), gamma), rtol=0, atol=1e-14)
        want_q = 39 / 32 - 3 / 4 * math.cos(4 * gamma) + 9 / 32 * math.cos(8 * gamma)
        assert q == pytest.approx(want_q, rel=0, abs=1e-14)


def test_visibility_mixture_equals_the_permanent_closed_form():
    # M(gamma) = B0 + B1 cos 4g + B2 cos 8g, solved at 0, pi/8 and pi/4
    for b, trace in zip(mixture_tables(), (Fraction(5, 48), Fraction(-4, 48), Fraction(3, 48))):
        # real symmetric tables of multiples of 1/96, whose traces add up to p(gamma):
        # 48 p = 5 - 4 cos 4g + 3 cos 8g
        table = np.round(96 * b.real)
        np.testing.assert_allclose(96 * b, table, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(table, table.T)
        assert np.trace(b) == pytest.approx(float(trace), rel=0, abs=1e-14)
    for gamma in (math.pi / 12, 0.5):
        mixture = mixture_by_permanents(gamma)
        np.testing.assert_allclose(mixture, three_point_form(mixture_tables(), gamma),
                                   rtol=0, atol=1e-14)
    # the Fock engine's terms, one by one, on a grid and on seeded angles
    rng = np.random.default_rng(26)
    for gamma in [*np.linspace(0, math.pi / 4, 21), *rng.uniform(0, math.pi / 4, 40)]:
        gamma = float(gamma)
        terms = source_term_coincidences(gamma)
        mixture = sum(weight * np.outer(phi, phi.conj()) for weight, phi in terms)
        want = three_point_form(mixture_tables(), gamma)
        np.testing.assert_allclose(mixture, want, rtol=0, atol=1e-14)
        assert np.trace(want).real == pytest.approx(probability(gamma), rel=0, abs=1e-14)


def noise_report_by_closed_forms(gamma, cfg):
    """(fidelity, weight, state) of ``noise_report`` from the closed forms alone:
    the family state, p(gamma), and the tables of M and rho3."""
    psi = state_at(gamma).state.vec
    ideal = np.outer(psi, psi.conj())
    p = probability(gamma)
    v, tau, eta, q = cfg.visibility, cfg.pair_probability, cfg.efficiency, cfg.depolarizing_q
    rho = v * ideal + (1 - v) * three_point_form(mixture_tables(), gamma) / p
    weight_double = 3 * tau**4 * eta**4 * p
    c3 = 4 * tau**6 * eta**4 * (1 - eta) ** 2
    rho3 = three_point_form(rho3_tables(), gamma)
    q3 = 39 / 32 - 3 / 4 * math.cos(4 * gamma) + 9 / 32 * math.cos(8 * gamma)
    weight = weight_double + c3 * q3
    fidelity = 1.0
    if weight:
        fidelity = (weight_double + c3 * np.vdot(psi, rho3 @ psi).real) / weight
        rho = (weight_double * rho + c3 * rho3) / weight
    return fidelity, weight, (1 - q) * rho + q * np.eye(16) / 16


def test_noise_report_equals_the_closed_forms():
    rng = np.random.default_rng(27)
    configs = [
        (0.3, NoiseConfig()),
        (0.2, NoiseConfig(visibility=0.0)),
        (0.7, NoiseConfig(visibility=0.6, depolarizing_q=0.25)),
        (0.5, NoiseConfig(pair_probability=0.1, efficiency=1.0, visibility=0.4)),
        (0.1, NoiseConfig(pair_probability=0.08, efficiency=0.3, visibility=1.0)),
        (PSI4P_GAMMA, NoiseConfig(pair_probability=0.05, efficiency=0.2, visibility=0.0,
                                  depolarizing_q=1.0)),
    ]
    for _ in range(40):
        configs.append((float(rng.uniform(0, math.pi / 4)), NoiseConfig(
            pair_probability=float(rng.uniform(0, MAX_PAIR_PROBABILITY)),
            efficiency=float(rng.uniform(0.05, 1.0)),
            visibility=float(rng.uniform(0.0, 1.0)),
            depolarizing_q=float(rng.choice([0.0, rng.uniform(0.0, 1.0)])),
        )))
    for gamma, cfg in configs:
        fidelity, weight, rho = noise_report(gamma, cfg)
        want_fidelity, want_weight, want_rho = noise_report_by_closed_forms(gamma, cfg)
        assert fidelity == pytest.approx(want_fidelity, rel=0, abs=1e-13), (gamma, cfg)
        assert weight == pytest.approx(want_weight, rel=1e-13, abs=0), (gamma, cfg)
        np.testing.assert_allclose(rho, want_rho, rtol=0, atol=1e-13, err_msg=str((gamma, cfg)))


@pytest.mark.parametrize("call", [
    lambda: higher_order_fourfolds(0.1, None),
    lambda: noisy_density_matrix(0.1, {}),
    lambda: noise_report(0.1, None),
    lambda: noise_report(0.1, {"pair_probability": 0.05}),
])
def test_noise_functions_reject_a_config_that_is_not_a_noise_config(call):
    with pytest.raises(ValueError, match="cfg must be a NoiseConfig"):
        call()


def test_from_json_rejects_unknown_keys_with_a_value_error():
    with pytest.raises(ValueError, match=r"unknown noise configuration keys: \['foo'\]"):
        NoiseConfig.from_json('{"foo": 1}')
    with pytest.raises(ValueError, match="'bar', 'foo'"):
        NoiseConfig.from_json('{"foo": 1, "efficiency": 0.5, "bar": 2}')
