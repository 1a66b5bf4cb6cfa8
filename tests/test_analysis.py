"""Correlation, witness, cover, and projection analysis against oracles."""

import itertools
import math

import numpy as np
import pytest

from bellghz.analysis import (
    AXES,
    BIPARTITIONS,
    CLASS_MEMBERS,
    CorrelationTensor,
    DickeProjection,
    PAULI,
    SettingCover,
    as_density,
    biseparable_bound,
    biseparable_bounds,
    correlation_classes,
    correlations,
    dicke_projection,
    evaluate_witness,
    fidelity,
    fidelity_from_cover,
    haar_qubit_unitary,
    lu_invariance_check,
    pairwise_witness,
    setting_cover,
    three_tangle,
)
from bellghz import cli
from bellghz.family import (
    CLASS_NAMES,
    QubitState4,
    _amplitudes,
    alpha,
    catalog,
    class_moduli,
    probability,
    state_at,
)

MIXED = np.eye(16, dtype=complex) / 16.0
GENERIC_GAMMAS = [0.03 * math.pi, 0.05 * math.pi, math.pi / 12, 0.13 * math.pi,
                  0.19 * math.pi, math.pi / 4]


def kron4(labels):
    m = PAULI[labels[0]]
    for a in labels[1:]:
        m = np.kron(m, PAULI[a])
    return m


def random_state(rng, dim=16):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_correlations_match_kron_oracle():
    st = QubitState4(random_state(np.random.default_rng(11))).normalized()
    tensor = correlations(st)
    rho = st.density()
    for labels in itertools.product(AXES, repeat=4):
        expect = np.trace(rho @ kron4(labels)).real
        assert tensor["".join(labels)] == pytest.approx(expect, abs=1e-12)


def test_correlations_ghz_values():
    tensor = correlations(state_at(math.pi / 8).state)
    assert tensor["0000"] == pytest.approx(1.0)
    assert tensor["zzzz"] == pytest.approx(1.0)
    assert tensor["xxxx"] == pytest.approx(1.0)
    assert tensor["yyyy"] == pytest.approx(1.0)
    assert tensor["xxyy"] == pytest.approx(-1.0)
    assert tensor["xyxy"] == pytest.approx(1.0)


def test_correlations_reject_bad_inputs():
    with pytest.raises(ValueError, match="unit trace"):
        correlations(QubitState4(np.ones(16)))
    with pytest.raises(ValueError, match="Hermitian"):
        correlations(MIXED + 0.1j * np.eye(16))
    with pytest.raises(ValueError, match="16x16"):
        correlations(np.eye(4) / 4.0)
    with pytest.raises(ValueError, match="finite"):
        correlations(np.full((16, 16), np.nan))


@pytest.mark.parametrize("labels", ["xy", "xxxxx", "qqqq", "XXXX", "", 3, ("x", "x", "x", "x")])
def test_correlation_tensor_rejects_bad_labels(labels):
    tensor = correlations(state_at(0.1).state)
    with pytest.raises(ValueError, match="correlation label") as err:
        tensor[labels]
    assert repr(labels) in str(err.value)


def test_as_density_accepts_matrix_carrier():
    class Carrier:
        matrix = MIXED

    np.testing.assert_allclose(as_density(Carrier()), MIXED)


def test_correlation_tensor_invariants():
    vals = np.zeros((4, 4, 4, 4))
    with pytest.raises(ValueError, match="unit-trace"):
        CorrelationTensor(vals)
    with pytest.raises(ValueError, match="4x4x4x4"):
        CorrelationTensor(np.zeros((4, 4)))
    good = correlations(MIXED)
    assert good.nonzero_terms() == ("0000",)
    assert good.purity() == pytest.approx(1 / 16)


def test_class_members_partition():
    sizes = {name: len(CLASS_MEMBERS[name]) for name in CLASS_MEMBERS}
    assert sizes == {"iiii": 4, "0z0z": 8, "00zz": 4, "0x0x": 16, "00xx": 8}
    union = set().union(*CLASS_MEMBERS.values())
    assert len(union) == 40


@pytest.mark.parametrize("gamma", GENERIC_GAMMAS)
def test_family_tensor_structure(gamma):
    tensor = correlations(state_at(gamma).state)
    nz = set(tensor.nonzero_terms())
    assert nz <= set().union(*CLASS_MEMBERS.values())
    if gamma not in (0.0, math.pi / 8):
        assert len(nz) == 40
    assert tensor.purity() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("gamma", GENERIC_GAMMAS + [0.0, math.pi / 8])
def test_classes_numeric_equals_closed_form(gamma):
    numeric = correlation_classes(gamma)
    closed = class_moduli(gamma)
    assert set(numeric) == set(closed)
    for name in numeric:
        assert numeric[name] == pytest.approx(closed[name], abs=1e-10), name


def test_fidelity_anchors():
    for g in (0.0, math.pi / 12, 0.2 * math.pi):
        assert fidelity(state_at(g).state, g) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(MIXED, 0.1 * math.pi) == pytest.approx(1 / 16)
    ghz = state_at(math.pi / 8).state
    assert fidelity(ghz, math.pi / 12) == pytest.approx(1 / 3, abs=1e-12)


def test_fidelity_rejects_bad_density():
    with pytest.raises(ValueError):
        fidelity(np.eye(16), 0.0)  # trace 16
    with pytest.raises(ValueError):
        fidelity(MIXED + 0.01 * np.tri(16, k=-1), 0.0)


def test_biseparable_bound_anchors():
    assert biseparable_bound(math.pi / 8) == pytest.approx(0.5, abs=1e-12)
    assert biseparable_bound(0.0) == pytest.approx(1.0, abs=1e-12)
    assert biseparable_bound(math.pi / 12) == pytest.approx(2 / 3, abs=1e-12)


def test_biseparable_bound_range():
    for g in np.linspace(0, math.pi / 4, 41):
        c = biseparable_bound(g)
        assert 0.25 - 1e-12 <= c <= 1.0 + 1e-12


def per_cut_bound(gamma):
    """c(gamma) the unbatched way: 7 separate SVDs of one state vector."""
    vec = state_at(gamma).state.vec.reshape(2, 2, 2, 2)
    best = 0.0
    for cut in BIPARTITIONS:
        rest = tuple(q for q in range(4) if q not in cut)
        mat = vec.transpose(cut + rest).reshape(2 ** len(cut), -1)
        top = np.linalg.svd(mat, compute_uv=False)[0]
        best = max(best, float(top**2))
    return best


def sweep_grid(steps):
    return [min(math.pi / 4, math.pi / 4 * i / (steps - 1)) for i in range(steps)]


def test_biseparable_bounds_equal_the_per_cut_loop():
    rng = np.random.default_rng(11)
    grids = [[e.gamma for e in catalog()], rng.uniform(0, math.pi / 4, 50).tolist()]
    grids += [sweep_grid(n) for n in [*range(2, 121), 901, 951, 1001]]
    for gammas in grids:
        assert biseparable_bounds(gammas) == [per_cut_bound(g) for g in gammas]
    for g in grids[0]:
        assert biseparable_bound(g) == per_cut_bound(g)
    assert biseparable_bounds([]) == []
    with pytest.raises(ValueError, match="pi/4"):
        biseparable_bounds([0.1, 1.0])


def top_squares(gamma):
    """The squared top singular value of every cut, in BIPARTITIONS order."""
    vec = state_at(gamma).state.vec.reshape(2, 2, 2, 2)
    tops = []
    for cut in BIPARTITIONS:
        rest = tuple(q for q in range(4) if q not in cut)
        mat = vec.transpose(cut + rest).reshape(2 ** len(cut), -1)
        tops.append(float(np.linalg.svd(mat, compute_uv=False)[0] ** 2))
    return tops


def test_biseparable_bounds_match_the_closed_form():
    rng = np.random.default_rng(12)
    gammas = [e.gamma for e in catalog()] + rng.uniform(0, math.pi / 4, 200).tolist()
    gammas += sweep_grid(1001)
    for g, c in zip(gammas, biseparable_bounds(gammas)):
        a = alpha(g)
        pair = (abs(a) / 2 + math.sqrt((1 - a * a) / 2)) ** 2
        closed = {(0,): 0.5, (1,): 0.5, (2,): 0.5, (3,): 0.5,
                  (0, 1): max(a * a, (1 - a * a) / 2), (0, 2): pair, (0, 3): pair}
        for cut, top in zip(BIPARTITIONS, top_squares(g)):
            assert abs(top - closed[cut]) <= 1e-14, (g, cut)
        assert abs(c - max(closed.values())) <= 1e-14, g
        assert c >= 0.5 - 1e-15


def test_biseparable_bounds_equal_the_per_cut_loop_where_the_deciding_cut_changes():
    # (0,1) decides c above alpha^2 = 2/3 (gamma < pi/12) and (0,2) below it
    near = [math.pi / 12]
    for direction in (0.0, 1.0):
        g = math.pi / 12
        for _ in range(2000):
            g = math.nextafter(g, direction)
            near.append(g)
    band = np.linspace(math.pi / 12 - 1e-7, math.pi / 12 + 1e-7, 2001).tolist()
    for gammas in (near, band):
        assert biseparable_bounds(gammas) == [per_cut_bound(g) for g in gammas]


def test_family_state_is_symmetric_under_swapping_qubits_3_and_4():
    rng = np.random.default_rng(13)
    # alpha > 0 on the first branch, alpha < 0 on the second
    for a in [*rng.uniform(0.0, 1.0, 50), *rng.uniform(-math.sqrt(1 / 3), 0.0, 50)]:
        vec = _amplitudes(a).reshape(2, 2, 2, 2)
        assert np.array_equal(vec, vec.transpose(0, 1, 3, 2))
        # so the (0,2) and (0,3) cut matrices are one array
        assert np.array_equal(vec.transpose(0, 2, 1, 3).reshape(4, 4),
                              vec.transpose(0, 3, 1, 2).reshape(4, 4))


@pytest.mark.parametrize("steps", [2, 14, 97, 101, 951])
def test_sweep_rows_equal_the_scalar_route(steps, capsys):
    rows = []
    for g in sweep_grid(steps):
        moduli = class_moduli(g)
        rows.append([g, g / math.pi, alpha(g), probability(g),
                     *(moduli[name] for name in CLASS_NAMES), per_cut_bound(g)])
    header = ["gamma", "gamma_in_pi", "alpha", "probability", *CLASS_NAMES, "c_bound"]
    assert cli.main(["sweep", "--steps", str(steps)]) == 0
    assert capsys.readouterr().out == cli._csv_text(header, rows)


def test_dicke_two_two_schmidt_spectrum():
    # the 2|2 cut keeping qubits (1,2) has squared Schmidt spectrum (4/6,1/6,1/6)
    vec = state_at(math.pi / 12).state.vec.reshape(4, 4)
    s = np.linalg.svd(vec, compute_uv=False)
    np.testing.assert_allclose(sorted(s**2, reverse=True)[:3], [4 / 6, 1 / 6, 1 / 6],
                               atol=1e-12)


def random_biseparable(rng, cut):
    rest = tuple(q for q in range(4) if q not in cut)
    left = random_state(rng, 2 ** len(cut))
    right = random_state(rng, 2 ** len(rest))
    tensor = np.outer(left, right).reshape(2, 2, 2, 2)
    return np.transpose(tensor, np.argsort(cut + rest)).reshape(16)


@pytest.mark.parametrize("gamma", [0.05 * math.pi, math.pi / 8, math.pi / 4])
def test_bound_respected_by_random_biseparable_states(gamma):
    rng = np.random.default_rng(5)
    c = biseparable_bound(gamma)
    target = state_at(gamma).state.vec
    for _ in range(150):
        cut = BIPARTITIONS[rng.integers(len(BIPARTITIONS))]
        vec = random_biseparable(rng, cut)
        assert abs(np.vdot(target, vec)) ** 2 <= c + 1e-9


def test_witness_report():
    rep = evaluate_witness(state_at(math.pi / 8).state, math.pi / 8)
    assert rep.c == pytest.approx(0.5)
    assert rep.fidelity == pytest.approx(1.0)
    assert rep.witness_value == rep.c - rep.fidelity
    assert rep.detected
    trivial = evaluate_witness(state_at(0.0).state, 0.0)
    assert not trivial.detected  # F = 1 = c: the product point is biseparable


def test_pairwise_witness_values():
    assert pairwise_witness(state_at(0.0).state) == pytest.approx((-0.5, -0.5))
    assert pairwise_witness(MIXED) == pytest.approx((0.25, 0.25))
    assert pairwise_witness(state_at(math.pi / 8).state) == pytest.approx((0.5, 0.5))


def test_setting_cover_ghz():
    cover = setting_cover(math.pi / 8)
    assert isinstance(cover, SettingCover)
    assert len(cover.settings) <= 9
    assert cover.settings[0] == "zzzz"
    covered = set().union(*cover.covered_terms.values())
    tensor = correlations(state_at(math.pi / 8).state)
    assert set(tensor.nonzero_terms()) <= covered


@pytest.mark.parametrize("gamma", [0.0, 0.05 * math.pi, math.pi / 12, 0.21 * math.pi])
def test_setting_cover_size_and_completeness(gamma):
    cover = setting_cover(gamma)
    assert len(cover.settings) <= 21
    covered = set().union(*cover.covered_terms.values())
    nz = set(correlations(state_at(gamma).state).nonzero_terms())
    assert nz <= covered
    assert setting_cover(gamma) == cover  # deterministic


def test_fidelity_from_cover_matches_direct():
    rng = np.random.default_rng(3)
    for gamma in (0.05 * math.pi, math.pi / 8):
        assert fidelity_from_cover(state_at(gamma).state, gamma) == pytest.approx(
            1.0, abs=1e-10
        )
        # exact for arbitrary mixed inputs, not only the target
        probe = 0.7 * np.outer(random_state(rng), random_state(rng).conj())
        probe = (probe + probe.conj().T) / 2
        probe += (1 - probe.trace().real) * np.eye(16) / 16
        direct = fidelity(probe, gamma)
        assert fidelity_from_cover(probe, gamma) == pytest.approx(direct, abs=1e-10)


def setting_cover_by_labels(gamma):
    """The label-set greedy cover that ``setting_cover`` replaced, kept as its oracle."""
    terms = correlations(state_at(gamma).state).nonzero_terms()
    candidates = ["".join(s) for s in itertools.product("xyz", repeat=4)]
    yields = {
        s: frozenset(t for t in terms if all(a in ("0", b) for a, b in zip(t, s)))
        for s in candidates
    }
    uncovered = set(terms)
    chosen = []
    while uncovered:
        best = max(candidates, key=lambda s: len(yields[s] & uncovered))
        chosen.append(best)
        uncovered -= yields[best]
    return SettingCover(tuple(chosen), {s: tuple(sorted(yields[s])) for s in chosen})


def fidelity_from_cover_by_labels(rho, gamma, cover):
    """The label-lookup sum that ``fidelity_from_cover`` replaced, kept as its oracle."""
    target = correlations(state_at(gamma).state)
    measured = correlations(rho)
    terms = set().union(*cover.covered_terms.values())
    return sum(target[t] * measured[t] for t in sorted(terms)) / 16.0


def test_setting_cover_and_its_fidelity_equal_the_label_oracles():
    rng = np.random.default_rng(21)
    gammas = [e.gamma for e in catalog()] + rng.uniform(0, math.pi / 4, 300).tolist()
    for g in gammas:
        cover = setting_cover(g)
        assert cover == setting_cover_by_labels(g), g
        psi = random_state(rng)
        probe = 0.8 * state_at(g).state.density() + 0.2 * np.outer(psi, psi.conj())
        want = fidelity_from_cover_by_labels(probe, g, cover).hex()
        assert fidelity_from_cover(probe, g, cover).hex() == want, g
        assert fidelity_from_cover(probe, g).hex() == want, g


def test_fidelity_from_cover_rejects_a_cover_of_another_angle():
    # the product point's cover misses terms that are non-zero at 0.3
    with pytest.raises(ValueError, match="same gamma"):
        fidelity_from_cover(state_at(0.3).state, 0.3, setting_cover(0.0))
    with pytest.raises(ValueError, match="same gamma"):
        fidelity_from_cover(MIXED, 0.1, SettingCover((), {}))
    bogus = SettingCover(("zzzz",), {"zzzz": ("0000", "zzzq")})
    with pytest.raises(ValueError, match="unknown term 'zzzq'"):
        fidelity_from_cover(MIXED, 0.1, bogus)


def test_lu_invariance_of_psi4_minus():
    assert lu_invariance_check(math.pi / 4, trials=100, seed=7) <= 1e-9


def test_lu_generic_states_not_invariant():
    assert lu_invariance_check(math.pi / 8, trials=50, seed=7) > 0.1
    by_name = {e.name: e for e in catalog()}
    assert lu_invariance_check(by_name["Ψ4+"].gamma, trials=50, seed=7) > 0.1


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = haar_qubit_unitary(rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_three_tangle_oracles():
    ghz3 = np.zeros(8)
    ghz3[0] = ghz3[7] = 1 / math.sqrt(2)
    assert three_tangle(ghz3) == pytest.approx(1.0)
    w3 = np.zeros(8)
    w3[[1, 2, 4]] = 1 / math.sqrt(3)
    assert three_tangle(w3) == pytest.approx(0.0, abs=1e-15)
    product = np.zeros(8)
    product[5] = 1.0
    assert three_tangle(product) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        three_tangle(np.zeros(8))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_three_tangle_rejects_non_finite_amplitudes(bad):
    vec = [0.5] * 8
    vec[3] = bad
    with pytest.raises(ValueError, match="finite"):
        three_tangle(vec)
    with pytest.raises(ValueError, match="finite"):
        three_tangle([bad] * 8)


@pytest.mark.parametrize("trials", [-1, 0, 0.5, 2.5, 2.0, math.nan, math.inf, True, "3", None])
def test_lu_invariance_check_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        lu_invariance_check(math.pi / 4, trials=trials)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_lu_invariance_check_rejects_bad_seeds(seed):
    with pytest.raises(ValueError, match="seed"):
        lu_invariance_check(math.pi / 8, trials=2, seed=seed)


def test_lu_invariance_check_takes_numpy_integers():
    want = lu_invariance_check(math.pi / 8, trials=3, seed=5)
    assert lu_invariance_check(math.pi / 8, trials=np.int64(3), seed=np.uint8(5)) == want


def test_three_tangle_range_on_random_states():
    rng = np.random.default_rng(9)
    for _ in range(100):
        tau = three_tangle(random_state(rng, 8))
        assert -1e-12 <= tau <= 1.0 + 1e-12


def test_dicke_projection_hv_gives_w_class():
    res = dicke_projection("HV", "V")
    assert isinstance(res, DickeProjection)
    assert res.label == "W"
    assert res.probability == pytest.approx(0.5)
    assert res.tangle <= 1e-10
    w3 = np.zeros(8)
    w3[[1, 2, 4]] = 1 / math.sqrt(3)
    assert abs(np.vdot(w3, res.state)) == pytest.approx(1.0)
    flipped = dicke_projection("HV", "H")
    assert flipped.label == "W"
    assert abs(np.vdot(w3[::-1], flipped.state)) == pytest.approx(1.0)


def test_dicke_projection_pm_gives_ghz_class():
    # residue (|001>+|010>+|100>+|011>+|101>+|110>)/sqrt(6):
    # d1 = 1/12, d2 = 1/12, d3 = 0, tangle 4|d1-2*d2| = 1/3
    for outcome in "+-":
        res = dicke_projection("PM", outcome)
        assert res.label == "GHZ"
        assert res.probability == pytest.approx(0.5)
        assert res.tangle == pytest.approx(1 / 3, abs=1e-12)


def test_dicke_projection_rejects_unknown_basis():
    with pytest.raises(ValueError, match="basis"):
        dicke_projection("DA", "+")
