"""Correlation, witness, cover, and projection analysis against oracles."""

import itertools
import math

import numpy as np
import pytest

from bellghz.analysis import (
    AXES,
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
import bellghz
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
from bellghz.fock import FockState, Mode, ModeTransform
from bellghz.tomo import setting_probabilities

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


def correlations_by_einsum(state):
    """The 5-operand einsum that ``correlations`` replaced, kept as its oracle."""
    stack = np.stack([PAULI[a] for a in AXES])
    rho = as_density(state).reshape((2,) * 8)
    return np.einsum("abcdefgh,iea,jfb,kgc,lhd->ijkl", rho, stack, stack, stack, stack).real


def test_correlations_equal_the_einsum_oracle_byte_for_byte():
    rng = np.random.default_rng(1212)
    states = []
    for _ in range(100):  # random mixed states
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        m = a @ a.conj().T
        states.append(m / m.trace())
    gammas = [0.0, math.pi / 12, math.pi / 8, math.pi / 4, *rng.uniform(0, math.pi / 4, 100)]
    states += [state_at(g).state for g in gammas]  # pure family states
    for g, q in zip(rng.uniform(0, math.pi / 4, 100), rng.uniform(0, 0.2, 100)):
        states.append((1 - q) * state_at(g).state.density() + q * MIXED)  # noisy states
    for st in states:
        assert correlations(st).values.tobytes() == correlations_by_einsum(st).tobytes()


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


def test_as_density_takes_a_density_matrix_as_checked():
    from bellghz import tomo

    assert tomo.DensityMatrix is bellghz.DensityMatrix
    dm = bellghz.DensityMatrix(MIXED)
    assert as_density(dm) is dm.matrix


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


#: The 7 bipartitions of four qubits, the oracle's cuts: every cut is named by
#: its smaller side, with qubit 0 kept on the named side for the 2|2 cuts.
BIPARTITIONS = ((0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3))


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


@pytest.mark.parametrize("steps", [2, 14, 97, 101, 910, 951, 972, 983, 1001, 2000])
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
    again = setting_cover(gamma)
    assert (again.settings, again) == (cover.settings, cover)  # deterministic


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


@pytest.mark.parametrize("cover", ["x", 1, {"xxxx": ("xxxx",)}, ("xxxx",)])
def test_fidelity_from_cover_rejects_a_cover_that_is_not_a_setting_cover(cover):
    with pytest.raises(ValueError, match="^cover must be a SettingCover or None"):
        fidelity_from_cover(MIXED, 0.1, cover)


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
    return SettingCover({s: tuple(sorted(yields[s])) for s in chosen})


def fidelity_from_cover_by_labels(rho, gamma, cover):
    """The label-lookup sum that ``fidelity_from_cover`` replaced, kept as its oracle."""
    target = correlations(state_at(gamma).state)
    measured = correlations(rho)
    terms = set().union(*cover.covered_terms.values())
    return sum(target[t] * measured[t] for t in sorted(terms)) / 16.0


def setting_cover_by_integer_scores(gamma):
    """The integer-matmul greedy that ``setting_cover`` replaced, kept as its oracle."""
    letter = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
    yields = np.kron(np.kron(letter, letter), np.kron(letter, letter))
    terms = ["".join(t) for t in itertools.product(AXES, repeat=4)]
    settings = ["".join(s) for s in itertools.product("xyz", repeat=4)]
    nonzero = correlations(state_at(gamma).state)._nonzero()
    uncovered = nonzero.astype(int)
    chosen = []
    while uncovered.any():
        best = int(np.argmax(yields @ uncovered))
        chosen.append(best)
        uncovered *= 1 - yields[best]
    return SettingCover(
        {settings[s]: tuple(terms[t] for t in np.flatnonzero(yields[s] * nonzero))
         for s in chosen},
    )


def test_setting_cover_equals_the_integer_score_oracle():
    rng = np.random.default_rng(22)
    for g in [e.gamma for e in catalog()] + rng.uniform(0, math.pi / 4, 300).tolist():
        cover, oracle = setting_cover(g), setting_cover_by_integer_scores(g)
        # dict equality ignores order, so the order of choice is compared on its own
        assert (cover.settings, cover) == (oracle.settings, oracle), g


def test_setting_cover_and_its_fidelity_equal_the_label_oracles():
    rng = np.random.default_rng(21)
    gammas = [e.gamma for e in catalog()] + rng.uniform(0, math.pi / 4, 300).tolist()
    for g in gammas:
        cover, oracle = setting_cover(g), setting_cover_by_labels(g)
        assert (cover.settings, cover) == (oracle.settings, oracle), g
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
        fidelity_from_cover(MIXED, 0.1, SettingCover({}))
    bogus = SettingCover({"zzzz": ("0000", "zzzq")})
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


# each public call that reads a state, and the name of its parameter
STATE_TAKERS = {
    "correlations": (bellghz.correlations, "state"),
    "fidelity": (lambda rho: bellghz.fidelity(rho, 0.1), "rho"),
    "evaluate_witness": (lambda rho: bellghz.evaluate_witness(rho, 0.1), "rho"),
    "pairwise_witness": (bellghz.pairwise_witness, "state"),
    "fidelity_from_cover": (lambda rho: bellghz.fidelity_from_cover(rho, 0.1), "rho"),
    "exact_frequency_records": (bellghz.exact_frequency_records, "state"),
    "simulate_counts": (lambda state: bellghz.simulate_counts(state, 100, 1), "state"),
}
# the maximally mixed state's correlation tensor, with one entry NaN
ONE_NAN = np.zeros((4, 4, 4, 4))
ONE_NAN[0, 0, 0, 0], ONE_NAN[1, 2, 3, 0] = 1.0, math.nan
# public calls on input that numpy or a dict lookup cannot read (it raises
# TypeError or OverflowError), and the parameter each ValueError must name
UNREADABLE_INPUTS = [
    *((f"{name}-{kind}", take, bad, parameter)
      for name, (take, parameter) in STATE_TAKERS.items()
      for kind, bad in (("object", object()), ("huge-int", 10**400))),
    *((f"biseparable_bounds-{bad!r}", bellghz.biseparable_bounds, bad, "gammas")
      for bad in (None, 1j, math.nan, [1])),
    ("biseparable_bounds-[huge]", bellghz.biseparable_bounds, [10**5000], "gammas"),
    # numpy reads these, but not as a 16x16 matrix
    ("correlations-None", bellghz.correlations, None, "state"),
    ("fidelity-1j", STATE_TAKERS["fidelity"][0], 1j, "rho"),
    ("evaluate_witness-None", STATE_TAKERS["evaluate_witness"][0], None, "rho"),
    ("fidelity_from_cover-[1]", STATE_TAKERS["fidelity_from_cover"][0], [1], "rho"),
    ("pairwise_witness-[1]", bellghz.pairwise_witness, [1], "state"),
    ("simulate_counts-[1]", STATE_TAKERS["simulate_counts"][0], [1], "state"),
    ("exact_frequency_records-3.5", bellghz.exact_frequency_records, 3.5, "state"),
    ("CountRecord-one-count", lambda c: bellghz.CountRecord("xxxx", c), [1], "counts"),
    ("gamma_for_alpha-branch", lambda b: bellghz.gamma_for_alpha(0.5, branch=b),
     np.array([0.1]), "branch"),
    ("dicke_projection-basis", lambda b: bellghz.dicke_projection(basis=b, outcome="H"),
     np.array(["HV"]), "basis"),
    ("dicke_projection-outcome", lambda o: bellghz.dicke_projection(basis="HV", outcome=o),
     ["H"], "outcome"),
    # and input outside the contract that once passed through or raised another error
    *((f"FockState-{bad!r}", lambda a: FockState((Mode("a", "H"),), {(1,): a}), bad, "amps")
      for bad in (math.nan, math.inf, -math.inf, "x")),
    *((f"three_tangle-{kind}", three_tangle, bad, "vec")
      for kind, bad in (("object", object()), ("huge-int", 10**400), ("three", [1, 2, 3]))),
    ("lu_invariance_check-trials", lambda t: lu_invariance_check(0.1, trials=t),
     10_001, "trials"),
    ("gamma_for_alpha-nan", bellghz.gamma_for_alpha, math.nan, "target"),
    ("biseparable_bounds-str", biseparable_bounds, "1", "gammas"),
    *((f"QubitState4-{kind}", QubitState4, bad, "vec")
      for kind, bad in (("object", object()), ("huge-int", 10**400), ("ragged", [[1, 2], [3]]))),
    *((f"DensityMatrix-{kind}", bellghz.DensityMatrix, bad, "^matrix ")
      for kind, bad in (("object", object()), ("huge-int", 10**400))),
    ("setting_probabilities-unhashable", lambda s: setting_probabilities(MIXED, s), [1],
     "setting"),
    ("CountRecord-unhashable-setting", lambda s: bellghz.CountRecord(s, (1,) * 16), ["x"],
     "setting"),
    ("CountRecord-huge-count", lambda c: bellghz.CountRecord("xxxx", (c,) + (1,) * 15),
     10**5000, "counts"),
    ("NoiseConfig.from_json", bellghz.NoiseConfig.from_json, 1, "text"),
    ("DensityMatrix.from_json", bellghz.DensityMatrix.from_json, None, "text"),
    *((f"read_counts-{bad!r}", bellghz.read_counts, bad, "path") for bad in (None, 1j, 3.5)),
    *((f"write_counts-{bad!r}", lambda p: bellghz.write_counts([], p), bad, "path")
      for bad in (None, 1j, 3.5)),
    # a message that printed an int beyond Python's 4300-digit limit raised that
    # limit's ValueError in its place, which names nothing
    ("lu_invariance_check-huge-seed", lambda s: lu_invariance_check(0.1, seed=s), -10**5000,
     "seed"),
    ("lu_invariance_check-huge-trials", lambda t: lu_invariance_check(0.1, trials=t), 10**5000,
     "trials"),
    ("simulate_counts-huge-seed", lambda s: bellghz.simulate_counts(MIXED, 100, s), -10**5000,
     "seed"),
    ("simulate_counts-huge-shots", lambda n: bellghz.simulate_counts(MIXED, n, 1), 10**5000,
     "shots_per_setting"),
    ("NoiseConfig-huge", lambda p: bellghz.NoiseConfig(pair_probability=p), 10**5000,
     "pair_probability"),
    ("noisy_density_matrix-huge-cfg", lambda c: bellghz.noisy_density_matrix(0.1, c), 10**5000,
     "cfg"),
    ("gamma_for_alpha-huge-branch", lambda b: bellghz.gamma_for_alpha(0.5, branch=b), 10**5000,
     "branch"),
    ("dicke_projection-huge-basis", lambda b: dicke_projection(basis=b, outcome="H"), 10**5000,
     "basis"),
    ("fidelity_from_cover-huge-cover", lambda c: fidelity_from_cover(MIXED, 0.1, c), 10**5000,
     "cover"),
    ("biseparable_bounds-huge", biseparable_bounds, 10**5000, "gammas"),
    ("reconstruct-huge", bellghz.reconstruct, 10**5000, "records"),
    # a correlation tensor with a NaN entry, which fails both range tests, or unreadable
    *((f"CorrelationTensor-{kind}", bellghz.CorrelationTensor, bad, "values")
      for kind, bad in (("all-nan", np.full((4, 4, 4, 4), math.nan)),
                        ("one-nan", ONE_NAN),
                        ("1j", 1j), ("huge-int", 10**400), ("object", object()), ("dict", {}),
                        # numpy casts it to float with a warning only
                        ("complex", correlations(MIXED).values + 0.5j))),
    *((f"fidelity_from_cover-{kind}", lambda c: fidelity_from_cover(MIXED, 0.1, c), cover, "cover")
      for kind, cover in (("list-terms", SettingCover(["x"])),
                          ("None-terms", SettingCover(None)),
                          ("unhashable-term", SettingCover({"xxxx": [["0", "0"]]})),
                          ("None-term-list", SettingCover({"xxxx": None})))),
    # method arguments that raised AttributeError or TypeError, or passed unchecked
    *((f"overlap-{kind}", state_at(0.1).state.overlap, bad, "^other ")
      for kind, bad in (("None", None), ("str", "psi"), ("array", np.full(16, 0.25)))),
    *((f"nonzero_terms-{bad!r}", correlations(MIXED).nonzero_terms, bad, "^tol ")
      for bad in (math.nan, math.inf, -1, -1e-300, "x", None, 1j)),
    # exact frequencies draw nothing, so only the sampled branch used to read the seed
    *((f"reconstruct_and_report-exact-seed-{bad!r}",
       lambda s: bellghz.reconstruct_and_report(0.1, bellghz.NoiseConfig(), seed=s), bad, "seed")
      for bad in (-1, None, 3.5)),
]


@pytest.mark.parametrize("call, bad, parameter", [case[1:] for case in UNREADABLE_INPUTS],
                         ids=[case[0] for case in UNREADABLE_INPUTS])
def test_public_functions_reject_unreadable_inputs_naming_the_parameter(call, bad, parameter):
    with pytest.raises(ValueError, match=parameter):
        call(bad)


def test_dicke_projection_rejects_unknown_basis():
    with pytest.raises(ValueError, match="basis"):
        dicke_projection("DA", "+")


# frozen dataclasses holding arrays, whose generated == and hash used to raise
ARRAY_VALUE_TYPES = {
    "QubitState4": lambda: state_at(0.1).state,
    "DensityMatrix": lambda: bellghz.DensityMatrix(MIXED),
    "CorrelationTensor": lambda: correlations(MIXED),
    "ModeTransform": lambda: ModeTransform((Mode("a", "H"), Mode("a", "V")), np.eye(2)),
}


@pytest.mark.parametrize("make", ARRAY_VALUE_TYPES.values(), ids=ARRAY_VALUE_TYPES)
def test_array_value_types_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and not a == b and a != b


@pytest.mark.parametrize("make", ARRAY_VALUE_TYPES.values(), ids=ARRAY_VALUE_TYPES)
def test_array_value_types_hash_by_identity(make):
    a, b = make(), make()
    assert hash(a) == hash(a)
    assert {a, b, a} == {a, b} and len({a, b}) == 2


def test_nonzero_terms_takes_any_finite_real_tol():
    tensor = correlations(state_at(0.1).state)
    default = tensor.nonzero_terms()
    for tol in (1e-10, np.float32(1e-10), np.float64(1e-10)):
        assert tensor.nonzero_terms(tol) == default
    assert len(tensor.nonzero_terms(0)) == len(tensor.nonzero_terms(0.0)) >= len(default)
