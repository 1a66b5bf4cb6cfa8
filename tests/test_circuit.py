"""Pipeline simulation against the closed-form family and hand oracles."""

import math

import numpy as np
import pytest

from bellghz.circuit import (
    _FIXED_EMBEDDED,
    COINCIDENCE_PATTERN,
    OUTPUTS,
    REGISTER,
    fifty_fifty_splitter,
    half_wave_plate,
    pipeline_transform,
    polarizing_beam_splitter,
    run_pipeline,
    source_term_coincidences,
    source_terms,
    spdc_term,
    standard_elements,
    to_qubits,
)
from bellghz.family import alpha, probability, state_at
from bellghz.fock import FockState, Mode, ModeTransform, apply_transform, postselect

SQRT3 = math.sqrt(3.0)


def occ_of(**counts):
    """Occupation tuple over REGISTER from keyword counts like aH=2."""
    vec = [0] * len(REGISTER)
    for label, n in counts.items():
        vec[REGISTER.index(Mode(label[0], label[1]))] = n
    return tuple(vec)


def test_register_layout():
    assert len(REGISTER) == 16
    assert REGISTER[0] == Mode("a", "H")
    assert REGISTER[-1] == Mode("h", "V")
    assert OUTPUTS == ("e", "f", "g", "h")


def test_spdc_second_order_amplitudes():
    st = spdc_term(2)
    assert st.norm_sq() == pytest.approx(1.0)
    assert st.amps[occ_of(aH=1, aV=1, bH=1, bV=1)] == pytest.approx(1 / SQRT3)
    assert st.amps[occ_of(aH=2, bV=2)] == pytest.approx(1 / SQRT3)
    assert st.amps[occ_of(aV=2, bH=2)] == pytest.approx(1 / SQRT3)
    assert len(st.amps) == 3


def test_spdc_term_orders():
    single = spdc_term(1)
    assert single.amps[occ_of(aH=1, bV=1)] == pytest.approx(1 / math.sqrt(2))
    assert single.amps[occ_of(aV=1, bH=1)] == pytest.approx(1 / math.sqrt(2))
    triple = spdc_term(3)
    assert len(triple.amps) == 4
    assert triple.amps[occ_of(aH=3, bV=3)] == pytest.approx(0.5)
    assert triple.amps[occ_of(aH=1, aV=2, bH=2, bV=1)] == pytest.approx(0.5)
    assert triple.norm_sq() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        spdc_term(0)
    assert spdc_term(np.int64(3)) == triple


def _from_photon_lists(register, terms):
    """Oracle: a state from keys that list each photon's Mode once, e.g.
    ``(aH, aH, bV)``; amplitudes on coinciding occupations add."""
    index = {m: i for i, m in enumerate(register)}
    amps = {}
    for key, amp in terms.items():
        vec = [0] * len(register)
        for m in key:
            vec[index[m]] += 1
        amps[tuple(vec)] = amps.get(tuple(vec), 0.0j) + complex(amp)
    return FockState(tuple(register), amps)


def amp_reprs(state):
    """Occupations, amplitude types and amplitude reprs in dict order."""
    return [(occ, type(a), repr(a)) for occ, a in state.amps.items()]


AH, AV, BH, BV = (Mode(sp, pol) for sp in "ab" for pol in "HV")


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_spdc_term_equals_the_photon_list_construction(order):
    amp = 1.0 / math.sqrt(order + 1.0)
    terms = {
        (AH,) * k + (AV,) * (order - k) + (BH,) * (order - k) + (BV,) * k: amp
        for k in range(order + 1)
    }
    assert amp_reprs(spdc_term(order)) == amp_reprs(_from_photon_lists(REGISTER, terms))


def test_source_terms_equal_the_photon_list_construction():
    a = 1.0 / SQRT3
    keys = [(AH, AH, BV, BV), (AV, AV, BH, BH), (AH, AV, BH, BV)]
    want = [amp_reprs(_from_photon_lists(REGISTER, {key: a})) for key in keys]
    assert [amp_reprs(term) for term in source_terms()] == want


@pytest.mark.parametrize("order", [-1, 2.5, 2.0, True, "2", None])
def test_spdc_term_rejects_orders_that_are_not_positive_integers(order):
    with pytest.raises(ValueError, match="emission order"):
        spdc_term(order)


def test_half_wave_plate_matrix():
    t = half_wave_plate("a", 0.0)
    np.testing.assert_allclose(t.matrix, np.diag([1.0, -1.0]))
    t = half_wave_plate("c", math.pi / 4)
    np.testing.assert_allclose(t.matrix, np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_pbs_routing():
    t = polarizing_beam_splitter()
    idx = {m: i for i, m in enumerate(t.modes)}
    u = t.matrix
    assert u[idx[Mode("c", "H")], idx[Mode("a", "H")]] == 1.0
    assert u[idx[Mode("c", "V")], idx[Mode("b", "V")]] == 1.0j
    assert u[idx[Mode("d", "H")], idx[Mode("b", "H")]] == 1.0
    assert u[idx[Mode("d", "V")], idx[Mode("a", "V")]] == 1.0j
    # two photons of equal polarization never share an output path
    reg = t.modes
    st = FockState(reg, {(1, 0, 1, 0, 0, 0, 0, 0): 1.0})
    out = apply_transform(st, t)
    assert set(out.amps) == {
        tuple(1 if m in (Mode("c", "H"), Mode("d", "H")) else 0 for m in reg)
    }


def test_balanced_splitter_column():
    t = fifty_fifty_splitter("c", "e", "f")
    idx = {m: i for i, m in enumerate(t.modes)}
    u = t.matrix
    for pol in "HV":
        col = u[:, idx[Mode("c", pol)]]
        assert col[idx[Mode("e", pol)]] == pytest.approx(1 / math.sqrt(2))
        assert col[idx[Mode("f", pol)]] == pytest.approx(1j / math.sqrt(2))
        assert col[idx[Mode("c", pol)]] == 0.0


@pytest.mark.parametrize(
    "gamma,p_expected",
    [(0.0, 1 / 12), (math.pi / 12, 1 / 32), (math.pi / 8, 1 / 24), (math.pi / 4, 1 / 4)],
)
def test_run_pipeline_anchor_probabilities(gamma, p_expected):
    _, p = run_pipeline(gamma)
    assert p == pytest.approx(p_expected, abs=1e-12)


def test_run_pipeline_bell_pair_product():
    st, _ = run_pipeline(0.0)
    expect = state_at(0.0).state
    assert abs(st.overlap(expect)) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(st.vec, expect.vec, atol=1e-12)


def test_run_pipeline_ghz():
    st, _ = run_pipeline(math.pi / 8)
    expect = state_at(math.pi / 8).state
    np.testing.assert_allclose(st.vec, expect.vec, atol=1e-12)


def test_run_pipeline_dicke():
    st, p = run_pipeline(math.pi / 12)
    expect = state_at(math.pi / 12).state
    assert abs(st.overlap(expect)) >= 1 - 1e-12
    assert p == pytest.approx(1 / 32, abs=1e-12)


def test_oracle_equivalence_on_grid():
    # acceptance runs the full 101-point version; spot-check here
    for g in np.linspace(0.0, math.pi / 4, 21):
        st, p = run_pipeline(g)
        pt = state_at(g)
        assert abs(st.overlap(pt.state)) >= 1 - 1e-10, g
        assert p == pytest.approx(pt.probability, abs=1e-10)


def test_pipeline_matches_closed_form_at_random_angles():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(hypothesis.strategies.floats(0.0, math.pi / 4))
    def check(gamma):
        simulated = run_pipeline(gamma)
        assert abs(state_at(gamma).state.overlap(simulated.state)) >= 1 - 1e-12

    check()


def test_simulated_sign_of_bell_part():
    # past the GHZ point the Bell-pair amplitude turns negative
    for g in (0.15 * math.pi, 0.2 * math.pi, math.pi / 4):
        st, _ = run_pipeline(g)
        assert st.vec[0b0011].real > 0
        assert st.vec[0b0101].real < 0
        assert alpha(g) < 0


def test_probability_range_and_maximum():
    probs = [run_pipeline(g).probability for g in np.linspace(0, math.pi / 4, 41)]
    assert all(0 < p <= 0.25 + 1e-12 for p in probs)
    assert max(probs) == pytest.approx(0.25)
    assert probs[-1] == pytest.approx(0.25)


def test_pipeline_transform_equals_sequential():
    g = 0.07 * math.pi
    seq = spdc_term(2)
    for el in standard_elements(g):
        seq = apply_transform(seq, el)
    once = apply_transform(spdc_term(2), pipeline_transform(g))
    keys = set(seq.amps) | set(once.amps)
    for k in keys:
        assert seq.amps.get(k, 0j) == pytest.approx(once.amps.get(k, 0j), abs=1e-10)


def _compose(transforms, register):
    """The transforms (applied first to last) as one, each embedding multiplied on the left."""
    total = np.eye(len(register), dtype=complex)
    for t in transforms:
        total = t.embedded(register) @ total
    return ModeTransform(register, total)


def test_pipeline_transform_equals_compose_byte_for_byte():
    # the fixed elements are embedded once; the products and their order are compose's
    angles = [0.0, math.pi / 12, math.pi / 8, math.pi / 4,
              *np.random.default_rng(95).uniform(0.0, math.pi / 4, 300).tolist()]
    for g in angles:
        want = _compose(standard_elements(g), REGISTER).matrix
        assert pipeline_transform(g).matrix.tobytes() == want.tobytes()
    for matrix in _FIXED_EMBEDDED:
        assert not matrix.flags.writeable
    with pytest.raises(ValueError, match="pi/4"):
        pipeline_transform(0.3 * math.pi)


def test_run_pipeline_validates_gamma():
    for bad in (0.3 * math.pi, -0.01, math.nan, math.inf):
        with pytest.raises(ValueError, match="pi/4"):
            run_pipeline(bad)
    zero, negative_zero = run_pipeline(0.0), run_pipeline(-0.0)
    assert negative_zero.state.vec.tobytes() == zero.state.vec.tobytes()
    assert negative_zero.probability.hex() == zero.probability.hex()


def test_to_qubits_rejects_bunched_patterns():
    st, _ = postselect(
        apply_transform(spdc_term(2), pipeline_transform(0.0)),
        {"e": 2, "g": 2},
    )
    with pytest.raises(ValueError, match="exactly one photon"):
        to_qubits(st)


def test_to_qubits_rejects_photons_outside_the_output_paths():
    with pytest.raises(ValueError, match="photons outside the output paths"):
        to_qubits(spdc_term(2))  # every photon still in the source paths a and b


def test_to_qubits_rejects_a_register_without_the_output_paths():
    a_h, a_v = Mode("a", "H"), Mode("a", "V")
    with pytest.raises(ValueError, match=r"spatial paths not in register: \['e', 'f', 'g', 'h'\]"):
        to_qubits(FockState((a_h, a_v), {(1, 0): 1.0}))
    # path e with its H mode alone: that photon must not read as a V bit
    lone_e = tuple(m for m in REGISTER if m != Mode("e", "V"))
    one_h_each = tuple(int(m.spatial in OUTPUTS and m.pol == "H") for m in lone_e)
    with pytest.raises(ValueError, match="path 'e' needs separate H and V modes"):
        to_qubits(FockState(lone_e, {one_h_each: 1.0}))


def source_contributions(gamma):
    """Projections sqrt(p_i) <psi|phi_i> of each source term's coincidences
    onto the pipeline state, and the pipeline's coincidence probability."""
    final, prob = run_pipeline(gamma)
    contribs = [complex(np.vdot(final.vec, math.sqrt(p) * phi))
                for p, phi in source_term_coincidences(gamma)]
    return contribs, prob


def test_interference_terms_bell_point():
    (p1, phi1), (p2, phi2), (p3, _) = source_term_coincidences(0.0)
    assert p1 == 0.0 and p2 == 0.0
    assert not phi1.any() and not phi2.any()
    contribs, prob = source_contributions(0.0)
    assert abs(contribs[2]) == pytest.approx(math.sqrt(prob), abs=1e-12)
    assert p3 == pytest.approx(prob, abs=1e-12)


def test_interference_terms_ghz_point():
    a1, a2, a3 = source_contributions(math.pi / 8)[0]
    assert abs(a3) <= 1e-12
    assert abs(a1) > 0.01 and abs(a2) > 0.01


def test_interference_terms_dicke_point():
    assert all(abs(c) > 0.01 for c in source_contributions(math.pi / 12)[0])


@pytest.mark.parametrize("gamma", [0.0, 0.03 * math.pi, math.pi / 12, math.pi / 8, 0.2 * math.pi])
def test_interference_contributions_sum_coherently(gamma):
    contribs, prob = source_contributions(gamma)
    assert abs(sum(contribs)) ** 2 == pytest.approx(prob, abs=1e-10)
    assert prob == pytest.approx(probability(gamma), abs=1e-10)


def to_qubits_by_lookup(state):
    """The ``to_qubits`` that looked up its register positions on every call, kept as its oracle."""
    pos = {m: i for i, m in enumerate(state.register)}
    h_pos = [pos[Mode(sp, "H")] for sp in OUTPUTS]
    v_pos = [pos[Mode(sp, "V")] for sp in OUTPUTS]
    qubit_pos = set(h_pos) | set(v_pos)
    vec = np.zeros(16, dtype=complex)
    for occ, amp in state.amps.items():
        if any(occ[i] for i in range(len(occ)) if i not in qubit_pos):
            raise ValueError("photons outside the output paths")
        idx = 0
        for k in range(4):
            nh, nv = occ[h_pos[k]], occ[v_pos[k]]
            if nh + nv != 1:
                raise ValueError(f"path {OUTPUTS[k]!r} does not hold exactly one photon")
            idx = (idx << 1) | (1 if nv else 0)
        vec[idx] = amp
    return vec


def test_to_qubits_equals_the_lookup_oracle():
    rng = np.random.default_rng(31)
    for gamma in [0.0, math.pi / 12, math.pi / 8, math.pi / 4, *rng.uniform(0, math.pi / 4, 20)]:
        u = pipeline_transform(float(gamma))
        for order in (2, 3):
            out = apply_transform(spdc_term(order), u)
            kept, prob = postselect(out, COINCIDENCE_PATTERN)
            if prob:
                assert to_qubits(kept).vec.tobytes() == to_qubits_by_lookup(kept).tobytes()
                # V before H in path e: the bit is read by label, not by position
                swap = [REGISTER.index(Mode("e", p)) for p in "VH"]
                order = [*range(8), *swap, *range(10, 16)]
                swapped = FockState(tuple(REGISTER[i] for i in order),
                                    {tuple(occ[i] for i in order): a for occ, a in kept.amps.items()})
                assert to_qubits(swapped).vec.tobytes() == to_qubits(kept).vec.tobytes()
            # bunched or stray photons: both raise the same error
            for state in (out, FockState(REGISTER, dict(list(out.amps.items())[:5]))):
                with pytest.raises(ValueError) as got:
                    to_qubits(state)
                with pytest.raises(ValueError) as want:
                    to_qubits_by_lookup(state)
                assert str(got.value) == str(want.value)


def test_fixed_elements_are_shared_read_only_and_equal_fresh_ones():
    fresh = (
        polarizing_beam_splitter(),
        half_wave_plate("c", math.pi / 4),
        fifty_fifty_splitter("c", "e", "f"),
        fifty_fifty_splitter("d", "g", "h"),
    )
    first, second = standard_elements(0.1), standard_elements(0.2)
    assert all(a is b for a, b in zip(first[1:], second[1:]))
    for shared, new in zip(first[1:], fresh):
        assert shared.modes == new.modes
        assert shared.matrix.tobytes() == new.matrix.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            shared.matrix[0, 0] = 2.0
    assert first[0].matrix.tobytes() == half_wave_plate("a", 0.1).matrix.tobytes()
