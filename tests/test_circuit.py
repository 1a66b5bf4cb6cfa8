"""Pipeline simulation against the closed-form family and hand oracles."""

import math

import numpy as np
import pytest

from bellghz.circuit import (
    COINCIDENCE_PATTERN,
    OUTPUTS,
    REGISTER,
    InterferenceReport,
    fifty_fifty_splitter,
    half_wave_plate,
    interference_terms,
    pipeline_transform,
    polarizing_beam_splitter,
    run_pipeline,
    spdc_term,
    standard_elements,
    to_qubits,
)
from bellghz.family import alpha, probability, state_at
from bellghz.fock import FockState, Mode, apply_transform, postselect

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
    st = FockState.from_occupations(reg, {(Mode("a", "H"), Mode("b", "H")): 1.0})
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


def test_interference_terms_bell_point():
    rep = interference_terms(0.0)
    assert isinstance(rep, InterferenceReport)
    a1, a2, a3 = rep.contributions
    assert a1 == 0.0 and a2 == 0.0
    assert abs(a3) == pytest.approx(math.sqrt(rep.probability), abs=1e-12)


def test_interference_terms_ghz_point():
    rep = interference_terms(math.pi / 8)
    a1, a2, a3 = rep.contributions
    assert abs(a3) <= 1e-12
    assert abs(a1) > 0.01 and abs(a2) > 0.01


def test_interference_terms_dicke_point():
    rep = interference_terms(math.pi / 12)
    assert all(abs(c) > 0.01 for c in rep.contributions)


@pytest.mark.parametrize("gamma", [0.0, 0.03 * math.pi, math.pi / 12, math.pi / 8, 0.2 * math.pi])
def test_interference_contributions_sum_coherently(gamma):
    rep = interference_terms(gamma)
    assert complex(sum(rep.contributions)) == pytest.approx(rep.total)
    assert abs(rep.total) ** 2 == pytest.approx(rep.probability, abs=1e-10)
    assert rep.probability == pytest.approx(probability(gamma), abs=1e-10)
