"""Core Fock-algebra checks: exact small cases plus randomized invariants."""

import itertools
import math

import numpy as np
import pytest

from bellghz import circuit
from bellghz.fock import (
    PRUNE_EPS,
    FockState,
    Mode,
    ModeTransform,
    apply_transform,
    _position,
    compose,
    mode,
    overlap,
    postselect,
)

AH, AV = mode("aH"), mode("aV")
BH, BV = mode("bH"), mode("bV")

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * INV_SQRT2
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(register, rng, max_total=4):
    """A normalized state with a handful of random occupation terms."""
    n = len(register)
    amps = {}
    for _ in range(rng.integers(1, 5)):
        total = int(rng.integers(0, max_total + 1))
        occ = [0] * n
        for _ in range(total):
            occ[rng.integers(0, n)] += 1
        amps[tuple(occ)] = complex(rng.standard_normal(), rng.standard_normal())
    return FockState(tuple(register), amps).normalized()


def test_mode_label_round_trip():
    assert mode("aH") == Mode("a", "H")
    assert str(mode("eV")) == "eV"


@pytest.mark.parametrize("bad", ["a", "aX", "HV2", ""])
def test_bad_mode_label_rejected(bad):
    with pytest.raises(ValueError):
        mode(bad)


def test_vacuum_is_normalized():
    vac = FockState.vacuum((AH, AV))
    assert vac.norm_sq() == pytest.approx(1.0)
    assert vac.photon_numbers() == {0}


def test_occupation_length_mismatch_rejected():
    with pytest.raises(ValueError):
        FockState((AH, AV), {(1,): 1.0})


def test_half_wave_plate_splits_single_photon():
    # Jones matrix at plate angle pi/8: rows/cols (H, V), entries
    # [[cos 2t, sin 2t], [sin 2t, -cos 2t]] -> Hadamard-like.
    t = math.pi / 8
    u = np.array(
        [
            [math.cos(2 * t), math.sin(2 * t)],
            [math.sin(2 * t), -math.cos(2 * t)],
        ]
    )
    one_h = FockState((AH, AV), {(1, 0): 1.0})
    out = apply_transform(one_h, ModeTransform((AH, AV), u))
    assert out.amps[(1, 0)] == pytest.approx(INV_SQRT2)
    assert out.amps[(0, 1)] == pytest.approx(INV_SQRT2)
    assert out.norm_sq() == pytest.approx(1.0)


def test_two_photons_one_port_of_balanced_splitter():
    # |2,0> in: amplitudes 1/2, i/sqrt(2), -1/2 over (2,0), (1,1), (0,2).
    # The 1/2 coincidence probability only comes out with correct
    # sqrt(n!) bookkeeping on both ends of the substitution.
    u = np.array([[1.0, 1.0j], [1.0j, 1.0]]) * INV_SQRT2
    reg = (AH, BH)
    out = apply_transform(
        FockState(reg, {(2, 0): 1.0}), ModeTransform(reg, u)
    )
    assert out.amps[(2, 0)] == pytest.approx(0.5)
    assert out.amps[(1, 1)] == pytest.approx(1.0j * INV_SQRT2)
    assert out.amps[(0, 2)] == pytest.approx(-0.5)


def test_hong_ou_mandel_dip():
    # |1,1> in -> no coincidences, photons bunch.
    u = np.array([[1.0, 1.0j], [1.0j, 1.0]]) * INV_SQRT2
    reg = (AH, BH)
    out = apply_transform(
        FockState(reg, {(1, 1): 1.0}), ModeTransform(reg, u)
    )
    assert (1, 1) not in out.amps
    assert abs(out.amps[(2, 0)]) ** 2 == pytest.approx(0.5)
    assert abs(out.amps[(0, 2)]) ** 2 == pytest.approx(0.5)


def test_second_order_pair_term_norm():
    # (aH+ bV+ + aV+ bH+)^2 / 2 |vac> has squared norm 3: the operator
    # monomials carry weights 1, 1, 1 on |2002>, |1111>, |0220>.
    reg = (AH, AV, BH, BV)
    raw = FockState(reg, {(2, 0, 0, 2): 1.0, (1, 1, 1, 1): 1.0, (0, 2, 2, 0): 1.0})
    assert raw.norm_sq() == pytest.approx(3.0)
    st = raw.normalized()
    assert st.amps[(1, 1, 1, 1)] == pytest.approx(1.0 / math.sqrt(3.0))


def test_non_unitary_matrix_rejected():
    with pytest.raises(ValueError, match="non-unitary"):
        ModeTransform((AH, AV), np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_unknown_mode_rejected():
    t = ModeTransform((AH, mode("zV")), np.eye(2))
    with pytest.raises(ValueError, match="not present"):
        apply_transform(FockState.vacuum((AH, AV)), t)


def test_norm_and_photon_number_preserved_under_random_unitaries():
    rng = np.random.default_rng(7)
    reg = (AH, AV, BH, BV)
    for _ in range(40):
        st = random_state(reg, rng)
        t = ModeTransform(reg, haar_unitary(4, rng))
        out = apply_transform(st, t)
        assert out.norm_sq() == pytest.approx(st.norm_sq(), abs=1e-10)
        assert out.photon_numbers() <= st.photon_numbers()


def test_transform_composition_matches_sequential_application():
    rng = np.random.default_rng(11)
    reg = (AH, AV, BH, BV)
    for _ in range(20):
        st = random_state(reg, rng)
        t1 = ModeTransform((AH, AV), haar_unitary(2, rng))
        t2 = ModeTransform((AV, BH, BV), haar_unitary(3, rng))
        seq = apply_transform(apply_transform(st, t1), t2)
        once = apply_transform(st, compose([t1, t2], reg))
        assert seq.register == once.register
        keys = set(seq.amps) | set(once.amps)
        for k in keys:
            assert seq.amps.get(k, 0.0j) == pytest.approx(
                once.amps.get(k, 0.0j), abs=1e-10
            )


def test_identity_embedding_leaves_other_modes_alone():
    rng = np.random.default_rng(3)
    reg = (AH, AV, BH, BV)
    st = random_state(reg, rng)
    t = ModeTransform((BH, BV), np.eye(2, dtype=complex))
    out = apply_transform(st, t)
    for k, v in st.amps.items():
        assert out.amps[k] == pytest.approx(v, abs=1e-12)


def test_postselect_keeps_matching_pattern_and_renormalizes():
    reg = (AH, AV, BH, BV)
    st = FockState(
        reg,
        {
            (1, 0, 0, 1): 0.6,
            (0, 1, 1, 0): 0.6j,
            (2, 0, 0, 0): math.sqrt(1 - 2 * 0.36),
        },
    )
    kept, prob = postselect(st, {"a": 1, "b": 1})
    assert prob == pytest.approx(0.72)
    assert kept.norm_sq() == pytest.approx(1.0)
    assert kept.amps[(1, 0, 0, 1)] == pytest.approx(0.6 / math.sqrt(0.72))


def test_postselect_requires_unlisted_paths_empty():
    reg = (AH, AV, BH, BV)
    st = FockState(reg, {(1, 0, 1, 0): 1.0}).normalized()
    kept, prob = postselect(st, {"a": 1})
    assert prob == 0.0
    assert kept.is_empty()


def test_postselect_empty_survivor_is_zero_probability():
    st = FockState((AH, AV), {(2, 0): 1.0})
    kept, prob = postselect(st, {"a": 1})
    assert prob == 0.0
    assert kept.is_empty()
    with pytest.raises(ValueError):
        kept.normalized()


def test_postselect_unknown_path_rejected():
    st = FockState.vacuum((AH, AV))
    with pytest.raises(ValueError, match="spatial paths"):
        postselect(st, {"q": 1})


def test_postselect_probabilities_sum_to_one():
    rng = np.random.default_rng(19)
    reg = (AH, AV, BH, BV)
    st = apply_transform(
        FockState(reg, {(1, 1, 1, 1): 1.0}),
        ModeTransform(reg, haar_unitary(4, rng)),
    )
    total = 0.0
    for na in range(5):
        _, p = postselect(st, {"a": na, "b": 4 - na})
        total += p
    assert total == pytest.approx(1.0, abs=1e-10)


def postselect_by_sums(state, pattern):
    """The generator-sum filter that ``postselect`` replaced, kept as its oracle."""
    groups = {}
    for i, m in enumerate(state.register):
        groups.setdefault(m.spatial, []).append(i)
    kept = {}
    prob = 0.0
    for occ, amp in state.amps.items():
        if all(sum(occ[i] for i in idxs) == pattern.get(sp, 0) for sp, idxs in groups.items()):
            kept[occ] = amp
            prob += abs(amp) ** 2
    if not kept or prob == 0.0:
        return FockState(state.register, {}), 0.0
    s = 1.0 / math.sqrt(prob)
    return FockState(state.register, {o: a * s for o, a in kept.items()}), prob


@pytest.mark.parametrize("reg", [
    (AH, AV, BH, BV),
    (AH, BH, BV),  # path a has its H mode only
    (BV, AH, mode("cH"), AV, mode("cV"), BH),
])
def test_postselect_equals_the_generator_sum_oracle(reg):
    rng = np.random.default_rng(len(reg))
    st = apply_transform(
        FockState(reg, {(1,) * len(reg): 1.0}),
        ModeTransform(reg, haar_unitary(len(reg), rng)),
    )
    spatials = sorted({m.spatial for m in reg})
    for counts in itertools.product(range(3), repeat=len(spatials)):
        pattern = dict(zip(spatials, counts))
        kept, prob = postselect(st, pattern)
        want, want_prob = postselect_by_sums(st, pattern)
        assert prob.hex() == want_prob.hex()
        assert kept.amps == want.amps


def test_postselect_rejects_a_path_with_more_than_two_modes():
    st = FockState.vacuum((AH, AV, AH))
    with pytest.raises(ValueError, match="3 modes"):
        postselect(st, {"a": 0})


def test_overlap_basics():
    reg = (AH, AV)
    s1 = FockState(reg, {(1, 0): 1.0})
    s2 = FockState(reg, {(0, 1): 1.0})
    sup = FockState(reg, {(1, 0): INV_SQRT2, (0, 1): 1.0j * INV_SQRT2})
    assert overlap(s1, s2) == 0.0
    assert overlap(s1, sup) == pytest.approx(INV_SQRT2)
    assert overlap(sup, s1) == pytest.approx(INV_SQRT2)  # conjugated slot
    assert overlap(sup, sup) == pytest.approx(1.0)


def test_overlap_register_mismatch_rejected():
    with pytest.raises(ValueError, match="register"):
        overlap(FockState.vacuum((AH, AV)), FockState.vacuum((AH, BH)))


def test_overlap_invariant_under_shared_unitary():
    rng = np.random.default_rng(23)
    reg = (AH, AV, BH)
    for _ in range(20):
        s1 = random_state(reg, rng)
        s2 = random_state(reg, rng)
        t = ModeTransform(reg, haar_unitary(3, rng))
        before = overlap(s1, s2)
        after = overlap(apply_transform(s1, t), apply_transform(s2, t))
        assert after == pytest.approx(before, abs=1e-10)


def test_from_occupations_accepts_photon_lists_and_vectors():
    reg = (AH, AV, BH, BV)
    by_vector = FockState(reg, {(1, 0, 0, 1): INV_SQRT2})
    by_photons = FockState.from_occupations(reg, {(AH, BV): INV_SQRT2})
    assert by_vector.amps == by_photons.amps
    doubled = FockState.from_occupations(reg, {(AH, AH): 1.0})
    assert doubled.amps == {(2, 0, 0, 0): 1.0}
    with pytest.raises(ValueError, match="not present"):
        FockState.from_occupations(reg, {(mode("qH"),): 1.0})
    # occupation vectors go to the constructor; as photon lists they name no mode
    with pytest.raises(ValueError, match="not present"):
        FockState.from_occupations(reg, {(1, 0, 0, 1): 1.0})


_FACT = [math.factorial(n) for n in range(25)]
_SQRT_FACT = [math.sqrt(f) for f in _FACT]


def _compositions(n, k):
    """All ways to distribute n photons over k slots."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first, *rest)


def apply_transform_by_terms(state, t):
    """The term-by-term substitution that ``apply_transform`` replaced, kept as its oracle.

    Every factor ul ** nphot / nphot! is computed again for every term it
    multiplies, and the compositions are generated again each time.
    """
    pos = [_position(state.register, m) for m in t.modes]
    u = t.matrix
    k = len(pos)
    # nonzero entries per input mode; zero columns never spawn terms
    cols = [[(l, u[l, j]) for l in range(k) if abs(u[l, j]) > 1e-16] for j in range(k)]
    out = {}
    for occ, amp in state.amps.items():
        sub = tuple(occ[p] for p in pos)
        coeff0 = complex(amp)
        for n in sub:
            coeff0 /= _SQRT_FACT[n]
        poly = {(0,) * k: coeff0}
        for j, nj in enumerate(sub):
            if nj == 0:
                continue
            col = cols[j]
            grown = {}
            for part, c in poly.items():
                base = c * _FACT[nj]
                for comp in _compositions(nj, len(col)):
                    cc = base
                    tgt = list(part)
                    for (l, ul), nphot in zip(col, comp):
                        if nphot:
                            cc *= ul ** nphot / _FACT[nphot]
                            tgt[l] += nphot
                    key = tuple(tgt)
                    grown[key] = grown.get(key, 0.0j) + cc
            poly = grown
        for mono, c in poly.items():
            a = c
            for n in mono:
                a *= _SQRT_FACT[n]
            new_occ = list(occ)
            for p, n in zip(pos, mono):
                new_occ[p] = n
            key = tuple(new_occ)
            out[key] = out.get(key, 0.0j) + a
    return FockState(state.register, {o: a for o, a in out.items() if abs(a) > PRUNE_EPS})


def assert_same_bits(got, want):
    """Same occupations in the same order, and amplitudes equal to the last bit."""
    assert list(got.amps) == list(want.amps)
    for a, b in zip(got.amps.values(), want.amps.values()):
        assert type(a) is type(b)
        assert (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex())


def test_apply_transform_equals_the_term_by_term_oracle_on_the_pipeline():
    rng = np.random.default_rng(91)
    angles = [0.0, math.pi / 8, math.pi / 4, *rng.uniform(0.0, math.pi / 4, 37).tolist()]
    for gamma in angles:
        for order in (2, 3):
            source = circuit.spdc_term(order)
            whole = circuit.pipeline_transform(gamma)
            want = apply_transform_by_terms(source, whole)
            assert_same_bits(apply_transform(source, whole), want)
            state = source
            for element in circuit.standard_elements(gamma):
                want = apply_transform_by_terms(state, element)
                state = apply_transform(state, element)
                assert_same_bits(state, want)


def test_apply_transform_equals_the_term_by_term_oracle_on_random_unitaries():
    rng = np.random.default_rng(92)
    reg = (AH, AV, BH, BV)
    for trial in range(12):
        amps = {}
        for _ in range(3):
            amps[tuple(int(n) for n in rng.integers(0, 7, 4))] = complex(*rng.standard_normal(2))
        state = FockState(reg, amps)
        u = haar_unitary(4, rng)
        if trial % 2:  # block-diagonal with shuffled rows: half the entries are zero
            u = np.zeros((4, 4), dtype=complex)
            u[:2, :2], u[2:, 2:] = haar_unitary(2, rng), haar_unitary(2, rng)
            u = u[rng.permutation(4)]
        transforms = [ModeTransform(reg, u), ModeTransform((BV, AH), haar_unitary(2, rng))]
        for t in transforms:
            assert_same_bits(apply_transform(state, t), apply_transform_by_terms(state, t))
