"""Core Fock-algebra checks: exact small cases plus randomized invariants."""

import itertools
import math

import numpy as np
import pytest

from bellghz import circuit
from bellghz.fock import (
    MAX_PHOTONS_PER_MODE,
    PLAN_CACHE_SIZE,
    PRUNE_EPS,
    FockState,
    Mode,
    ModeTransform,
    apply_transform,
    _plan,
    _position,
    postselect,
)

AH, AV = Mode("a", "H"), Mode("a", "V")
BH, BV = Mode("b", "H"), Mode("b", "V")

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
    # the label error messages print a mode as its compact label
    assert str(Mode("e", "V")) == "eV"


def test_vacuum_is_normalized():
    vac = FockState.vacuum((AH, AV))
    assert vac.norm_sq() == pytest.approx(1.0)
    assert list(vac.amps) == [(0, 0)]


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


def test_non_finite_matrix_rejected():
    # its NaN deviation from unitarity fails no "greater than" test
    with pytest.raises(ValueError, match="matrix must hold finite numbers"):
        ModeTransform((AH, AV), np.full((2, 2), np.nan))


def test_matrix_shape_must_match_the_modes():
    with pytest.raises(ValueError, match=r"^matrix must be a 2x2 array, got shape \(3, 3\)$"):
        ModeTransform((AH, AV), np.eye(3))


def test_mode_transform_owns_a_read_only_copy():
    source = np.eye(2, dtype=complex)
    t = ModeTransform((AH, AV), source)
    source[0, 0] = 5.0
    assert t.matrix[0, 0] == 1.0
    assert not t.matrix.flags.writeable


def test_unknown_mode_rejected():
    t = ModeTransform((AH, Mode("z", "V")), np.eye(2))
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
        assert {sum(o) for o in out.amps} <= {sum(o) for o in st.amps}


def test_transform_composition_matches_sequential_application():
    rng = np.random.default_rng(11)
    reg = (AH, AV, BH, BV)
    for _ in range(20):
        st = random_state(reg, rng)
        t1 = ModeTransform((AH, AV), haar_unitary(2, rng))
        t2 = ModeTransform((AV, BH, BV), haar_unitary(3, rng))
        seq = apply_transform(apply_transform(st, t1), t2)
        once = apply_transform(st, ModeTransform(reg, t2.embedded(reg) @ t1.embedded(reg)))
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
    assert kept.amps == {}


def test_postselect_empty_survivor_is_zero_probability():
    st = FockState((AH, AV), {(2, 0): 1.0})
    kept, prob = postselect(st, {"a": 1})
    assert prob == 0.0
    assert kept.amps == {}
    with pytest.raises(ValueError):
        kept.normalized()


def test_postselect_unknown_path_rejected():
    st = FockState.vacuum((AH, AV))
    with pytest.raises(ValueError, match="spatial paths"):
        postselect(st, {"q": 1})
    with pytest.raises(ValueError, match="photon counts"):
        postselect(st, {"a": [1]})


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
    (BV, AH, Mode("c", "H"), AV, Mode("c", "V"), BH),
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


def overlap(s1, s2):
    """Inner product <s1|s2> in the orthonormal occupation basis."""
    return sum(a.conjugate() * s2.amps.get(o, 0j) for o, a in s1.amps.items())


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


def _glynn_permanents(mats):
    """Permanents of a stack of n x n matrices by Glynn's formula,
    Perm A = 2^(1-n) sum over d in {+-1}^n with d_0 = 1 of prod_k d_k prod_j sum_i d_i A_ij."""
    n = mats.shape[-1]
    if n == 0:
        return np.ones(len(mats), dtype=complex)
    deltas = np.array([(1, *d) for d in itertools.product((1, -1), repeat=n - 1)], dtype=float)
    sums = np.einsum("dk,bkj->bdj", deltas, mats)
    return (sums.prod(axis=2) @ deltas.prod(axis=1)) / 2 ** (n - 1)


def amplitudes_by_permanents(state, u, outputs):
    """<n|U|state> for each occupation n in ``outputs``, all terms with one photon number.

    The amplitude from input occupation m to n is Perm(U[n, m]) / sqrt(prod n_i! prod m_j!),
    where U's rows (outputs) repeat by n and its columns (inputs) by m (Scheel,
    quant-ph/0406127). It shares nothing with the operator substitution of ``apply_transform``.
    """
    modes = np.arange(len(u))
    rows = np.array([np.repeat(modes, n) for n in outputs])
    row_facts = np.array([math.prod(map(math.factorial, n)) for n in outputs], dtype=float)
    amps = np.zeros(len(outputs), dtype=complex)
    for occ, amp in state.amps.items():
        perms = _glynn_permanents(u[rows][:, :, np.repeat(modes, occ)])
        amps += amp * perms / np.sqrt(row_facts * math.prod(map(math.factorial, occ)))
    return amps


def assert_equals_the_permanent_oracle(state, t):
    got = apply_transform(state, t)
    outputs = list(got.amps)
    assert {sum(n) for n in outputs} == {sum(m) for m in state.amps}
    want = amplitudes_by_permanents(state, t.embedded(state.register), outputs)
    np.testing.assert_allclose(np.array(list(got.amps.values())), want, rtol=0, atol=1e-13)
    # unit norm in the returned amplitudes: no output is missing
    assert abs(got.norm_sq() - 1.0) <= 1e-12


def test_apply_transform_equals_the_permanent_oracle():
    rng = np.random.default_rng(94)
    for nmodes in range(2, 9):
        reg = tuple(Mode(f"m{i}", "H") for i in range(nmodes))
        for total in (*rng.integers(0, 6, 2).tolist(), 6):
            amps = {}
            for _ in range(int(rng.integers(1, 4))):
                occ = np.bincount(rng.integers(0, nmodes, total), minlength=nmodes)
                amps[tuple(occ.tolist())] = complex(*rng.standard_normal(2))
            state = FockState(reg, amps).normalized()
            # a transform on a shuffled subset of the register, identity elsewhere
            k = int(rng.integers(2, nmodes + 1))
            modes = tuple(reg[i] for i in rng.permutation(nmodes)[:k])
            assert_equals_the_permanent_oracle(state, ModeTransform(modes, haar_unitary(k, rng)))
    angles = [0.0, math.pi / 8, math.pi / 4, *rng.uniform(0.0, math.pi / 4, 3).tolist()]
    for gamma in angles:
        for order in (2, 3):
            assert_equals_the_permanent_oracle(circuit.spdc_term(order),
                                               circuit.pipeline_transform(gamma))


def postselect_by_groups(state, pattern):
    """The ``postselect`` that built its path pairs on every call, kept as its oracle."""
    groups = {}
    for i, m in enumerate(state.register):
        groups.setdefault(m.spatial, []).append(i)
    unknown = set(pattern) - set(groups)
    if unknown:
        raise ValueError(f"pattern names spatial paths not in register: {sorted(unknown)}")
    pairs = []
    for sp, idxs in groups.items():
        want = pattern.get(sp, 0)
        if len(idxs) > 2:
            raise ValueError(f"spatial path {sp!r} has {len(idxs)} modes; at most H and V")
        pairs.append((idxs[0], idxs[-1], want if len(idxs) == 2 else 2 * want))
    kept = {}
    prob = 0.0
    for occ, amp in state.amps.items():
        for i, j, want in pairs:
            if occ[i] + occ[j] != want:
                break
        else:
            kept[occ] = amp
            prob += abs(amp) ** 2
    if not kept or prob == 0.0:
        return FockState(state.register, {}), 0.0
    s = 1.0 / math.sqrt(prob)
    return FockState(state.register, {o: a * s for o, a in kept.items()}), prob


def amp_bytes(state):
    """Occupations, amplitude types and amplitude bytes in dict order; -0.0 counts."""
    return [(occ, type(a), np.complex128(a).tobytes()) for occ, a in state.amps.items()]


ORACLE_ANGLES = [0.0, math.pi / 12, math.pi / 8, math.pi / 4,
                 *np.random.default_rng(93).uniform(0.0, math.pi / 4, 16).tolist()]


@pytest.mark.parametrize("gamma", ORACLE_ANGLES)
def test_fock_amplitudes_equal_the_oracles_byte_for_byte(gamma):
    whole = circuit.pipeline_transform(gamma)
    for source in (circuit.spdc_term(2), circuit.spdc_term(3), *circuit.source_terms()):
        assert amp_bytes(apply_transform(source, whole)) == amp_bytes(
            apply_transform_by_terms(source, whole))
        state = source
        for element in circuit.standard_elements(gamma):
            want = apply_transform_by_terms(state, element)
            state = apply_transform(state, element)
            assert amp_bytes(state) == amp_bytes(want)
        kept, prob = postselect(state, circuit.COINCIDENCE_PATTERN)
        want, want_prob = postselect_by_groups(state, circuit.COINCIDENCE_PATTERN)
        assert amp_bytes(kept) == amp_bytes(want)
        assert prob.hex() == want_prob.hex()


def test_apply_transform_on_a_one_mode_register_equals_the_oracle():
    # one register mode: each output occupation is gathered from a single index
    rng = np.random.default_rng(96)
    amps = {(n,): complex(*rng.standard_normal(2)) for n in (3, 0, 1, 5)}
    state = FockState((AH,), amps)
    for u in (1.0, -1.0, 1j, np.exp(1j * rng.uniform(0.0, 2 * math.pi))):
        t = ModeTransform((AH,), np.array([[u]]))
        assert amp_bytes(apply_transform(state, t)) == amp_bytes(
            apply_transform_by_terms(state, t))


def test_apply_transform_equals_the_oracle_on_signed_zero_amplitudes():
    # a unit factor the expansion skips could only flip the sign of a zero
    rng = np.random.default_rng(94)
    reg = (AH, AV, BH, BV)
    zeros = [(-0.0, None), (None, -0.0), (-0.0, -0.0), (0.0, None)]
    for trial in range(60):
        amps = {}
        for re_im in zeros:
            re, im = (v if v is not None else rng.standard_normal() for v in re_im)
            amps[tuple(int(n) for n in rng.integers(0, 4, 4))] = complex(re, im)
        u = haar_unitary(4, rng) if trial % 2 else np.eye(4, dtype=complex)[rng.permutation(4)]
        for t in (ModeTransform(reg, u), ModeTransform((BV, AH), haar_unitary(2, rng))):
            state = FockState(reg, amps)
            assert amp_bytes(apply_transform(state, t)) == amp_bytes(
                apply_transform_by_terms(state, t))


@pytest.mark.parametrize("reg", [
    (AH, AV, BH, BV),
    (AH, BH, BV),
    (BV, AH, Mode("c", "H"), AV, Mode("c", "V"), BH),
])
def test_postselect_equals_the_per_call_pairs_oracle(reg):
    rng = np.random.default_rng(10 + len(reg))
    st = apply_transform(
        FockState(reg, {(1,) * len(reg): 1.0}),
        ModeTransform(reg, haar_unitary(len(reg), rng)),
    )
    spatials = sorted({m.spatial for m in reg})
    for counts in itertools.product(range(3), repeat=len(spatials)):
        pattern = dict(zip(spatials, counts))
        kept, prob = postselect(st, pattern)
        want, want_prob = postselect_by_groups(st, pattern)
        assert prob.hex() == want_prob.hex()
        assert amp_bytes(kept) == amp_bytes(want)


def pipeline_calls(gamma):
    """(state, transform) of each Fock substitution a noise evaluation makes at ``gamma``."""
    whole = circuit.pipeline_transform(gamma)
    calls = [(source, whole) for source in (circuit.spdc_term(3), *circuit.source_terms())]
    state = circuit.spdc_term(2)
    for element in circuit.standard_elements(gamma):
        calls.append((state, element))
        state = apply_transform(state, element)
    return calls


def test_a_cold_and_a_reused_plan_give_the_oracle_bytes():
    # 0, pi/8 and pi/4 zero other entries of U or prune other keys than 0.3 does
    for gamma in (0.3, 0.0, math.pi / 8, math.pi / 4):
        calls = pipeline_calls(gamma)
        wants = [amp_bytes(apply_transform_by_terms(s, t)) for s, t in calls]
        _plan.cache_clear()
        assert [amp_bytes(apply_transform(s, t)) for s, t in calls] == wants
        cold = _plan.cache_info()
        assert cold.misses == cold.currsize == len(calls)
        assert [amp_bytes(apply_transform(s, t)) for s, t in calls] == wants
        assert _plan.cache_info().misses == cold.misses


def test_special_angles_build_plans_of_their_own():
    _plan.cache_clear()
    for s, t in pipeline_calls(0.3):
        apply_transform(s, t)
    for gamma in (0.0, math.pi / 8, math.pi / 4):
        misses = _plan.cache_info().misses
        for s, t in pipeline_calls(gamma):
            apply_transform(s, t)
        assert _plan.cache_info().misses > misses


def test_plans_carry_twenty_photons_over_sixteen_modes():
    rng = np.random.default_rng(96)
    reg = circuit.REGISTER
    # 22 photons in one mode (22! is beyond int64), and 20 over all sixteen
    amps = {(22,) + (0,) * 15: complex(*rng.standard_normal(2)),
            (3, 2, 2) + (1,) * 13: complex(*rng.standard_normal(2)),
            (0, 1, 4, 0, 2, 3) + (1,) * 10: complex(*rng.standard_normal(2))}
    state = FockState(reg, amps)
    assert [sum(occ) for occ in amps] == [22, 20, 20]
    sparse = np.zeros((16, 16), dtype=complex)
    sparse[:2, :2], sparse[2:4, 2:4] = haar_unitary(2, rng), haar_unitary(2, rng)
    sparse[4:, 4:] = np.eye(12)[rng.permutation(12)]
    for t in (ModeTransform(reg, sparse), ModeTransform(reg[:4], haar_unitary(4, rng)),
              ModeTransform((reg[5], reg[0], reg[9]), haar_unitary(3, rng))):
        assert amp_bytes(apply_transform(state, t)) == amp_bytes(apply_transform_by_terms(state, t))


@pytest.mark.parametrize("n", [25, 40])
def test_many_photons_in_one_mode_split_binomially(n):
    # 25! and 40! lie beyond int64, well within a float
    theta = 0.3
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    out = apply_transform(FockState((AH, AV), {(n, 0): 1.0}), circuit.half_wave_plate("a", theta))
    assert len(out.amps) == n + 1
    for k in range(n + 1):
        assert abs(out.amps[(k, n - k)] - math.sqrt(math.comb(n, k)) * c**k * s ** (n - k)) <= 1e-15


def test_a_transformed_mode_holds_at_most_170_photons():
    # 170! is the largest factorial a float holds; amplitudes below PRUNE_EPS are dropped
    n, theta = MAX_PHOTONS_PER_MODE, 0.3
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    plate = circuit.half_wave_plate("a", theta)
    out = apply_transform(FockState((AH, AV), {(n, 0): 1.0}), plate)
    for k in range(n + 1):
        want = math.sqrt(math.comb(n, k)) * c**k * s ** (n - k)
        assert abs(out.amps.get((k, n - k), 0.0) - want) <= 1e-13
    assert abs(out.norm_sq() - 1.0) <= 1e-13
    # one photon more, before the transform or after it
    for occ in ((n + 1, 0), (100, 100)):
        with pytest.raises(ValueError, match=rf"would hold {sum(occ)} photons; at most {n}\b"):
            apply_transform(FockState((AH, AV), {occ: 1.0}), plate)


def test_terms_without_a_transformed_photon_keep_python_complex():
    reg = (AH, AV, BH, BV)
    state = FockState(reg, {(1, 0, 1, 0): 0.6, (0, 2, 0, 0): 0.8j, (0, 0, 0, 3): -0.0 + 0.5j})
    t = ModeTransform((AH, AV), haar_unitary(2, np.random.default_rng(97)))
    out = apply_transform(state, t)
    assert amp_bytes(out) == amp_bytes(apply_transform_by_terms(state, t))
    assert {type(a) for occ, a in out.amps.items() if occ[:2] != (0, 0)} == {np.complex128}
    assert type(out.amps[(0, 0, 0, 3)]) is complex
    # an infinite amplitude cannot reach it: the state rejects it
    with pytest.raises(ValueError, match="amps"):
        FockState(reg, {(1, 0, 0, 0): 0.6, (0, 0, 2, 0): complex(math.inf, 0.5)})
    # no term touched at all, and no term at all
    bystander = ModeTransform((BH, BV), np.eye(2))
    out = apply_transform(FockState(reg, {(1, 0, 0, 0): 0.6}), bystander)
    assert amp_bytes(out) == [((1, 0, 0, 0), complex, np.complex128(0.6).tobytes())]
    assert apply_transform(FockState(reg, {}), bystander).amps == {}


def test_more_patterns_than_the_plan_cache_holds():
    rng = np.random.default_rng(98)
    reg = (AH, AV, BH, BV)
    t = ModeTransform(reg, haar_unitary(4, rng))
    patterns = itertools.islice(itertools.product(range(3), repeat=4), 1, PLAN_CACHE_SIZE + 9)
    states = [FockState(reg, {occ: 1.0, (1, 0, 2, 0): 0.5j}) for occ in patterns]
    _plan.cache_clear()
    for state in states + states[:4]:  # the first ones again, after their plans went
        assert amp_bytes(apply_transform(state, t)) == amp_bytes(apply_transform_by_terms(state, t))
    info = _plan.cache_info()
    assert info.currsize == info.maxsize == PLAN_CACHE_SIZE
    assert info.misses == len(states) + 4
