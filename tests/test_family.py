"""Closed-form family: anchors, branch inversion, catalog, crossings."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import bellghz
from bellghz import family
from bellghz.family import (
    CLASS_NAMES,
    GAMMA_MAX,
    CatalogEntry,
    QubitState4,
    alpha,
    catalog,
    class_moduli,
    find_crossings,
    gamma_for_alpha,
    probability,
    state_at,
)

SQRT3 = math.sqrt(3.0)

# (gamma, alpha, probability) anchors of the family
ANCHORS = [
    (0.0, 1.0, 1.0 / 12.0),
    (math.pi / 12, math.sqrt(2.0 / 3.0), 1.0 / 32.0),
    (math.pi / 8, 0.0, 1.0 / 24.0),
    (math.pi / 4, -math.sqrt(1.0 / 3.0), 1.0 / 4.0),
]


def cos4gamma_for_alpha(a):
    """Independent inversion oracle: solve alpha^2 = c^2/(c^2+(1-c)^2/2).

    The quadratic (3A-2)c^2 - 2Ac + A = 0 with A = alpha^2 has the
    admissible root with |c| <= 1 and sign(c) = sign(alpha).
    """
    A = a * a
    if abs(3 * A - 2) < 1e-15:
        return 0.5
    disc = math.sqrt(max(0.0, 2 * A * (1 - A)))
    roots = [(A + disc) / (3 * A - 2), (A - disc) / (3 * A - 2)]
    good = [
        c
        for c in roots
        if abs(c) <= 1 + 1e-12 and (c == 0 or a == 0 or math.copysign(1, c) == math.copysign(1, a))
    ]
    assert good, f"no admissible root for alpha={a}"
    return good[0]


@pytest.mark.parametrize("gamma,a,p", ANCHORS)
def test_anchor_points(gamma, a, p):
    assert alpha(gamma) == pytest.approx(a, abs=1e-10)
    assert probability(gamma) == pytest.approx(p, abs=1e-10)


def test_gamma_domain_enforced():
    for bad in (-1e-9, math.pi / 4 + 1e-9, 1.0):
        with pytest.raises(ValueError, match="pi/4"):
            alpha(bad)
        with pytest.raises(ValueError):
            state_at(bad)


NOT_REAL = ["0.1", False, True, np.bool_(True), 0.1 + 0j, np.complex128(0.1), None,
            np.array([0.1]), np.array([[0.1, 0.2]]), [0.1]]


@pytest.mark.parametrize("bad", NOT_REAL)
def test_gamma_must_be_a_real_number(bad):
    with pytest.raises(ValueError, match="gamma must be a real number"):
        family.check_gamma(bad)
    with pytest.raises(ValueError, match="gamma"):
        state_at(bad)


@pytest.mark.parametrize("bad", [10**400, -(10**400)])
def test_gamma_too_large_for_a_float_is_out_of_range(bad):
    with pytest.raises(ValueError, match="pi/4"):
        family.check_gamma(bad)


@pytest.mark.parametrize("good", [0, np.int64(0), np.uint8(0), np.float64(0.3), np.float32(0.3),
                                  0.3, -0.0, math.pi / 4])
def test_gamma_takes_ints_and_numpy_reals_as_their_float(good):
    g = family.check_gamma(good)
    assert type(g) is float
    assert g.hex() == (float(good) + 0.0).hex()
    assert alpha(good).hex() == alpha(float(good) + 0.0).hex()


@pytest.mark.parametrize("bad", NOT_REAL)
def test_gamma_for_alpha_target_must_be_a_real_number(bad):
    with pytest.raises(ValueError, match="target must be a real number"):
        gamma_for_alpha(bad)


def test_gamma_for_alpha_takes_numpy_reals_as_their_float():
    assert gamma_for_alpha(np.float64(0.3)) == gamma_for_alpha(0.3)
    assert gamma_for_alpha(np.int64(1)) == gamma_for_alpha(1) == 0.0


def test_alpha_probability_identity_on_dense_grid():
    # 48 p(g) alpha(g)^2 == 4 cos^2(4g)
    for g in np.linspace(0.0, GAMMA_MAX, 2001):
        lhs = 48.0 * probability(g) * alpha(g) ** 2
        rhs = 4.0 * math.cos(4 * g) ** 2
        assert abs(lhs - rhs) <= 1e-12


def test_alpha_strictly_decreasing():
    grid = np.arange(0.0, GAMMA_MAX, 1e-3)
    grid = np.append(grid, GAMMA_MAX)
    vals = [alpha(g) for g in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_state_at_bell_pair_product():
    st = state_at(0.0).state
    expect = np.zeros(16)
    for idx in (0b0101, 0b0110, 0b1001, 0b1010):
        expect[idx] = 0.5
    np.testing.assert_allclose(st.vec, expect, atol=1e-12)


def test_state_at_ghz():
    st = state_at(math.pi / 8).state
    assert st.vec[0b0011] == pytest.approx(1 / math.sqrt(2))
    assert st.vec[0b1100] == pytest.approx(1 / math.sqrt(2))
    assert np.sum(np.abs(st.vec) > 1e-12) == 2


def test_state_at_dicke_point():
    # alpha = sqrt(2/3) merges both parts into the six-term two-V state
    st = state_at(math.pi / 12).state
    two_v = [i for i in range(16) if bin(i).count("1") == 2]
    for idx in two_v:
        assert st.vec[idx] == pytest.approx(1 / math.sqrt(6), abs=1e-12)
    assert st.norm_sq() == pytest.approx(1.0)


def test_state_normalization_everywhere():
    for g in np.linspace(0.0, GAMMA_MAX, 101):
        pt = state_at(g)
        assert pt.state.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert pt.probability == pytest.approx(probability(g))


def test_qubit_state_shape_checked():
    with pytest.raises(ValueError, match="16"):
        QubitState4(np.zeros(8))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                 complex(math.inf, 0.0)])
def test_qubit_state_rejects_non_finite_amplitudes_naming_vec(bad):
    vec = [0.25] * 16
    vec[5] = bad
    with pytest.raises(ValueError, match="^vec must hold finite amplitudes"):
        QubitState4(vec)
    with pytest.raises(ValueError, match="^vec must hold finite amplitudes"):
        QubitState4([bad] * 16)


def test_qubit_state_keeps_the_bits_of_valid_vectors():
    rng = np.random.default_rng(4)
    for vec in (rng.normal(size=16) + 1j * rng.normal(size=16), np.zeros(16), [1e308] * 16):
        want = np.asarray(vec, dtype=complex).reshape(-1)
        assert QubitState4(vec).vec.tobytes() == want.tobytes()


def test_qubit_state_owns_a_read_only_copy():
    source = np.full(16, 0.25, dtype=complex)
    state = QubitState4(source)
    source[3] = math.nan
    assert state.vec[3] == 0.25
    assert not state.vec.flags.writeable


def test_zero_state_cannot_be_normalized_or_phase_fixed():
    zero = QubitState4(np.zeros(16))
    with pytest.raises(ValueError, match="cannot normalize a zero state"):
        zero.normalized()
    with pytest.raises(ValueError, match="cannot fix the phase of a zero state"):
        zero.canonical()


def test_canonical_phase_removes_global_phase():
    st = state_at(0.1).state
    rotated = QubitState4(st.vec * np.exp(0.7j))
    np.testing.assert_allclose(rotated.canonical().vec, st.canonical().vec, atol=1e-12)


@pytest.mark.parametrize(
    "target,branch",
    [
        (math.sqrt((3 + SQRT3) / 6), "first"),
        (math.sqrt(0.5), "first"),
        (math.sqrt(1 / 3), "first"),
        (math.sqrt((3 - SQRT3) / 6), "first"),
        (0.3, "first"),
        (-math.sqrt((3 - SQRT3) / 6), "second"),
        (-0.2, "second"),
    ],
)
def test_gamma_for_alpha_matches_quadratic_oracle(target, branch):
    g = gamma_for_alpha(target, branch)
    oracle = math.acos(cos4gamma_for_alpha(target)) / 4
    assert g == pytest.approx(oracle, abs=1e-12)
    assert alpha(g) == pytest.approx(target, abs=1e-10)


def test_gamma_for_alpha_endpoints_exact():
    assert gamma_for_alpha(0.0, "first") == math.pi / 8
    assert gamma_for_alpha(1.0, "first") == 0.0
    assert gamma_for_alpha(0.0, "second") == math.pi / 8
    assert gamma_for_alpha(-math.sqrt(1 / 3), "second") == GAMMA_MAX


@pytest.mark.parametrize(
    "target,branch,want",
    [
        (1 + 5e-13, "first", 0.0),
        (-5e-13, "first", math.pi / 8),
        (5e-13, "second", math.pi / 8),
        (-math.sqrt(1 / 3) - 5e-13, "second", GAMMA_MAX),
    ],
)
def test_gamma_for_alpha_takes_targets_just_beyond_a_branch_end(target, branch, want):
    # the range check admits 1e-12 beyond each end; such a target is that end
    assert gamma_for_alpha(target, branch) == want


def test_gamma_for_alpha_rejects_outside_branch():
    with pytest.raises(ValueError, match="branch"):
        gamma_for_alpha(-0.5, "first")
    with pytest.raises(ValueError, match="branch"):
        gamma_for_alpha(0.5, "second")
    with pytest.raises(ValueError, match="branch"):
        gamma_for_alpha(0.5, "middle")


def test_catalog_names_and_order():
    entries = catalog()
    assert [e.name for e in entries] == [
        "BellPair²",
        "S^a",
        "D4(2)",
        "S^b",
        "Ψ4+",
        "S^c+",
        "GHZ",
        "S^c−",
        "Ψ4−",
    ]
    gammas = [e.gamma for e in entries]
    assert gammas == sorted(gammas)


def test_catalog_values():
    by_name = {e.name: e for e in catalog()}
    assert by_name["BellPair²"] == CatalogEntry("BellPair²", 0.0, 1.0)
    assert by_name["D4(2)"].gamma == math.pi / 12
    assert by_name["D4(2)"].alpha == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
    assert by_name["S^b"].alpha == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert by_name["GHZ"].gamma == math.pi / 8
    assert by_name["GHZ"].alpha == 0.0
    assert by_name["Ψ4−"].alpha == pytest.approx(-math.sqrt(1 / 3))
    # refined gammas against the quadratic inversion oracle
    assert by_name["S^a"].gamma == pytest.approx(0.238829154531127, abs=1e-10)
    assert by_name["S^b"].gamma == pytest.approx(0.285929435100605, abs=1e-10)
    assert by_name["Ψ4+"].gamma == pytest.approx(0.307739854335194, abs=1e-10)
    assert by_name["S^c+"].gamma == pytest.approx(0.324883143267219, abs=1e-10)
    assert by_name["S^c−"].gamma == pytest.approx(0.546569008866321, abs=1e-10)


def test_catalog_alpha_consistent_with_gamma():
    for e in catalog():
        assert alpha(e.gamma) == pytest.approx(e.alpha, abs=1e-9)


def test_class_moduli_at_anchors():
    m0 = class_moduli(0.0)
    assert m0 == pytest.approx(
        {"iiii": 1.0, "0z0z": 0.0, "00zz": 1.0, "0x0x": 0.0, "00xx": 1.0}
    )
    mg = class_moduli(math.pi / 8)
    assert mg == pytest.approx(
        {"iiii": 1.0, "0z0z": 1.0, "00zz": 1.0, "0x0x": 0.0, "00xx": 0.0}
    )
    # Dicke point: pairwise coincidences (ii)=(iii) and (iv)=(v)
    md = class_moduli(math.pi / 12)
    assert md["0z0z"] == pytest.approx(md["00zz"], abs=1e-12)
    assert md["0x0x"] == pytest.approx(md["00xx"], abs=1e-12)


@pytest.fixture(scope="module")
def crossings():
    return find_crossings()


class TestCrossings:
    def test_transversal_crossings_found(self, crossings):
        # the four single-pair crossings, as (gamma, class pair)
        expected = [
            (0.238829154531127, ("00zz", "0x0x")),  # alpha^2=(3+sqrt3)/6
            (0.285929435100605, ("0z0z", "00xx")),  # alpha^2=1/2
            (0.324883143267219, ("00zz", "0x0x")),  # alpha^2=(3-sqrt3)/6
            (0.546569008866321, ("00zz", "0x0x")),  # second branch
        ]
        for g_ref, pair in expected:
            hits = [c for c in crossings if c.classes == pair and abs(c.gamma - g_ref) < 1e-9]
            assert hits, f"missing crossing {pair} near {g_ref}"

    def test_quoted_crossing_angles(self, crossings):
        got = sorted({round(c.gamma / math.pi, 4) for c in crossings})
        for approx in (0.076, 0.091, 0.1034, 0.174):
            assert any(abs(g - approx) < 5e-4 for g in got), approx

    def test_dicke_point_is_a_double_crossing(self, crossings):
        at_dicke = {c.classes for c in crossings if abs(c.gamma - math.pi / 12) < 1e-9}
        assert ("0z0z", "00zz") in at_dicke
        assert ("0x0x", "00xx") in at_dicke

    def test_ghz_point_tangential_contacts(self, crossings):
        at_ghz = {c.classes for c in crossings if c.gamma == math.pi / 8}
        assert at_ghz == {
            ("iiii", "0z0z"),
            ("iiii", "00zz"),
            ("0z0z", "00zz"),
            ("0x0x", "00xx"),
        }

    def test_psi4plus_point_is_a_double_crossing(self, crossings):
        g_ref = 0.307739854335194
        pairs = {c.classes for c in crossings if abs(c.gamma - g_ref) < 1e-9}
        assert pairs == {("0z0z", "0x0x"), ("00zz", "00xx")}

    def test_classes_agree_at_every_root(self, crossings):
        for g, (ca, cb) in crossings:
            m = class_moduli(g)
            assert abs(m[ca] - m[cb]) <= 1e-9, (g, ca, cb)

    def test_roots_inside_open_interval_and_deduped(self, crossings):
        assert len(crossings) == 12
        for g, _ in crossings:
            assert type(g) is float
            assert 0.0 < g < GAMMA_MAX
        per_pair = {}
        for g, pair in crossings:
            per_pair.setdefault(pair, []).append(g)
        for pair, roots in per_pair.items():
            for a, b in zip(roots, roots[1:]):
                assert b - a > 1e-8

    def test_valid_class_names(self, crossings):
        for _, pair in crossings:
            assert set(pair) <= set(CLASS_NAMES)


def test_no_crossing_is_missed_on_a_fine_grid():
    # an oracle independent of the finder: alpha and the class moduli written
    # here, on a grid ten times finer than the finder's
    step = 1e-5
    grid = np.arange(step, GAMMA_MAX, step)
    c4 = np.cos(4 * grid)
    a = 2 * c4 / np.sqrt(5 - 4 * c4 + 3 * np.cos(8 * grid))
    a2 = a * a
    moduli = {
        "iiii": np.ones_like(a),
        "0z0z": 1 - a2,
        "00zz": np.abs(1 - 2 * a2),
        "0x0x": np.sqrt(2 * a2 * np.maximum(0.0, 1 - a2)),
        "00xx": a2,
    }
    # the meetings at gamma = 0 leave rounding minima near the ends
    inside = (grid > 1e-3) & (grid < GAMMA_MAX - 1e-3)
    found = find_crossings()
    for i, name_a in enumerate(CLASS_NAMES):
        for name_b in CLASS_NAMES[i + 1:]:
            d = moduli[name_a] - moduli[name_b]
            ad = np.abs(d)
            sign_change = np.flatnonzero((d[:-1] * d[1:] < 0) & inside[:-1] & inside[1:])
            minimum = 1 + np.flatnonzero(
                (ad[1:-1] < ad[:-2]) & (ad[1:-1] < ad[2:]) & (ad[1:-1] < 1e-3) & inside[1:-1]
            )
            at = grid[np.concatenate([sign_change, minimum])]
            roots = np.array([c.gamma for c in found if c.classes == (name_a, name_b)])
            for g in at:
                assert roots.size and np.min(np.abs(roots - g)) <= 2 * step, (name_a, name_b, g)
            for r in roots:
                assert at.size and np.min(np.abs(at - r)) <= 2 * step, (name_a, name_b, r)


def test_grid_moduli_match_scalar_formulas():
    grid = np.arange(1e-4, GAMMA_MAX, 1e-4)
    on_grid = family._grid_moduli(grid)
    for name in CLASS_NAMES:
        scalar = np.array([class_moduli(g)[name] for g in grid])
        assert np.max(np.abs(on_grid[name] - scalar)) <= 1e-12, name


def test_brentq_matches_scipy_bit_for_bit(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    port = family._brentq
    calls = []

    def compared(f, xa, xb, **kwargs):
        # compare at once: find_crossings rebinds what its closures read
        root = port(f, xa, xb, **kwargs)
        assert optimize.brentq(f, xa, xb, **kwargs) == root
        calls.append(root)
        return root

    monkeypatch.setattr(family, "_brentq", compared)
    # the crossing table is computed once per process: search again under the patch,
    # and leave no table found by the patched root finder behind
    family._crossing_table.cache_clear()
    try:
        find_crossings()
    finally:
        family._crossing_table.cache_clear()
    for _, g, a, branch in family._CATALOG_ROWS:
        if g is None:
            gamma_for_alpha(a, branch)
    assert len(calls) == 8 + 5  # transversal crossings + catalog inversions

    rng = np.random.default_rng(20081)
    cases = 0
    for xtol in (1e-12, 2e-12, 1e-14):
        for _ in range(200):
            t = rng.uniform(0.01, 0.99)
            lo, hi = rng.uniform(0.0, 0.2), rng.uniform(0.34, math.pi / 8)

            def f(g, t=t):
                return alpha(g) - t

            if f(lo) * f(hi) < 0:
                assert port(f, lo, hi, xtol=xtol) == optimize.brentq(f, lo, hi, xtol=xtol)
                cases += 1
            r0, c = rng.uniform(-2.0, 2.0), rng.uniform(0.1, 3.0)
            lo, hi = r0 - rng.uniform(0.01, 3.0), r0 + rng.uniform(0.01, 3.0)

            def g(x, r0=r0, c=c):
                return (x - r0) * (c + (x - r0) ** 2) + 1e-3 * math.sin(7.0 * x)

            if g(lo) * g(hi) < 0:
                assert port(g, lo, hi, xtol=xtol) == optimize.brentq(g, lo, hi, xtol=xtol)
                cases += 1
    assert cases > 1000


def test_brentq_reports_failures():
    with pytest.raises(ValueError, match="different signs"):
        family._brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(RuntimeError, match="did not converge"):
        family._brentq(lambda x: math.copysign(1.0, x - 0.3), 0.0, 1.0, xtol=1e-12, maxiter=5)


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(bellghz.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, bellghz.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert proc.stdout == "[]\n"
