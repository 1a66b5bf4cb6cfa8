"""Correlation tensors, entanglement witnesses, and structural state checks.

Everything here works on four-qubit states in the computational basis of
:mod:`bellghz.family` (H is the +z eigenstate, qubit order e, f, g, h).
Density matrices are accepted anywhere a state is, as plain 16x16 arrays
or as objects carrying a ``matrix`` attribute.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .family import (
    CLASS_NAMES, QubitState4, _amplitudes, _nonnegative_int, alpha, check_gamma, state_at,
)

#: Axis labels of the correlation tensor, in index order.
AXES = "0xyz"
#: Labels a measurement setting may take (the identity is not a setting).
SETTING_AXES = "xyz"

PAULI = {
    "0": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_PAULI_STACK = np.stack([PAULI[a] for a in AXES])

#: All 81 measurement settings in lexicographic order.
SETTINGS = tuple("".join(s) for s in itertools.product(SETTING_AXES, repeat=4))
# correlation-term labels in index order, term t = 64 a + 16 b + 4 c + d over AXES
_TERMS = tuple("".join(t) for t in itertools.product(AXES, repeat=4))
_TERM_INDEX = {t: i for i, t in enumerate(_TERMS)}

# 1 where a setting letter (row: x, y, z) yields a term axis (column: 0, x, y, z)
_LETTER_YIELDS = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
# 1 where setting s yields term t, every slot yielding; the first slot is the
# most significant digit of both indices, as in np.kron
_YIELDS = np.kron(np.kron(_LETTER_YIELDS, _LETTER_YIELDS), np.kron(_LETTER_YIELDS, _LETTER_YIELDS))

DM_TOL = 1e-9
#: 3-tangle magnitudes below this count as zero (W class).
THREE_TANGLE_ZERO = 1e-6


def as_density(state) -> np.ndarray:
    """Coerce a state, 16x16 array, or ``.matrix`` carrier to a density matrix.

    Raises ValueError unless the result is finite and Hermitian with unit
    trace to within DM_TOL.
    """
    if isinstance(state, QubitState4):
        mat = state.density()
    else:
        mat = np.asarray(getattr(state, "matrix", state), dtype=complex)
    if mat.shape != (16, 16):
        raise ValueError("density matrix must be 16x16")
    if not np.isfinite(mat).all():
        raise ValueError("density matrix must be finite")
    if np.abs(mat - mat.conj().T).max() > DM_TOL:
        raise ValueError("density matrix must be Hermitian")
    if abs(mat.trace() - 1.0) > DM_TOL:
        raise ValueError("density matrix must have unit trace")
    return mat


@dataclass(frozen=True)
class CorrelationTensor:
    """Expectation values T[i,j,k,l] of sigma_i x sigma_j x sigma_k x sigma_l.

    Indices run over AXES; entries are real and T_0000 = 1 for any
    unit-trace input.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (4, 4, 4, 4):
            raise ValueError("need a 4x4x4x4 real tensor")
        if abs(vals[0, 0, 0, 0] - 1.0) > DM_TOL or np.abs(vals).max() > 1.0 + DM_TOL:
            raise ValueError("values are not correlations of a unit-trace state")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __getitem__(self, labels: str) -> float:
        """Entry by a four-letter label over AXES, e.g. ``"0zxx"``."""
        if not (isinstance(labels, str) and len(labels) == 4 and set(labels) <= set(AXES)):
            raise ValueError(f"correlation label must be four letters of {AXES!r}; got {labels!r}")
        return float(self.values[tuple(AXES.index(a) for a in labels)])

    def purity(self) -> float:
        """Tr(rho^2) reassembled from the tensor; 1 for pure states."""
        return float(np.sum(self.values**2) / 16.0)

    def nonzero_terms(self, tol: float = 1e-10) -> tuple[str, ...]:
        """Labels of entries with |T| > tol, in lexicographic index order."""
        return tuple(_TERMS[t] for t in np.flatnonzero(self._nonzero(tol)))

    def _nonzero(self, tol: float = 1e-10) -> np.ndarray:
        """Mask of the entries with |T| > tol, by term index."""
        return np.abs(self.values.ravel()) > tol


def correlations(state) -> CorrelationTensor:
    """Full Pauli correlation tensor of a normalized state or density matrix."""
    rho = as_density(state).reshape((2,) * 8)
    t = np.einsum(
        "abcdefgh,iea,jfb,kgc,lhd->ijkl",
        rho,
        _PAULI_STACK,
        _PAULI_STACK,
        _PAULI_STACK,
        _PAULI_STACK,
    )
    if np.abs(t.imag).max() > 1e-12:
        raise ValueError("correlations of a Hermitian input must be real")
    return CorrelationTensor(t.real)


def _orbit(pattern: str) -> frozenset[str]:
    """Closure of a label pattern under the symmetries of the family.

    Generators: swap within the first pair, swap within the second pair,
    swap the two pairs.
    """
    seen = {pattern}
    frontier = [pattern]
    while frontier:
        t = frontier.pop()
        for u in (t[1] + t[0] + t[2:], t[:2] + t[3] + t[2], t[2:] + t[:2]):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


#: Members of each modulus class of the family's correlation tensor.
CLASS_MEMBERS = {
    "iiii": frozenset(a * 4 for a in AXES),
    "0z0z": _orbit("0z0z") | _orbit("xyxy"),
    "00zz": _orbit("00zz") | _orbit("xxyy"),
    "0x0x": frozenset().union(*(_orbit(i + j + i + j) for i in "0z" for j in "xy")),
    "00xx": frozenset().union(*(_orbit(i + i + j + j) for i in "0z" for j in "xy")),
}

_CLASS_REPRESENTATIVE = {"iiii": "zzzz", "0z0z": "0z0z", "00zz": "00zz",
                         "0x0x": "0x0x", "00xx": "00xx"}


def correlation_classes(gamma: float) -> dict[str, float]:
    """Moduli of the five correlation classes from the full tensor.

    This is the numeric counterpart of :func:`bellghz.family.class_moduli`.
    All members of a class must agree in modulus to 1e-10; disagreement
    signals a basis-convention bug and raises RuntimeError.
    """
    g = check_gamma(gamma)
    tensor = correlations(state_at(g).state)
    out = {}
    for name in CLASS_NAMES:
        moduli = sorted(abs(tensor[m]) for m in CLASS_MEMBERS[name])
        if moduli[-1] - moduli[0] > 1e-10:
            raise RuntimeError(
                f"correlation class {name} is not degenerate at gamma={g!r}: "
                f"spread {moduli[-1] - moduli[0]:.3e}"
            )
        out[name] = abs(tensor[_CLASS_REPRESENTATIVE[name]])
    return out


def fidelity(rho, gamma: float) -> float:
    """Overlap of rho with the ideal family state at gamma."""
    g = check_gamma(gamma)
    target = state_at(g).state.vec
    mat = as_density(rho)
    return float(np.vdot(target, mat @ target).real)


#: The 7 bipartitions of four qubits: every cut is named by its smaller
#: side, with qubit 0 kept on the named side for the 2|2 cuts.
BIPARTITIONS = ((0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3))
#: alpha^2 at which the (0,1) and (0,2) cuts give the same c (gamma = pi/12),
#: and the margin around it inside which both are computed
_CUT_SWITCH = 2.0 / 3.0
_CUT_MARGIN = 1e-9


def biseparable_bounds(gammas) -> list[float]:
    """Maximal overlap c(gamma) of the family state with any biseparable state.

    c is the largest squared Schmidt coefficient over the 7 bipartitions,
    the top singular value of the reshaped amplitude matrix.  The four
    1|3 cuts give exactly 1/2, because every single-qubit marginal is
    maximally mixed.  Of the 2|2 cuts, (0,1) gives max(alpha^2,
    (1 - alpha^2)/2) and (0,2) gives (|alpha|/2 + sqrt((1 - alpha^2)/2))^2,
    both at least 1/2; (0,3) is (0,2) again, since the state is symmetric
    under swapping qubits 3 and 4.  :func:`_bounds_at_alphas` says which
    cut is computed at which angle.
    """
    return _bounds_at_alphas([alpha(g) for g in gammas])


def _bounds_at_alphas(alphas: list[float]) -> list[float]:
    """c for the family states of the given Bell-pair amplitudes.

    Every value is the top singular value of one cut, squared.  The
    (0,1) cut decides c where alpha^2 > 2/3 (gamma < pi/12) and the (0,2)
    cut where alpha^2 < 2/3, so each cut is computed only on its side of
    the switch, widened by _CUT_MARGIN; inside that band both are and c
    is their maximum.  The margin is far above the rounding of alpha^2
    and of an SVD, and the (0,3) matrices equal the (0,2) ones entry for
    entry, so c has the bits of the maximum over all three cuts.

    Each cut builds the states of its own angles only and stacks them
    into one ``np.linalg.svd`` call; each stacked singular value equals
    the one of its matrix alone, and the amplitudes are elementwise, so a
    subset gets the bits the whole list would.  The
    squaring stays scalar, ``t ** 2`` on a Python float, which is libm
    ``pow``; numpy's array ``**2`` computes ``t * t`` and differs in the
    last bit for about one angle in 3,000.
    """
    a = np.asarray(alphas, dtype=float)
    a2 = a * a
    best = [0.0] * len(alphas)
    for cut, where in (((0, 1), a2 >= _CUT_SWITCH - _CUT_MARGIN),
                       ((0, 2), a2 <= _CUT_SWITCH + _CUT_MARGIN)):
        idx = np.flatnonzero(where)
        rest = tuple(q for q in range(4) if q not in cut)
        vecs = _amplitudes(a[idx]).reshape(-1, 2, 2, 2, 2)
        mats = vecs.transpose(0, *(q + 1 for q in cut + rest)).reshape(-1, 4, 4)
        tops = np.linalg.svd(mats, compute_uv=False)[:, 0].tolist()
        for i, t in zip(idx.tolist(), tops):
            best[i] = max(best[i], t**2)
    return best


def biseparable_bound(gamma: float) -> float:
    """Maximal overlap c(gamma) at one angle.

    The one-element case of :func:`biseparable_bounds`: the same stacked
    SVD per bipartition and the same scalar squaring, so one angle and a
    whole table give c to the same last bit.
    """
    return biseparable_bounds([gamma])[0]


class WitnessReport(NamedTuple):
    c: float
    fidelity: float
    witness_value: float
    detected: bool


def evaluate_witness(rho, gamma: float) -> WitnessReport:
    """Generic witness value c(gamma) - F(rho); negative means entanglement."""
    c = biseparable_bound(gamma)
    f = fidelity(rho, gamma)
    return WitnessReport(c, f, c - f, c - f < 0.0)


_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)


def pairwise_witness(state) -> tuple[float, float]:
    """Tr(W rho_pair) with W = I/2 - |psi+><psi+| on qubit pairs (1,2), (3,4).

    Negative values certify entanglement within the pair; the bound 1/2 is
    the maximal |psi+| overlap of separable two-qubit states.
    """
    rho = as_density(state).reshape((2,) * 8)
    front = np.einsum("abcdefcd->abef", rho).reshape(4, 4)
    back = np.einsum("abcdabgh->cdgh", rho).reshape(4, 4)

    def value(pair_rho: np.ndarray) -> float:
        return 0.5 - float(np.vdot(_PSI_PLUS, pair_rho @ _PSI_PLUS).real)

    return (value(front), value(back))


@dataclass(frozen=True)
class SettingCover:
    """A set of local measurement settings determining the fidelity.

    ``covered_terms`` maps each setting to every non-zero correlation term
    it yields; a setting yields all terms whose label at each slot is
    either 0 or the setting's letter there.
    """

    settings: tuple[str, ...]
    covered_terms: dict[str, tuple[str, ...]]


MAX_COVER_SETTINGS = 21


def setting_cover(gamma: float) -> SettingCover:
    """Greedy cover of the non-zero correlation terms by local settings.

    Ties break toward the lexicographically first setting, so the output
    is deterministic. Raises RuntimeError if more than MAX_COVER_SETTINGS
    settings would be needed; the family never requires that many.
    """
    g = check_gamma(gamma)
    nonzero = correlations(state_at(g).state)._nonzero()
    uncovered = nonzero.astype(int)
    chosen: list[int] = []
    while uncovered.any():
        # an integer score (a bool matmul is a logical OR); argmax keeps the
        # first maximum, and SETTINGS is lexicographic
        best = int(np.argmax(_YIELDS @ uncovered))
        chosen.append(best)
        uncovered *= 1 - _YIELDS[best]
        if len(chosen) > MAX_COVER_SETTINGS:
            raise RuntimeError(
                f"cover needs more than {MAX_COVER_SETTINGS} settings at gamma={g!r}"
            )
    return SettingCover(
        settings=tuple(SETTINGS[s] for s in chosen),
        covered_terms={
            SETTINGS[s]: tuple(_TERMS[t] for t in np.flatnonzero(_YIELDS[s] * nonzero))
            for s in chosen
        },
    )


def fidelity_from_cover(rho, gamma: float, cover: SettingCover | None = None) -> float:
    """Fidelity to the family state assembled only from covered terms.

    Exact for any rho when the cover was made for the same gamma: the
    target's projector expands over precisely its non-zero terms, all of
    which that cover yields.  Raises ValueError when the cover misses a
    non-zero term of the target, as a cover made for another gamma can.
    """
    g = check_gamma(gamma)
    if cover is None:
        cover = setting_cover(g)
    target = correlations(state_at(g).state)
    measured = correlations(rho)
    covered = np.zeros(len(_TERMS), dtype=bool)
    try:
        covered[[_TERM_INDEX[t] for terms in cover.covered_terms.values() for t in terms]] = True
    except KeyError as exc:
        raise ValueError(f"cover lists an unknown term {exc.args[0]!r}") from None
    missing = np.flatnonzero(target._nonzero() & ~covered)
    if missing.size:
        raise ValueError(
            f"cover does not yield the non-zero term {_TERMS[missing[0]]!r} of the "
            f"family state at gamma={g!r}; make the cover at the same gamma"
        )
    terms = np.flatnonzero(covered)
    # a sequential Python sum in term order: numpy's pairwise sum would round differently
    return sum((target.values.ravel()[terms] * measured.values.ravel()[terms]).tolist()) / 16.0


def haar_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def lu_invariance_check(gamma: float, trials: int = 100, seed: int = 7) -> float:
    """Max deviation of |<psi|U x U x U x U|psi>| from 1 over random U.

    Near zero only for states invariant under collective local unitaries;
    order one for generic family members.  Psi4+ also gives an order-one
    result: it equals (Z x Z x 1 x 1) Psi4-, so it is invariant only under
    the twisted group (ZUZ) x (ZUZ) x U x U.  Raises ValueError unless
    ``trials`` is a positive integer and ``seed`` a non-negative one.
    """
    g = check_gamma(gamma)
    trials = _nonnegative_int("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    vec = state_at(g).state.vec
    rng = np.random.default_rng(_nonnegative_int("seed", seed))
    worst = 0.0
    for _ in range(trials):
        u = haar_qubit_unitary(rng)
        u4 = np.kron(np.kron(u, u), np.kron(u, u))
        worst = max(worst, abs(1.0 - abs(np.vdot(vec, u4 @ vec))))
    return worst


def three_tangle(vec) -> float:
    """Residual tangle of a three-qubit pure state, 4|Det| of the amplitudes.

    Det is the degree-4 hyperdeterminant of the 2x2x2 amplitude tensor;
    it vanishes on product and W-class states and reaches 1/4 on GHZ.
    """
    a = np.asarray(vec, dtype=complex).reshape(8)
    if not np.isfinite(a).all():
        raise ValueError("amplitudes must be finite")
    norm = np.linalg.norm(a)
    if norm < 1e-12:
        raise ValueError("cannot compute the tangle of a null vector")
    a = a / norm
    d1 = (a[0] * a[7]) ** 2 + (a[1] * a[6]) ** 2 + (a[2] * a[5]) ** 2 + (a[4] * a[3]) ** 2
    d2 = (
        a[0] * a[7] * (a[3] * a[4] + a[5] * a[2] + a[6] * a[1])
        + a[3] * a[4] * a[5] * a[2]
        + a[3] * a[4] * a[6] * a[1]
        + a[5] * a[2] * a[6] * a[1]
    )
    d3 = a[0] * a[6] * a[5] * a[3] + a[7] * a[1] * a[2] * a[4]
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


class DickeProjection(NamedTuple):
    state: np.ndarray
    probability: float
    label: str
    tangle: float


_PROJECTION_VECTORS = {
    ("HV", "H"): np.array([1.0, 0.0], dtype=complex),
    ("HV", "V"): np.array([0.0, 1.0], dtype=complex),
    ("PM", "+"): np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    ("PM", "-"): np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
}


def dicke_projection(basis: str, outcome: str) -> DickeProjection:
    """Project qubit 4 of the Dicke state; classify the 3-qubit residue.

    Measuring in HV leaves W-class states, measuring in PM leaves
    GHZ-class states. The label is not taken on faith: the 3-tangle of
    the residue is computed and must match.
    """
    try:
        probe = _PROJECTION_VECTORS[(basis, outcome)]
    except KeyError:
        raise ValueError(
            "basis must be 'HV' (outcomes 'H','V') or 'PM' (outcomes '+','-')"
        ) from None
    vec = state_at(math.pi / 12).state.vec.reshape(8, 2)
    residue = vec @ probe.conj()
    prob = float(np.real(np.vdot(residue, residue)))
    if prob <= 1e-12:
        raise ValueError("projection outcome has zero probability")
    residue = residue / math.sqrt(prob)
    tangle = three_tangle(residue)
    label = "GHZ" if tangle > THREE_TANGLE_ZERO else "W"
    expected = "W" if basis == "HV" else "GHZ"
    if label != expected:
        raise RuntimeError(f"tangle check failed for {basis}/{outcome}: {tangle!r}")
    return DickeProjection(residue, prob, label, tangle)
