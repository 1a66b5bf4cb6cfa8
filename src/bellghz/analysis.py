"""Correlation tensors, entanglement witnesses, and structural state checks.

Everything here works on four-qubit states in the computational basis of
:mod:`bellghz.family` (H is the +z eigenstate, qubit order e, f, g, h).
Density matrices are accepted anywhere a state is: 16x16 arrays, ``.matrix``
carriers, and the checked :class:`DensityMatrix` (re-exported by tomo).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import _nonnegative_int, _parse, _real, _shown, check_gamma
from .family import CLASS_NAMES, QubitState4, _amplitude_vector, _amplitudes, alpha, state_at

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


def _setting_terms() -> np.ndarray:
    """The term each setting measures on each subset of its slots.

    Entry [s, mask] is the term with setting s's axis on the slots in
    mask and the identity elsewhere; the first slot is the most
    significant digit of s, mask and the term, so each row ascends.
    """
    digit = np.arange(1, 4)[:, None] * np.arange(2)  # AXES index of letter x, y, z off/on
    terms = np.add.outer(np.add.outer(64 * digit, 16 * digit), np.add.outer(4 * digit, digit))
    return terms.transpose(0, 2, 4, 6, 1, 3, 5, 7).reshape(len(SETTINGS), 16)


_SETTING_TERMS = _setting_terms()


def _pauli_gather() -> tuple[np.ndarray, np.ndarray]:
    """Where each correlation term reads rho, and with which phase.

    sigma_t has one non-zero entry per column r, in row r ^ flip, where
    flip has a bit set at each x or y slot of t.  Entry [r, t] of the
    first table is the flat index of rho[r, r ^ flip], and of the second
    the entry of sigma_t that multiplies it.  Rows and terms run first
    slot most significant, as in np.kron.
    """
    flips = np.array([0, 1, 1, 0])  # per axis of AXES
    bits = np.arange(2)[:, None]
    # the entry of each Pauli matrix in column `bit`, per bit and axis
    slot = _PAULI_STACK[np.arange(4), bits ^ flips, bits]
    phases = np.kron(np.kron(slot, slot), np.kron(slot, slot))
    term_flips = np.add.outer(np.add.outer(8 * flips, 4 * flips), np.add.outer(2 * flips, flips))
    rows = np.arange(16)[:, None]
    return 16 * rows + (rows ^ term_flips.ravel()), phases


_GATHER, _PHASES = _pauli_gather()

DM_TOL = 1e-9
#: 3-tangle magnitudes below this count as zero (W class).
THREE_TANGLE_ZERO = 1e-6


def as_density(state, name: str = "state") -> np.ndarray:
    """Coerce a state, 16x16 array, or ``.matrix`` carrier to a density matrix.

    A read-only DensityMatrix's matrix is returned unchecked; otherwise ValueError,
    naming ``name``, unless the result is finite and Hermitian with unit trace to within DM_TOL.
    """
    if isinstance(state, DensityMatrix) and not state.matrix.flags.writeable:
        return state.matrix
    if isinstance(state, QubitState4):
        mat = state.density()
    else:
        try:
            mat = np.asarray(getattr(state, "matrix", state), dtype=complex)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"{name} must be a QubitState4 or a 16x16 matrix of numbers, "
                f"got {type(state).__name__}"
            ) from None
    if mat.shape != (16, 16):
        raise ValueError(f"{name} must be a 16x16 density matrix, got shape {mat.shape}")
    # the ufuncs' own reductions: .all() and .max() would each add a Python call
    if not np.logical_and.reduce(np.isfinite(mat), axis=None):
        raise ValueError(f"{name} must be a finite density matrix")
    if np.maximum.reduce(np.abs(mat - mat.conj().T), axis=None) > DM_TOL:
        raise ValueError(f"{name} must be a Hermitian density matrix")
    if abs(mat.trace() - 1.0) > DM_TOL:
        raise ValueError(f"{name} must be a density matrix with unit trace")
    return mat


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A checked 16x16 state, Hermitian with unit trace; its matrix is read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        self._own(as_density(self.matrix, "matrix"))

    def _own(self, mat: np.ndarray) -> None:
        """Hold a read-only copy of the checked matrix ``mat``."""
        # np.array keeps the input's memory order, on which later products' last bits depend
        mat = np.array(mat)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def to_json(self) -> str:
        return json.dumps(
            {"real": self.matrix.real.tolist(), "imag": self.matrix.imag.tolist()},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DensityMatrix":
        data = _parse("text", json.loads, text, "a JSON str or bytes")
        if not isinstance(data, dict) or set(data) != {"real", "imag"}:
            raise ValueError("expected a JSON object with 'real' and 'imag'")
        try:
            real, imag = (np.array(data[key], dtype=object) for key in ("real", "imag"))
            # bools, null, strings, objects and ragged rows are not numbers
            if any(type(x) not in (int, float) for x in (*real.flat, *imag.flat)):
                raise TypeError("entries must be numbers")
            if real.shape != imag.shape:
                raise ValueError(f"shapes {real.shape} and {imag.shape} differ")
            mat = real.astype(float) + 1j * imag.astype(float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"'real' and 'imag' must be matrices of numbers: {exc}") from None
        return cls(mat)


def _density_matrix(state) -> DensityMatrix:
    """``DensityMatrix(state)``, checking ``state`` once and naming it ``state``."""
    dm = object.__new__(DensityMatrix)
    dm._own(as_density(state))
    return dm


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """Expectation values T[i,j,k,l] of sigma_i x sigma_j x sigma_k x sigma_l.

    Indices run over AXES; entries are real and T_0000 = 1 for any
    unit-trace input.  Raises ValueError naming ``values`` unless they
    are a finite real 4x4x4x4 tensor with those properties.
    """

    values: np.ndarray

    def __post_init__(self):
        try:
            # numpy casts a complex array to float with a warning only
            if np.iscomplexobj(self.values):
                raise TypeError
            vals = np.array(self.values, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"values must be real numbers, got {type(self.values).__name__}"
            ) from None
        if vals.shape != (4, 4, 4, 4):
            raise ValueError(f"values must be a 4x4x4x4 real tensor, got shape {vals.shape}")
        # negated, so that a NaN, which fails both comparisons, is rejected too
        if not (abs(vals[0, 0, 0, 0] - 1.0) <= DM_TOL and np.abs(vals).max() <= 1.0 + DM_TOL):
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
        """Labels of entries with |T| > tol, in lexicographic index order.

        Raises ValueError naming ``tol`` unless it is a finite real number >= 0.
        """
        tol = _real("tol", tol)
        if not 0 <= tol < math.inf:
            raise ValueError(f"tol must be a finite real number >= 0, got {tol!r}")
        return tuple(_TERMS[t] for t in np.flatnonzero(self._nonzero(tol)))

    def _nonzero(self, tol: float = 1e-10) -> np.ndarray:
        """Mask of the entries with |T| > tol, by term index."""
        return np.abs(self.values.ravel()) > tol


def correlations(state) -> CorrelationTensor:
    """Full Pauli correlation tensor of a normalized state or density matrix."""
    return _correlations(as_density(state))


def _correlations(rho: np.ndarray) -> CorrelationTensor:
    """Correlation tensor of a density matrix that :func:`as_density` checked.

    Entry t is Tr(rho sigma_t), the Pauli-sum definition term by term:
    the 16 non-zero products rho[r, r ^ flip] sigma_t[r ^ flip, r], added
    one after another in row order starting from +0.
    """
    t = np.add.reduce(rho.ravel()[_GATHER] * _PHASES, axis=0, initial=0.0)
    if np.abs(t.imag).max() > 1e-12:
        raise ValueError("correlations of a Hermitian input must be real")
    return CorrelationTensor(t.real.reshape(4, 4, 4, 4))


def _density_from_terms(t: np.ndarray) -> np.ndarray:
    """The matrix sum_t T_t sigma_t / 16 of 256 real terms, inverting correlations.

    Each T_t times the phase of sigma_t lands on the entry that
    :func:`correlations` reads for term t; bincount adds the real and the
    imaginary parts per entry in term order, starting from +0.0.
    """
    real, imag = (np.bincount(_GATHER.ravel(), weights=(t * phases).ravel())
                  for phases in (_PHASES.real, _PHASES.imag))
    # in C order: a matmul or einsum on the result rounds by its memory order
    return np.ascontiguousarray((real + 1j * imag).reshape(16, 16).T) / 16.0


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
    mat = as_density(rho, "rho")
    return float(np.vdot(target, mat @ target).real)


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
    cut is computed at which angle.  Raises ValueError unless ``gammas``
    is an iterable of angles in range.
    """
    try:
        if isinstance(gammas, (str, bytes)):  # iterable, but of characters
            raise TypeError
        gammas = iter(gammas)
    except TypeError:
        raise ValueError(f"gammas must be an iterable of angles, got {_shown(gammas)}") from None
    try:
        alphas = [alpha(g) for g in gammas]
    except ValueError as exc:  # check_gamma's, which names gamma alone
        raise ValueError(f"gammas holds a bad angle: {exc}") from None
    return _bounds_at_alphas(alphas)


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
    whole table give c to the same last bit; a bad angle is named ``gamma``.
    """
    return _bounds_at_alphas([alpha(gamma)])[0]


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

    covered_terms: dict[str, tuple[str, ...]]

    @property
    def settings(self) -> tuple[str, ...]:
        """The settings, in the order they were chosen."""
        return tuple(self.covered_terms)


MAX_COVER_SETTINGS = 21


def setting_cover(gamma: float) -> SettingCover:
    """Greedy cover of the non-zero correlation terms by local settings.

    Ties break toward the lexicographically first setting, so the output
    is deterministic. Raises RuntimeError if more than MAX_COVER_SETTINGS
    settings would be needed; the family never requires that many.
    """
    g = check_gamma(gamma)
    nonzero = correlations(state_at(g).state)._nonzero()
    uncovered = nonzero.copy()
    chosen: list[int] = []
    while uncovered.any():
        # argmax keeps the first maximum, and SETTINGS is lexicographic
        best = int(np.argmax(uncovered[_SETTING_TERMS].sum(axis=1)))
        chosen.append(best)
        uncovered[_SETTING_TERMS[best]] = False
        if len(chosen) > MAX_COVER_SETTINGS:
            raise RuntimeError(
                f"cover needs more than {MAX_COVER_SETTINGS} settings at gamma={g!r}"
            )
    return SettingCover({
        SETTINGS[s]: tuple(_TERMS[t] for t in _SETTING_TERMS[s].tolist() if nonzero[t])
        for s in chosen
    })


def fidelity_from_cover(rho, gamma: float, cover: SettingCover | None = None) -> float:
    """Fidelity to the family state assembled only from covered terms.

    Exact for any rho when the cover was made for the same gamma: the
    target's projector expands over precisely its non-zero terms, all of
    which that cover yields.  Raises ValueError when the cover misses a
    non-zero term of the target, as a cover made for another gamma can,
    or when ``cover`` is neither a SettingCover nor None.
    """
    g = check_gamma(gamma)
    if cover is None:
        cover = setting_cover(g)
    elif not isinstance(cover, SettingCover):
        raise ValueError(f"cover must be a SettingCover or None, got {_shown(cover)}")
    target = correlations(state_at(g).state)
    measured = _correlations(as_density(rho, "rho"))
    covered = np.zeros(len(_TERMS), dtype=bool)
    try:
        covered[[_TERM_INDEX[t] for terms in cover.covered_terms.values() for t in terms]] = True
    except KeyError as exc:
        raise ValueError(f"cover lists an unknown term {_shown(exc.args[0])}") from None
    except (AttributeError, TypeError):  # not a dict of iterables of hashable labels
        raise ValueError(
            f"cover must map settings to term labels, got {_shown(cover.covered_terms)}"
        ) from None
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


#: Most random unitaries one :func:`lu_invariance_check` draws (~0.1 ms each).
MAX_LU_TRIALS = 10_000


def lu_invariance_check(gamma: float, trials: int = 100, seed: int = 7) -> float:
    """Max deviation of |<psi|U x U x U x U|psi>| from 1 over random U.

    Near zero only for states invariant under collective local unitaries;
    order one for generic family members.  Psi4+ also gives an order-one
    result: it equals (Z x Z x 1 x 1) Psi4-, so it is invariant only under
    the twisted group (ZUZ) x (ZUZ) x U x U.  Raises ValueError unless
    ``trials`` is an integer in [1, MAX_LU_TRIALS] and ``seed`` a
    non-negative one.
    """
    g = check_gamma(gamma)
    trials = _nonnegative_int("trials", trials)
    if not 1 <= trials <= MAX_LU_TRIALS:
        raise ValueError(f"trials must lie in [1, {MAX_LU_TRIALS}], got {_shown(trials)}")
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
    Raises ValueError naming ``vec`` unless it holds 8 finite numbers.
    """
    a = _amplitude_vector("vec", vec, 8)
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
    except (KeyError, TypeError):  # TypeError: an unhashable basis or outcome
        raise ValueError(
            "basis must be 'HV' (outcome 'H' or 'V') or 'PM' (outcome '+' or '-'), "
            f"got basis={_shown(basis)}, outcome={_shown(outcome)}"
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
