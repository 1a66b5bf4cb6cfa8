"""Tomography campaign simulation and density-matrix reconstruction.

The campaign measures all 81 local-basis settings (one letter of xyz per
qubit). Each setting yields 16 outcome counts, one per +/- tuple, drawn
from independent Poisson distributions; reconstruction inverts the
relative frequencies back into Pauli expectations.

Outcome indexing matches the qubit basis: outcome bit 0 is +, bit 1 is -,
and slot k of a setting or outcome string is qubit k+1.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .analysis import SETTINGS, WitnessReport, _PAULI_STACK, as_density, evaluate_witness
from .family import _nonnegative_int, _real, check_gamma
from .imperfections import NoiseConfig, noisy_density_matrix

_SETTING_INDEX = {s: i for i, s in enumerate(SETTINGS)}

#: Outcome strings in index order, "++++" through "----".
OUTCOMES = tuple(
    "".join("+-"[(o >> (3 - k)) & 1] for k in range(4)) for o in range(16)
)
_OUTCOME_INDEX = {o: i for i, o in enumerate(OUTCOMES)}

# Bras of the +/- eigenvectors per measurement letter, row 0 = +.
_BRAS = {
    "x": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
    "y": np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / math.sqrt(2.0),
    "z": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
}

# slot k of a setting (base 3), an outcome or a subset mask (base 2) is digit 3 - k;
# the AXES index of each setting's letters, and the bits of each outcome or mask
_SLOTS = np.arange(3, -1, -1)
_SETTING_AXES = 1 + np.arange(len(SETTINGS))[:, None] // 3**_SLOTS % 3
_BITS = np.arange(16)[:, None] >> _SLOTS & 1

# product over the slots in subset mask of the sign (+1 for +, -1 for -) of outcome o
_SUBSET_SIGNS = np.where(_BITS[:, None, :], 1 - 2 * _BITS, 1).prod(axis=2).astype(float)


def _kron_stack(stacks) -> np.ndarray:
    """Kronecker products of every choice of one matrix from each stack.

    Each stack is (n, rows, cols); entry i of the result is the product
    of the matrices at the digits of i in the mixed radix of the stack
    sizes, first stack most significant, multiplied left to right like
    repeated ``np.kron``, so every entry has the same bits.
    """
    out = stacks[0]
    for stack in stacks[1:]:
        (n, r, c), (m, s, t) = out.shape, stack.shape
        out = (out[:, None, :, None, :, None] * stack[None, :, None, :, None, :]).reshape(
            n * m, r * s, c * t
        )
    return out


_SETTING_BRAS = dict(zip(SETTINGS, _kron_stack([np.stack([_BRAS[a] for a in "xyz"])] * 4)))

# the 256 four-qubit Pauli products, term t = 64 a + 16 b + 4 c + d over AXES;
# adding 0.0 turns the -0.0 that products of Pauli entries can give into +0.0
_SIGMA = _kron_stack([_PAULI_STACK] * 4) + 0.0
# term each (setting, subset mask) measures, setting-major: the setting's axis on
# the mask's slots and the identity elsewhere; and how often each term is measured
_TERM_OF = ((_SETTING_AXES[:, None, :] * _BITS) @ 4**_SLOTS).ravel()
_HITS = np.bincount(_TERM_OF)


@dataclass(frozen=True)
class CountRecord:
    """Observed (or idealized) counts of one measurement setting.

    ``shots`` is the duration equivalent: the expected total number of
    events for the setting. Simulated counts are integers; exact
    frequency records carry the unrounded expectations.
    """

    setting: str
    counts: tuple[float, ...]
    shots: float

    def __post_init__(self):
        if self.setting not in _SETTING_INDEX:
            raise ValueError(f"unknown setting {self.setting!r}")
        if len(self.counts) != 16:
            raise ValueError("need one count per 16 outcomes")
        if any(not 0 <= c < math.inf for c in self.counts):
            raise ValueError("counts must be finite and non-negative")
        if not 0 < self.shots < math.inf:
            raise ValueError("shots must be finite and positive")


@dataclass(frozen=True)
class DensityMatrix:
    """Reconstructed 16x16 state, Hermitian with unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = as_density(np.array(self.matrix, dtype=complex))
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
        data = json.loads(text)
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


def setting_probabilities(state, setting: str) -> np.ndarray:
    """Born-rule outcome probabilities of one setting, in outcome order."""
    rho = as_density(state)
    try:
        bra = _SETTING_BRAS[setting]
    except KeyError:
        raise ValueError(f"unknown setting {setting!r}") from None
    probs = np.einsum("ij,jk,ik->i", bra, rho, bra.conj()).real
    return np.clip(probs, 0.0, None)


#: Largest Poisson mean per setting; numpy's sampler refuses means above about 9.2e18.
MAX_SHOTS_PER_SETTING = 1e18


def simulate_counts(state, shots_per_setting: float, seed: int) -> list[CountRecord]:
    """Poisson counts for the whole campaign, one RNG stream per setting.

    The stream for setting i is seeded with (seed, i), so any subset of
    settings can be regenerated independently and in any order.  Raises
    ValueError unless 1 <= shots_per_setting <= MAX_SHOTS_PER_SETTING,
    which also rejects NaN and infinity, or unless ``seed`` is a
    non-negative integer.
    """
    _real("shots_per_setting", shots_per_setting)
    if not 1 <= shots_per_setting <= MAX_SHOTS_PER_SETTING:
        raise ValueError(
            f"shots_per_setting must be finite, at least 1 and at most "
            f"{MAX_SHOTS_PER_SETTING:g}, got {shots_per_setting!r}"
        )
    seed = _nonnegative_int("seed", seed)
    rho = as_density(state)
    records = []
    for i, setting in enumerate(SETTINGS):
        rng = np.random.default_rng([seed, i])
        means = shots_per_setting * setting_probabilities(rho, setting)
        counts = rng.poisson(means)
        records.append(CountRecord(setting, tuple(int(c) for c in counts),
                                   float(shots_per_setting)))
    return records


def exact_frequency_records(state, shots: float = 1.0) -> list[CountRecord]:
    """Infinite-statistics records: counts equal shots times probability.

    Raises ValueError unless ``shots`` is a finite real number above 0.
    """
    real = isinstance(shots, numbers.Real) and not isinstance(shots, bool)
    if not (real and 0 < shots <= sys.float_info.max):
        raise ValueError(f"shots must be a finite real number above 0, got {shots!r}")
    rho = as_density(state)
    return [
        CountRecord(s, tuple(float(shots) * setting_probabilities(rho, s)), float(shots))
        for s in SETTINGS
    ]


def _project_to_physical(mat: np.ndarray) -> np.ndarray:
    """Nearest PSD unit-trace matrix in Frobenius norm.

    Works on the spectrum: eigenvalues are projected onto the probability
    simplex (shift by a constant, clip at zero, renormalize via the shift).
    This is the projection of Smolin, Gambetta and Smith, "Efficient
    method for computing the maximum-likelihood quantum state from
    measurements with additive Gaussian noise", PRL 108, 070502 (2012).
    """
    vals, vecs = np.linalg.eigh(mat)
    u = np.sort(vals)[::-1]
    cumulative = np.cumsum(u)
    k = np.nonzero(u * np.arange(1, len(u) + 1) > (cumulative - 1.0))[0][-1]
    theta = (cumulative[k] - 1.0) / (k + 1)
    clipped = np.maximum(vals - theta, 0.0)
    return (vecs * clipped) @ vecs.conj().T


RECONSTRUCTION_METHODS = ("linear-inversion", "physical-projection")


def reconstruct(records: Iterable[CountRecord], method: str = "linear-inversion") -> DensityMatrix:
    """Invert relative frequencies into a density matrix.

    Every Pauli expectation with an identity slot is averaged over the
    3^(number of identity slots) settings that measure it. Linear
    inversion is exact on exact frequencies; physical projection
    additionally moves the spectrum to the nearest PSD unit-trace point.
    """
    if method not in RECONSTRUCTION_METHODS:
        raise ValueError(f"method must be one of {RECONSTRUCTION_METHODS}")
    by_setting: dict[str, CountRecord] = {}
    for rec in records:
        if rec.setting in by_setting:
            raise ValueError(f"duplicate record for setting {rec.setting!r}")
        by_setting[rec.setting] = rec
    missing = [s for s in SETTINGS if s not in by_setting]
    if missing:
        raise ValueError(
            f"missing {len(missing)} of 81 settings (first: {missing[0]!r})"
        )

    expectations = np.empty((len(SETTINGS), 16))
    for i, setting in enumerate(SETTINGS):
        counts = np.asarray(by_setting[setting].counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValueError(f"setting {setting!r} has all-zero counts")
        expectations[i] = _SUBSET_SIGNS @ (counts / total)
    # bincount adds in input order, so each term sums its settings in SETTINGS order
    tensor = np.bincount(_TERM_OF, weights=expectations.ravel()) / _HITS
    mat = np.einsum("t,tij->ij", tensor, _SIGMA) / 16.0
    if method == "physical-projection":
        mat = _project_to_physical(mat)
    return DensityMatrix(mat)


def reconstruct_and_report(
    gamma: float,
    cfg: NoiseConfig,
    shots: float | None = None,
    seed: int = 0,
    method: str = "physical-projection",
) -> tuple[WitnessReport, DensityMatrix]:
    """End-to-end loop: noisy state, counts, reconstruction, witness.

    ``shots=None`` uses exact frequencies instead of Poisson sampling.
    Raises RuntimeError when the sampled counts of some setting are all
    zero, since more shots are needed to reconstruct.
    """
    g = check_gamma(gamma)
    rho = noisy_density_matrix(g, cfg)
    if shots is None:
        records = exact_frequency_records(rho)
    else:
        records = simulate_counts(rho, shots, seed)
        # a Poisson draw that leaves a setting empty is a numeric failure of
        # valid input, unlike an all-zero setting in the caller's own records
        empty = [rec.setting for rec in records if not any(rec.counts)]
        if empty:
            raise RuntimeError(
                f"{shots!r} shots per setting left {len(empty)} of 81 settings without "
                f"counts (first: {empty[0]!r}); more shots are needed"
            )
    dm = reconstruct(records, method=method)
    return evaluate_witness(dm, g), dm


def write_counts(records: Sequence[CountRecord], path) -> None:
    """CSV dump with header setting,outcome,count; one row per outcome."""
    with open(Path(path), "w", newline="") as fh:
        lines = ["setting,outcome,count\n"]
        for rec in records:
            for outcome, count in zip(OUTCOMES, rec.counts):
                as_int = int(count)
                text = as_int if as_int == count else f"{count:.12g}"
                lines.append(f"{rec.setting},{outcome},{text}\n")
        fh.write("".join(lines))


def read_counts(path) -> list[CountRecord]:
    """Read a counts CSV back into records, tolerating missing zero rows."""
    table: dict[str, list[float]] = {}
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["setting", "outcome", "count"]:
            raise ValueError("expected header setting,outcome,count")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"malformed row: {row!r}")
            setting, outcome, count = row
            if setting not in _SETTING_INDEX:
                raise ValueError(f"unknown setting {setting!r}")
            if outcome not in _OUTCOME_INDEX:
                raise ValueError(f"unknown outcome {outcome!r}")
            table.setdefault(setting, [0.0] * 16)[_OUTCOME_INDEX[outcome]] += float(count)
    present = [s for s in SETTINGS if s in table]
    # numpy's pairwise sum per setting; a sequential Python sum would round differently
    totals = np.array([table[s] for s in present]).reshape(-1, 16).sum(axis=1).tolist()
    records = []
    for setting, total in zip(present, totals):
        if total <= 0:
            raise ValueError(f"setting {setting!r} has all-zero counts")
        records.append(CountRecord(setting, tuple(table[setting]), total))
    return records
