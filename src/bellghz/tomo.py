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
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .analysis import (
    SETTINGS, DensityMatrix, WitnessReport, _SETTING_TERMS, _density_from_terms,
    _density_matrix, as_density, evaluate_witness,
)
from ._checks import (
    MAX_SHOTS_PER_SETTING, RECONSTRUCTION_METHODS, _nonnegative_int, _parse, _real, _shown,
    check_gamma,
)
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

# entry [mask, o]: the product over the slots in subset mask of the sign (+1 for +,
# -1 for -) of outcome o; the first slot is the most significant bit of both
_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])
_SUBSET_SIGNS = np.kron(np.kron(_SIGNS, _SIGNS), np.kron(_SIGNS, _SIGNS))


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
# how many (setting, subset mask) pairs measure each term
_HITS = np.bincount(_SETTING_TERMS.ravel())


#: Count types that are real numbers and never bools, checked by type alone
_PLAIN_COUNTS = frozenset({int, float, np.float64})
_INTS, _FLOATS = frozenset({int}), frozenset({float})


@dataclass(frozen=True)
class CountRecord:
    """Observed (or idealized) counts of one measurement setting.

    Simulated counts are integers; exact frequency records carry the
    outcome probabilities.  Raises ValueError naming the field for an
    unknown setting or counts that are not 16 finite non-negative real
    numbers.  ``counts`` is stored as a tuple.
    """

    setting: str
    counts: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.setting, str) or self.setting not in _SETTING_INDEX:
            raise ValueError(f"unknown setting {_shown(self.setting)}")
        counts = self.counts
        try:
            kinds = set(map(type, counts))
            n = len(counts)
        except TypeError:
            n = None
        if n != 16:
            raise ValueError(f"counts must be 16 numbers, got {_shown(counts)}")
        if not kinds <= _PLAIN_COUNTS and any(
            isinstance(c, bool) or not isinstance(c, numbers.Real) for c in counts
        ):
            raise ValueError(f"counts must be real numbers, got {_shown(counts)}")
        # one count at a time only where a quicker look leaves doubt
        if kinds == _INTS:  # an exact int sum a float holds bounds every count
            plain = min(counts) >= 0 and sum(counts) <= sys.float_info.max
        elif kinds == _FLOATS:  # below infinity, a float sum leaves no NaN or infinity
            plain = min(counts) >= 0 and sum(counts) < math.inf
        else:
            plain = False
        if not plain and any(not 0 <= c <= sys.float_info.max for c in counts):
            raise ValueError("counts must be finite and non-negative, and convert to a float")
        if type(counts) is not tuple:  # an array breaks ==, and a list hash()
            object.__setattr__(self, "counts", tuple(counts))


def setting_probabilities(state, setting: str) -> np.ndarray:
    """Born-rule outcome probabilities of one setting, in outcome order.

    ``state`` is read by ``as_density``, which takes a DensityMatrix as checked.
    """
    rho = as_density(state)
    try:
        bra = _SETTING_BRAS[setting]
    except (KeyError, TypeError):  # TypeError: an unhashable setting
        raise ValueError(f"unknown setting {_shown(setting)}") from None
    return np.maximum(np.einsum("ij,jk,ik->i", bra, rho, bra.conj()).real, 0.0)


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
            f"{MAX_SHOTS_PER_SETTING:g}, got {_shown(shots_per_setting)}"
        )
    seed = _nonnegative_int("seed", seed)
    rho = _density_matrix(state)
    records = []
    for i, setting in enumerate(SETTINGS):
        rng = np.random.default_rng([seed, i])
        means = shots_per_setting * setting_probabilities(rho, setting)
        counts = rng.poisson(means)
        records.append(CountRecord(setting, tuple(counts.tolist())))
    return records


def exact_frequency_records(state) -> list[CountRecord]:
    """Infinite-statistics records: the counts are the outcome probabilities."""
    rho = _density_matrix(state)
    return [CountRecord(s, tuple(setting_probabilities(rho, s).tolist())) for s in SETTINGS]


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


def reconstruct(records: Iterable[CountRecord], method: str = "linear-inversion") -> DensityMatrix:
    """Invert relative frequencies into a density matrix.

    Every Pauli expectation with an identity slot is averaged over the
    3^(number of identity slots) settings that measure it. Linear
    inversion is exact on exact frequencies; physical projection
    additionally moves the spectrum to the nearest PSD unit-trace point.
    Raises ValueError unless ``records`` is an iterable of CountRecord
    holding each of the 81 settings once.
    """
    if method not in RECONSTRUCTION_METHODS:
        raise ValueError(f"method must be one of {RECONSTRUCTION_METHODS}")
    by_setting: dict[str, CountRecord] = {}
    for rec in _count_records(records):
        if rec.setting in by_setting:
            raise ValueError(f"duplicate record for setting {rec.setting!r}")
        by_setting[rec.setting] = rec
    missing = [s for s in SETTINGS if s not in by_setting]
    if missing:
        raise ValueError(
            f"missing {len(missing)} of 81 settings (first: {missing[0]!r})"
        )

    counts = np.array([by_setting[s].counts for s in SETTINGS], dtype=float)
    # numpy's pairwise sum along each row
    totals = counts.sum(axis=1)
    empty = np.flatnonzero(totals <= 0)
    if empty.size:
        raise ValueError(f"setting {SETTINGS[empty[0]]!r} has all-zero counts")
    # one matrix-vector product per setting: a batched matmul rounds differently
    expectations = np.array([_SUBSET_SIGNS @ f for f in counts / totals[:, None]])
    # bincount adds in input order, so each term sums its settings in SETTINGS order
    tensor = np.bincount(_SETTING_TERMS.ravel(), weights=expectations.ravel()) / _HITS
    mat = _density_from_terms(tensor)
    if method == "physical-projection":
        mat = _project_to_physical(mat)
    return DensityMatrix(mat)


def _count_records(records) -> list[CountRecord]:
    """``records`` as a list; ValueError unless it is an iterable of CountRecord."""
    try:
        records = list(records)
    except TypeError:
        raise ValueError(
            f"records must be an iterable of CountRecord, got {_shown(records)}"
        ) from None
    for rec in records:
        if not isinstance(rec, CountRecord):
            raise ValueError(f"records must hold CountRecord instances, got {_shown(rec)}")
    return records


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
    _nonnegative_int("seed", seed)
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
    """CSV dump with header setting,outcome,count; one row per outcome.

    Raises ValueError, before the file is opened, unless ``records`` is an
    iterable of CountRecord and ``path`` a str or path-like.
    """
    records = _count_records(records)
    with open(_parse("path", Path, path, "a str or path-like"), "w", newline="") as fh:
        lines = ["setting,outcome,count\n"]
        for rec in records:
            for outcome, count in zip(OUTCOMES, rec.counts):
                as_int = int(count)
                text = as_int if as_int == count else f"{count:.12g}"
                lines.append(f"{rec.setting},{outcome},{text}\n")
        fh.write("".join(lines))


def read_counts(path) -> list[CountRecord]:
    """Read a counts CSV back into records, tolerating missing zero rows.

    Every setting with a row is returned, an all-zero one too, which
    :func:`reconstruct` rejects.  Raises ValueError for a second row of the
    same setting and outcome.
    """
    table: dict[str, list[float]] = {}
    seen: set[tuple[str, str]] = set()
    with open(_parse("path", Path, path, "a str or path-like"), newline="") as fh:
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
            counts = table.get(setting)
            if counts is None:
                if setting not in _SETTING_INDEX:
                    raise ValueError(f"unknown setting {setting!r}")
                counts = table[setting] = [0.0] * 16
            slot = _OUTCOME_INDEX.get(outcome)
            if slot is None:
                raise ValueError(f"unknown outcome {outcome!r}")
            if (setting, outcome) in seen:
                raise ValueError(f"repeated row for setting {setting!r} and outcome {outcome!r}")
            seen.add((setting, outcome))
            counts[slot] += float(count)
    return [CountRecord(s, tuple(table[s])) for s in SETTINGS if s in table]
