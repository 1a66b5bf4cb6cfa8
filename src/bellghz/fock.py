"""Exact bosonic Fock-state algebra over labeled optical modes.

States live in the occupation-number basis of a fixed, ordered mode
register.  A state is a sparse map from occupation vectors to complex
amplitudes, with the convention that the occupation ket |n> is unit
norm, i.e.

    (a_k^dag)^n |vac>  =  sqrt(n!) |n>_k .

Linear elements act by substitution on creation operators,

    a_k^dag  ->  sum_l  U[l, k] a_l^dag ,

followed by re-expansion into occupation vectors with the sqrt(n!)
bookkeeping restored.  At four to eight photons in at most sixteen
modes the expansion stays tiny, so exact dictionary arithmetic is both
faster and more transparent than a truncated matrix representation of
each element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

#: Amplitudes at or below this magnitude are dropped after every expansion.
#: Set below double-precision accumulation error so pruning never touches
#: physically meaningful terms.
PRUNE_EPS = 1e-14

#: A transform matrix U must satisfy ||U^dag U - 1||_max <= this bound.
UNITARITY_TOL = 1e-12

_FACT = [math.factorial(n) for n in range(25)]
_SQRT_FACT = [math.sqrt(f) for f in _FACT]


class Mode(NamedTuple):
    """One optical mode: a spatial path label and a polarization (H or V)."""

    spatial: str
    pol: str

    def __str__(self) -> str:
        return self.spatial + self.pol


def mode(label: str) -> Mode:
    """Parse a compact label such as ``"aH"`` into a :class:`Mode`."""
    if len(label) != 2 or label[1] not in "HV":
        raise ValueError(f"bad mode label {label!r}; expected e.g. 'aH' or 'eV'")
    return Mode(label[0], label[1])


@dataclass
class FockState:
    """Sparse multimode photon-number state.

    ``amps`` maps occupation vectors (one count per register mode, in
    register order) to complex amplitudes.  Treat instances as
    immutable; operations return new states.
    """

    register: tuple[Mode, ...]
    amps: dict[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.register)
        for occ in self.amps:
            if len(occ) != n:
                raise ValueError(
                    f"occupation vector of length {len(occ)} does not match "
                    f"register of {n} modes"
                )

    @classmethod
    def vacuum(cls, register: Sequence[Mode]) -> "FockState":
        reg = tuple(register)
        return cls(reg, {(0,) * len(reg): 1.0 + 0.0j})

    @classmethod
    def from_occupations(
        cls,
        register: Sequence[Mode],
        terms: Mapping[tuple[Mode, ...], complex],
    ) -> "FockState":
        """Build a state from sparse terms.

        Keys are tuples of :class:`Mode` entries listing each photon
        once, e.g. ``(aH, aH, bV)`` for two photons in aH and one in
        bV.  Amplitudes on coinciding occupations add.  Occupation
        vectors go to the constructor directly.
        """
        reg = tuple(register)
        index = {m: i for i, m in enumerate(reg)}
        amps: dict[tuple[int, ...], complex] = {}
        for key, amp in terms.items():
            vec = [0] * len(reg)
            for m in key:
                if m not in index:
                    raise ValueError(f"mode {m} not present in register")
                vec[index[m]] += 1
            occ = tuple(vec)
            amps[occ] = amps.get(occ, 0.0j) + complex(amp)
        return cls(reg, amps)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def normalized(self) -> "FockState":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ValueError("cannot normalize an empty state")
        s = 1.0 / math.sqrt(n2)
        return FockState(self.register, {o: a * s for o, a in self.amps.items()})

    def photon_numbers(self) -> set[int]:
        """Total photon counts present across terms."""
        return {sum(o) for o in self.amps}

    def is_empty(self) -> bool:
        return not self.amps


@dataclass(frozen=True)
class ModeTransform:
    """Unitary linear map on a subset of register modes.

    ``matrix[l, k]`` is the coefficient of mode ``modes[l]`` in the image
    of a creation operator on mode ``modes[k]``.
    """

    modes: tuple[Mode, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.matrix, dtype=complex)
        k = len(self.modes)
        if u.shape != (k, k):
            raise ValueError(f"matrix shape {u.shape} does not match {k} modes")
        dev = np.max(np.abs(u.conj().T @ u - np.eye(k)))
        if dev > UNITARITY_TOL:
            raise ValueError(
                f"non-unitary transform: max |U^dag U - 1| = {dev:.3e} "
                f"exceeds {UNITARITY_TOL}"
            )
        object.__setattr__(self, "matrix", u)

    def embedded(self, register: Sequence[Mode]) -> np.ndarray:
        """Expand to the full register, identity on untouched modes."""
        reg = tuple(register)
        pos = [_position(reg, m) for m in self.modes]
        full = np.eye(len(reg), dtype=complex)
        full[np.ix_(pos, pos)] = self.matrix
        return full


def _position(register: tuple[Mode, ...], m: Mode) -> int:
    try:
        return register.index(m)
    except ValueError:
        raise ValueError(f"mode {m} not present in register") from None


@cache
def _compositions(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All ways to distribute n photons over k slots, first slot slowest."""
    if k == 1:
        return ((n,),)
    return tuple(
        (first, *rest) for first in range(n + 1) for rest in _compositions(n - first, k - 1)
    )


def apply_transform(state: FockState, t: ModeTransform) -> FockState:
    """Apply a linear mode transform by operator substitution.

    Every term is rewritten in operator-polynomial form (amplitudes
    divided by the sqrt(n!) of its occupations), each affected creation
    operator is substituted through ``t.matrix``, and the resulting
    monomials are collected back into occupation vectors.

    Substituting (a_j^dag)^n gives one monomial per composition of n
    over the nonzero entries u_l of column j, with coefficient n! times
    the product of the factors u_l^m / m!.  Those factors depend on the
    column, n and the composition alone, so each is computed once per
    call, the first time a term needs it, and then multiplied into every
    term in the same order as a term-by-term expansion would.
    """
    pos = [_position(state.register, m) for m in t.modes]
    u = t.matrix
    k = len(pos)
    # nonzero entries per input mode; zero columns never spawn terms
    cols: list[list[tuple[int, complex]]] = [
        [(l, u[l, j]) for l in range(k) if abs(u[l, j]) > 1e-16] for j in range(k)
    ]
    # (j, n) -> per composition, the (target mode, photons, factor) of each
    # nonzero part; ul stays a numpy scalar, whose ** can differ from complex's
    expansions: dict[tuple[int, int], list[tuple[tuple[int, int, complex], ...]]] = {}
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.amps.items():
        sub = tuple(occ[p] for p in pos)
        coeff0 = complex(amp)
        for n in sub:
            coeff0 /= _SQRT_FACT[n]
        poly: dict[tuple[int, ...], complex] = {(0,) * k: coeff0}
        for j, nj in enumerate(sub):
            if nj == 0:
                continue
            steps = expansions.get((j, nj))
            if steps is None:
                col = cols[j]
                steps = expansions[j, nj] = [
                    tuple((l, nphot, ul ** nphot / _FACT[nphot])
                          for (l, ul), nphot in zip(col, comp) if nphot)
                    for comp in _compositions(nj, len(col))
                ]
            grown: dict[tuple[int, ...], complex] = {}
            for part, c in poly.items():
                base = c * _FACT[nj]
                for factors in steps:
                    cc = base
                    tgt = list(part)
                    for l, nphot, f in factors:
                        cc *= f
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


def compose(transforms: Iterable[ModeTransform], register: Sequence[Mode]) -> ModeTransform:
    """Collapse a sequence of transforms (applied first-to-last) into one.

    Equivalent to applying them in order, by the substitution rule's
    composition property: apply(apply(s, U), V) = apply(s, V @ U).
    """
    reg = tuple(register)
    total = np.eye(len(reg), dtype=complex)
    for t in transforms:
        total = t.embedded(reg) @ total
    return ModeTransform(reg, total)


def postselect(
    state: FockState, pattern: Mapping[str, int]
) -> tuple[FockState, float]:
    """Condition on exact photon counts per spatial path.

    ``pattern`` maps spatial labels to the required total photon count
    over that path's polarization modes.  Spatial paths absent from the
    pattern must be empty; the selection is an exclusive detection
    event.  Returns the renormalized surviving component and its
    squared-norm probability.  An empty survivor yields an empty state
    and probability 0.0 rather than a division by zero.
    """
    groups: dict[str, list[int]] = {}
    for i, m in enumerate(state.register):
        groups.setdefault(m.spatial, []).append(i)
    unknown = set(pattern) - set(groups)
    if unknown:
        raise ValueError(f"pattern names spatial paths not in register: {sorted(unknown)}")
    # each path as an index pair (i, j) with occ[i] + occ[j] its photon total:
    # its H and V modes, or a lone mode twice against twice the wanted count
    pairs = []
    for sp, idxs in groups.items():
        want = pattern.get(sp, 0)
        if len(idxs) > 2:
            raise ValueError(f"spatial path {sp!r} has {len(idxs)} modes; at most H and V")
        pairs.append((idxs[0], idxs[-1], want if len(idxs) == 2 else 2 * want))
    kept: dict[tuple[int, ...], complex] = {}
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


def overlap(s1: FockState, s2: FockState) -> complex:
    """Inner product <s1|s2> in the orthonormal occupation basis."""
    if s1.register != s2.register:
        raise ValueError("overlap requires identical mode registers")
    if len(s1.amps) > len(s2.amps):
        s1, s2 = s2, s1
        conj = True
    else:
        conj = False
    val = sum(s1.amps[o].conjugate() * s2.amps[o] for o in s1.amps if o in s2.amps)
    return complex(val).conjugate() if conj else complex(val)
