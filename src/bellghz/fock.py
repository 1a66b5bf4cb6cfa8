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
modes the expansion stays tiny, so exact substitution, planned once per
occupation pattern and run in float arrays, is both faster and more
transparent than a truncated matrix representation of each element.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import compress, zip_longest
from typing import Mapping, NamedTuple, Sequence

import numpy as np

#: Amplitudes at or below this magnitude are dropped after every expansion.
#: Set below double-precision accumulation error so pruning never touches
#: physically meaningful terms.
PRUNE_EPS = 1e-14

#: A transform matrix U must satisfy ||U^dag U - 1||_max <= this bound.
UNITARITY_TOL = 1e-12

#: Substitution plans :func:`apply_transform` keeps, least recently used out
#: first; the pipeline and its noise model use nine.
PLAN_CACHE_SIZE = 32

_FACT = [math.factorial(n) for n in range(25)]
_SQRT_FACT = [math.sqrt(f) for f in _FACT]


class Mode(NamedTuple):
    """One optical mode: a spatial path label and a polarization (H or V)."""

    spatial: str
    pol: str

    def __str__(self) -> str:
        return self.spatial + self.pol


@dataclass
class FockState:
    """Sparse multimode photon-number state.

    ``amps`` maps occupation vectors (one count per register mode, in
    register order) to complex amplitudes.  Treat instances as
    immutable; operations return new states.  Raises ValueError for an
    amplitude that is not a finite number.
    """

    register: tuple[Mode, ...]
    amps: dict[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            finite = all(map(cmath.isfinite, self.amps.values()))
        except (TypeError, OverflowError):  # not a number, or an int beyond float
            finite = False
        if not finite:
            raise ValueError("amps must hold finite complex amplitudes")
        n = len(self.register)
        if not set(map(len, self.amps)) <= {n}:
            occ = next(occ for occ in self.amps if len(occ) != n)
            raise ValueError(
                f"occupation vector of length {len(occ)} does not match "
                f"register of {n} modes"
            )

    @classmethod
    def vacuum(cls, register: Sequence[Mode]) -> "FockState":
        reg = tuple(register)
        return cls(reg, {(0,) * len(reg): 1.0 + 0.0j})

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def normalized(self) -> "FockState":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ValueError("cannot normalize an empty state")
        s = 1.0 / math.sqrt(n2)
        return FockState(self.register, {o: a * s for o, a in self.amps.items()})


@dataclass(frozen=True, eq=False)
class ModeTransform:
    """Unitary linear map on a subset of register modes.

    ``matrix[l, k]`` is the coefficient of mode ``modes[l]`` in the image
    of a creation operator on mode ``modes[k]``.  Raises ValueError for a
    matrix of the wrong shape, with a non-finite entry, or not unitary;
    ``matrix`` is a read-only copy.
    """

    modes: tuple[Mode, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        u = np.array(self.matrix, dtype=complex)
        k = len(self.modes)
        if u.shape != (k, k):
            raise ValueError(f"matrix shape {u.shape} does not match {k} modes")
        if not np.isfinite(u).all():  # a NaN deviation would pass the bound below
            raise ValueError("matrix must hold finite numbers")
        dev = np.max(np.abs(u.conj().T @ u - np.eye(k)))
        if dev > UNITARITY_TOL:
            raise ValueError(
                f"non-unitary transform: max |U^dag U - 1| = {dev:.3e} "
                f"exceeds {UNITARITY_TOL}"
            )
        u.flags.writeable = False
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
def _positions(register: tuple[Mode, ...], modes: tuple[Mode, ...]) -> tuple[int, ...]:
    """Register index of each of ``modes``; a table of the two mode lists alone."""
    return tuple(_position(register, m) for m in modes)


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
    the product of the factors u_l^m / m!.  Which products are formed,
    and which monomial each is added to, depends on the state's
    occupations, the transformed positions and the zero pattern of
    ``t.matrix`` alone, so :func:`_plan` works it out once per pattern.
    A call computes the factors as numpy scalars and runs the plan in
    float64 arrays: each complex product as its four real products, each
    rounded on its own as in numpy's scalar product (numpy's complex
    array ``*`` fuses them), and each sum as a ``bincount`` in the order
    of a term-by-term expansion, starting from +0.0.

    Padding with factors of 1 or 1+0j, multiplying or dividing by
    sqrt(0!) = sqrt(1!) = 1! = 1, and a level's identity gather or
    bincount of one entry per bin can change only the sign of a zero
    intermediate of finite amplitudes, never a nonzero bit, and every
    output amplitude is such a sum, so the result has the bits of the
    term-by-term expansion, each a ``numpy.complex128``.  A term with no
    photon in ``t.modes`` is passed on as the Python ``complex`` 0j + amp.
    """
    pos = _positions(tuple(state.register), tuple(t.modes))
    if not state.amps:
        return FockState(state.register, {})
    u = t.matrix
    plan = _plan(tuple(state.amps), pos, (np.hypot(u.real, u.imag) > 1e-16).tobytes())
    # each factor from a numpy scalar, whose ** can differ from complex's, and
    # a last 1+0j for padding; as rows (re, -im, im), picked for every cut
    f = np.ones(len(plan.cells) + 1, dtype=complex)
    u.take(plan.cells, out=f[:-1])
    for i, m in plan.powers:
        f[i] = f[i] ** m / _FACT[m]
    picked = np.array((f.real, -f.imag, f.imag)).take(plan.picks, axis=1)
    # (2, n): real parts, then imaginary parts, of the terms the transform touches
    x = np.fromiter(state.amps.values(), complex, len(state.amps)).view(float).reshape(-1, 2).T
    x = x.take(plan.touched, axis=1)
    for d in plan.divisors:
        x = x / d
    for scale, src, cuts, bins in plan.levels:
        x = (x * scale).take(src, axis=1)
        for cut in cuts:
            # (re, im) * (fr + i fi) = (re, im) * fr + (im, re) * (-fi, fi)
            x = x * picked[0, cut] + x[::-1] * picked[1:, cut]
        x = np.bincount(bins, x.ravel()).reshape(-1, 2).T
    for s in plan.scales:
        x = x * s
    z = np.bincount(plan.bins, x.ravel(), 2 * len(plan.keys)).view(complex)
    keep = (np.hypot(z.real, z.imag) > PRUNE_EPS).tolist()  # libm's, as abs() of a scalar
    amps = list(z)
    terms = list(state.amps.values())
    for i, term in plan.plain:
        amps[i] = 0j + complex(terms[term])
        keep[i] = abs(amps[i]) > PRUNE_EPS
    return FockState(state.register, dict(zip(compress(plan.keys, keep), compress(amps, keep))))


class _Plan(NamedTuple):
    """What :func:`apply_transform` forms from which operands, in which order.

    ``cells`` is the flat matrix index of each factor and ``powers`` the
    (factor, m) of those raised to m > 1 and divided by m!; ``picks`` indexes
    the factors, or with -1 the 1+0j after them, in every cut of every level.
    ``touched`` lists the terms with a transformed photon, and ``divisors``
    and ``scales`` hold per step the sqrt(n!) each of them is divided by and
    each final monomial multiplied by, padded with 1.  Each of ``levels`` is
    one substitution round, (scale, src, cuts, bins), each run in full even
    where it is the identity: each entry times ``scale``, read by the product
    rows at ``src``, each row times the factor picked at each of ``cuts``,
    and the rows added into the next entries by ``bins``.  ``bins`` adds the
    final monomials into the outputs ``keys``; ``plain`` pairs the output
    and the input term of each other term.  A ``bincount`` bin 2i holds a
    real part and 2i+1 an imaginary one.
    """

    cells: np.ndarray
    powers: tuple[tuple[int, int], ...]
    picks: np.ndarray
    touched: np.ndarray
    divisors: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray, tuple[slice, ...], np.ndarray], ...]
    scales: np.ndarray
    bins: np.ndarray
    keys: tuple[tuple[int, ...], ...]
    plain: tuple[tuple[int, int], ...]


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(occs: tuple[tuple[int, ...], ...], pos: tuple[int, ...], nonzero: bytes) -> _Plan:
    """The plan for states with the occupations ``occs``, transformed on the
    register positions ``pos`` by a matrix with nonzero entries where the
    k*k row-major booleans ``nonzero`` say: structure only, never an angle
    or an amplitude.  It walks the term-by-term expansion, one substitution
    round of every term at a time, and records in place of each multiply
    and add the operands it takes."""
    k = len(pos)
    reach = np.frombuffer(nonzero, dtype=bool).reshape(k, k)
    # the rows each column's nonzero entries reach: a monomial counts photons
    # on the k transformed modes, as an output occupation holds them at pos
    cols = [np.flatnonzero(reach[:, j]).tolist() for j in range(k)]
    factors: dict[tuple[int, int, int], int] = {}  # (l, j, m) -> its index
    # (j, n) -> per composition, the (row, photons) it adds and its factors
    expansions: dict[tuple[int, int], list[tuple[list[tuple[int, int]], list[int]]]] = {}
    # per term, the occupied columns it substitutes in turn; per term with
    # any, its monomials so far, each with its entry's index within the term
    rounds = [[(j, occ[p]) for j, p in enumerate(pos) if occ[p]] for occ in occs]
    touched = [i for i, r in enumerate(rounds) if r]
    polys = [{(0,) * k: 0} for _ in touched]
    levels, picks = [], []
    for r in range(max((len(rounds[i]) for i in touched), default=0)):
        scale, src, factor_lists, dst = [], [], [], []
        start = end = 0
        for t, i in enumerate(touched):
            poly = polys[t]
            if r < len(rounds[i]):
                j, nj = rounds[i][r]
                steps = expansions.get((j, nj))
                if steps is None:
                    steps = expansions[j, nj] = [
                        ([(l, m) for l, m in zip(cols[j], comp) if m],
                         [factors.setdefault((l, j, m), len(factors))
                          for l, m in zip(cols[j], comp) if m])
                        for comp in _compositions(nj, len(cols[j]))
                    ]
                grown: dict[tuple[int, ...], int] = {}
                for part, e in poly.items():
                    for moves, fs in steps:
                        tgt = list(part)
                        for l, m in moves:
                            tgt[l] += m
                        src.append(start + e)
                        factor_lists.append(fs)
                        dst.append(end + grown.setdefault(tuple(tgt), len(grown)))
            else:  # a term with fewer rounds carries its entries over unchanged
                nj, grown = 1, poly
                src += range(start, start + len(poly))
                factor_lists += [[]] * len(poly)
                dst += range(end, end + len(poly))
            scale += [float(_FACT[nj])] * len(poly)
            start, end, polys[t] = start + len(poly), end + len(grown), grown
        cuts = []
        for cut in _padded(factor_lists, -1):
            cuts.append(slice(len(picks), len(picks) + len(cut)))
            picks += cut.tolist()
        levels.append((np.array(scale), np.array(src, np.intp), tuple(cuts), _interleaved(dst)))
    # the outputs in the order the terms reach them; an untouched term keeps
    # its occupation, which no touched term can reach
    keys: dict[tuple[int, ...], int] = {}
    outs, plain = [], []
    touched_polys = iter(polys)
    for i, occ in enumerate(occs):
        if rounds[i]:
            for mono in next(touched_polys):
                out = list(occ)
                for p, n in zip(pos, mono):
                    out[p] = n
                outs.append(keys.setdefault(tuple(out), len(keys)))
        else:
            plain.append((keys.setdefault(occ, len(keys)), i))
    return _Plan(
        np.array([l * k + j for l, j, _ in factors], dtype=np.intp),
        tuple((i, m) for i, (_, _, m) in enumerate(factors) if m > 1),
        np.array(picks, dtype=np.intp),
        np.array(touched, dtype=np.intp),
        _padded([[_SQRT_FACT[n] for _, n in rounds[i] if n > 1] for i in touched], 1.0),
        tuple(levels),
        _padded([[_SQRT_FACT[n] for n in mono if n > 1] for poly in polys for mono in poly], 1.0),
        _interleaved(outs),
        tuple(keys),
        tuple(plain),
    )


def _padded(lists: list[list], fill) -> np.ndarray:
    """``lists`` as the columns of an array, the short ones padded with ``fill``."""
    return np.array(list(zip_longest(*lists, fillvalue=fill)))


def _interleaved(bins: list[int]) -> np.ndarray:
    """``bincount`` bins for (2, n) values: bin 2b for a real part, 2b+1 for an imaginary one."""
    return np.array([2 * b for b in bins] + [2 * b + 1 for b in bins], dtype=np.intp)


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
    try:
        pairs = _path_pairs(tuple(state.register), tuple(pattern.items()))
    except TypeError:  # a count the table cannot be keyed on, such as a list
        raise ValueError(
            f"pattern must map path labels to photon counts, got {pattern!r}"
        ) from None
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


@cache
def _path_pairs(
    register: tuple[Mode, ...], pattern: tuple[tuple[str, int], ...]
) -> tuple[tuple[int, int, int], ...]:
    """Each spatial path of ``register`` as an index pair (i, j) with occ[i] +
    occ[j] its photon total, and the total ``pattern`` wants there: its H and V
    modes, or a lone mode twice against twice the wanted count."""
    groups: dict[str, list[int]] = {}
    for i, m in enumerate(register):
        groups.setdefault(m.spatial, []).append(i)
    wanted = dict(pattern)
    unknown = set(wanted) - set(groups)
    if unknown:
        raise ValueError(f"pattern names spatial paths not in register: {sorted(unknown)}")
    pairs = []
    for sp, idxs in groups.items():
        want = wanted.get(sp, 0)
        if len(idxs) > 2:
            raise ValueError(f"spatial path {sp!r} has {len(idxs)} modes; at most H and V")
        pairs.append((idxs[0], idxs[-1], want if len(idxs) == 2 else 2 * want))
    return tuple(pairs)
