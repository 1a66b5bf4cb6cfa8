"""Closed form of the two-Bell-pair / GHZ interpolation family.

The four-qubit family

    |Psi(gamma)> = alpha(gamma) |psi+>|psi+> + sqrt(1 - alpha^2) |GHZ>

lives on qubits (1,2,3,4) with |psi+> = (|HV> + |VH>)/sqrt(2) on pairs
(1,2) and (3,4) and |GHZ> = (|HHVV> + |VVHH>)/sqrt(2).  The generating
circuit fixes

    alpha(gamma) = 2 cos(4 gamma) / sqrt(48 p(gamma)) ,
    p(gamma)     = (5 - 4 cos(4 gamma) + 3 cos(8 gamma)) / 48 ,

where p is the four-fold coincidence probability.  alpha decreases
strictly from 1 at gamma = 0 (two Bell pairs) through 0 at pi/8 (GHZ)
to -sqrt(1/3) at pi/4; the sign flip matters for which superpositions
appear, even though most observable quantities depend on alpha^2 only.

This module is purely analytic.  The interferometric derivation of the
same states lives in :mod:`bellghz.circuit`; tests tie the two routes
together.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

GAMMA_MIN = 0.0
GAMMA_MAX = math.pi / 4

#: Qubit labels in tensor order; basis index = sum of bit_k << (3 - k)
#: with H = 0 and V = 1.
QUBITS = ("1", "2", "3", "4")

#: Modulus classes of the correlation tensor, named by one representative
#: index string over {0, x, y, z} (0 = identity slot).
CLASS_NAMES = ("iiii", "0z0z", "00zz", "0x0x", "00xx")


def _real(name: str, value) -> float:
    """``value`` as a float; ValueError naming it unless it is a real number.

    Ints, floats and numpy real scalars pass; bools, strings, complex
    numbers, None and arrays do not.  An int too large for a float gives
    an infinity of its sign, which every range check then rejects.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _nonnegative_int(name: str, value) -> int:
    """``value`` as an int; ValueError naming it unless it is an integer >= 0.

    Python and numpy integers pass; bools, floats (even integral ones)
    and strings do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def check_gamma(gamma: float) -> float:
    """``gamma`` as a float in [0, pi/4]; ValueError naming gamma otherwise."""
    # a float is the common case: alpha and probability check every angle they get
    g = (gamma if type(gamma) is float else _real("gamma", gamma)) + 0.0
    # -0.0 + 0.0 is +0.0: an angle of -0 is returned as 0
    if not GAMMA_MIN <= g <= GAMMA_MAX:
        raise ValueError(
            f"gamma must lie in [0, pi/4] = [0, {GAMMA_MAX!r}] rad; got {g!r}"
        )
    return g


def probability(gamma: float) -> float:
    """Four-fold coincidence probability p(gamma)."""
    g = check_gamma(gamma)
    return (5.0 - 4.0 * math.cos(4 * g) + 3.0 * math.cos(8 * g)) / 48.0


def alpha(gamma: float) -> float:
    """Bell-pair amplitude alpha(gamma); signed, in [-sqrt(1/3), 1]."""
    g = check_gamma(gamma)
    return 2.0 * math.cos(4 * g) / math.sqrt(48.0 * probability(g))


@dataclass(frozen=True)
class QubitState4:
    """Pure four-qubit state as 16 amplitudes in the computational basis."""

    vec: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        if v.shape != (16,):
            raise ValueError(f"need 16 amplitudes, got shape {np.shape(self.vec)}")
        object.__setattr__(self, "vec", v)

    def norm_sq(self) -> float:
        return float(np.vdot(self.vec, self.vec).real)

    def normalized(self) -> "QubitState4":
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return QubitState4(self.vec / n)

    def canonical(self) -> "QubitState4":
        """Fix the global phase: largest-modulus amplitude real positive."""
        i = int(np.argmax(np.abs(self.vec)))
        a = self.vec[i]
        if a == 0:
            raise ValueError("cannot fix the phase of a zero state")
        return QubitState4(self.vec * (abs(a) / a))

    def overlap(self, other: "QubitState4") -> complex:
        return complex(np.vdot(self.vec, other.vec))

    def density(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())


class FamilyPoint(NamedTuple):
    gamma: float
    alpha: float
    probability: float
    state: QubitState4


# |psi+>|psi+> spreads over the four single-V-per-pair terms;
# |GHZ> = (|HHVV> + |VVHH>)/sqrt(2)
_BELL_TERMS = [0b0101, 0b0110, 0b1001, 0b1010]
_GHZ_TERMS = [0b0011, 0b1100]


def _amplitudes(a):
    """The 16 amplitudes of the family state with Bell-pair amplitude ``a``.

    ``a`` is a float or an array of them; the basis index is the last
    axis, so N alphas give N state vectors from the same float operations
    as one.
    """
    a = np.asarray(a, dtype=float)
    vec = np.zeros(a.shape + (16,), dtype=complex)
    vec[..., _BELL_TERMS] = (a / 2.0)[..., None]
    vec[..., _GHZ_TERMS] = (np.sqrt(np.maximum(0.0, 1.0 - a * a)) / math.sqrt(2.0))[..., None]
    return vec


def state_at(gamma: float) -> FamilyPoint:
    """Family member at ``gamma``, built from the closed form."""
    g = check_gamma(gamma)
    a = alpha(g)
    return FamilyPoint(g, a, probability(g), QubitState4(_amplitudes(a)))


_BRANCHES = {
    # branch name -> (gamma interval, alpha range on it)
    "first": (GAMMA_MIN, math.pi / 8, 0.0, 1.0),
    "second": (math.pi / 8, GAMMA_MAX, -math.sqrt(1.0 / 3.0), 0.0),
}


def _brentq(
    f: Callable[[float], float],
    xa: float,
    xb: float,
    xtol: float,
    rtol: float = 4 * sys.float_info.epsilon,
    maxiter: int = 100,
) -> float:
    """Root of ``f`` in [xa, xb] by Brent's method.

    A step-for-step port of scipy's ``brentq.c`` (same defaults, same
    float operations in the same order), so it returns the same root to
    the last bit.  Each step interpolates (secant) or extrapolates
    (inverse quadratic) inside the bracket and falls back to bisection
    when that step is poor; it stops once half the bracket is below
    ``delta = (xtol + rtol*|x|)/2``.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Brent root search did not converge in {maxiter} iterations; last x={xcur!r}")


def gamma_for_alpha(target: float, branch: str = "first") -> float:
    """Invert alpha(gamma) on one of its two monotone branches.

    ``first`` covers gamma in [0, pi/8] where alpha runs 1 -> 0;
    ``second`` covers [pi/8, pi/4] where alpha runs 0 -> -sqrt(1/3).
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be 'first' or 'second', got {branch!r}")
    lo, hi, amin, amax = _BRANCHES[branch]
    t = _real("target", target)
    if not amin - 1e-12 <= t <= amax + 1e-12:
        raise ValueError(
            f"alpha={t!r} has no solution on the {branch} branch "
            f"(range [{amin!r}, {amax!r}])"
        )

    def f(g: float) -> float:
        return alpha(g) - t

    flo, fhi = f(lo), f(hi)
    if abs(flo) < 1e-14:
        return lo
    if abs(fhi) < 1e-14:
        return hi
    return _brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)


class CatalogEntry(NamedTuple):
    name: str
    gamma: float
    alpha: float


# Distinguished family members, in gamma order.  Every entry carries its
# exact closed-form alpha; entries without an exact gamma get it from the
# branch inversion.
_SQRT3 = math.sqrt(3.0)
_CATALOG_ROWS: tuple[tuple[str, float | None, float, str | None], ...] = (
    ("BellPair²", 0.0, 1.0, None),
    ("S^a", None, math.sqrt((3.0 + _SQRT3) / 6.0), "first"),
    ("D4(2)", math.pi / 12, math.sqrt(2.0 / 3.0), None),
    ("S^b", None, math.sqrt(0.5), "first"),
    ("Ψ4+", None, math.sqrt(1.0 / 3.0), "first"),
    ("S^c+", None, math.sqrt((3.0 - _SQRT3) / 6.0), "first"),
    ("GHZ", math.pi / 8, 0.0, None),
    ("S^c−", None, -math.sqrt((3.0 - _SQRT3) / 6.0), "second"),
    ("Ψ4−", math.pi / 4, -math.sqrt(1.0 / 3.0), None),
)


@cache
def catalog() -> tuple[CatalogEntry, ...]:
    """The nine distinguished states, sorted by gamma."""
    entries = []
    for name, g, a, branch in _CATALOG_ROWS:
        if g is None:
            g = gamma_for_alpha(a, branch)
        entries.append(CatalogEntry(name, g, a))
    entries.sort(key=lambda e: e.gamma)
    return tuple(entries)


# |T| of one representative per class as a function of alpha.  Each
# formula takes a float or a numpy array, so one definition serves both
# the point evaluation and the grid scan in :func:`find_crossings`.
def _class_iiii(a):
    return np.ones_like(a)


def _class_0z0z(a):
    return 1.0 - a * a


def _class_00zz(a):
    return abs(1.0 - 2.0 * a * a)


def _class_0x0x(a):
    return math.sqrt(2.0) * abs(a) * np.sqrt(np.maximum(0.0, 1.0 - a * a))


def _class_00xx(a):
    return a * a


_CLASS_FUNCS: dict[str, Callable] = {
    "iiii": _class_iiii,
    "0z0z": _class_0z0z,
    "00zz": _class_00zz,
    "0x0x": _class_0x0x,
    "00xx": _class_00xx,
}


def class_moduli(gamma: float) -> dict[str, float]:
    """Closed-form |T| of one representative per correlation class.

    The numeric route (full tensor expectation) lives in
    :mod:`bellghz.analysis`; keeping both allows them to check each
    other.
    """
    a = alpha(gamma)
    return {name: float(_CLASS_FUNCS[name](a)) for name in CLASS_NAMES}


def _grid_moduli(grid: np.ndarray) -> dict[str, np.ndarray]:
    """Class moduli over an array of angles inside [0, pi/4].

    alpha follows the same expression as :func:`alpha`, with numpy's
    cos, which may differ from :func:`math.cos` in the last bit.
    """
    c4 = np.cos(4 * grid)
    p = (5.0 - 4.0 * c4 + 3.0 * np.cos(8 * grid)) / 48.0
    a = 2.0 * c4 / np.sqrt(48.0 * p)
    return {name: _CLASS_FUNCS[name](a) for name in CLASS_NAMES}


class CrossingPoint(NamedTuple):
    gamma: float
    classes: tuple[str, str]


#: Any |difference| local minimum below this is treated as a candidate
#: tangential contact and refined; the closest non-crossing class pair
#: stays above 0.29 everywhere, so the margin is four orders.
_TOUCH_CANDIDATE = 1e-2
#: Refined |difference| must fall below this for a contact to count.
_TOUCH_ACCEPT = 1e-9
#: Spacing of the angle grid that brackets the crossings.
_CROSSING_STEP = 1e-4
#: Roots of one class pair closer than this are one crossing.
_CROSSING_DEDUPE = 1e-8


def _refine_stationary(diff: Callable[[float], float], lo: float, hi: float) -> float | None:
    """Locate a stationary point of ``diff`` inside (lo, hi) by bisecting
    on the sign of a central-difference slope.

    Works for smooth quadratic contacts and for the |alpha|-type kinks
    some class differences have; generic minimizers stall at sqrt(eps)
    relative accuracy, which is too coarse for the kinked case.  Returns
    None when the slope does not change sign (no stationary point,
    e.g. a transversal root already caught by bracketing).
    """
    h = 1e-9

    def rising(g: float) -> bool:
        return diff(g + h) >= diff(g - h)

    r_lo = rising(lo)
    if r_lo == rising(hi):
        return None
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if rising(mid) == r_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_crossings() -> list[CrossingPoint]:
    """Locate every gamma in (0, pi/4) where two class moduli meet.

    Transversal crossings are bracketed by sign changes on a
    ``_CROSSING_STEP`` grid and polished by Brent root finding.
    Tangential contacts (the GHZ point, where three classes touch 1 and
    two touch 0) produce no sign change; they appear as interior local
    minima of |difference| and are refined by bisecting on the sign of
    the slope instead.  Roots of the same class pair closer than
    ``_CROSSING_DEDUPE`` are merged.
    """
    grid = np.arange(_CROSSING_STEP, GAMMA_MAX, _CROSSING_STEP)
    points = grid.tolist()
    moduli = _grid_moduli(grid)
    found: list[CrossingPoint] = []
    for i in range(len(CLASS_NAMES)):
        for j in range(i + 1, len(CLASS_NAMES)):
            fa = _CLASS_FUNCS[CLASS_NAMES[i]]
            fb = _CLASS_FUNCS[CLASS_NAMES[j]]

            def diff(g: float) -> float:
                a = alpha(g)
                return float(fa(a) - fb(a))

            vals = moduli[CLASS_NAMES[i]] - moduli[CLASS_NAMES[j]]
            roots: list[float] = []
            for k in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
                roots.append(_brentq(diff, points[k], points[k + 1], xtol=1e-12))
            absvals = np.abs(vals)
            interior = np.flatnonzero(
                (absvals[1:-1] < absvals[:-2])
                & (absvals[1:-1] < absvals[2:])
                & (absvals[1:-1] < _TOUCH_CANDIDATE)
            )
            for k in interior + 1:
                g0 = _refine_stationary(diff, points[k - 1], points[k + 1])
                if g0 is not None and abs(diff(g0)) <= _TOUCH_ACCEPT:
                    roots.append(g0)
            roots.sort()
            merged: list[float] = []
            for r in roots:
                if not merged or r - merged[-1] > _CROSSING_DEDUPE:
                    merged.append(r)
            pair = (CLASS_NAMES[i], CLASS_NAMES[j])
            found.extend(CrossingPoint(r, pair) for r in merged)
    found.sort(key=lambda c: (c.gamma, c.classes))
    return found
