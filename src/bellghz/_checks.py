"""Input checks that need no numpy at import.

The CLI runs them on its flags before any command loads numpy, so a
usage error costs no numeric import; the library modules import them
from here.  :func:`_numbers`, the one reader of array arguments, imports
numpy when it is called.
"""

from __future__ import annotations

import math
import numbers

GAMMA_MIN = 0.0
GAMMA_MAX = math.pi / 4

#: Largest Poisson mean per setting; numpy's sampler refuses means above about 9.2e18.
MAX_SHOTS_PER_SETTING = 1e18

#: Most rows ``bellghz sweep`` writes; a million take about 8 s and 0.3 GB.
MAX_SWEEP_STEPS = 10**6

#: The methods :func:`bellghz.tomo.reconstruct` takes.
RECONSTRUCTION_METHODS = ("linear-inversion", "physical-projection")


def _shown(value) -> str:
    """``repr(value)``, or only its type where Python refuses to print an int in it."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _real(name: str, value) -> float:
    """``value`` as a float; ValueError naming it unless it is a real number.

    Ints, floats and numpy real scalars pass; bools, strings, complex
    numbers, None and arrays do not.  An int too large for a float gives
    an infinity of its sign, which every range check then rejects.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {_shown(value)}")
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
        raise ValueError(f"{name} must be a non-negative integer, got {_shown(value)}")
    return int(value)


def _instance(name: str, value, cls: type) -> None:
    """ValueError naming ``name`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _shots(name: str, shots) -> None:
    """ValueError naming ``name`` unless ``shots`` is a real number in
    [1, MAX_SHOTS_PER_SETTING], which also rejects NaN and infinity."""
    _real(name, shots)
    if not 1 <= shots <= MAX_SHOTS_PER_SETTING:
        raise ValueError(
            f"{name} must be finite, at least 1 and at most "
            f"{MAX_SHOTS_PER_SETTING:g}, got {_shown(shots)}"
        )


def _numbers(name: str, value, shape: tuple[int, ...], dtype: type = complex):
    """``value`` read by ``np.asarray`` as ``dtype``, without a copy.

    ValueError naming ``name`` unless it reads as numbers (for a real
    ``dtype``, not complex ones, which numpy would cast with a warning
    only), of exactly ``shape``, and all finite.
    """
    import numpy as np

    try:
        if dtype is not complex and np.iscomplexobj(value):
            raise TypeError
        arr = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        kind = "complex" if dtype is complex else "real"
        raise ValueError(f"{name} must be {kind} numbers, got {type(value).__name__}") from None
    if arr.shape != shape:
        dims = "x".join(map(str, shape)) if len(shape) > 1 else f"length-{shape[0]}"
        raise ValueError(f"{name} must be a {dims} array, got shape {arr.shape}")
    # the ufunc's own reduction: .all() would add a Python call
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ValueError(f"{name} must hold finite numbers")
    return arr


def check_gamma(gamma: float) -> float:
    """``gamma`` as a float in [0, pi/4]; ValueError naming gamma otherwise."""
    g = _real("gamma", gamma) + 0.0
    # -0.0 + 0.0 is +0.0: an angle of -0 is returned as 0
    if not GAMMA_MIN <= g <= GAMMA_MAX:
        raise ValueError(
            f"gamma must lie in [0, pi/4] = [0, {GAMMA_MAX!r}] rad; got {g!r}"
        )
    return g


def _parse(name: str, parse, value, kind: str):
    """``parse(value)``; ValueError naming ``name`` where it raises TypeError."""
    try:
        return parse(value)
    except TypeError:
        raise ValueError(f"{name} must be {kind}, got {type(value).__name__}") from None
