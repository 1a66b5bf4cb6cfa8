"""Input checks that need no numpy.

The CLI runs them on its flags before any command loads numpy, so a
usage error costs no numeric import; the library modules import them
from here.
"""

from __future__ import annotations

import math
import numbers

GAMMA_MIN = 0.0
GAMMA_MAX = math.pi / 4

#: Largest Poisson mean per setting; numpy's sampler refuses means above about 9.2e18.
MAX_SHOTS_PER_SETTING = 1e18

#: Most rows ``bellghz sweep`` writes; a million take about 10 s and 0.9 GB.
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


def _parse(name: str, parse, value, kind: str):
    """``parse(value)``; ValueError naming ``name`` where it raises TypeError."""
    try:
        return parse(value)
    except TypeError:
        raise ValueError(f"{name} must be {kind}, got {type(value).__name__}") from None
