"""First-principles simulation of the four-photon interference pipeline.

A second-order SPDC emission in modes a, b passes a half-wave plate at
angle gamma in mode a, the modes are overlapped on a polarizing beam
splitter into c and d, a half-wave plate at pi/4 flips polarization in
c, and two balanced splitters distribute c -> (e, f) and d -> (g, h).
Conditioning on one photon in each output mode leaves the tunable
four-qubit family; the closed form of that family lives in
:mod:`bellghz.family` and is derived here independently, photon by
photon.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._checks import _nonnegative_int, check_gamma
from .family import QubitState4
from .fock import FockState, Mode, ModeTransform, _path_pairs, apply_transform, postselect

SPATIALS = "abcdefgh"

#: Full mode register: every spatial path times {H, V}, spatial-major.
REGISTER: tuple[Mode, ...] = tuple(
    Mode(sp, pol) for sp in SPATIALS for pol in "HV"
)

#: An emission fills only aH, aV, bH and bV, the first four modes; the rest stay empty.
_UNLIT = (0,) * (len(REGISTER) - 4)

#: Output paths, in qubit order (qubit 1 = e, ..., qubit 4 = h).
OUTPUTS = ("e", "f", "g", "h")

#: One detected photon in every output path, nothing anywhere else.
COINCIDENCE_PATTERN: dict[str, int] = {sp: 1 for sp in OUTPUTS}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def half_wave_plate(spatial: str, theta: float) -> ModeTransform:
    """Half-wave plate at optical-axis angle ``theta`` in one path."""
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    return ModeTransform(
        (Mode(spatial, "H"), Mode(spatial, "V")),
        np.array([[c, s], [s, -c]], dtype=complex),
    )


def polarizing_beam_splitter() -> ModeTransform:
    """PBS overlapping input paths a, b into output paths c, d.

    Transmits H with unit coefficient and reflects V with a factor i;
    the i keeps the four-port scattering matrix unitary and carries the
    physical reflection phase that fixes the sign of the Bell-pair
    amplitude relative to the GHZ part.  Port routing: c collects
    transmitted a and reflected b, d the other two; the reverse
    direction completes the unitary.
    """
    modes = tuple(Mode(sp, pol) for sp in "abcd" for pol in "HV")
    idx = {m: i for i, m in enumerate(modes)}
    u = np.zeros((8, 8), dtype=complex)
    hops = [
        (Mode("a", "H"), Mode("c", "H"), 1.0),
        (Mode("b", "V"), Mode("c", "V"), 1.0j),
        (Mode("b", "H"), Mode("d", "H"), 1.0),
        (Mode("a", "V"), Mode("d", "V"), 1.0j),
    ]
    for src, dst, coef in hops:
        u[idx[dst], idx[src]] = coef
        u[idx[src], idx[dst]] = coef
    return ModeTransform(modes, u)


def fifty_fifty_splitter(src: str, out_a: str, out_b: str) -> ModeTransform:
    """Balanced, polarization-independent splitter from one input path.

    The source creation operator maps to (out_a + i out_b)/sqrt(2) for
    each polarization; the unused input port of the physical device is
    the vacuum, and the completion columns only route it back.
    """
    block = np.array(
        [
            [0.0, 1.0, 0.0],
            [_INV_SQRT2, 0.0, 1.0j * _INV_SQRT2],
            [1.0j * _INV_SQRT2, 0.0, _INV_SQRT2],
        ],
        dtype=complex,
    )
    modes = []
    for pol in "HV":
        modes += [Mode(src, pol), Mode(out_a, pol), Mode(out_b, pol)]
    u = np.zeros((6, 6), dtype=complex)
    u[:3, :3] = block
    u[3:, 3:] = block
    return ModeTransform(tuple(modes), u)


def standard_elements(gamma: float) -> tuple[ModeTransform, ...]:
    """The pipeline's optical elements, in propagation order."""
    return (half_wave_plate("a", check_gamma(gamma)), *_FIXED_ELEMENTS)


#: The elements after the tunable plate, which no angle changes, and their
#: 16-mode embeddings; the embeddings are read-only too, since every
#: pipeline shares them.
_FIXED_ELEMENTS = (
    polarizing_beam_splitter(),
    half_wave_plate("c", math.pi / 4),
    fifty_fifty_splitter("c", "e", "f"),
    fifty_fifty_splitter("d", "g", "h"),
)
_FIXED_EMBEDDED = tuple(element.embedded(REGISTER) for element in _FIXED_ELEMENTS)
for _matrix in _FIXED_EMBEDDED:
    _matrix.flags.writeable = False
del _matrix


def pipeline_transform(gamma: float) -> ModeTransform:
    """All elements composed into a single 16-mode unitary.

    The product of the 16-mode embeddings of :func:`standard_elements`,
    each new element multiplied on the left, with only the tunable plate
    embedded per call.
    """
    total = np.eye(len(REGISTER), dtype=complex)
    for matrix in (half_wave_plate("a", check_gamma(gamma)).embedded(REGISTER), *_FIXED_EMBEDDED):
        total = matrix @ total
    return ModeTransform(REGISTER, total)


def spdc_term(order: int) -> FockState:
    """Normalized ``order``-pair SPDC emission into modes a and b.

    The n-th order term (a_H+ b_V+ + a_V+ b_H+)^n / n! |vac> expands to
    equal unit weights on the n+1 occupations (a_H:k, a_V:n-k, b_H:n-k,
    b_V:k); normalization is therefore 1/sqrt(n+1).  Raises ValueError
    unless ``order`` is a positive integer.
    """
    order = _nonnegative_int("emission order", order)
    if order < 1:
        raise ValueError("emission order must be >= 1")
    amp = 0j + 1.0 / math.sqrt(order + 1.0)
    return FockState(
        REGISTER, {(k, order - k, order - k, k, *_UNLIT): amp for k in range(order + 1)}
    )


class PipelineResult(NamedTuple):
    state: QubitState4
    probability: float


def to_qubits(state: FockState) -> QubitState4:
    """Read a one-photon-per-output Fock component as four qubits.

    The qubits are the output paths in the order of the coincidence table
    :func:`~bellghz.fock.postselect` reads, the register's order (e, f, g,
    h for :data:`REGISTER`); the basis index packs their polarizations,
    H = 0, V = 1, qubit 1 most significant.
    """
    register = tuple(state.register)
    table = _path_pairs(register, tuple(COINCIDENCE_PATTERN.items()))
    for i, j, want in table:
        # a lone mode is listed as (i, i): its photon would read as V
        if want and {register[i].pol, register[j].pol} != {"H", "V"}:
            raise ValueError(f"path {register[i].spatial!r} needs separate H and V modes")
    vec = np.zeros(16, dtype=complex)
    for occ, amp in state.amps.items():
        idx = 0
        for i, j, want in table:
            if occ[i] + occ[j] != want:
                raise ValueError(
                    f"path {register[i].spatial!r} does not hold exactly one photon"
                    if want else "photons outside the output paths"
                )
            if want:
                idx = (idx << 1) | occ[j if register[j].pol == "V" else i]
        vec[idx] = amp
    return QubitState4(vec)


def run_pipeline(gamma: float) -> PipelineResult:
    """Propagate the double-pair emission through the pipeline at angle
    ``gamma`` and post-select coincidences.

    Returns the normalized four-qubit state (global phase fixed by the
    largest amplitude) and the success probability.
    """
    state = spdc_term(2)
    for element in standard_elements(gamma):
        state = apply_transform(state, element)
    kept, prob = postselect(state, COINCIDENCE_PATTERN)
    if not prob > 0.0:
        raise RuntimeError("coincidence probability vanished")
    return PipelineResult(to_qubits(kept).canonical(), prob)


def source_terms() -> list[FockState]:
    """The three operator monomials of the double-pair emission, with
    their physical weights (norms 1/sqrt(3) each)."""
    a = 0j + 1.0 / math.sqrt(3.0)
    # aH aH bV bV, aV aV bH bH and aH aV bH bV
    return [
        FockState(REGISTER, {(*occ, *_UNLIT): a})
        for occ in ((2, 0, 0, 2), (0, 2, 2, 0), (1, 1, 1, 1))
    ]


def source_term_coincidences(gamma: float) -> list[tuple[float, np.ndarray]]:
    """Coincidence probability and normalized qubit amplitudes (zeros if
    it never coincides) of each :func:`source_terms` term propagated alone."""
    u = pipeline_transform(check_gamma(gamma))
    selected = [postselect(apply_transform(t, u), COINCIDENCE_PATTERN) for t in source_terms()]
    return [(p, to_qubits(kept).vec if p else np.zeros(16, dtype=complex)) for kept, p in selected]
