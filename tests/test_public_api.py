"""One boundary contract for every public callable.

Each parameter of each callable in ``bellghz.__all__``, of the ``fock``,
``circuit``, ``imperfections`` and ``tomo`` callables a pipeline is built
from, and of the public methods that take an argument, read with ``inspect.signature``, gets
every hostile value in turn, the other arguments valid, and must answer
with a ValueError that names it, quickly.
"""

import inspect
import math
import re
import signal

import numpy as np
import pytest

import bellghz
from bellghz import circuit, fock, imperfections, tomo

MIXED = np.eye(16, dtype=complex) / 16.0
AH, AV = fock.Mode("a", "H"), fock.Mode("a", "V")

HOSTILE = {
    "True": True,
    "'1'": "1",
    "None": None,
    "1j": 1j,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "array([0.1])": np.array([0.1]),
    "10**400": 10**400,
    "10**5000": 10**5000,
    "[1]": [1],
    "object()": object(),
}

#: Seconds one call may take, hundreds of times what any valid call here needs.
TIME_BOUND = 5.0

#: The records the library returns: plain NamedTuples that check nothing.
RECORDS = {"CatalogEntry", "CrossingPoint", "FamilyPoint", "PipelineResult"}


def _records():
    return bellghz.exact_frequency_records(MIXED)


def _counts_file():
    """A valid counts CSV in the working directory, which a fixture makes a
    fresh temporary one."""
    bellghz.write_counts(_records(), "counts.csv")
    return "counts.csv"


def _coincidence():
    """The pipeline's double-pair emission at gamma = 0.1, post-selected."""
    out = fock.apply_transform(circuit.spdc_term(2), circuit.pipeline_transform(0.1))
    return fock.postselect(out, circuit.COINCIDENCE_PATTERN)[0]


#: Valid arguments of each public callable, by parameter name; a callable is
#: called with all of them, one replaced by a hostile value.
VALID = {
    "CorrelationTensor": lambda: dict(values=bellghz.correlations(MIXED).values),
    "CountRecord": lambda: dict(setting="xxxx", counts=(1,) * 16),
    "DensityMatrix": lambda: dict(matrix=MIXED),
    "NoiseConfig": lambda: dict(pair_probability=0.01, efficiency=0.5, visibility=0.9,
                                depolarizing_q=0.1),
    "QubitState4": lambda: dict(vec=bellghz.state_at(0.1).state.vec),
    "alpha": lambda: dict(gamma=0.1),
    "biseparable_bound": lambda: dict(gamma=0.1),
    "biseparable_bounds": lambda: dict(gammas=[0.1, 0.2]),
    "catalog": dict,
    "class_moduli": lambda: dict(gamma=0.1),
    "correlation_classes": lambda: dict(gamma=0.1),
    "correlations": lambda: dict(state=MIXED),
    "dicke_projection": lambda: dict(basis="HV", outcome="H"),
    "evaluate_witness": lambda: dict(rho=MIXED, gamma=0.1),
    "exact_frequency_records": lambda: dict(state=MIXED),
    "fidelity": lambda: dict(rho=MIXED, gamma=0.1),
    "fidelity_from_cover": lambda: dict(rho=MIXED, gamma=0.1, cover=bellghz.setting_cover(0.1)),
    "find_crossings": dict,
    "gamma_for_alpha": lambda: dict(target=0.5, branch="first"),
    "higher_order_fourfolds": lambda: dict(gamma=0.1, cfg=bellghz.NoiseConfig()),
    "lu_invariance_check": lambda: dict(gamma=0.1, trials=2, seed=7),
    "noisy_density_matrix": lambda: dict(gamma=0.1, cfg=bellghz.NoiseConfig()),
    "pairwise_witness": lambda: dict(state=MIXED),
    "probability": lambda: dict(gamma=0.1),
    "read_counts": lambda: dict(path=_counts_file()),
    "reconstruct": lambda: dict(records=_records(), method="linear-inversion"),
    "reconstruct_and_report": lambda: dict(gamma=0.1, cfg=bellghz.NoiseConfig(), shots=1000,
                                           seed=0, method="linear-inversion"),
    "run_pipeline": lambda: dict(gamma=0.1),
    "setting_cover": lambda: dict(gamma=0.1),
    "simulate_counts": lambda: dict(state=MIXED, shots_per_setting=1000, seed=3),
    "state_at": lambda: dict(gamma=0.1),
    "three_tangle": lambda: dict(vec=np.ones(8)),
    "write_counts": lambda: dict(records=_records(), path="out.csv"),
    "fock.FockState": lambda: dict(register=(AH, AV), amps={(1, 0): 1.0}),
    "fock.ModeTransform": lambda: dict(modes=(AH, AV), matrix=np.eye(2)),
    "fock.apply_transform": lambda: dict(state=circuit.spdc_term(1),
                                         t=circuit.half_wave_plate("a", 0.3)),
    "fock.postselect": lambda: dict(state=circuit.spdc_term(1), pattern={"a": 1, "b": 1}),
    "fock.FockState.vacuum": lambda: dict(register=(AH, AV)),
    "fock.ModeTransform.embedded": lambda: dict(register=circuit.REGISTER),
    "circuit.half_wave_plate": lambda: dict(spatial="a", theta=0.3),
    "circuit.fifty_fifty_splitter": lambda: dict(src="c", out_a="e", out_b="f"),
    "circuit.standard_elements": lambda: dict(gamma=0.1),
    "circuit.pipeline_transform": lambda: dict(gamma=0.1),
    "circuit.spdc_term": lambda: dict(order=2),
    "circuit.to_qubits": lambda: dict(state=_coincidence()),
    "circuit.source_term_coincidences": lambda: dict(gamma=0.1),
    "imperfections.noise_report": lambda: dict(gamma=0.1, cfg=bellghz.NoiseConfig()),
    "tomo.setting_probabilities": lambda: dict(state=MIXED, setting="xxxx"),
    "QubitState4.overlap": lambda: dict(other=bellghz.state_at(0.2).state),
    "CorrelationTensor.nonzero_terms": lambda: dict(tol=1e-10),
    "NoiseConfig.from_json": lambda: dict(text="{}"),
    "DensityMatrix.from_json": lambda: dict(text=bellghz.DensityMatrix(MIXED).to_json()),
}

#: Hostile values a parameter accepts as valid, and why.
EXEMPT = {
    # any non-negative integer seeds numpy's generator, however large
    ("lu_invariance_check", "seed"): {"10**400", "10**5000"},
    ("simulate_counts", "seed"): {"10**400", "10**5000"},
    ("reconstruct_and_report", "seed"): {"10**400", "10**5000"},
    # None asks for exact frequencies, or for the cover at gamma
    ("reconstruct_and_report", "shots"): {"None"},
    ("fidelity_from_cover", "cover"): {"None"},
    # an array of angles is what the parameter takes
    ("biseparable_bounds", "gammas"): {"array([0.1])"},
    # a str is a path: "1" is read as a missing file (an OSError) or written
    ("read_counts", "path"): {"'1'"},
    ("write_counts", "path"): {"'1'"},
    # any str names a path
    ("circuit.half_wave_plate", "spatial"): {"'1'"},
    ("circuit.fifty_fifty_splitter", "src"): {"'1'"},
    ("circuit.fifty_fifty_splitter", "out_a"): {"'1'"},
    ("circuit.fifty_fifty_splitter", "out_b"): {"'1'"},
}


#: Each callable by its name in the table: every one in ``bellghz.__all__``
#: but the records, then the other boundaries the README lists.
PUBLIC = {
    **{name: getattr(bellghz, name) for name in bellghz.__all__
       if callable(getattr(bellghz, name)) and name not in RECORDS},
    "fock.FockState": fock.FockState,
    "fock.ModeTransform": fock.ModeTransform,
    "fock.apply_transform": fock.apply_transform,
    "fock.postselect": fock.postselect,
    "fock.FockState.vacuum": fock.FockState.vacuum,
    "fock.ModeTransform.embedded": circuit.half_wave_plate("a", 0.3).embedded,
    "circuit.half_wave_plate": circuit.half_wave_plate,
    "circuit.fifty_fifty_splitter": circuit.fifty_fifty_splitter,
    "circuit.standard_elements": circuit.standard_elements,
    "circuit.pipeline_transform": circuit.pipeline_transform,
    "circuit.spdc_term": circuit.spdc_term,
    "circuit.to_qubits": circuit.to_qubits,
    "circuit.source_term_coincidences": circuit.source_term_coincidences,
    "imperfections.noise_report": imperfections.noise_report,
    "tomo.setting_probabilities": tomo.setting_probabilities,
    "QubitState4.overlap": bellghz.state_at(0.1).state.overlap,
    "CorrelationTensor.nonzero_terms": bellghz.correlations(MIXED).nonzero_terms,
    "NoiseConfig.from_json": bellghz.NoiseConfig.from_json,
    "DensityMatrix.from_json": bellghz.DensityMatrix.from_json,
}


@pytest.fixture(autouse=True)
def _in_tmp_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


class Overrun(Exception):
    pass


def _call_in_time(call, kwargs):
    """``call(**kwargs)``, interrupted by Overrun after TIME_BOUND seconds."""
    def overrun(signum, frame):
        raise Overrun

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND)
    try:
        return call(**kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_every_public_callable_has_valid_arguments():
    # a new callable, or a new parameter, joins the table below through here
    assert set(PUBLIC) == set(VALID)
    for name, call in PUBLIC.items():
        assert set(VALID[name]()) == set(inspect.signature(call).parameters)


@pytest.mark.parametrize("name, parameter", [
    (name, parameter) for name, call in PUBLIC.items()
    for parameter in inspect.signature(call).parameters
], ids=lambda part: part)
def test_hostile_argument_raises_value_error_naming_it(name, parameter):
    call = PUBLIC[name]
    _call_in_time(call, VALID[name]())  # the valid arguments pass
    failures = []
    for label, bad in HOSTILE.items():
        if label in EXEMPT.get((name, parameter), ()):
            continue
        try:
            _call_in_time(call, {**VALID[name](), parameter: bad})
        except ValueError as exc:
            if not re.search(rf"\b{parameter}\b", str(exc)):
                failures.append(f"{label}: message names no {parameter}: {exc}")
        except Overrun:
            failures.append(f"{label}: still running after {TIME_BOUND} s")
        except Exception as exc:  # noqa: BLE001 - any other type is the failure reported
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            failures.append(f"{label}: accepted")
    assert not failures, f"{name}({parameter}=...):\n" + "\n".join(failures)


#: Each array boundary: a call taking the array, the parameter it names, a
#: valid array, the kind of numbers it reads and the shape as messages write it.
ARRAYS = {
    "QubitState4": (bellghz.QubitState4, "vec", np.full(16, 0.25), "complex", "length-16"),
    "three_tangle": (bellghz.three_tangle, "vec", np.ones(8), "complex", "length-8"),
    "correlations": (bellghz.correlations, "state", MIXED, "complex", "16x16"),
    "DensityMatrix": (bellghz.DensityMatrix, "matrix", MIXED, "complex", "16x16"),
    "ModeTransform": (lambda m: fock.ModeTransform((AH, AV), m), "matrix", np.eye(2),
                      "complex", "2x2"),
    "CorrelationTensor": (bellghz.CorrelationTensor, "values",
                          bellghz.correlations(MIXED).values, "real", "4x4x4x4"),
}


@pytest.mark.parametrize("name", ARRAYS)
def test_every_array_boundary_words_each_failure_alike(name):
    call, parameter, good, kind, dims = ARRAYS[name]
    call(good)
    nan = good.copy()
    nan.flat[1] = math.nan
    wrong_shape = f"{parameter} must be a {dims} array, got shape"
    cases = [
        ([[1.0], [1.0, 2.0]], f"{parameter} must be {kind} numbers, got list"),
        (np.append(good, 0.0), f"{wrong_shape} {(good.size + 1,)}"),
        # the same entries in four rows, a (4, 4) vec among them: nothing is flattened
        (good.reshape(4, -1), f"{wrong_shape} {(4, good.size // 4)}"),
        (nan, f"{parameter} must hold finite numbers"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError) as err:
            call(bad)
        assert str(err.value) == message

