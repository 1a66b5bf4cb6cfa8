"""Four-photon entangled-family simulator: source, optics, analysis.

A pulsed down-conversion source emits photon pairs into two spatial
modes; a tunable half-wave plate, a polarizing beam splitter, and two
balanced splitters turn the double-pair emission into a one-parameter
family of four-photon states that interpolates between a product of two
Bell pairs and a GHZ state.  The subpackages follow that pipeline:

- :mod:`bellghz.fock`            bosonic states and linear-optics transforms
- :mod:`bellghz.circuit`         the optical pipeline and post-selection
- :mod:`bellghz.family`          closed forms: alpha, probability, catalog
- :mod:`bellghz.analysis`        correlation tensor, witnesses, invariants
- :mod:`bellghz.tomo`            simulated tomography and reconstruction
- :mod:`bellghz.imperfections`   higher-order emission, loss, visibility
- :mod:`bellghz.cli`             command-line front end
"""

import importlib

#: Public names by the submodule that defines them.  They are re-exported
#: lazily (PEP 562), so ``import bellghz`` loads neither numpy nor any
#: submodule; a name's module is imported when the name is first used.
_EXPORTS = {
    "analysis": (
        "CorrelationTensor", "DensityMatrix", "biseparable_bound", "biseparable_bounds",
        "correlation_classes", "correlations", "dicke_projection", "evaluate_witness",
        "fidelity", "fidelity_from_cover", "lu_invariance_check", "pairwise_witness",
        "setting_cover", "three_tangle",
    ),
    "circuit": ("PipelineResult", "run_pipeline"),
    "family": (
        "CatalogEntry", "CrossingPoint", "FamilyPoint", "QubitState4", "alpha", "catalog",
        "class_moduli", "find_crossings", "gamma_for_alpha", "probability", "state_at",
    ),
    "imperfections": ("NoiseConfig", "higher_order_fourfolds", "noisy_density_matrix"),
    "tomo": (
        "CountRecord", "exact_frequency_records", "read_counts", "reconstruct",
        "reconstruct_and_report", "simulate_counts", "write_counts",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
