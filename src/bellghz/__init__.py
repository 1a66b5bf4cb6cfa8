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

from .analysis import (
    CorrelationTensor,
    biseparable_bound,
    biseparable_bounds,
    correlation_classes,
    correlations,
    dicke_projection,
    evaluate_witness,
    fidelity,
    fidelity_from_cover,
    lu_invariance_check,
    pairwise_witness,
    setting_cover,
    three_tangle,
)
from .circuit import PipelineConfig, PipelineResult, run_pipeline
from .family import (
    CatalogEntry,
    CrossingPoint,
    FamilyPoint,
    QubitState4,
    alpha,
    catalog,
    class_moduli,
    find_crossings,
    gamma_for_alpha,
    probability,
    state_at,
)
from .imperfections import NoiseConfig, higher_order_fourfolds, noisy_density_matrix
from .tomo import (
    CountRecord,
    DensityMatrix,
    exact_frequency_records,
    read_counts,
    reconstruct,
    reconstruct_and_report,
    simulate_counts,
    write_counts,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CorrelationTensor",
    "CountRecord",
    "CrossingPoint",
    "DensityMatrix",
    "FamilyPoint",
    "NoiseConfig",
    "PipelineConfig",
    "PipelineResult",
    "QubitState4",
    "__version__",
    "alpha",
    "biseparable_bound",
    "biseparable_bounds",
    "catalog",
    "class_moduli",
    "correlation_classes",
    "correlations",
    "dicke_projection",
    "evaluate_witness",
    "exact_frequency_records",
    "fidelity",
    "fidelity_from_cover",
    "find_crossings",
    "gamma_for_alpha",
    "higher_order_fourfolds",
    "lu_invariance_check",
    "noisy_density_matrix",
    "pairwise_witness",
    "probability",
    "read_counts",
    "reconstruct",
    "reconstruct_and_report",
    "run_pipeline",
    "setting_cover",
    "simulate_counts",
    "state_at",
    "three_tangle",
    "write_counts",
]
