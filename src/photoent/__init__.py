"""Entanglement of two bosonic modes controlled by photocounting a monitor.

Subpackages:

* ``fock``       -- truncated two-mode states, beam-splitter evolution,
                    linear-entropy diagnostics
* ``projective`` -- instantaneous projective readout of the monitor
* ``photocount`` -- continuous-counting conditioning in closed form
* ``oracle``     -- brute-force counting by jump-time quadrature and trajectories
* ``probe``      -- state inference from count statistics
* ``cli``        -- JSON-configured command-line experiments
"""

from .fock import (
    ConvergenceError,
    DephasedState,
    EntanglementReport,
    ImpossibleOutcomeError,
    ModelParams,
    ResourceLimitError,
    TwoModeState,
    apply_beam_splitter,
    density_from_pure,
    entanglement_report,
    linear_entropy,
    make_coherent_product,
    make_number_state,
    make_superposition,
    make_two_mode_squeezed,
    number_weights,
    partial_trace,
    purity,
    separable_benchmark,
)
from .photocount import (
    CountDistribution,
    ScanRow,
    SdKernels,
    count_distribution,
    count_probability,
    entanglement_scan,
    eval_kernels,
    most_probable_time,
    postselect_density,
    sample_counts,
    short_time_state,
)
from .projective import (
    PmOutcome,
    coherent_count_moments,
    infer_total_mean_photons,
    pm_postselect,
    pm_probability,
)

__all__ = [
    "ConvergenceError",
    "CountDistribution",
    "DephasedState",
    "EntanglementReport",
    "ImpossibleOutcomeError",
    "ModelParams",
    "PmOutcome",
    "ResourceLimitError",
    "ScanRow",
    "SdKernels",
    "TwoModeState",
    "apply_beam_splitter",
    "coherent_count_moments",
    "count_distribution",
    "count_probability",
    "density_from_pure",
    "entanglement_report",
    "entanglement_scan",
    "eval_kernels",
    "infer_total_mean_photons",
    "linear_entropy",
    "make_coherent_product",
    "make_number_state",
    "make_superposition",
    "make_two_mode_squeezed",
    "most_probable_time",
    "number_weights",
    "partial_trace",
    "pm_postselect",
    "pm_probability",
    "postselect_density",
    "purity",
    "sample_counts",
    "separable_benchmark",
    "short_time_state",
]
