"""Basis-independent coherence measures for an accelerated detector pair.

The package is organised in thin layers: `linalg` (batched Hermitian
eigenvalues, entropy, tensor helpers), `coherence` (the square-root
divergence and the three measures), `model` (the two-detector state and
its closed-form spectra), `sweep` (grids, verification, extremum
search) and `cli` (the `unruh-coherence` command).
"""

from .coherence import (
    CoherenceTriple,
    coherence_components,
    coherence_triple,
    measures_from_spectra,
    product_surrogate,
)
from .errors import (
    CoherenceError,
    DimensionError,
    DomainError,
    NumericalConsistencyError,
    PositivityError,
    ValidationError,
)
from .linalg import (
    equal_mixture,
    hermitian_eigenvalues,
    maximally_mixed,
    partial_trace,
    spectrum_entropy,
    tensor_product,
)
from .model import (
    ModelParams,
    ModelPoint,
    PhysicalParams,
    alpha_beta_gamma,
    closed_form_spectra,
    coherence_closed_form,
    detector_matrix,
    detector_state,
    model_params_from_physical,
    nu_squared_from_physical,
    q_from_acceleration,
    spectra_comparison,
)
from .sweep import (
    SweepResult,
    SweepSpec,
    VerificationReport,
    find_min_c_total,
    run_sweep,
    verify_grid,
    verify_sweep,
    write_csv,
)

__version__ = "0.1.0"
