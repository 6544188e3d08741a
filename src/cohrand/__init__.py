"""Quantum coherence as intrinsic measurement randomness: measures,
convex-roof optimization, incoherent channels, distillation, and a
randomness-extraction pipeline."""

from .channels import (
    KrausSet,
    PropertyId,
    PropertyReport,
    SelectiveOutcome,
    apply_channel,
    apply_selective,
    check_convexity,
    check_monotonicity,
    is_incoherent_kraus_set,
    projection_partition_kraus,
    random_incoherent_kraus,
)
from .distill import (
    DistillationReport,
    ExactRun,
    binomial_outcome_distribution,
    distill_exact,
    distill_simulate,
    log2_binomial,
)
from .measures import (
    MeasureId,
    c_l1,
    c_rel_ent,
    coherence_concurrence_qubit,
    concurrence_bloch,
    concurrence_spin_flip,
    r_pure,
    r_qubit_analytic,
)
from .rng import (
    ExtractionReport,
    PipelineComparison,
    min_entropy,
    monobit_z,
    pipeline_compare,
    sample_measurement,
    toeplitz_extract,
)
from .roof import (
    Decomposition,
    RoofConfig,
    RoofResult,
    brute_force_roof_qubit,
    decomposition_from_isometry,
    optimize_roof,
    regularized_roof_estimate,
    roof_objective,
)
from .states import (
    DensityMatrix,
    OutcomeStream,
    PureState,
    bloch_to_density,
    density_to_bloch,
    haar_random_pure,
    maximally_coherent_state,
    pure_state,
    random_density,
    shannon_entropy,
    validate_density,
    von_neumann_entropy,
)
from .verify import run_property_suite

__all__ = [name for name in dir() if not name.startswith("_")]
