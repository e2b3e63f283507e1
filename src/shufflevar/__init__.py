"""Shuffle-based estimation of signal variance and explainable variance
for repeated-measures experiments with autocorrelated noise."""

__version__ = "0.1.0"

from .design import (
    DegenerateDesign,
    DesignSchedule,
    MissingBlocks,
    NoReplication,
    UnbalancedDesign,
    build_design,
    ms_between,
    ms_within,
    treatment_averages,
)
from .estimators import (
    TrivialPermutation,
    VarianceEstimate,
    consistency_diagnostic,
    mom_estimate,
    shuffle_estimate,
)
from .noise import (
    CovarianceModel,
    ExperimentTruth,
    FactorizationFailure,
    NonStationary,
    noise_conservation_gap,
    noise_level,
    sample_experiment,
)
from .permutations import (
    PermutationSpec,
    alpha,
    apply,
    block_random_perm,
    cyclic_shift,
    identity_perm,
    is_trivial,
    odd_even_swap,
    reverse_perm,
)
from .reml import AllStartsFailed, RemlFit, reml_estimate
from .sweeps import (
    PredictionConfig,
    SweepConfig,
    SweepResult,
    emit_sweep_table,
    run_block_sweep,
    run_prediction_check,
    run_reml_comparison,
    run_timeseries_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
