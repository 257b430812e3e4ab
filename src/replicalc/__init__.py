"""Grid-based frequentist posterior probabilities for binomial studies.

Normalizing a binomial likelihood over a discrete parameter grid under a
uniform base-rate prior yields a posterior distribution over the possible
true proportions.  This package computes those distributions, compares
their tails with one-sided P-values, pools evidence across studies by Bayes
rule, quantifies idealistic and realistic replication probabilities, and
verifies the sampling model by Monte Carlo simulation.
"""

from .errors import (
    ContradictoryEvidenceError,
    DegenerateEvidenceError,
    IncompatibleGridsError,
    InvalidArgumentError,
    ReplicalcError,
)
from .grid_model import (
    DISTRIBUTION,
    LIKELIHOOD,
    Curve,
    Observation,
    ParameterGrid,
    make_grid,
    prior_per_point,
    uniform_distribution,
)
from .likelihood import (
    GaussianModel,
    binomial_outcome_pmf,
    binomial_pmf,
    gaussian_likelihood_curve,
    likelihood_curve,
    likelihood_sum,
)
from .posterior import (
    AT_OR_ABOVE,
    AT_OR_BELOW,
    RangeSpec,
    binomial_identity_divergence,
    induced_outcome_attribution,
    normalize,
    posterior_distribution,
    range_probability,
    replication_interval,
    rescale_grid,
    tail_probability,
    two_hypothesis_posterior,
)
from .inference_compare import (
    SD_AT_NULL,
    SD_AT_OBSERVED,
    ComparisonReport,
    compare_p_and_posterior,
    exact_binomial_p_value,
    gaussian_model_comparison,
    gaussian_p_value,
)
from .combine import (
    StudyRecord,
    load_studies,
    multiply_normalize,
    parse_studies,
    pool_studies,
    what_if_update,
)
from .replication import (
    ReplicationAssessment,
    assess_replication,
    ir_index,
    realistic_bounds,
)
from .simulate import (
    CalibrationReport,
    SimulationConfig,
    significance_boundary,
    simulate_calibration,
    simulate_threshold_instability,
    stream_uniforms,
)
from .figures import FigureDataset, build_figure

__version__ = "0.1.0"

__all__ = [
    "AT_OR_ABOVE",
    "AT_OR_BELOW",
    "CalibrationReport",
    "ComparisonReport",
    "ContradictoryEvidenceError",
    "Curve",
    "DISTRIBUTION",
    "DegenerateEvidenceError",
    "FigureDataset",
    "GaussianModel",
    "IncompatibleGridsError",
    "InvalidArgumentError",
    "LIKELIHOOD",
    "Observation",
    "ParameterGrid",
    "RangeSpec",
    "ReplicalcError",
    "ReplicationAssessment",
    "SD_AT_NULL",
    "SD_AT_OBSERVED",
    "SimulationConfig",
    "StudyRecord",
    "assess_replication",
    "binomial_identity_divergence",
    "binomial_outcome_pmf",
    "binomial_pmf",
    "build_figure",
    "compare_p_and_posterior",
    "exact_binomial_p_value",
    "gaussian_likelihood_curve",
    "gaussian_model_comparison",
    "gaussian_p_value",
    "induced_outcome_attribution",
    "ir_index",
    "likelihood_curve",
    "likelihood_sum",
    "load_studies",
    "make_grid",
    "multiply_normalize",
    "normalize",
    "parse_studies",
    "pool_studies",
    "posterior_distribution",
    "prior_per_point",
    "range_probability",
    "realistic_bounds",
    "replication_interval",
    "rescale_grid",
    "significance_boundary",
    "simulate_calibration",
    "simulate_threshold_instability",
    "stream_uniforms",
    "tail_probability",
    "two_hypothesis_posterior",
    "uniform_distribution",
    "what_if_update",
]
