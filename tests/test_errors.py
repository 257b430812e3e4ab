"""Tests for the shared [0, 1] argument check.

Every public entry point that takes a probability or proportion rejects
NaN and values outside [0, 1] with ``"<name> must lie in [0, 1]"``.
"""

import math

import pytest

from replicalc import (
    AT_OR_ABOVE,
    ComparisonReport,
    GaussianModel,
    InvalidArgumentError,
    Observation,
    ReplicationAssessment,
    binomial_outcome_pmf,
    binomial_pmf,
    compare_p_and_posterior,
    exact_binomial_p_value,
    gaussian_model_comparison,
    gaussian_p_value,
    ir_index,
    make_grid,
    posterior_distribution,
    realistic_bounds,
    scalar_bayes,
    significance_boundary,
    simulate_threshold_instability,
    tail_probability,
    two_hypothesis_posterior,
)
from replicalc.cli import _build_parser, _cmd_simulate

OBS = Observation(5, 10)
GRID = make_grid(11)
REPORT = dict(p_value_gaussian=0.1, p_value_gaussian_at_null=0.1, p_value_exact_binomial=0.1,
              posterior_null_tail=0.1, direction=AT_OR_ABOVE, null_value=0.5)
INSTABILITY = dict(true_p=0.5, trials_n=10, null_p=0.5, alpha=0.05, num_trials=10, seed=1)


def _calibrate(flag, value):
    """The ``simulate`` handler in calibration mode with one test flag set."""
    args = _build_parser().parse_args(
        ["simulate", "--num-trials", "10", "--seed", "1", flag, str(value)])
    return _cmd_simulate(args)


# (name in the message, call with the bad value in that argument)
ENTRY_POINTS = [
    ("p", lambda v: binomial_pmf(5, 10, v)),
    ("p", lambda v: binomial_outcome_pmf(10, v)),
    ("threshold", lambda v: tail_probability(posterior_distribution(OBS, GRID), v, AT_OR_ABOVE)),
    ("p_a", lambda v: two_hypothesis_posterior(OBS, v, 0.5)),
    ("p_b", lambda v: two_hypothesis_posterior(OBS, 0.5, v)),
    ("prior", lambda v: scalar_bayes(v, 0.5, 0.5)),
    ("likelihood", lambda v: scalar_bayes(0.5, v, 0.5)),
    ("marginal", lambda v: scalar_bayes(0.5, 0.5, v)),
    ("null_p", lambda v: exact_binomial_p_value(OBS, v, AT_OR_ABOVE)),
    ("null_p", lambda v: gaussian_p_value(OBS, v, AT_OR_ABOVE)),
    ("null_p", lambda v: compare_p_and_posterior(OBS, v, GRID, AT_OR_ABOVE)),
    ("null_value", lambda v: gaussian_model_comparison(GaussianModel(0.5, 0.1), v, GRID,
                                                       AT_OR_ABOVE)),
    *[(field, lambda v, field=field: ComparisonReport(**{**REPORT, field: v}))
      for field in ("p_value_gaussian", "p_value_gaussian_at_null", "p_value_exact_binomial",
                    "posterior_null_tail", "null_value")],
    ("idealistic", lambda v: ReplicationAssessment(v, 0.5)),
    ("idealistic", lambda v: realistic_bounds(v, 0.5)),
    ("q", lambda v: realistic_bounds(0.5, v)),
    ("realistic", lambda v: ir_index(v, 0.5)),
    ("significance_null", lambda v: _calibrate("--significance-null", v)),
    ("null_p", lambda v: significance_boundary(10, v, 0.05)),
    ("true_p", lambda v: simulate_threshold_instability(**{**INSTABILITY, "true_p": v})),
    ("null_p", lambda v: simulate_threshold_instability(**{**INSTABILITY, "null_p": v})),
]


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1])
@pytest.mark.parametrize("name, call", ENTRY_POINTS)
def test_outside_unit_interval_is_rejected(name, call, bad):
    with pytest.raises(InvalidArgumentError) as info:
        call(bad)
    assert str(info.value) == f"{name} must lie in [0, 1]"


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1])
def test_assessment_q_is_named_q(bad):
    """ReplicationAssessment checks q through realistic_bounds, which names it q."""
    with pytest.raises(InvalidArgumentError) as info:
        ReplicationAssessment(0.5, bad)
    assert str(info.value) == "q must lie in [0, 1]"
