"""P-values side by side with posterior null tails.

A one-sided P-value asks how often a null-centered sampling distribution
produces the observed proportion or something more extreme; the posterior
null tail asks how much posterior mass sits at or beyond the null in the
opposite direction.  For a symmetric Gaussian model the two are the same
number; for binomial observations the skew of the likelihood makes the
correspondence approximate, and this module quantifies the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, require_unit_interval
from .grid_model import Observation, ParameterGrid
from .likelihood import GaussianModel, _outcome_masses, gaussian_likelihood_curve
from .posterior import (
    AT_OR_ABOVE,
    AT_OR_BELOW,
    _is_upper,
    normalize,
    posterior_distribution,
    tail_probability,
)
from .special import normal_cdf

__all__ = [
    "SD_AT_OBSERVED",
    "SD_AT_NULL",
    "ComparisonReport",
    "exact_binomial_p_value",
    "gaussian_p_value",
    "compare_p_and_posterior",
    "gaussian_model_comparison",
]

SD_AT_OBSERVED = "at_observed"
SD_AT_NULL = "at_null"


@dataclass(frozen=True)
class ComparisonReport:
    """P-values and the posterior null tail for one observation and null.

    ``p_value_gaussian`` uses the default sd convention (sd evaluated at
    the observed proportion); the alternative convention is always reported
    alongside it because the choice is a genuine modelling ambiguity.
    ``p_value_exact_binomial`` is None for purely Gaussian comparisons,
    where no exact discrete tail exists.  ``absolute_gap`` is derived:
    |p_value_gaussian - posterior_null_tail|.
    """

    p_value_gaussian: float
    p_value_gaussian_at_null: float
    p_value_exact_binomial: Optional[float]
    posterior_null_tail: float
    absolute_gap: float = field(init=False)
    direction: str
    null_value: float

    def __post_init__(self):
        require_unit_interval(
            p_value_gaussian=self.p_value_gaussian,
            p_value_gaussian_at_null=self.p_value_gaussian_at_null,
            posterior_null_tail=self.posterior_null_tail,
            null_value=self.null_value,
        )
        if self.p_value_exact_binomial is not None:
            require_unit_interval(p_value_exact_binomial=self.p_value_exact_binomial)
        _is_upper(self.direction)  # rejects an unknown direction
        gap = abs(self.p_value_gaussian - self.posterior_null_tail)
        object.__setattr__(self, "absolute_gap", gap)


def _opposite(direction: str) -> str:
    return AT_OR_BELOW if _is_upper(direction) else AT_OR_ABOVE


def exact_binomial_p_value(obs: Observation, null_p: float, direction: str) -> float:
    """Exact one-sided binomial tail: outcomes as or more extreme than r."""
    require_unit_interval(null_p=null_p)
    r, n = obs.successes, obs.trials
    counts = np.arange(r, n + 1) if _is_upper(direction) else np.arange(r + 1)
    return float(_outcome_masses(counts, n, null_p).sum())


def gaussian_p_value(
    obs: Observation,
    null_p: float,
    direction: str,
    sd_convention: str = SD_AT_OBSERVED,
) -> float:
    """One-sided Gaussian tail beyond the observed proportion under the null.

    The sampling sd is sqrt(b(1-b)/n) with b the observed proportion
    (``at_observed``, the default) or the null value (``at_null``); the two
    conventions answer slightly different questions and are both exposed.
    """
    require_unit_interval(null_p=null_p)
    if sd_convention == SD_AT_OBSERVED:
        base = obs.proportion
    elif sd_convention == SD_AT_NULL:
        base = null_p
    else:
        raise InvalidArgumentError(f"unknown sd convention: {sd_convention!r}")
    if base <= 0.0 or base >= 1.0:
        raise InvalidArgumentError(
            f"sd convention {sd_convention!r} is degenerate at proportion {base}"
        )
    sd = math.sqrt(base * (1.0 - base) / obs.trials)
    return _gaussian_tail(obs.proportion, null_p, sd, direction)


def _gaussian_tail(observed: float, null_value: float, sd: float, direction: str) -> float:
    """P(X as or more extreme than ``observed``) for X ~ N(null_value, sd)."""
    z = (observed - null_value) / sd
    return normal_cdf(-z if _is_upper(direction) else z)


def compare_p_and_posterior(
    obs: Observation, null_p: float, grid: ParameterGrid, direction: str
) -> ComparisonReport:
    """Gaussian and exact P-values next to the posterior null tail.

    The geometry mirrors itself across the null: the P-value looks from
    the null toward the observation (evidence as or more extreme), while
    the posterior tail looks from the observation back at or beyond the
    null, i.e. in the opposite direction.
    """
    p_gauss = gaussian_p_value(obs, null_p, direction, SD_AT_OBSERVED)
    p_gauss_null = gaussian_p_value(obs, null_p, direction, SD_AT_NULL)
    p_exact = exact_binomial_p_value(obs, null_p, direction)
    dist = posterior_distribution(obs, grid)
    null_tail = tail_probability(dist, null_p, _opposite(direction))
    return ComparisonReport(
        p_value_gaussian=p_gauss,
        p_value_gaussian_at_null=p_gauss_null,
        p_value_exact_binomial=p_exact,
        posterior_null_tail=null_tail,
        direction=direction,
        null_value=null_p,
    )


def gaussian_model_comparison(
    model: GaussianModel, null_value: float, grid: ParameterGrid, direction: str
) -> ComparisonReport:
    """The comparison for a pure Gaussian evidence model.

    With the same sd playing both roles the sampling picture is exactly
    symmetric, so the P-value and the posterior null tail agree up to grid
    quantization — the regime in which the equivalence is literally true.
    """
    require_unit_interval(null_value=null_value)
    p_gauss = _gaussian_tail(model.center, null_value, model.sd, direction)
    dist = normalize(gaussian_likelihood_curve(model, grid))
    null_tail = tail_probability(dist, null_value, _opposite(direction))
    return ComparisonReport(
        p_value_gaussian=p_gauss,
        p_value_gaussian_at_null=p_gauss,
        p_value_exact_binomial=None,
        posterior_null_tail=null_tail,
        direction=direction,
        null_value=null_value,
    )
