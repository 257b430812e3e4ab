"""Posterior distributions over parameter grids and queries against them.

Normalizing a likelihood curve under the uniform base-rate prior yields the
posterior distribution of the true proportion given the observation; the
queries here (ranges, tails, equal-tail intervals, point comparisons) all
reduce to sums of point masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEvidenceError,
    InconsistentInputsError,
    InvalidArgumentError,
    require_unit_interval,
)
from .grid_model import DISTRIBUTION, Curve, Observation, ParameterGrid, make_grid
from .likelihood import binomial_outcome_pmf, likelihood_curve
from .special import _binomial_log_pmf

__all__ = [
    "AT_OR_BELOW",
    "AT_OR_ABOVE",
    "RangeSpec",
    "normalize",
    "posterior_distribution",
    "range_probability",
    "tail_probability",
    "replication_interval",
    "two_hypothesis_posterior",
    "scalar_bayes",
    "rescale_grid",
    "induced_outcome_attribution",
    "binomial_identity_divergence",
]

AT_OR_BELOW = "at_or_below"
AT_OR_ABOVE = "at_or_above"


@dataclass(frozen=True)
class RangeSpec:
    """A sub-range of [0, 1] with explicit endpoint inclusivity."""

    lower: float
    upper: float
    lower_inclusive: bool = True
    upper_inclusive: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InvalidArgumentError("range bounds must be finite")
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise InvalidArgumentError("range must satisfy 0 <= lower <= upper <= 1")

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Boolean membership mask for an array of parameter values."""
        lo = values >= self.lower if self.lower_inclusive else values > self.lower
        hi = values <= self.upper if self.upper_inclusive else values < self.upper
        return lo & hi


def normalize(curve: Curve) -> Curve:
    """Divide a curve by its sum, yielding a distribution over the grid.

    Under the uniform base-rate prior this is exactly the posterior: the
    prior masses cancel in Bayes rule, leaving the likelihood rescaled to
    unit total.
    """
    total = curve.total
    if total <= 0.0:
        raise DegenerateEvidenceError("cannot normalize an all-zero curve")
    return Curve(grid=curve.grid, values=curve.values / total, kind=DISTRIBUTION)


def posterior_distribution(obs: Observation, grid: ParameterGrid) -> Curve:
    """Posterior of the true proportion given ``obs`` on ``grid``."""
    return normalize(likelihood_curve(obs, grid))


def _require_distribution(curve: Curve, op: str) -> None:
    if curve.kind != DISTRIBUTION:
        raise InvalidArgumentError(f"{op} expects a distribution-kind curve")


def range_probability(dist: Curve, rng: RangeSpec) -> float:
    """Posterior mass on the grid points falling inside the range."""
    _require_distribution(dist, "range_probability")
    mask = rng.contains(dist.grid.values)
    return float(dist.values[mask].sum())


def tail_probability(dist: Curve, threshold: float, direction: str) -> float:
    """One-sided posterior mass at or beyond ``threshold``."""
    require_unit_interval(threshold=threshold)
    if direction == AT_OR_BELOW:
        rng = RangeSpec(0.0, threshold, True, True)
    elif direction == AT_OR_ABOVE:
        rng = RangeSpec(threshold, 1.0, True, True)
    else:
        raise InvalidArgumentError(f"unknown direction: {direction!r}")
    return range_probability(dist, rng)


def replication_interval(dist: Curve, mass: float) -> RangeSpec:
    """Smallest grid-aligned equal-tail interval holding at least ``mass``.

    Each tail strictly outside the interval carries at most (1 - mass)/2
    posterior probability, and moving either bound inward by one grid step
    would break its tail condition.
    """
    _require_distribution(dist, "replication_interval")
    if not 0.0 < mass < 1.0:
        raise InvalidArgumentError("mass must lie strictly between 0 and 1")
    tail = (1.0 - mass) / 2.0
    values = dist.values
    cum = np.cumsum(values)
    total = cum[-1]
    below = np.concatenate(([0.0], cum[:-1]))  # mass strictly below point i
    above = total - cum  # mass strictly above point i
    lower_idx = int(np.nonzero(below <= tail)[0][-1])
    upper_idx = int(np.nonzero(above <= tail)[0][0])
    grid_vals = dist.grid.values
    return RangeSpec(float(grid_vals[lower_idx]), float(grid_vals[upper_idx]), True, True)


def two_hypothesis_posterior(obs: Observation, p_a: float, p_b: float) -> float:
    """Posterior probability of hypothesis ``p_a`` against ``p_b``.

    With equal priors this is L(p_a)/(L(p_a) + L(p_b)); it is computed from
    the difference of log-likelihoods so extreme observations stay stable.
    """
    require_unit_interval(p_a=p_a, p_b=p_b)
    log_a, log_b = _binomial_log_pmf(obs.successes, obs.trials, np.array([p_a, p_b], dtype=float))
    if log_a == -np.inf and log_b == -np.inf:
        raise DegenerateEvidenceError("both hypotheses have zero likelihood")
    if log_a == -np.inf:
        return 0.0
    if log_b == -np.inf:
        return 1.0
    with np.errstate(over="ignore"):  # lopsided evidence saturates at 0 or 1
        return float(1.0 / (1.0 + np.exp(log_b - log_a)))


def scalar_bayes(prior: float, likelihood: float, marginal: float) -> float:
    """Plain scalar Bayes rule: prior x likelihood / marginal."""
    require_unit_interval(prior=prior, likelihood=likelihood, marginal=marginal)
    if marginal == 0.0:
        raise InvalidArgumentError("marginal must be positive")
    result = prior * likelihood / marginal
    if result > 1.0 + 1e-12:
        raise InconsistentInputsError(
            "prior x likelihood exceeds the marginal; inputs are jointly impossible"
        )
    return min(result, 1.0)


def _cell_edges(grid: ParameterGrid) -> np.ndarray:
    """Right edge of each grid point's cell, clipped to [0, 1].

    Point i owns the cell [p_i - h/2, p_i + h/2] intersected with [0, 1];
    consecutive cells tile the unit interval exactly.
    """
    half = 0.5 * grid.spacing
    return np.minimum(grid.values + half, 1.0)


def rescale_grid(dist: Curve, new_grid: ParameterGrid) -> Curve:
    """Re-express a distribution on a different grid resolution.

    The cumulative mass at the old cell edges is interpolated linearly and
    differenced at the new cell edges, so total mass and range
    probabilities are preserved by construction; point masses scale by the
    ratio of interval counts (a 101 -> 10001 point rescale divides each
    mass by ~100).
    """
    _require_distribution(dist, "rescale_grid")
    knots_x = np.concatenate(([0.0], _cell_edges(dist.grid)))
    knots_y = np.concatenate(([0.0], np.cumsum(dist.values)))
    new_half = 0.5 * new_grid.spacing
    left = np.maximum(new_grid.values - new_half, 0.0)
    right = np.minimum(new_grid.values + new_half, 1.0)
    masses = np.interp(right, knots_x, knots_y) - np.interp(left, knots_x, knots_y)
    masses = np.maximum(masses, 0.0)
    total = masses.sum()
    if total <= 0.0:
        raise DegenerateEvidenceError("rescaled distribution lost all mass")
    return Curve(grid=new_grid, values=masses / total, kind=DISTRIBUTION)


def induced_outcome_attribution(outcome_masses: np.ndarray) -> np.ndarray:
    """Attribute n + 1 outcome masses to the n + 2 grid points they induce.

    Outcome k's induced pair spans grid points k and k + 1, so each grid
    point is the shared bound of two neighbouring outcomes; the mass
    attributed to point i is the mean of outcome masses i - 1 and i
    (out-of-range outcomes contribute zero).
    """
    padded = np.concatenate(([0.0], np.asarray(outcome_masses, dtype=float), [0.0]))
    return 0.5 * (padded[:-1] + padded[1:])


def binomial_identity_divergence(obs: Observation) -> float:
    """Max gap between a normalized likelihood and its matching binomial.

    The posterior of r/n on the (n + 2)-point grid and the binomial
    distribution of outcomes from a population at r/n should nearly
    coincide once the binomial masses are attributed to grid points via
    :func:`induced_outcome_attribution`.  The divergence is the largest
    absolute difference between the two vectors — small for central r,
    growing as the observation skews toward 0 or 1.
    """
    n = obs.trials
    grid = make_grid(n + 2)
    posterior = normalize(likelihood_curve(obs, grid))
    attributed = induced_outcome_attribution(binomial_outcome_pmf(n, obs.proportion))
    return float(np.max(np.abs(posterior.values - attributed)))
