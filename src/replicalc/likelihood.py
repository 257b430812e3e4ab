"""Binomial and Gaussian likelihood kernels and curves.

All point masses are computed in log-space — binomial masses through the
saddle-point form in :mod:`.special`, Gaussian densities directly — and
exponentiated last, so curves stay finite and NaN-free for counts up to
10^5 and for degenerate parameters (p = 0, p = 1, r = 0, r = n).  The
binomial kernel owns the degenerate cases: every function here passes p
in [0, 1] to it unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, require_unit_interval
from .grid_model import LIKELIHOOD, Curve, Observation, ParameterGrid
from .special import _binomial_log_pmf

__all__ = [
    "GaussianModel",
    "binomial_pmf",
    "binomial_outcome_pmf",
    "likelihood_curve",
    "gaussian_likelihood_curve",
    "likelihood_sum",
]

_LOG_TWO_PI = 1.8378770664093454835606594728112353

# Grid points per kernel call when a likelihood curve is built in blocks.
_BLOCK = 1 << 16
# Grids of at most this many points take one kernel call.  On a 2-core Xeon
# with 2 MiB of L2 per core, one call beat blocks by 13-69% up to 65,537
# points and tied with them up to 105,001; blocks won by 14-24% from
# 110,001 points on, once one call's temporaries outgrow the cache.
_ONE_CALL_MAX = 107_000
# A block whose peak log mass is below this holds only exp() == 0.0 cells.
_ZERO_LOG = -760.0


@dataclass(frozen=True)
class GaussianModel:
    """A Gaussian evidence model: observed center and sd in parameter units."""

    center: float
    sd: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.sd)):
            raise InvalidArgumentError("GaussianModel requires finite center and sd")
        if self.sd <= 0.0:
            raise InvalidArgumentError("GaussianModel requires sd > 0")


def binomial_pmf(successes: int, trials: int, p: float) -> float:
    """Exact binomial point mass C(n, r) p^r (1-p)^(n-r).

    Degenerate parameters are exact: p = 0 yields 1 iff successes = 0, and
    p = 1 yields 1 iff successes = trials.
    """
    obs = Observation(successes=successes, trials=trials)
    require_unit_interval(p=p)
    log_mass = _binomial_log_pmf(obs.successes, obs.trials, float(p))[0]
    return float(np.exp(log_mass))


def binomial_outcome_pmf(trials: int, p: float) -> np.ndarray:
    """Vector of binomial_pmf(k; trials, p) over all outcomes k = 0 ... trials."""
    if not isinstance(trials, (int, np.integer)):
        raise InvalidArgumentError("trials must be an integer")
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    require_unit_interval(p=p)
    n = int(trials)
    log_mass = _binomial_log_pmf(np.arange(n + 1), n, p)
    with np.errstate(under="ignore"):
        return np.exp(log_mass)


def likelihood_curve(obs: Observation, grid: ParameterGrid) -> Curve:
    """Binomial likelihood of the observation at every grid point.

    A grid of more than ``_ONE_CALL_MAX`` points is filled block by block,
    so the kernel's temporaries stay cache-sized.  The log mass is concave
    in p with its maximum at r/n, so a block peaks at its point nearest
    r/n; one kernel call evaluates those peaks first, and a block whose
    peak is below ``_ZERO_LOG`` is left at 0.0.  The result is
    bit-identical to one call over the whole grid: the kernel is
    elementwise, and a skipped block's values exceed its peak by at most
    twice the kernel's absolute error (about 1e-11 at n = 10^5), so they
    lie far below -745.13, under which ``exp`` already gives 0.0.
    """
    r, n, p = obs.successes, obs.trials, grid.values
    if p.size <= _ONE_CALL_MAX:
        with np.errstate(under="ignore"):
            values = np.exp(_binomial_log_pmf(r, n, p))
        return Curve(grid=grid, values=values, kind=LIKELIHOOD)
    starts = np.arange(0, p.size, _BLOCK)
    stops = np.minimum(starts + _BLOCK, p.size)
    peaks = _binomial_log_pmf(r, n, np.clip(r / n, p[starts], p[stops - 1]))
    values = np.zeros(p.size)
    for start, stop, peak in zip(starts, stops, peaks):
        if peak >= _ZERO_LOG:
            with np.errstate(under="ignore"):
                np.exp(_binomial_log_pmf(r, n, p[start:stop]), out=values[start:stop])
    return Curve(grid=grid, values=values, kind=LIKELIHOOD)


def gaussian_likelihood_curve(model: GaussianModel, grid: ParameterGrid) -> Curve:
    """Gaussian evidence curve as per-point masses (density x spacing).

    Storing mass rather than density keeps every Curve directly comparable
    and summable, matching the binomial curves.
    """
    z = (grid.values - model.center) / model.sd
    log_density = -0.5 * (z * z + _LOG_TWO_PI) - math.log(model.sd)
    with np.errstate(under="ignore"):
        values = np.exp(log_density) * grid.spacing
    return Curve(grid=grid, values=values, kind=LIKELIHOOD)


def likelihood_sum(curve: Curve) -> float:
    """Sum of a likelihood curve's values.

    For a binomial curve of n trials on a grid with I intervals the sum is
    approximately I/(n + 1): each of the n + 1 outcomes soaks up an equal
    share of the grid, which is what makes normalization behave like a
    change of prior resolution.
    """
    if curve.kind != LIKELIHOOD:
        raise InvalidArgumentError("likelihood_sum expects a likelihood-kind curve")
    return curve.total
