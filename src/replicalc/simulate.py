"""Monte Carlo verification of the sampling model.

Two experiments live here.  Calibration draws a true proportion uniformly
from the grid, simulates a study at that proportion, and checks that the
empirical distribution of the true proportion conditional on each observed
count matches the analytic posterior — the sampling-model justification for
reading normalized likelihoods as posterior probabilities.  Threshold
instability simulates repeat studies at a fixed true proportion and reports
how often they fail a significance test.

Randomness comes from the counter-based Philox generator keyed by
``(seed, stream id)``, with draw j of a stream always produced from counter
block j // 4.  Results are therefore a pure function of the seed and trial
index: chunked, reordered, or parallel execution cannot change them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import InvalidArgumentError, require_unit_interval
from .grid_model import make_grid
from .likelihood import binomial_outcome_pmf

__all__ = [
    "SimulationConfig",
    "CalibrationReport",
    "stream_uniforms",
    "simulate_calibration",
    "simulate_threshold_instability",
    "significance_boundary",
    "MIN_CELL_COUNT",
]

# Conditioning cells with fewer samples than this are reported but excluded
# from the headline deviation statistic.
MIN_CELL_COUNT = 1000

_CHUNK = 1 << 18  # multiple of 4, so chunks start on Philox block boundaries

_STREAM_TRUE_P = 0
_STREAM_OUTCOME = 1
_STREAM_REPEAT = 2


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs for a calibration run."""

    grid_points: int
    trials_n: int
    num_trials: int
    seed: int

    def __post_init__(self):
        if self.grid_points < 2:
            raise InvalidArgumentError("grid_points must be >= 2")
        if self.trials_n < 1:
            raise InvalidArgumentError("trials_n must be >= 1")
        if self.num_trials < 1:
            raise InvalidArgumentError("num_trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise InvalidArgumentError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class CalibrationReport:
    """Empirical conditionals per observed count, next to the analytic posterior.

    ``conditionals[r]`` is the empirical distribution of the true grid
    index among trials that observed count r (all zeros when no trial hit
    that count).  ``per_cell_deviation[r]`` is the max absolute difference
    from the analytic posterior for r, NaN for empty cells.  Cells with at
    least ``min_cell_count`` samples qualify for ``max_abs_deviation``.
    """

    config: SimulationConfig
    counts: np.ndarray
    conditionals: np.ndarray
    per_cell_deviation: np.ndarray
    qualifying: np.ndarray
    max_abs_deviation: float
    min_cell_count: int

    @property
    def empirical_marginal(self) -> np.ndarray:
        """Observed-count frequencies over all trials."""
        return self.counts / self.config.num_trials

    @property
    def populated_cells(self) -> np.ndarray:
        return np.nonzero(self.counts > 0)[0]


def stream_uniforms(seed: int, stream_id: int, count: int, offset: int = 0) -> np.ndarray:
    """Uniform doubles ``offset`` ... ``offset + count - 1`` of a keyed stream.

    Philox's counter advances in blocks of four 64-bit words and each
    double consumes one word, so offsets must be multiples of 4; callers
    chunk on that boundary.
    """
    if offset % 4 != 0:
        raise InvalidArgumentError("stream offsets must be multiples of 4")
    bit_gen = Philox(key=np.array([seed, stream_id], dtype=np.uint64))
    if offset:
        bit_gen.advance(offset // 4)
    return Generator(bit_gen).random(count)


def _chunk_bounds(total: int):
    for start in range(0, total, _CHUNK):
        yield start, min(start + _CHUNK, total)


def _analytic_posterior_matrix(trials_n: int, grid_values: np.ndarray) -> np.ndarray:
    """Row r holds the analytic posterior over grid points given count r."""
    m = grid_values.size
    likelihoods = np.empty((trials_n + 1, m))
    for i in range(m):
        likelihoods[:, i] = binomial_outcome_pmf(trials_n, grid_values[i])
    return likelihoods / likelihoods.sum(axis=1, keepdims=True)


def _draw_counts(
    u_true: np.ndarray, u_outcome: np.ndarray, grid_values: np.ndarray, trials_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms to (true grid index, observed count) for one chunk."""
    m = grid_values.size
    idx = np.minimum((u_true * m).astype(np.int64), m - 1)
    observed = np.empty(idx.size, dtype=np.int64)
    for i in np.unique(idx):
        mask = idx == i
        cdf = np.cumsum(binomial_outcome_pmf(trials_n, grid_values[i]))
        observed[mask] = np.minimum(
            np.searchsorted(cdf, u_outcome[mask], side="right"), trials_n
        )
    return idx, observed


def simulate_calibration(config: SimulationConfig) -> CalibrationReport:
    """Run the calibration experiment and compare against analytic posteriors.

    Each trial draws a true proportion uniformly from the grid points (the
    discrete model, not the continuous interval) and an observed count from
    the binomial at that proportion via inverse-CDF lookup.  Identical
    configs produce identical reports.
    """
    grid = make_grid(config.grid_points)
    n, m = config.trials_n, config.grid_points
    joint = np.zeros((n + 1, m), dtype=np.int64)
    for start, stop in _chunk_bounds(config.num_trials):
        u_true = stream_uniforms(config.seed, _STREAM_TRUE_P, stop - start, offset=start)
        u_outcome = stream_uniforms(config.seed, _STREAM_OUTCOME, stop - start, offset=start)
        idx, observed = _draw_counts(u_true, u_outcome, grid.values, n)
        flat = np.bincount(observed * m + idx, minlength=(n + 1) * m)
        joint += flat.reshape(n + 1, m)

    counts = joint.sum(axis=1)
    conditionals = np.zeros((n + 1, m))
    populated = counts > 0
    conditionals[populated] = joint[populated] / counts[populated, None]

    analytic = _analytic_posterior_matrix(n, grid.values)
    per_cell = np.full(n + 1, np.nan)
    per_cell[populated] = np.max(np.abs(conditionals[populated] - analytic[populated]), axis=1)

    qualifying = counts >= MIN_CELL_COUNT
    max_dev = float(np.max(per_cell[qualifying])) if np.any(qualifying) else float("nan")
    return CalibrationReport(
        config=config,
        counts=counts,
        conditionals=conditionals,
        per_cell_deviation=per_cell,
        qualifying=qualifying,
        max_abs_deviation=max_dev,
        min_cell_count=MIN_CELL_COUNT,
    )


def significance_boundary(
    trials_n: int, null_p: float, alpha: float
) -> tuple[int, float]:
    """Locate the significance boundary for a one-sided (at-or-above) test.

    Returns the smallest count whose exact binomial P-value against the
    null is <= alpha, together with the true proportion at which that count
    is the median outcome — the proportion where repeat studies go
    non-significant exactly half the time.
    """
    if trials_n < 1:
        raise InvalidArgumentError("trials_n must be >= 1")
    require_unit_interval(null_p=null_p)
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError("alpha must lie in (0, 1)")
    masses = binomial_outcome_pmf(trials_n, null_p)
    tail = np.cumsum(masses[::-1])[::-1]  # tail[r] = P(count >= r | null)
    significant = np.nonzero(tail <= alpha)[0]
    if significant.size == 0:
        raise InvalidArgumentError("no count reaches significance at this alpha")
    r_star = int(significant[0])

    def upper_tail(p: float) -> float:
        return float(binomial_outcome_pmf(trials_n, p)[r_star:].sum())

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if upper_tail(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return r_star, 0.5 * (lo + hi)


def simulate_threshold_instability(
    true_p: float,
    trials_n: int,
    null_p: float,
    alpha: float,
    num_trials: int,
    seed: int,
) -> float:
    """Fraction of simulated repeat studies that are not significant.

    Each study draws a count from Binomial(trials_n, true_p); its exact
    one-sided (at-or-above) P-value against null_p is compared with alpha.
    """
    require_unit_interval(true_p=true_p, null_p=null_p)
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError("alpha must lie in (0, 1]")
    if trials_n < 1:
        raise InvalidArgumentError("trials_n must be >= 1")
    if num_trials < 1:
        raise InvalidArgumentError("num_trials must be >= 1")
    cdf = np.cumsum(binomial_outcome_pmf(trials_n, true_p))
    masses_null = binomial_outcome_pmf(trials_n, null_p)
    p_values = np.cumsum(masses_null[::-1])[::-1]  # p_values[r] = P(count >= r)
    non_significant = 0
    for start, stop in _chunk_bounds(num_trials):
        u = stream_uniforms(seed, _STREAM_REPEAT, stop - start, offset=start)
        observed = np.minimum(np.searchsorted(cdf, u, side="right"), trials_n)
        non_significant += int(np.count_nonzero(p_values[observed] > alpha))
    return non_significant / num_trials
