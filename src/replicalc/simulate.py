"""Monte Carlo verification of the sampling model.

Two experiments live here.  Calibration draws a true proportion uniformly
from the grid, simulates a study at that proportion, and checks that the
empirical distribution of the true proportion conditional on each observed
count matches the analytic posterior — the sampling-model justification for
reading normalized likelihoods as posterior probabilities; one binomial pmf
table per run gives both the draw CDFs (row cumsums) and the analytic
posteriors (normalized columns).  Each chunk of draws is sorted by grid
index once, and every group inverts its own row CDF.  Threshold
instability simulates repeat studies at a fixed true proportion, inverts
their CDF with the same lookup, and reports how often they fail a
significance test.

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
from .special import _binomial_log_pmf

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
        if not isinstance(self.grid_points, (int, np.integer)):
            raise InvalidArgumentError("grid_points must be an integer")
        if self.grid_points < 2:
            raise InvalidArgumentError("grid_points must be >= 2")
        _require_run(self.trials_n, self.num_trials, self.seed)


def _require_run(trials_n, num_trials, seed) -> None:
    """The checks both experiments share."""
    if not all(isinstance(v, (int, np.integer)) for v in (trials_n, num_trials)):
        raise InvalidArgumentError("trials_n and num_trials must be integers")
    if trials_n < 1:
        raise InvalidArgumentError("trials_n must be >= 1")
    if num_trials < 1:
        raise InvalidArgumentError("num_trials must be >= 1")
    _require_seed(seed)


def _require_seed(seed) -> None:
    """A seed is a Philox key word: an integer in [0, 2^64)."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
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
    max_abs_deviation: float
    min_cell_count = MIN_CELL_COUNT

    @property
    def qualifying(self) -> np.ndarray:
        return self.counts >= MIN_CELL_COUNT

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
    _require_seed(seed)
    if offset % 4 != 0:
        raise InvalidArgumentError("stream offsets must be multiples of 4")
    bit_gen = Philox(key=np.array([seed, stream_id], dtype=np.uint64))
    bit_gen.advance(offset // 4)
    return Generator(bit_gen).random(count)


def _chunk_bounds(total: int):
    for start in range(0, total, _CHUNK):
        yield start, min(start + _CHUNK, total)


def _outcome_tables(trials_n: int, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """One pmf table read two ways: draw CDFs by grid index, analytic posteriors by count."""
    p = make_grid(grid_points).values[:, None]
    with np.errstate(under="ignore"):
        table = np.exp(_binomial_log_pmf(np.arange(trials_n + 1), trials_n, p))
    analytic = np.ascontiguousarray(table.T)
    # Counts no grid point can produce give 0/0 rows; no trial populates them.
    with np.errstate(invalid="ignore"):
        analytic /= analytic.sum(axis=1, keepdims=True)
    return np.cumsum(table, axis=1, out=table), analytic


def _invert_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF counts; a u past the rounded ``cdf[-1]``, which can be < 1, gets the last."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def _null_tails(trials_n: int, null_p: float) -> np.ndarray:
    """Exact one-sided P-values: ``tails[r]`` = P(count >= r | null_p), summed from the top."""
    return np.cumsum(binomial_outcome_pmf(trials_n, null_p)[::-1])[::-1]


def _draw_counts(
    u_true: np.ndarray, u_outcome: np.ndarray, cdfs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map one chunk's uniforms to (grid index, count); ``cdfs[i]`` is index i's outcome CDF."""
    m = cdfs.shape[0]
    idx = np.minimum((u_true * m).astype(np.int64), m - 1)
    # Any sort order works: a lookup does not depend on the order within its group.
    groups = np.split(np.argsort(idx), np.cumsum(np.bincount(idx, minlength=m))[:-1])
    observed = np.empty(idx.size, dtype=np.int64)
    for cdf, group in zip(cdfs, groups):
        observed[group] = _invert_cdf(cdf, u_outcome[group])
    return idx, observed


def simulate_calibration(config: SimulationConfig) -> CalibrationReport:
    """Run the calibration experiment and compare against analytic posteriors.

    Each trial draws a true proportion uniformly from the grid points (the
    discrete model, not the continuous interval) and an observed count from
    the binomial at that proportion via inverse-CDF lookup.  Identical
    configs produce identical reports.
    """
    n, m = config.trials_n, config.grid_points
    cdfs, analytic = _outcome_tables(n, m)
    joint = np.zeros((n + 1, m), dtype=np.int64)
    for start, stop in _chunk_bounds(config.num_trials):
        u_true = stream_uniforms(config.seed, _STREAM_TRUE_P, stop - start, offset=start)
        u_outcome = stream_uniforms(config.seed, _STREAM_OUTCOME, stop - start, offset=start)
        idx, observed = _draw_counts(u_true, u_outcome, cdfs)
        joint += np.bincount(observed * m + idx, minlength=(n + 1) * m).reshape(n + 1, m)
    # The deviation stage makes table-sized arrays; free the tables it does not read.
    del cdfs

    counts = joint.sum(axis=1)
    # Empty rows divide 0 by 1 and stay 0; their analytic rows may be NaN.  The
    # builtin abs lets numpy take the difference in place, a full table less.
    conditionals = joint / np.maximum(counts, 1)[:, None]
    del joint
    per_cell = np.where(counts > 0, np.max(abs(conditionals - analytic), axis=1), np.nan)

    qualifying = counts >= MIN_CELL_COUNT
    max_dev = float(np.max(per_cell[qualifying])) if np.any(qualifying) else float("nan")
    return CalibrationReport(config=config, counts=counts, conditionals=conditionals,
                             per_cell_deviation=per_cell, max_abs_deviation=max_dev)


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
    significant = np.nonzero(_null_tails(trials_n, null_p) <= alpha)[0]
    if significant.size == 0:
        raise InvalidArgumentError("no count reaches significance at this alpha")
    r_star = int(significant[0])
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if binomial_outcome_pmf(trials_n, mid)[r_star:].sum() < 0.5:
            lo = mid
        else:
            hi = mid
    return r_star, 0.5 * (lo + hi)


def simulate_threshold_instability(
    true_p: float, trials_n: int, null_p: float, alpha: float, num_trials: int, seed: int
) -> float:
    """Fraction of simulated repeat studies that are not significant.

    Each study draws a count from Binomial(trials_n, true_p); its exact
    one-sided (at-or-above) P-value against null_p is compared with alpha.
    """
    require_unit_interval(true_p=true_p, null_p=null_p)
    if not 0.0 < alpha <= 1.0:
        raise InvalidArgumentError("alpha must lie in (0, 1]")
    _require_run(trials_n, num_trials, seed)
    cdf = np.cumsum(binomial_outcome_pmf(trials_n, true_p))
    p_values = _null_tails(trials_n, null_p)
    non_significant = 0
    for start, stop in _chunk_bounds(num_trials):
        u = stream_uniforms(seed, _STREAM_REPEAT, stop - start, offset=start)
        non_significant += int(np.count_nonzero(p_values[_invert_cdf(cdf, u)] > alpha))
    return non_significant / num_trials
