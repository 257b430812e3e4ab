"""Observations, parameter grids, and curves over grids.

The parameter space is a uniform discrete grid over [0, 1] including both
endpoints.  A grid with ``points`` values has ``points - 1`` intervals
("spaces") between them, and the uniform base-rate prior attaches mass
1/(points - 1) to each interval.  All distributions in this package are
vectors of point masses over such a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "Observation",
    "ParameterGrid",
    "Curve",
    "LIKELIHOOD",
    "DISTRIBUTION",
    "make_grid",
    "prior_per_point",
    "uniform_distribution",
]

LIKELIHOOD = "likelihood"
DISTRIBUTION = "distribution"

_DISTRIBUTION_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Observation:
    """An observed count of successes out of a number of trials."""

    successes: int
    trials: int

    def __post_init__(self):
        if not isinstance(self.successes, (int, np.integer)) or not isinstance(
            self.trials, (int, np.integer)
        ):
            raise InvalidArgumentError("successes and trials must be integers")
        if self.trials < 1:
            raise InvalidArgumentError("trials must be >= 1")
        if not 0 <= self.successes <= self.trials:
            raise InvalidArgumentError("successes must satisfy 0 <= successes <= trials")

    @property
    def proportion(self) -> float:
        """Observed proportion of successes; always derived, never stored."""
        return self.successes / self.trials


@dataclass(frozen=True)
class ParameterGrid:
    """Uniform grid p_i = i/(points - 1), i = 0 ... points - 1.

    Values are materialized once, by division (never repeated addition), so
    grid points carry no cumulative rounding.
    """

    points: int
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.points, (int, np.integer)) or self.points < 2:
            raise InvalidArgumentError("a grid needs at least 2 points")
        vals = np.arange(self.points, dtype=float) / (self.points - 1)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def intervals(self) -> int:
        return self.points - 1

    @property
    def spacing(self) -> float:
        return 1.0 / (self.points - 1)

    def index_of(self, value: float) -> int:
        """Index of the grid point nearest to ``value`` (ties round half up)."""
        if not 0.0 <= value <= 1.0:
            raise InvalidArgumentError("grid values live in [0, 1]")
        return int(np.floor(value * (self.points - 1) + 0.5))


@dataclass(frozen=True)
class Curve:
    """A vector of nonnegative per-point masses over a grid.

    ``kind`` is ``"likelihood"`` for raw evidence curves and
    ``"distribution"`` for normalized ones; distribution curves must sum to
    1 within 1e-12.
    """

    grid: ParameterGrid
    values: np.ndarray
    kind: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.points,):
            raise InvalidArgumentError("curve length must equal the grid point count")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise InvalidArgumentError("curve values must be finite and nonnegative")
        if self.kind not in (LIKELIHOOD, DISTRIBUTION):
            raise InvalidArgumentError(f"unknown curve kind: {self.kind!r}")
        if self.kind == DISTRIBUTION and abs(float(vals.sum()) - 1.0) > _DISTRIBUTION_SUM_TOL:
            raise InvalidArgumentError("distribution curves must sum to 1 within 1e-12")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def value_at(self, p: float) -> float:
        """Mass at the grid point nearest to ``p``."""
        return float(self.values[self.grid.index_of(p)])


def make_grid(m_points: int) -> ParameterGrid:
    """Build the uniform grid with ``m_points`` values covering [0, 1]."""
    return ParameterGrid(points=int(m_points))


def prior_per_point(grid: ParameterGrid) -> float:
    """Uniform base-rate prior mass, one part per grid interval.

    The prior counts the spaces between grid values, not the values
    themselves: a 101-point grid has 100 spaces of prior mass 0.01 each.
    """
    return 1.0 / grid.intervals


def uniform_distribution(grid: ParameterGrid) -> Curve:
    """The flat distribution assigning equal mass to every grid point."""
    vals = np.full(grid.points, 1.0 / grid.points)
    return Curve(grid=grid, values=vals, kind=DISTRIBUTION)
