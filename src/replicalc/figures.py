"""Reference figure datasets: the worked 50/99 example end to end.

``render_csv`` writes every CSV output of the CLI, these tables included.
Each figure is returned as a plain table that any plotting tool can consume:

* ``fig2`` — the 101-point posterior for 50/99 next to the binomial
  distribution of outcomes from a population at 50/99, attributed to grid
  points through the induced-pair chain.
* ``fig3`` — prior (22/46), normalized likelihood (28/53), and their
  pooled posterior on the 10001-point grid.
* ``fig4`` — the normalized binomial likelihood for 50/99 next to a
  Gaussian null distribution centered at 40/99 = 0.404 (sd evaluated at
  the null over 99 trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combine import multiply_normalize
from .errors import InvalidArgumentError
from .grid_model import Observation, make_grid
from .likelihood import (
    GaussianModel,
    binomial_outcome_pmf,
    gaussian_likelihood_curve,
    likelihood_curve,
)
from .posterior import induced_outcome_attribution, normalize, posterior_distribution

__all__ = [
    "FIGURE_IDS",
    "FigureDataset",
    "build_figure",
    "render_csv",
]

FIGURE_IDS = ("fig2", "fig3", "fig4")


@dataclass(frozen=True)
class FigureDataset:
    """A figure as data: column names plus rows keyed by grid value."""

    figure_id: str
    columns: tuple
    rows: np.ndarray

    def __post_init__(self):
        if self.figure_id not in FIGURE_IDS:
            raise InvalidArgumentError(f"unknown figure id: {self.figure_id!r}")
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise InvalidArgumentError("row width must match the column count")
        if np.any(np.diff(rows[:, 0]) <= 0.0):
            raise InvalidArgumentError("rows must be ordered by strictly increasing p")
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))


def _fig2() -> FigureDataset:
    obs = Observation(50, 99)
    grid = make_grid(obs.trials + 2)
    posterior = posterior_distribution(obs, grid)
    attributed = induced_outcome_attribution(binomial_outcome_pmf(obs.trials, obs.proportion))
    rows = np.column_stack([grid.values, posterior.values, attributed])
    return FigureDataset(
        figure_id="fig2",
        columns=("p", "normalized_likelihood_50_99", "binomial_pmf_k_over_99"),
        rows=rows,
    )


def _fig3() -> FigureDataset:
    grid = make_grid(10001)
    prior = posterior_distribution(Observation(22, 46), grid)
    second = likelihood_curve(Observation(28, 53), grid)
    posterior = multiply_normalize(prior, second)
    rows = np.column_stack(
        [grid.values, prior.values, normalize(second).values, posterior.values]
    )
    return FigureDataset(
        figure_id="fig3",
        columns=("p", "prior_22_46", "normalized_likelihood_28_53", "posterior"),
        rows=rows,
    )


def _fig4() -> FigureDataset:
    grid = make_grid(10001)
    obs = Observation(50, 99)
    null_p = 0.404
    posterior = posterior_distribution(obs, grid)
    sd = math.sqrt(null_p * (1.0 - null_p) / obs.trials)
    null_curve = normalize(gaussian_likelihood_curve(GaussianModel(null_p, sd), grid))
    rows = np.column_stack([grid.values, posterior.values, null_curve.values])
    return FigureDataset(
        figure_id="fig4",
        columns=("p", "normalized_binomial_likelihood_50_99", "gaussian_null_40_4"),
        rows=rows,
    )


_BUILDERS = {"fig2": _fig2, "fig3": _fig3, "fig4": _fig4}


def build_figure(figure_id: str) -> FigureDataset:
    """Build the dataset for one of the supported figure ids."""
    try:
        builder = _BUILDERS[figure_id]
    except KeyError:
        raise InvalidArgumentError(f"unknown figure id: {figure_id!r}") from None
    return builder()


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(columns, rows) -> str:
    """CSV text: a header line, then one line per row, each ending in a newline.

    Floats are written in shortest round-trip form, booleans as
    ``true``/``false`` and ``None`` as an empty field.  Feed it Python
    scalars (``ndarray.tolist()``): ``repr`` of a numpy float is not its
    number alone.
    """
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_field(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
