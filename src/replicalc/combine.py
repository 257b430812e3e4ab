"""Bayes-rule combination of evidence curves.

Multiplying a prior distribution pointwise by a likelihood curve and
renormalizing is simultaneously sequential updating and meta-analytic
pooling: the product of binomial likelihoods for (r1, n1) and (r2, n2) is
proportional to the likelihood of the summed counts, so pooling studies one
at a time lands on the posterior of the combined data.

Each product is formed only over the prior's support, the span of grid
cells between its first and last nonzero mass; a binomial study's
likelihood is evaluated there alone.  Outside the support the full-grid
product is log 0 + log L = -inf, which ``exp`` turns into 0.0, so the span
product written into a zeroed full-length array, and divided by that
array's sum, has the bits of the full-grid one.  Pooling shrinks the
support study by study, so later studies are evaluated on fewer cells.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContradictoryEvidenceError,
    IncompatibleGridsError,
    InvalidArgumentError,
)
from .grid_model import (
    DISTRIBUTION,
    Curve,
    Observation,
    ParameterGrid,
    uniform_distribution,
)
from .likelihood import GaussianModel, _likelihood_values, gaussian_likelihood_curve

__all__ = [
    "StudyRecord",
    "multiply_normalize",
    "pool_studies",
    "what_if_update",
    "parse_studies",
    "load_studies",
]


@dataclass(frozen=True)
class StudyRecord:
    """A labelled observation, as read from a studies file."""

    label: str
    observation: Observation

    def __post_init__(self):
        if not self.label:
            raise InvalidArgumentError("study labels must be nonempty")


def multiply_normalize(prior: Curve, likelihood: Curve | Observation) -> Curve:
    """Pointwise product of prior and likelihood, renormalized to sum 1.

    The product is formed as a sum of logs with the maximum subtracted
    before exponentiation, so the product does not underflow; its inputs,
    in linear scale, can (see :func:`pool_studies`).  ``likelihood`` is a
    curve on the prior's grid, or an observation whose binomial likelihood
    is evaluated where it is needed.

    Only the prior's support, the span of its nonzero cells, is
    multiplied.  Every other cell of the product is 0.0 exactly as in a
    full-grid product (see the module docstring), so the result has the
    full-grid bits.
    """
    if prior.kind != DISTRIBUTION:
        raise InvalidArgumentError("multiply_normalize expects a distribution prior")
    grid = prior.grid
    # argmax stops at the first True; flatnonzero would list every cell.
    nonzero = prior.values != 0
    lo, hi = int(np.argmax(nonzero)), grid.points - int(np.argmax(nonzero[::-1]))
    if isinstance(likelihood, Observation):
        span_likelihood = _likelihood_values(likelihood, grid.values[lo:hi])
    elif grid.points != likelihood.grid.points:
        raise IncompatibleGridsError(
            f"grids differ: {grid.points} vs {likelihood.grid.points} points"
        )
    else:
        span_likelihood = likelihood.values[lo:hi]
    with np.errstate(divide="ignore"):
        log_product = np.log(prior.values[lo:hi]) + np.log(span_likelihood)
    peak = np.max(log_product)
    if peak == -np.inf:
        raise ContradictoryEvidenceError("prior and likelihood share no support")
    shifted = np.zeros(grid.points)
    with np.errstate(under="ignore"):
        np.exp(log_product - peak, out=shifted[lo:hi])
    return Curve(grid=grid, values=shifted / shifted.sum(), kind=DISTRIBUTION)


def pool_studies(studies, grid: ParameterGrid) -> Curve:
    """Sequentially update a uniform prior with each study's likelihood.

    Equals the posterior of the summed counts (sum r, sum n) on the same
    grid in exact arithmetic, because the binomial likelihood product
    telescopes.  Not when studies disagree strongly: each curve is 0 far
    from its peak, so on 10001 points 4116/17069 with 53/4602 lands 0.114
    away, and 0/2000 with 2000/2000 raises ContradictoryEvidenceError.

    Each study's likelihood is evaluated only on the support of the
    posterior so far; the result has the bits of full-grid products (see
    :func:`multiply_normalize`).
    """
    studies = list(studies)
    if not studies:
        raise InvalidArgumentError("pool_studies needs at least one study")
    current = uniform_distribution(grid)
    for study in studies:
        current = multiply_normalize(current, study.observation)
    return current


def what_if_update(current: Curve, hypothetical: GaussianModel, grid: ParameterGrid) -> Curve:
    """Update a distribution with a hypothetical Gaussian evidence curve.

    Supports what-if analyses: widened sd models a sloppier future study,
    a shifted center models a systematically different setting.
    """
    return multiply_normalize(current, gaussian_likelihood_curve(hypothetical, grid))


def parse_studies(lines, source: str = "<studies>") -> list[StudyRecord]:
    """Parse ``label,successes,trials`` lines into study records.

    Blank lines and lines starting with ``#`` are ignored; whitespace
    around fields is tolerated.
    """
    records = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != 3:
            raise InvalidArgumentError(
                f"{source}:{lineno}: expected 'label,successes,trials', got {raw.strip()!r}"
            )
        label, successes_text, trials_text = parts
        try:
            successes = int(successes_text)
            trials = int(trials_text)
        except ValueError:
            raise InvalidArgumentError(
                f"{source}:{lineno}: successes and trials must be integers"
            ) from None
        try:
            records.append(StudyRecord(label=label, observation=Observation(successes, trials)))
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"{source}:{lineno}: {exc}") from None
    return records


def load_studies(path) -> list[StudyRecord]:
    """Read a studies file (UTF-8) into study records."""
    with open(path, encoding="utf-8") as handle:
        return parse_studies(handle, source=os.fspath(path))
