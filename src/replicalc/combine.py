"""Bayes-rule combination of evidence curves.

Multiplying a prior distribution pointwise by a likelihood curve and
renormalizing is simultaneously sequential updating and meta-analytic
pooling: the product of binomial likelihoods for (r1, n1) and (r2, n2) is
proportional to the likelihood of the summed counts, so pooling studies one
at a time lands on the posterior of the combined data.
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
from .likelihood import GaussianModel, gaussian_likelihood_curve, likelihood_curve

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


def multiply_normalize(prior: Curve, likelihood: Curve) -> Curve:
    """Pointwise product of prior and likelihood, renormalized to sum 1.

    The product is formed as a sum of logs with the maximum subtracted
    before exponentiation, so the product does not underflow; its inputs,
    in linear scale, can (see :func:`pool_studies`).
    """
    if prior.kind != DISTRIBUTION:
        raise InvalidArgumentError("multiply_normalize expects a distribution prior")
    if prior.grid.points != likelihood.grid.points:
        raise IncompatibleGridsError(
            f"grids differ: {prior.grid.points} vs {likelihood.grid.points} points"
        )
    with np.errstate(divide="ignore"):
        log_product = np.log(prior.values) + np.log(likelihood.values)
    peak = np.max(log_product)
    if peak == -np.inf:
        raise ContradictoryEvidenceError("prior and likelihood share no support")
    with np.errstate(under="ignore"):
        shifted = np.exp(log_product - peak)
    return Curve(grid=prior.grid, values=shifted / shifted.sum(), kind=DISTRIBUTION)


def pool_studies(studies, grid: ParameterGrid) -> Curve:
    """Sequentially update a uniform prior with each study's likelihood.

    Equals the posterior of the summed counts (sum r, sum n) on the same
    grid in exact arithmetic, because the binomial likelihood product
    telescopes.  Not when studies disagree strongly: each curve is 0 far
    from its peak, so on 10001 points 4116/17069 with 53/4602 lands 0.114
    away, and 0/2000 with 2000/2000 raises ContradictoryEvidenceError.
    """
    studies = list(studies)
    if not studies:
        raise InvalidArgumentError("pool_studies needs at least one study")
    current = uniform_distribution(grid)
    for study in studies:
        current = multiply_normalize(current, likelihood_curve(study.observation, grid))
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
