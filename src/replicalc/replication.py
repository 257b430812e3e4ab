"""Idealistic and realistic replication probabilities and the I/R index.

The posterior mass on a replication range is the "idealistic" probability
that a perfect repeat of the study lands in that range.  Real repeats are
only reproducible with some probability q, so the realistic probability is
bracketed: at worst a non-reproducible repeat never replicates (lower bound
q x idealistic), at best it replicates as if nothing changed (upper bound
equal to the idealistic probability).  The I/R index is the ratio of a
realistic probability to the idealistic one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError, require_unit_interval
from .grid_model import Curve
from .posterior import RangeSpec, range_probability

__all__ = [
    "ReplicationAssessment",
    "idealistic_replication",
    "realistic_bounds",
    "ir_index",
    "assess_replication",
    "assessment_from_idealistic",
]

_CONSISTENCY_TOL = 1e-15


@dataclass(frozen=True)
class ReplicationAssessment:
    """Bundle of idealistic probability, realistic bounds, and I/R index."""

    idealistic: float
    reproducibility_q: float
    realistic_lower: float
    realistic_upper: float
    ir_index_lower: float

    def __post_init__(self):
        require_unit_interval(
            idealistic=self.idealistic,
            reproducibility_q=self.reproducibility_q,
            realistic_lower=self.realistic_lower,
            realistic_upper=self.realistic_upper,
            ir_index_lower=self.ir_index_lower,
        )
        if abs(self.realistic_lower - self.reproducibility_q * self.idealistic) > _CONSISTENCY_TOL:
            raise InvalidArgumentError("realistic_lower must equal q x idealistic")
        if abs(self.realistic_upper - self.idealistic) > _CONSISTENCY_TOL:
            raise InvalidArgumentError("realistic_upper must equal the idealistic probability")
        if self.realistic_lower > self.realistic_upper:
            raise InvalidArgumentError("realistic bounds must be ordered")


def idealistic_replication(dist: Curve, rng: RangeSpec) -> float:
    """Posterior mass on the replication range under perfect reproducibility."""
    return range_probability(dist, rng)


def realistic_bounds(idealistic: float, q: float) -> tuple[float, float]:
    """Bracket the realistic replication probability given reproducibility q.

    Worst case: a non-reproducible repeat contributes nothing (q x
    idealistic).  Best case: non-reproducibility does not hurt and the
    idealistic probability stands.
    """
    require_unit_interval(idealistic=idealistic, q=q)
    return (q * idealistic, idealistic)


def ir_index(realistic: float, idealistic: float) -> float:
    """Realistic-to-idealistic ratio, clamped into [0, 1]."""
    require_unit_interval(realistic=realistic)
    if not 0.0 < idealistic <= 1.0:
        raise InvalidArgumentError("idealistic must be positive")
    if realistic > idealistic + 1e-12:
        raise InvalidArgumentError("realistic cannot exceed the idealistic probability")
    return min(realistic / idealistic, 1.0)


def assessment_from_idealistic(idealistic: float, q: float) -> ReplicationAssessment:
    """Build the full assessment from a known idealistic probability."""
    lower, upper = realistic_bounds(idealistic, q)
    if idealistic > 0.0:
        ir_lower = ir_index(lower, idealistic)
    else:
        ir_lower = 0.0
    return ReplicationAssessment(
        idealistic=idealistic,
        reproducibility_q=q,
        realistic_lower=lower,
        realistic_upper=upper,
        ir_index_lower=ir_lower,
    )


def assess_replication(dist: Curve, rng: RangeSpec, q: float) -> ReplicationAssessment:
    """Assess replication of a posterior over a range with reproducibility q."""
    return assessment_from_idealistic(idealistic_replication(dist, rng), q)
