"""Idealistic and realistic replication probabilities and the I/R index.

The posterior mass on a replication range is the "idealistic" probability
that a perfect repeat of the study lands in that range.  Real repeats are
only reproducible with some probability q, so the realistic probability is
bracketed: at worst a non-reproducible repeat never replicates (lower bound
q x idealistic), at best it replicates as if nothing changed (upper bound
equal to the idealistic probability).  The I/R index is the ratio of a
realistic probability to the idealistic one.  A
:class:`ReplicationAssessment` is built from the idealistic probability and
q alone and derives the bounds and the lower I/R index itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidArgumentError, require_unit_interval
from .grid_model import Curve
from .posterior import RangeSpec, range_probability

__all__ = [
    "ReplicationAssessment",
    "realistic_bounds",
    "ir_index",
    "assess_replication",
]


@dataclass(frozen=True)
class ReplicationAssessment:
    """Idealistic probability and q, with the realistic bounds and I/R index they imply."""

    idealistic: float
    reproducibility_q: float
    realistic_lower: float = field(init=False)
    realistic_upper: float = field(init=False)
    ir_index_lower: float = field(init=False)

    def __post_init__(self):
        lower, upper = realistic_bounds(self.idealistic, self.reproducibility_q)
        ir_lower = ir_index(lower, self.idealistic) if self.idealistic > 0.0 else 0.0
        object.__setattr__(self, "realistic_lower", lower)
        object.__setattr__(self, "realistic_upper", upper)
        object.__setattr__(self, "ir_index_lower", ir_lower)


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


def assess_replication(dist: Curve, rng: RangeSpec, q: float) -> ReplicationAssessment:
    """Assess replication of a posterior over a range with reproducibility q."""
    return ReplicationAssessment(range_probability(dist, rng), q)
