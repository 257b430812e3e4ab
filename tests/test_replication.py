"""Tests for replication probabilities and the I/R index."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from replicalc import (
    InvalidArgumentError,
    Observation,
    RangeSpec,
    ReplicationAssessment,
    assess_replication,
    ir_index,
    likelihood_curve,
    make_grid,
    normalize,
    range_probability,
    realistic_bounds,
    replication_interval,
)


@pytest.fixture(scope="module")
def posterior():
    return normalize(likelihood_curve(Observation(50, 99), make_grid(10001)))


class TestRealisticBounds:
    def test_worked_example_exact(self):
        """0.9 reproducibility on 0.95 idealistic: the lower bound is the
        plain product, exactly representable here."""
        assert realistic_bounds(0.95, 0.9) == (0.855, 0.95)

    def test_bounds_ordering(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            ideal = float(rng.uniform(0.0, 1.0))
            q = float(rng.uniform(0.0, 1.0))
            lower, upper = realistic_bounds(ideal, q)
            assert 0.0 <= lower <= upper <= 1.0
            assert upper == ideal
            assert_allclose(lower, q * ideal, rtol=0, atol=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            realistic_bounds(1.5, 0.9)
        with pytest.raises(InvalidArgumentError):
            realistic_bounds(0.5, -0.1)


class TestIrIndex:
    def test_worked_example(self):
        got = ir_index(realistic=0.47, idealistic=0.95)
        assert_allclose(got, 0.4947, rtol=0, atol=1e-4)
        assert f"{got:.2f}" == "0.49"

    def test_perfect_reproducibility(self):
        assert ir_index(0.95, 0.95) == 1.0

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ir_index(0.5, 0.0)
        with pytest.raises(InvalidArgumentError):
            ir_index(0.96, 0.95)  # realistic cannot exceed idealistic

    def test_clamped_at_one(self):
        """Rounding in the caller cannot push the index past 1."""
        assert ir_index(0.95, 0.95 - 1e-16) == 1.0


class TestReplicationAssessment:
    def test_internal_consistency_enforced(self):
        """The bounds and the index are derived, so they cannot be passed in."""
        with pytest.raises(TypeError):
            ReplicationAssessment(0.95, 0.9, realistic_lower=0.5)  # not q x idealistic

    def test_from_idealistic(self):
        a = ReplicationAssessment(0.95, 0.9)
        assert a.idealistic == 0.95
        assert a.realistic_lower == 0.855
        assert a.realistic_upper == 0.95
        assert_allclose(a.ir_index_lower, 0.9, rtol=1e-12)

    def test_zero_idealistic(self):
        """Nothing to replicate: bounds collapse and the index floors."""
        a = ReplicationAssessment(0.0, 0.9)
        assert a.realistic_lower == a.realistic_upper == 0.0
        assert a.ir_index_lower == 0.0

    def test_derived_fields_keep_their_place_in_the_repr(self):
        """The derived fields print after the two inputs, in a fixed order."""
        assert repr(ReplicationAssessment(0.95, 0.9)) == (
            "ReplicationAssessment(idealistic=0.95, reproducibility_q=0.9, "
            "realistic_lower=0.855, realistic_upper=0.95, "
            f"ir_index_lower={0.855 / 0.95!r})"
        )


class TestIdealisticReplication:
    def test_is_range_probability(self, posterior):
        rng = RangeSpec(0.45, 1.0, lower_inclusive=False, upper_inclusive=True)
        assert assess_replication(posterior, rng, q=0.9).idealistic == range_probability(
            posterior, rng)

    def test_headline_range(self, posterior):
        """Mass above 45 percent is roughly 0.87 for 50-of-99."""
        rng = RangeSpec(0.45, 1.0, lower_inclusive=False, upper_inclusive=True)
        assert_allclose(assess_replication(posterior, rng, q=1.0).idealistic, 0.8652,
                        rtol=0, atol=5e-4)


class TestAssessReplication:
    def test_end_to_end(self, posterior):
        rng = RangeSpec(0.45, 1.0, lower_inclusive=False, upper_inclusive=True)
        a = assess_replication(posterior, rng, q=0.9)
        ideal = range_probability(posterior, rng)
        assert a.idealistic == ideal
        assert_allclose(a.realistic_lower, 0.9 * ideal, rtol=0, atol=1e-15)
        assert a.realistic_upper == ideal
        assert_allclose(a.ir_index_lower, 0.9, rtol=1e-12)

    def test_equal_tail_interval_mass(self, posterior):
        """A 95 percent interval captures at least 0.95 of the posterior,
        and no more than one boundary cell extra on each side."""
        iv = replication_interval(posterior, 0.95)
        captured = range_probability(posterior, iv)
        assert captured >= 0.95
        slack = posterior.value_at(iv.lower) + posterior.value_at(iv.upper)
        assert captured <= 0.95 + slack
