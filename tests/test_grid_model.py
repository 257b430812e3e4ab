"""Tests for observations, parameter grids, and curves."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from replicalc import (
    DISTRIBUTION,
    LIKELIHOOD,
    Curve,
    InvalidArgumentError,
    Observation,
    make_grid,
    prior_per_point,
    uniform_distribution,
)


class TestObservation:
    def test_proportion(self):
        assert Observation(50, 99).proportion == 50 / 99
        assert Observation(0, 10).proportion == 0.0
        assert Observation(10, 10).proportion == 1.0

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            Observation(-1, 10)
        with pytest.raises(InvalidArgumentError):
            Observation(11, 10)
        with pytest.raises(InvalidArgumentError):
            Observation(0, 0)
        with pytest.raises(InvalidArgumentError):
            Observation(0.5, 10)

    def test_frozen(self):
        obs = Observation(5, 9)
        with pytest.raises(AttributeError):
            obs.successes = 6


class TestParameterGrid:
    def test_values_include_endpoints(self):
        grid = make_grid(101)
        assert grid.values[0] == 0.0
        assert grid.values[-1] == 1.0
        assert grid.points == 101
        assert grid.intervals == 100
        assert_allclose(grid.spacing, 0.01)

    def test_values_evenly_spaced(self):
        grid = make_grid(10001)
        assert grid.values.size == 10001
        assert_allclose(np.diff(grid.values), grid.spacing, rtol=0, atol=1e-15)

    def test_index_round_trip(self):
        """index_of inverts the value mapping for every grid point."""
        for m in (2, 3, 101, 1001):
            grid = make_grid(m)
            for i in (0, 1, m // 2, m - 2, m - 1):
                assert grid.index_of(grid.values[i]) == i

    def test_index_of_nearest(self):
        grid = make_grid(101)
        assert grid.index_of(0.434) == 43
        assert grid.index_of(0.436) == 44

    def test_values_read_only(self):
        grid = make_grid(11)
        with pytest.raises(ValueError):
            grid.values[0] = 0.5

    def test_minimum_size(self):
        with pytest.raises(InvalidArgumentError):
            make_grid(1)
        grid = make_grid(2)
        assert list(grid.values) == [0.0, 1.0]


class TestPriorPerPoint:
    """The base-rate prior mass is one part per grid interval."""

    @pytest.mark.parametrize("m_points, expected", [
        (10001, 0.0001),
        (101, 0.01),
        (2, 1.0),
    ])
    def test_examples(self, m_points, expected):
        assert prior_per_point(make_grid(m_points)) == expected


class TestCurve:
    def test_distribution_must_sum_to_one(self):
        grid = make_grid(3)
        with pytest.raises(InvalidArgumentError):
            Curve(grid, np.array([0.5, 0.2, 0.2]), DISTRIBUTION)
        curve = Curve(grid, np.array([0.5, 0.3, 0.2]), DISTRIBUTION)
        assert curve.total == 1.0

    def test_likelihood_any_nonnegative(self):
        grid = make_grid(3)
        curve = Curve(grid, np.array([3.0, 1.0, 0.0]), LIKELIHOOD)
        assert curve.total == 4.0

    def test_rejects_bad_values(self):
        grid = make_grid(3)
        with pytest.raises(InvalidArgumentError):
            Curve(grid, np.array([0.5, -0.1, 0.6]), DISTRIBUTION)
        with pytest.raises(InvalidArgumentError):
            Curve(grid, np.array([0.5, np.nan, 0.5]), DISTRIBUTION)
        with pytest.raises(InvalidArgumentError):
            Curve(grid, np.array([1.0, 2.0]), LIKELIHOOD)

    def test_values_are_copied_and_frozen(self):
        grid = make_grid(3)
        source = np.array([0.2, 0.3, 0.5])
        curve = Curve(grid, source, DISTRIBUTION)
        source[0] = 99.0
        assert curve.values[0] == 0.2
        with pytest.raises(ValueError):
            curve.values[0] = 1.0

    def test_value_at(self):
        grid = make_grid(101)
        curve = uniform_distribution(grid)
        assert_allclose(curve.value_at(0.43), 1 / 101)


class TestUniformDistribution:
    def test_sums_to_one(self):
        for m in (2, 101, 10001):
            curve = uniform_distribution(make_grid(m))
            assert curve.kind == DISTRIBUTION
            assert_allclose(curve.total, 1.0, rtol=0, atol=1e-12)
            assert_allclose(curve.values, 1.0 / m)
