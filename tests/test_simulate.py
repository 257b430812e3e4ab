"""Tests for the Monte Carlo engine.

The keyed counter-based streams make every simulation a pure function of
(seed, stream, index), which the tests exploit: chunked generation must be
bit-identical to whole-stream generation, and repeat runs must agree to
the last bit.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from replicalc import (
    InvalidArgumentError,
    SimulationConfig,
    make_grid,
    significance_boundary,
    simulate_calibration,
    simulate_threshold_instability,
    stream_uniforms,
)
from replicalc.likelihood import binomial_outcome_pmf
from replicalc.simulate import _analytic_posterior_matrix


@pytest.fixture(scope="module")
def calibration_1m():
    """The headline calibration run: 10^6 studies of 99 trials each."""
    config = SimulationConfig(grid_points=101, trials_n=99,
                              num_trials=10**6, seed=20260817)
    return simulate_calibration(config)


class TestStreamUniforms:
    def test_deterministic(self):
        a = stream_uniforms(42, 0, 1000)
        b = stream_uniforms(42, 0, 1000)
        assert np.array_equal(a, b)

    def test_chunked_equals_whole(self):
        """Draws 0..999 must not depend on the chunking pattern.

        The counter advances in blocks of four 64-bit words, so any
        4-aligned offset must land exactly where the whole stream would be.
        """
        whole = stream_uniforms(42, 1, 1000)
        chunks = [stream_uniforms(42, 1, 256, offset=0),
                  stream_uniforms(42, 1, 256, offset=256),
                  stream_uniforms(42, 1, 256, offset=512),
                  stream_uniforms(42, 1, 232, offset=768)]
        assert np.array_equal(np.concatenate(chunks), whole)

    def test_streams_are_distinct(self):
        a = stream_uniforms(42, 0, 100)
        b = stream_uniforms(42, 1, 100)
        c = stream_uniforms(43, 0, 100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unaligned_offset_rejected(self):
        with pytest.raises(InvalidArgumentError):
            stream_uniforms(42, 0, 10, offset=3)

    def test_range(self):
        u = stream_uniforms(7, 2, 10000)
        assert np.all(u >= 0.0)
        assert np.all(u < 1.0)


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SimulationConfig(grid_points=1, trials_n=99, num_trials=10, seed=1)
        with pytest.raises(InvalidArgumentError):
            SimulationConfig(grid_points=101, trials_n=0, num_trials=10, seed=1)
        with pytest.raises(InvalidArgumentError):
            SimulationConfig(grid_points=101, trials_n=99, num_trials=0, seed=1)
        with pytest.raises(InvalidArgumentError):
            SimulationConfig(grid_points=101, trials_n=99, num_trials=10, seed=-1)


class TestSimulateCalibration:
    def test_single_trial(self):
        """One simulated study: one populated cell, a one-hot conditional."""
        report = simulate_calibration(
            SimulationConfig(grid_points=101, trials_n=99, num_trials=1, seed=5))
        assert report.counts.sum() == 1
        populated = report.populated_cells
        assert populated.size == 1
        row = report.conditionals[populated[0]]
        assert row.sum() == 1.0
        assert np.count_nonzero(row) == 1
        assert not report.qualifying.any()
        assert np.isnan(report.max_abs_deviation)

    def test_conditionals_are_distributions(self, calibration_1m):
        for r in calibration_1m.populated_cells:
            assert_allclose(calibration_1m.conditionals[r].sum(), 1.0,
                            rtol=0, atol=1e-12)

    def test_deterministic(self):
        config = SimulationConfig(grid_points=101, trials_n=99,
                                  num_trials=20000, seed=99)
        a = simulate_calibration(config)
        b = simulate_calibration(config)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.conditionals, b.conditionals)

    def test_conditional_matches_posterior_within_3se(self, calibration_1m):
        """Per qualifying cell, the empirical conditional stays within
        three binomial standard errors of the analytic posterior (standard
        error taken at the cell's largest posterior probability)."""
        report = calibration_1m
        analytic = _analytic_posterior_matrix(99, make_grid(101).values)
        for r in np.nonzero(report.qualifying)[0]:
            peak = analytic[r].max()
            se = np.sqrt(peak * (1.0 - peak) / report.counts[r])
            assert report.per_cell_deviation[r] <= 3.0 * se

    def test_center_cell_deviation(self, calibration_1m):
        """The r = 50 cell is populated heavily and sits on the analytic
        posterior to better than 0.015."""
        assert calibration_1m.counts[50] >= 1000
        assert calibration_1m.per_cell_deviation[50] <= 0.015

    def test_marginal_matches_grid_mixture(self, calibration_1m):
        """The observed-count marginal follows the analytic mixture of
        binomials over the grid (each count within three standard errors).

        Note the mixture is NOT uniform: with the endpoints p = 0 and
        p = 1 on the grid, the extreme counts collect extra mass.
        """
        report = calibration_1m
        grid = make_grid(101)
        mixture = np.zeros(100)
        for p in grid.values:
            mixture += binomial_outcome_pmf(99, p)
        mixture /= grid.points
        se = np.sqrt(mixture * (1.0 - mixture) / report.config.num_trials)
        assert np.all(np.abs(report.empirical_marginal - mixture) <= 3.0 * se)

    def test_qualifying_threshold(self, calibration_1m):
        report = calibration_1m
        assert np.array_equal(report.qualifying,
                              report.counts >= report.min_cell_count)
        assert report.min_cell_count == 1000


class TestSignificanceBoundary:
    def test_boundary_count_is_minimal(self):
        """r* is the smallest count whose exact tail is at most alpha."""
        r_star, _ = significance_boundary(99, 0.404, 0.05)
        masses = binomial_outcome_pmf(99, 0.404)
        tail = np.cumsum(masses[::-1])[::-1]
        assert tail[r_star] <= 0.05
        assert tail[r_star - 1] > 0.05

    def test_boundary_p_is_median(self):
        """At the returned proportion, reaching r* is a coin flip."""
        r_star, boundary_p = significance_boundary(99, 0.404, 0.05)
        masses = binomial_outcome_pmf(99, boundary_p)
        assert_allclose(masses[r_star:].sum(), 0.5, rtol=0, atol=1e-9)

    def test_worked_example(self):
        r_star, boundary_p = significance_boundary(99, 0.404, 0.05)
        assert r_star == 49
        assert_allclose(boundary_p, 0.48993, rtol=0, atol=5e-5)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            significance_boundary(0, 0.404, 0.05)
        with pytest.raises(InvalidArgumentError):
            significance_boundary(99, 1.5, 0.05)
        with pytest.raises(InvalidArgumentError):
            significance_boundary(99, 0.404, 0.0)


class TestThresholdInstability:
    def test_boundary_is_a_coin_flip(self):
        """Repeat studies at the significance boundary go non-significant
        about half the time."""
        _, boundary_p = significance_boundary(99, 0.404, 0.05)
        fraction = simulate_threshold_instability(
            boundary_p, 99, 0.404, 0.05, num_trials=10**5, seed=7)
        assert_allclose(fraction, 0.5, rtol=0, atol=0.005)

    def test_sure_thing_always_significant(self):
        """With the true proportion 1, every study yields 99 of 99."""
        fraction = simulate_threshold_instability(
            1.0, 99, 0.404, 0.05, num_trials=1000, seed=3)
        assert fraction == 0.0

    def test_alpha_one_never_non_significant(self):
        """Every P-value is at most 1, so alpha = 1 rejects everywhere."""
        fraction = simulate_threshold_instability(
            0.5, 99, 0.404, 1.0, num_trials=1000, seed=3)
        assert fraction == 0.0

    def test_deterministic(self):
        args = dict(true_p=0.45, trials_n=99, null_p=0.404, alpha=0.05,
                    num_trials=50000, seed=11)
        assert (simulate_threshold_instability(**args)
                == simulate_threshold_instability(**args))

    def test_far_from_boundary(self):
        """Well above the boundary, non-significance becomes rare."""
        fraction = simulate_threshold_instability(
            0.7, 99, 0.404, 0.05, num_trials=20000, seed=13)
        assert fraction < 0.01

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            simulate_threshold_instability(1.5, 99, 0.404, 0.05, 10, 1)
        with pytest.raises(InvalidArgumentError):
            simulate_threshold_instability(0.5, 99, 0.404, 0.0, 10, 1)
