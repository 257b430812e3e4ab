"""Tests for P-values and their comparison with posterior tail masses."""

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose

from replicalc import (
    AT_OR_ABOVE,
    AT_OR_BELOW,
    ComparisonReport,
    GaussianModel,
    InvalidArgumentError,
    Observation,
    SD_AT_NULL,
    SD_AT_OBSERVED,
    compare_p_and_posterior,
    exact_binomial_p_value,
    gaussian_model_comparison,
    gaussian_p_value,
    make_grid,
)


class TestExactBinomialPValue:
    def test_matches_scipy_tails(self):
        obs = Observation(50, 99)
        assert_allclose(exact_binomial_p_value(obs, 0.404, AT_OR_ABOVE),
                        scipy.stats.binom.sf(49, 99, 0.404), rtol=1e-12)
        assert_allclose(exact_binomial_p_value(obs, 0.404, AT_OR_BELOW),
                        scipy.stats.binom.cdf(50, 99, 0.404), rtol=1e-12)

    def test_worked_value(self):
        """P(count >= 50 | p = 0.404, n = 99) is a bit under 3 percent."""
        got = exact_binomial_p_value(Observation(50, 99), 0.404, AT_OR_ABOVE)
        assert_allclose(got, 0.0266, rtol=0, atol=5e-4)

    def test_monotone_in_null(self):
        """The at-or-above tail grows as the null moves up toward the
        observation, and keeps growing past it."""
        obs = Observation(50, 99)
        nulls = np.linspace(0.01, 0.99, 197)
        values = [exact_binomial_p_value(obs, q, AT_OR_ABOVE) for q in nulls]
        assert np.all(np.diff(values) >= -1e-15)

    def test_reflection_with_direction_flip(self):
        """(r, n) above null mirrors (n-r, n) below 1-null exactly."""
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            r = int(rng.integers(0, n + 1))
            q = float(rng.uniform(0.05, 0.95))
            a = exact_binomial_p_value(Observation(r, n), q, AT_OR_ABOVE)
            b = exact_binomial_p_value(Observation(n - r, n), 1.0 - q, AT_OR_BELOW)
            assert_allclose(a, b, rtol=1e-11, atol=1e-300)

    def test_degenerate_nulls(self):
        """Point-mass nulls: p = 0 puts everything at count 0, p = 1 at
        count n, and the tails follow."""
        obs = Observation(3, 9)
        assert exact_binomial_p_value(obs, 0.0, AT_OR_BELOW) == 1.0
        assert exact_binomial_p_value(obs, 0.0, AT_OR_ABOVE) == 0.0
        assert exact_binomial_p_value(obs, 1.0, AT_OR_ABOVE) == 1.0
        assert exact_binomial_p_value(obs, 1.0, AT_OR_BELOW) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            exact_binomial_p_value(Observation(3, 9), 1.5, AT_OR_ABOVE)
        with pytest.raises(InvalidArgumentError):
            exact_binomial_p_value(Observation(3, 9), 0.5, "between")


class TestGaussianPValue:
    def test_worked_values_both_conventions(self):
        obs = Observation(50, 99)
        at_obs = gaussian_p_value(obs, 0.404, AT_OR_ABOVE, SD_AT_OBSERVED)
        at_null = gaussian_p_value(obs, 0.404, AT_OR_ABOVE, SD_AT_NULL)
        assert_allclose(at_obs, 0.0222, rtol=0, atol=5e-4)
        assert_allclose(at_null, 0.0202, rtol=0, atol=5e-4)

    def test_matches_scipy_normal(self):
        obs = Observation(50, 99)
        p_hat = obs.proportion
        sd = np.sqrt(p_hat * (1 - p_hat) / obs.trials)
        expected = scipy.stats.norm.sf(p_hat, loc=0.404, scale=sd)
        got = gaussian_p_value(obs, 0.404, AT_OR_ABOVE, SD_AT_OBSERVED)
        assert_allclose(got, expected, rtol=1e-12)

    def test_null_at_observed_is_half(self):
        """When the null sits exactly on the observation, z = 0."""
        obs = Observation(50, 100)
        assert gaussian_p_value(obs, 0.5, AT_OR_ABOVE) == 0.5
        assert gaussian_p_value(obs, 0.5, AT_OR_BELOW) == 0.5

    def test_directions_complement(self):
        obs = Observation(50, 99)
        above = gaussian_p_value(obs, 0.404, AT_OR_ABOVE)
        below = gaussian_p_value(obs, 0.404, AT_OR_BELOW)
        assert_allclose(above + below, 1.0, rtol=0, atol=1e-14)

    def test_reflection_with_direction_flip(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 500))
            r = int(rng.integers(1, n))  # keep the observed sd nondegenerate
            q = float(rng.uniform(0.05, 0.95))
            a = gaussian_p_value(Observation(r, n), q, AT_OR_ABOVE)
            b = gaussian_p_value(Observation(n - r, n), 1.0 - q, AT_OR_BELOW)
            assert_allclose(a, b, rtol=1e-12, atol=1e-300)

    def test_degenerate_sd_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gaussian_p_value(Observation(0, 9), 0.4, AT_OR_ABOVE, SD_AT_OBSERVED)
        with pytest.raises(InvalidArgumentError):
            gaussian_p_value(Observation(5, 9), 0.0, AT_OR_ABOVE, SD_AT_NULL)


class TestComparisonReport:
    def test_gap_consistency_enforced(self):
        """The gap is derived from its operands, so it cannot be passed in."""
        report = ComparisonReport(
            p_value_gaussian=0.02,
            p_value_gaussian_at_null=0.02,
            p_value_exact_binomial=0.03,
            posterior_null_tail=0.5,
            direction=AT_OR_ABOVE,
            null_value=0.404,
        )
        assert report.absolute_gap == abs(0.02 - 0.5)
        with pytest.raises(TypeError):
            ComparisonReport(0.02, 0.02, 0.03, 0.5, absolute_gap=0.5,  # wrong on purpose
                             direction=AT_OR_ABOVE, null_value=0.404)

    def test_probability_bounds_enforced(self):
        with pytest.raises(InvalidArgumentError):
            ComparisonReport(
                p_value_gaussian=1.2,
                p_value_gaussian_at_null=0.02,
                p_value_exact_binomial=None,
                posterior_null_tail=0.02,
                direction=AT_OR_ABOVE,
                null_value=0.404,
            )


class TestCompareBinomial:
    def test_headline_comparison(self):
        """50-of-99 against a 40.4 percent null: the P-value and the
        posterior tail land within a fraction of a percentage point."""
        report = compare_p_and_posterior(
            Observation(50, 99), 0.404, make_grid(10001), AT_OR_ABOVE)
        assert_allclose(report.p_value_gaussian, 0.0222, rtol=0, atol=5e-4)
        assert_allclose(report.posterior_null_tail, 0.0206, rtol=0, atol=5e-4)
        assert report.absolute_gap == abs(report.p_value_gaussian
                                          - report.posterior_null_tail)
        assert report.absolute_gap < 0.005
        assert report.p_value_exact_binomial is not None

    def test_posterior_tail_looks_the_other_way(self):
        """The P-value looks from the null at the data; the posterior tail
        looks from the data back across the null."""
        obs = Observation(50, 99)
        grid = make_grid(1001)
        above = compare_p_and_posterior(obs, 0.404, grid, AT_OR_ABOVE)
        below = compare_p_and_posterior(obs, 0.404, grid, AT_OR_BELOW)
        # Tails in the two directions complement up to the null cell mass.
        overlap = (above.posterior_null_tail + below.posterior_null_tail
                   - 1.0)
        assert 0.0 <= overlap <= 0.01

    def test_skewness_grows_the_gap(self):
        """With the null two sampling sds below the observation, the
        P-value/posterior-tail gap widens as the observation skews."""
        grid = make_grid(10001)
        h = grid.spacing
        gaps = []
        for r in (50, 70, 90):
            obs = Observation(r, 100)
            p_hat = obs.proportion
            sd = np.sqrt(p_hat * (1 - p_hat) / obs.trials)
            null = p_hat - 2.0 * sd
            k = int(np.floor(null / h))
            null_edge = (k + 0.5) * h  # align the null with a cell edge
            report = compare_p_and_posterior(obs, null_edge, grid, AT_OR_ABOVE)
            gaps.append(report.absolute_gap)
        assert gaps[0] < gaps[1] < gaps[2]


class TestGaussianModelComparison:
    def test_tail_equality_on_fine_grid(self):
        """For a pure Gaussian the P-value IS the posterior tail, up to
        grid quantization, once the null sits on a cell edge."""
        grid = make_grid(100001)
        h = grid.spacing
        model = GaussianModel(0.55, 0.04)
        k = int(np.floor(0.47 / h))
        null_edge = (k + 0.5) * h
        report = gaussian_model_comparison(model, null_edge, grid, AT_OR_ABOVE)
        assert report.absolute_gap <= 1e-6
        assert report.p_value_exact_binomial is None
        assert report.p_value_gaussian == report.p_value_gaussian_at_null

    def test_half_cell_offset_breaks_equality(self):
        """Putting the null on a grid point instead of a cell edge leaves
        a half-cell quantization residue, visible at coarse resolution."""
        grid = make_grid(1001)
        model = GaussianModel(0.55, 0.04)
        on_point = gaussian_model_comparison(model, 0.47, grid, AT_OR_ABOVE)
        edge = 0.47 + grid.spacing / 2.0
        on_edge = gaussian_model_comparison(model, edge, grid, AT_OR_ABOVE)
        assert on_edge.absolute_gap < on_point.absolute_gap

    def test_agrees_with_normal_cdf(self):
        model = GaussianModel(0.55, 0.04)
        report = gaussian_model_comparison(model, 0.47, make_grid(1001),
                                           AT_OR_ABOVE)
        expected = scipy.stats.norm.sf(0.55, loc=0.47, scale=0.04)
        assert_allclose(report.p_value_gaussian, expected, rtol=1e-12)
