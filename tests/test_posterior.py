"""Tests for normalization, range/tail queries, intervals, and rescaling.

scipy's Beta distribution is the continuum oracle: the normalized binomial
likelihood of r successes in n trials over a fine grid approximates
Beta(r+1, n-r+1), with grid cells owning the half-spacing strip on each
side of their point.
"""

import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats
from numpy.testing import assert_allclose

from replicalc import (
    AT_OR_ABOVE,
    AT_OR_BELOW,
    Curve,
    DegenerateEvidenceError,
    InconsistentInputsError,
    InvalidArgumentError,
    Observation,
    RangeSpec,
    binomial_identity_divergence,
    binomial_outcome_pmf,
    induced_outcome_attribution,
    likelihood_curve,
    make_grid,
    normalize,
    posterior_distribution,
    range_probability,
    rescale_grid,
    replication_interval,
    scalar_bayes,
    tail_probability,
    two_hypothesis_posterior,
    uniform_distribution,
)
from replicalc.grid_model import DISTRIBUTION, LIKELIHOOD


@pytest.fixture(scope="module")
def fine_posterior():
    """Posterior for 50-of-99 on the 10001-point grid, shared across tests."""
    return posterior_distribution(Observation(50, 99), make_grid(10001))


class TestNormalize:
    def test_sums_to_one(self):
        curve = likelihood_curve(Observation(50, 99), make_grid(10001))
        dist = normalize(curve)
        assert dist.kind == DISTRIBUTION
        assert_allclose(dist.total, 1.0, rtol=0, atol=1e-12)

    def test_idempotent(self):
        dist = normalize(likelihood_curve(Observation(5, 9), make_grid(101)))
        again = normalize(dist)
        assert_allclose(again.values, dist.values, rtol=0, atol=1e-15)

    def test_preserves_shape(self):
        """Normalization only rescales: ratios between points survive."""
        curve = likelihood_curve(Observation(28, 53), make_grid(1001))
        dist = normalize(curve)
        mask = curve.values > 1e-300
        ratio = dist.values[mask] / curve.values[mask]
        assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_zero_curve_rejected(self):
        grid = make_grid(101)
        zero = Curve(grid, np.zeros(101), LIKELIHOOD)
        with pytest.raises(DegenerateEvidenceError):
            normalize(zero)

    def test_matches_beta_density(self, fine_posterior):
        """Point masses track the Beta(51, 50) density times the spacing."""
        grid = fine_posterior.grid
        interior = slice(1, -1)
        density = scipy.stats.beta.pdf(grid.values[interior], 51, 50)
        assert_allclose(fine_posterior.values[interior],
                        density * grid.spacing, rtol=5e-4, atol=1e-9)


class TestRangeProbability:
    def test_full_range_is_one(self, fine_posterior):
        full = RangeSpec(0.0, 1.0)
        assert_allclose(range_probability(fine_posterior, full), 1.0,
                        rtol=0, atol=1e-12)

    def test_additivity(self, fine_posterior):
        """Mass of [0, c] plus (c, 1] is the whole."""
        left = RangeSpec(0.0, 0.5, upper_inclusive=True)
        right = RangeSpec(0.5, 1.0, lower_inclusive=False, upper_inclusive=True)
        total = (range_probability(fine_posterior, left)
                 + range_probability(fine_posterior, right))
        assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    def test_open_versus_closed_endpoints(self, fine_posterior):
        closed = RangeSpec(0.5, 0.51)
        open_ = RangeSpec(0.5, 0.51, lower_inclusive=False, upper_inclusive=False)
        diff = (range_probability(fine_posterior, closed)
                - range_probability(fine_posterior, open_))
        expected = fine_posterior.value_at(0.5) + fine_posterior.value_at(0.51)
        assert_allclose(diff, expected, rtol=1e-12)

    def test_against_beta_tail_oracle(self, fine_posterior):
        """(0.45, 1] mass equals the Beta tail integral at the cell edge.

        Each grid point owns the strip reaching half a spacing to each
        side, so the matching continuum integral starts at 0.45 + h/2.
        """
        rng = RangeSpec(0.45, 1.0, lower_inclusive=False, upper_inclusive=True)
        ours = range_probability(fine_posterior, rng)
        edge = 0.45 + fine_posterior.grid.spacing / 2.0
        oracle = 1.0 - scipy.special.betainc(51, 50, edge)
        assert_allclose(ours, oracle, rtol=0, atol=1e-4)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            RangeSpec(0.6, 0.4)
        with pytest.raises(InvalidArgumentError):
            RangeSpec(-0.1, 0.5)


class TestTailProbability:
    def test_complement(self, fine_posterior):
        below = tail_probability(fine_posterior, 0.404, AT_OR_BELOW)
        above = tail_probability(fine_posterior, 0.404, AT_OR_ABOVE)
        overlap = fine_posterior.value_at(0.404)
        assert_allclose(below + above - overlap, 1.0, rtol=0, atol=1e-12)

    def test_monotone_in_threshold(self, fine_posterior):
        # Each tail is summed independently, so neighbouring thresholds can
        # disagree by a rounding ulp; the tolerance absorbs only that.
        thresholds = np.linspace(0.0, 1.0, 101)
        below = [tail_probability(fine_posterior, t, AT_OR_BELOW) for t in thresholds]
        assert np.all(np.diff(below) >= -1e-15)
        above = [tail_probability(fine_posterior, t, AT_OR_ABOVE) for t in thresholds]
        assert np.all(np.diff(above) <= 1e-15)

    def test_null_tail_value(self, fine_posterior):
        """Posterior mass at or below p = 0.404 is about 2 percent."""
        tail = tail_probability(fine_posterior, 0.404, AT_OR_BELOW)
        assert_allclose(tail, 0.0206, rtol=0, atol=5e-4)

    def test_direction_validation(self, fine_posterior):
        with pytest.raises(InvalidArgumentError):
            tail_probability(fine_posterior, 0.404, "sideways")


class TestTwoHypothesisPosterior:
    def test_worked_example(self):
        got = two_hypothesis_posterior(Observation(50, 99), 0.43, 0.59)
        assert_allclose(got, 0.58118, rtol=0, atol=1e-4)

    def test_complement_identity(self):
        """Swapping the two hypotheses complements the posterior."""
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            r = int(rng.integers(0, n + 1))
            a, b = rng.uniform(0.05, 0.95, size=2)
            obs = Observation(r, n)
            total = (two_hypothesis_posterior(obs, a, b)
                     + two_hypothesis_posterior(obs, b, a))
            assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    def test_equal_hypotheses_give_half(self):
        assert_allclose(two_hypothesis_posterior(Observation(5, 9), 0.3, 0.3), 0.5,
                        rtol=1e-12)

    def test_matches_direct_ratio(self):
        """Equals pmf_a / (pmf_a + pmf_b) computed by the oracle."""
        obs = Observation(50, 99)
        a = scipy.stats.binom.pmf(50, 99, 0.43)
        b = scipy.stats.binom.pmf(50, 99, 0.59)
        assert_allclose(two_hypothesis_posterior(obs, 0.43, 0.59), a / (a + b),
                        rtol=1e-10)

    def test_zero_likelihood_handling(self):
        obs = Observation(3, 9)
        assert two_hypothesis_posterior(obs, 0.5, 0.0) == 1.0
        assert two_hypothesis_posterior(obs, 0.0, 0.5) == 0.0
        with pytest.raises(DegenerateEvidenceError):
            two_hypothesis_posterior(obs, 0.0, 1.0)

    def test_lopsided_evidence_saturates_silently(self):
        """exp(log_b - log_a) overflows to inf; the posterior is 0 or 1, unwarned."""
        obs = Observation(5000, 10000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert two_hypothesis_posterior(obs, 0.01, 0.5) == 0.0
            assert two_hypothesis_posterior(obs, 0.5, 0.01) == 1.0


class TestScalarBayes:
    def test_worked_example(self):
        got = scalar_bayes(prior=0.073, likelihood=0.480, marginal=0.475)
        assert_allclose(got, 0.073 * 0.480 / 0.475, rtol=1e-15)
        assert_allclose(got, 0.0738, rtol=0, atol=5e-5)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            scalar_bayes(0.5, 0.5, 0.0)
        with pytest.raises(InvalidArgumentError):
            scalar_bayes(1.5, 0.5, 0.5)
        with pytest.raises(InconsistentInputsError):
            scalar_bayes(0.9, 0.9, 0.1)

    def test_clamped_to_one(self):
        assert scalar_bayes(0.8, 1.0, 0.8) == 1.0


class TestReplicationInterval:
    def test_equal_tail_construction(self, fine_posterior):
        """Each excluded tail is as large as possible without passing
        (1 - mass)/2: moving either bound one grid step inward would push
        that side's excluded mass over the target."""
        mass = 0.95
        tail = (1.0 - mass) / 2.0
        iv = replication_interval(fine_posterior, mass)
        h = fine_posterior.grid.spacing
        below_excluded = tail_probability(fine_posterior, iv.lower - h, AT_OR_BELOW)
        above_excluded = tail_probability(fine_posterior, iv.upper + h, AT_OR_ABOVE)
        assert below_excluded <= tail < below_excluded + fine_posterior.value_at(iv.lower)
        assert above_excluded <= tail < above_excluded + fine_posterior.value_at(iv.upper)

    @pytest.mark.parametrize("mass", [0.5, 0.8, 0.95, 0.99])
    def test_coverage_at_least_mass(self, fine_posterior, mass):
        iv = replication_interval(fine_posterior, mass)
        coverage = range_probability(fine_posterior, iv)
        assert coverage >= mass
        # Overshoot is bounded by the two boundary cells.
        slack = fine_posterior.value_at(iv.lower) + fine_posterior.value_at(iv.upper)
        assert coverage <= mass + slack

    def test_matches_beta_quantiles(self, fine_posterior):
        """95 percent bounds sit within two grid steps of Beta(51,50)."""
        iv = replication_interval(fine_posterior, 0.95)
        h = fine_posterior.grid.spacing
        assert abs(iv.lower - scipy.stats.beta.ppf(0.025, 51, 50)) <= 2 * h
        assert abs(iv.upper - scipy.stats.beta.ppf(0.975, 51, 50)) <= 2 * h

    def test_degenerate_point_mass(self):
        """All mass on one point: the interval collapses onto it."""
        grid = make_grid(101)
        values = np.zeros(101)
        values[43] = 1.0
        dist = Curve(grid, values, DISTRIBUTION)
        iv = replication_interval(dist, 0.95)
        assert iv.lower == iv.upper == pytest.approx(0.43)

    def test_validation(self, fine_posterior):
        with pytest.raises(InvalidArgumentError):
            replication_interval(fine_posterior, 0.0)
        with pytest.raises(InvalidArgumentError):
            replication_interval(fine_posterior, 1.5)


class TestRescaleGrid:
    def test_same_grid_is_identity(self, fine_posterior):
        same = rescale_grid(fine_posterior, fine_posterior.grid)
        assert_allclose(same.values, fine_posterior.values, rtol=0, atol=1e-15)

    def test_coarse_to_fine_headline(self):
        """101 -> 10001 points: each point mass shrinks 100-fold."""
        coarse = posterior_distribution(Observation(50, 99), make_grid(101))
        fine = rescale_grid(coarse, make_grid(10001))
        assert_allclose(fine.value_at(0.43), coarse.value_at(0.43) / 100.0,
                        rtol=1e-10)
        assert_allclose(fine.total, 1.0, rtol=0, atol=1e-12)

    def test_fine_to_coarse_aggregates(self, fine_posterior):
        """10001 -> 101 points: each coarse cell collects the Beta integral
        between its edges (cells own half a spacing to each side)."""
        coarse = rescale_grid(fine_posterior, make_grid(101))
        h = coarse.grid.spacing
        right_edges = np.minimum(coarse.grid.values + h / 2.0, 1.0)
        cdf = scipy.special.betainc(51, 50, right_edges)
        expected = np.diff(np.concatenate([[0.0], cdf]))
        assert_allclose(coarse.values, expected, rtol=0, atol=1e-6)
        assert_allclose(coarse.total, 1.0, rtol=0, atol=1e-12)


class TestInducedOutcomeAttribution:
    def test_shares_masses_between_adjacent_points(self):
        masses = np.array([0.2, 0.5, 0.3])
        got = induced_outcome_attribution(masses)
        assert_allclose(got, [0.1, 0.35, 0.4, 0.15], rtol=1e-15)

    def test_conserves_total(self):
        rng = np.random.default_rng(3)
        masses = rng.dirichlet(np.ones(100))
        got = induced_outcome_attribution(masses)
        assert got.size == 101
        assert_allclose(got.sum(), masses.sum(), rtol=1e-12)


class TestBinomialIdentityDivergence:
    def test_balanced_case_is_small(self):
        assert binomial_identity_divergence(Observation(50, 99)) <= 0.002

    def test_skewed_case_is_larger(self):
        balanced = binomial_identity_divergence(Observation(50, 99))
        skewed = binomial_identity_divergence(Observation(5, 99))
        assert skewed > balanced

    def test_tiny_study_finite(self):
        """n = 1 has only three grid points; the result must stay finite."""
        got = binomial_identity_divergence(Observation(0, 1))
        assert np.isfinite(got)
        assert_allclose(got, 1.0 / 6.0, rtol=1e-12)

    def test_attribution_is_the_comparator(self):
        """The divergence is literally the max gap between the posterior
        and the attributed outcome masses on the (n+2)-point grid."""
        obs = Observation(5, 9)
        grid = make_grid(obs.trials + 2)
        post = posterior_distribution(obs, grid)
        attributed = induced_outcome_attribution(
            binomial_outcome_pmf(obs.trials, obs.proportion))
        expected = np.max(np.abs(post.values - attributed))
        assert_allclose(binomial_identity_divergence(obs), expected, rtol=1e-12)


class TestPosteriorDistribution:
    def test_equals_normalized_likelihood(self):
        obs = Observation(28, 53)
        grid = make_grid(1001)
        direct = posterior_distribution(obs, grid)
        manual = normalize(likelihood_curve(obs, grid))
        assert_allclose(direct.values, manual.values, rtol=0, atol=1e-15)

    def test_uniform_prior_means_shape_is_likelihood(self):
        """With a flat base-rate prior the posterior mode is the MLE."""
        obs = Observation(50, 99)
        grid = make_grid(10001)
        dist = posterior_distribution(obs, grid)
        mode = grid.values[np.argmax(dist.values)]
        assert abs(mode - obs.proportion) <= grid.spacing

    def test_uniform_distribution_fixture(self):
        grid = make_grid(101)
        uni = uniform_distribution(grid)
        assert_allclose(range_probability(uni, RangeSpec(0.0, 1.0)), 1.0,
                        rtol=0, atol=1e-12)
