"""Tests for binomial and Gaussian likelihood evaluation.

scipy.stats.binom serves as the oracle for pointwise probability masses;
structural identities (reflection, completeness) guard the log-space
evaluation path on its own terms.  Curves on grids large enough to be built
in blocks are checked bit for bit against one kernel call over the grid.
"""

from functools import lru_cache

import numpy as np
import pytest
from conftest import assert_passes_without_avx512
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from replicalc import (
    GaussianModel,
    InvalidArgumentError,
    Observation,
    binomial_outcome_pmf,
    binomial_pmf,
    gaussian_likelihood_curve,
    likelihood,
    likelihood_curve,
    likelihood_sum,
    make_grid,
    normalize,
)
from replicalc.special import _binomial_log_pmf


class TestBinomialPmf:
    def test_dyadic_reference_cases(self):
        """p = 1/2 with small n has exact rational values to check against:
        C(9,4)/2^9 = C(10,5)/2^10 = 0.24609375."""
        assert_allclose(binomial_pmf(4, 9, 0.5), 0.24609375, rtol=1e-13)
        assert_allclose(binomial_pmf(5, 10, 0.5), 0.24609375, rtol=1e-13)

    def test_worked_values(self):
        assert_allclose(binomial_pmf(50, 99, 0.43), 0.02594864120476, rtol=1e-10)
        assert_allclose(binomial_pmf(50, 99, 0.59), 0.01869964989356, rtol=1e-10)

    def test_matches_scipy(self):
        import scipy.stats  # imported here: the no-AVX-512 rerun below need not pay for it

        # In deep tails at large n scipy's own lgamma-difference evaluation
        # drifts by a few 1e-12 relative, which dominates this comparison.
        rng = np.random.default_rng(314)
        for _ in range(300):
            n = int(rng.integers(1, 2000))
            r = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0.001, 0.999))
            assert_allclose(binomial_pmf(r, n, p), scipy.stats.binom.pmf(r, n, p),
                            rtol=5e-12, atol=1e-300)

    def test_degenerate_p(self):
        """p = 0 and p = 1 are handled exactly, with no NaNs."""
        assert binomial_pmf(0, 10, 0.0) == 1.0
        assert binomial_pmf(1, 10, 0.0) == 0.0
        assert binomial_pmf(10, 10, 1.0) == 1.0
        assert binomial_pmf(9, 10, 1.0) == 0.0

    def test_reflection(self):
        """pmf(r; n, p) = pmf(n-r; n, 1-p)."""
        rng = np.random.default_rng(99)
        for _ in range(300):
            n = int(rng.integers(1, 500))
            r = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0.0, 1.0))
            assert_allclose(binomial_pmf(r, n, p), binomial_pmf(n - r, n, 1.0 - p),
                            rtol=1e-12, atol=1e-300)

    def test_validates_p(self):
        with pytest.raises(InvalidArgumentError):
            binomial_pmf(1, 2, -0.1)
        with pytest.raises(InvalidArgumentError):
            binomial_pmf(1, 2, 1.1)


class TestBinomialOutcomePmf:
    def test_completeness(self):
        """Masses over all outcomes sum to one."""
        rng = np.random.default_rng(8)
        for n in (1, 9, 99, 499, 10000):
            p = float(rng.uniform(0.01, 0.99))
            masses = binomial_outcome_pmf(n, p)
            assert masses.size == n + 1
            assert_allclose(masses.sum(), 1.0, rtol=0, atol=1e-12)
            assert np.all(masses >= 0)

    def test_degenerate_point_mass(self):
        masses = binomial_outcome_pmf(5, 0.0)
        assert list(masses) == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        masses = binomial_outcome_pmf(5, 1.0)
        assert list(masses) == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("trials", [99.5, 99.0])
    def test_non_integer_trials_rejected(self, trials):
        """99.5 trials once gave the 100 masses of 99 trials."""
        with pytest.raises(InvalidArgumentError, match="trials must be an integer"):
            binomial_outcome_pmf(trials, 0.4)

    def test_matches_scipy_vector(self):
        import scipy.stats

        n, p = 99, 0.404
        assert_allclose(binomial_outcome_pmf(n, p),
                        scipy.stats.binom.pmf(np.arange(n + 1), n, p),
                        rtol=1e-12, atol=1e-300)


class TestLikelihoodCurve:
    def test_no_nans_at_grid_extremes(self):
        """The grid includes p = 0 and p = 1; the curve must stay finite."""
        curve = likelihood_curve(Observation(50, 99), make_grid(101))
        assert np.all(np.isfinite(curve.values))
        assert curve.values[0] == 0.0
        assert curve.values[-1] == 0.0

    def test_peak_near_observed_proportion(self):
        grid = make_grid(10001)
        curve = likelihood_curve(Observation(50, 99), grid)
        peak = grid.values[np.argmax(curve.values)]
        assert abs(peak - 50 / 99) <= grid.spacing

    def test_boundary_observations(self):
        grid = make_grid(101)
        zeros = likelihood_curve(Observation(0, 9), grid)
        assert zeros.values[0] == 1.0  # p = 0 explains 0-of-9 perfectly
        full = likelihood_curve(Observation(9, 9), grid)
        assert full.values[-1] == 1.0


@lru_cache(maxsize=None)
def _grid(points):
    return make_grid(points)


def _single_call_curve(obs, grid):
    """``likelihood_curve``'s values as one kernel call over the whole grid."""
    with np.errstate(under="ignore"):
        return np.exp(_binomial_log_pmf(obs.successes, obs.trials, grid.values))


@st.composite
def _observations(draw):
    """n up to 3*10^5, with r = 0 and r = n drawn on purpose."""
    n = draw(st.integers(1, 300_000))
    edge = draw(st.sampled_from([None, None, None, 0, 1]))
    return Observation(draw(st.integers(0, n)) if edge is None else edge * n, n)


# Grids up to _ONE_CALL_MAX = 107,000 points take one call; above, blocks,
# the last of them 1 point long at 2^17 + 1.
_BLOCKED_GRIDS = (107_000, 107_001, 107_002, 2**17 + 1, 300_001, 10**6 + 1)


class TestBlockedLikelihoodCurve:
    """Large grids are built in blocks, skipping blocks that exp rounds to 0."""

    @settings(max_examples=12, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points=st.sampled_from(_BLOCKED_GRIDS), obs=_observations())
    def test_matches_single_call(self, points, obs):
        grid = _grid(points)
        assert np.array_equal(likelihood_curve(obs, grid).values, _single_call_curve(obs, grid))

    @pytest.mark.parametrize("r, n, skips", [(50_000, 100_000, True), (0, 300_000, True),
                                             (300_000, 300_000, True), (1_200, 3_000, True),
                                             (7, 10, False)])
    def test_skipped_blocks_are_all_zero(self, monkeypatch, r, n, skips):
        """Every block left at 0.0 is all 0.0 in the single call; only large n skips any."""
        grid = _grid(10**6 + 1)
        evaluated = set()
        kernel = likelihood._binomial_log_pmf

        def recording(x, trials, p):
            if np.shares_memory(p, grid.values):  # a block, not the peak probe
                evaluated.add(int(round(p[0] * grid.intervals)))
            return kernel(x, trials, p)

        monkeypatch.setattr(likelihood, "_binomial_log_pmf", recording)
        blocked = likelihood_curve(Observation(r, n), grid).values
        single = _single_call_curve(Observation(r, n), grid)
        assert np.array_equal(blocked, single)
        skipped = [s for s in range(0, grid.points, likelihood._BLOCK) if s not in evaluated]
        for start in skipped:
            assert not np.any(single[start:start + likelihood._BLOCK])
        assert bool(skipped) == skips

    def test_matches_single_call_without_avx512(self):
        """The property above, rerun with numpy's AVX-512 loops switched off."""
        assert_passes_without_avx512(
            "import test_likelihood as t; t.TestBlockedLikelihoodCurve().test_matches_single_call()")


class TestLikelihoodSum:
    """Sum over an m-point grid approaches (m-1)/(n+1)."""

    def test_headline_example(self):
        curve = likelihood_curve(Observation(50, 99), make_grid(10001))
        assert_allclose(likelihood_sum(curve), 100.0, rtol=0, atol=0.01)

    @pytest.mark.parametrize("r, n", [(5, 9), (50, 99), (250, 499)])
    def test_generalization(self, r, n):
        grid = make_grid(10001)
        expected = grid.intervals / (n + 1)
        total = likelihood_sum(likelihood_curve(Observation(r, n), grid))
        assert_allclose(total, expected, rtol=1e-3)

    def test_two_point_grid(self):
        """grid(2) holds only p in {0, 1}: observing 1-of-1 sums to 1."""
        curve = likelihood_curve(Observation(1, 1), make_grid(2))
        assert likelihood_sum(curve) == 1.0

    def test_requires_likelihood_kind(self):
        dist = normalize(likelihood_curve(Observation(5, 9), make_grid(101)))
        with pytest.raises(InvalidArgumentError):
            likelihood_sum(dist)


class TestGaussianModel:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            GaussianModel(0.5, 0.0)
        with pytest.raises(InvalidArgumentError):
            GaussianModel(np.inf, 0.1)

    def test_curve_mass_sums_to_one(self):
        """Cell masses of a well-contained Gaussian integrate to ~1."""
        grid = make_grid(10001)
        curve = gaussian_likelihood_curve(GaussianModel(0.5, 0.05), grid)
        assert_allclose(curve.total, 1.0, rtol=0, atol=1e-6)

    def test_symmetry_about_center(self):
        grid = make_grid(1001)
        curve = gaussian_likelihood_curve(GaussianModel(0.5, 0.04), grid)
        assert_allclose(curve.values, curve.values[::-1], rtol=1e-12)

    def test_mode_at_center(self):
        grid = make_grid(10001)
        curve = gaussian_likelihood_curve(GaussianModel(0.5051, 0.03), grid)
        mode = grid.values[np.argmax(curve.values)]
        assert abs(mode - 0.5051) <= grid.spacing

    def test_matches_density_times_spacing(self):
        import scipy.stats

        grid = make_grid(1001)
        model = GaussianModel(0.404, 0.0493)
        curve = gaussian_likelihood_curve(model, grid)
        density = scipy.stats.norm.pdf(grid.values, model.center, model.sd)
        assert_allclose(curve.values, density * grid.spacing, rtol=1e-12)
