"""Tests for the Monte Carlo engine.

The keyed counter-based streams make every simulation a pure function of
(seed, stream, index), which the tests exploit: chunked generation must be
bit-identical to whole-stream generation, and repeat runs must agree to
the last bit.  The calibration's shared outcome table is pinned bit for bit
to frozen copies of the per-grid-point code it replaced, and fixed-seed
outputs are pinned by sha256 digests.
"""

import hashlib
import warnings

import numpy as np
import pytest
from conftest import assert_passes_without_avx512
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from replicalc import (
    InvalidArgumentError,
    Observation,
    SimulationConfig,
    make_grid,
    posterior_distribution,
    significance_boundary,
    simulate_calibration,
    simulate_threshold_instability,
    stream_uniforms,
)
from replicalc.likelihood import binomial_outcome_pmf
from replicalc.simulate import _draw_counts, _outcome_tables


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

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64])
    def test_seed_follows_the_experiments_rule(self, seed):
        """Seed 1.5 once returned seed 1's draws, and seed -1 raised an OverflowError."""
        with pytest.raises(InvalidArgumentError, match="seed must be a 64-bit unsigned integer"):
            stream_uniforms(seed, 0, 4)

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

    @pytest.mark.parametrize("fields", [(101.0, 99, 10, 1), (101, 99.0, 10, 1),
                                        (101, 99, 10.0, 1), (101, 99, 10, 1.5),
                                        (101, 99, 10, 2**64)])
    def test_non_integer_or_out_of_range_fields(self, fields):
        """A float is refused, not truncated: Philox would key seed 1.5 as seed 1."""
        with pytest.raises(InvalidArgumentError):
            SimulationConfig(*fields)


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
        grid = make_grid(101)
        for r in np.nonzero(report.qualifying)[0]:
            peak = posterior_distribution(Observation(int(r), 99), grid).values.max()
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

    def test_unreachable_counts_raise_no_warning(self):
        """On a 5-point grid most of the 10^4 + 1 counts have zero likelihood
        at every grid value; their 0/0 analytic rows must stay silent."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = simulate_calibration(SimulationConfig(5, 10000, 1000, 1))
        assert report.counts.sum() == 1000
        assert np.all(np.isfinite(report.per_cell_deviation[report.populated_cells]))


def _frozen_analytic_posterior_matrix(trials_n, grid_values):
    """The old analytic matrix: one outcome pmf per grid point, as columns."""
    m = grid_values.size
    likelihoods = np.empty((trials_n + 1, m))
    for i in range(m):
        likelihoods[:, i] = binomial_outcome_pmf(trials_n, grid_values[i])
    with np.errstate(invalid="ignore"):
        return likelihoods / likelihoods.sum(axis=1, keepdims=True)


def _frozen_draw_counts(u_true, u_outcome, grid_values, trials_n):
    """The old draw: each grid index's CDF rebuilt from its own outcome pmf."""
    m = grid_values.size
    idx = np.minimum((u_true * m).astype(np.int64), m - 1)
    observed = np.empty(idx.size, dtype=np.int64)
    for i in np.unique(idx):
        mask = idx == i
        cdf = np.cumsum(binomial_outcome_pmf(trials_n, grid_values[i]))
        observed[mask] = np.minimum(
            np.searchsorted(cdf, u_outcome[mask], side="right"), trials_n
        )
    return idx, observed


class TestOutcomeTableBitIdentity:
    """The one outcome table gives the bits of the per-grid-point code."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=3000),
           st.integers(min_value=0, max_value=2**32 - 1))
    @example(2, 1, 0)
    @example(101, 1, 0)
    @example(1001, 99, 7)  # about 500 single-draw groups
    def test_matches_frozen_per_row_code(self, m, n, seed):
        grid_values = make_grid(m).values
        cdfs, analytic = _outcome_tables(n, m)
        expected = _frozen_analytic_posterior_matrix(n, grid_values)
        assert analytic.shape == expected.shape
        assert analytic.tobytes() == expected.tobytes()

        rng = np.random.default_rng(seed)
        # The largest double below 1 can exceed cdf[-1] < 1: the clamp case.
        u_true = np.append(rng.random(500), [0.0, 1.0 - 2.0**-53])
        u_outcome = np.append(rng.random(500), [1.0 - 2.0**-53, 1.0 - 2.0**-53])
        got_idx, got_observed = _draw_counts(u_true, u_outcome, cdfs)
        want_idx, want_observed = _frozen_draw_counts(u_true, u_outcome, grid_values, n)
        assert got_idx.tobytes() == want_idx.tobytes()
        assert got_observed.tobytes() == want_observed.tobytes()

    def test_matches_frozen_per_row_code_without_avx512(self):
        """The explicit examples above, rerun where numpy's argsort, exp and
        log take their AVX2 paths.  Only the explicit phase runs, which keeps
        the subprocess near a second; the 1001-point example holds the many
        sparse groups and the clamp."""
        assert_passes_without_avx512(
            "from hypothesis import Phase, settings\n"
            "settings.register_profile('explicit', phases=[Phase.explicit])\n"
            "settings.load_profile('explicit')\n"
            "import test_simulate as t\n"
            "t.TestOutcomeTableBitIdentity().test_matches_frozen_per_row_code()")


def _calibration_digest(report):
    h = hashlib.sha256()
    for array in (report.counts, report.conditionals, report.per_cell_deviation):
        h.update(array.tobytes())
    h.update(repr(report.max_abs_deviation).encode())
    return h.hexdigest()


def _repr_digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestDigestGuard:
    """Fixed-seed Monte Carlo outputs, pinned byte for byte.

    The digests were recorded before calibration shared one outcome table;
    any change to the draw, the analytic posterior or the boundary search
    that moves a single bit shows here.
    """

    def test_headline_calibration(self, calibration_1m):
        assert _calibration_digest(calibration_1m) == (
            "baebea4f8ed8a45ce6de4ae37eced0e83dba7fe7cbdd93d3a2484437ccb1b69e")

    @pytest.mark.parametrize("config, digest", [
        ((1001, 99, 2**18, 7),
         "e41528333e0463c3abde5c0b3cdc08bbb832d890248fb2811f572ff53af8b2f0"),
        ((11, 20, 2000, 3),
         "b0fbab0b2c74433ba05563c30e93cab185127a380274e81e7d005056bc41582c"),
    ])
    def test_calibration(self, config, digest):
        report = simulate_calibration(SimulationConfig(*config))
        assert _calibration_digest(report) == digest

    def test_boundary_and_instability(self):
        boundary = significance_boundary(10**4, 0.404, 0.05)
        assert _repr_digest(boundary) == (
            "8fe092417c389c334cb833b5dddc141da8f916107729b0c8c676bed3f758bd9b")
        fraction = simulate_threshold_instability(boundary[1], 10**4, 0.404, 0.05, 10**5, 7)
        assert _repr_digest(fraction) == (
            "e220b6ea6979785d62ec9fd48d3dd1bfb106a2c60c975f6c2910e5739d74428b")


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

    def test_non_integer_trials_rejected(self):
        """99.5 trials once located the boundary for 99; the pmf it builds now refuses them."""
        with pytest.raises(InvalidArgumentError, match="trials must be an integer"):
            significance_boundary(99.5, 0.404, 0.05)


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

    @pytest.mark.parametrize("trials_n, num_trials, seed", [
        (99.0, 10, 1), (99, 10.0, 1), (99, 10, 1.9), (99, 10, -1), (99, 10, 2**64)])
    def test_sizes_and_seed_follow_calibration_rules(self, trials_n, num_trials, seed):
        """Seed 1.9 once ran as seed 1, and seed -1 escaped as an OverflowError."""
        with pytest.raises(InvalidArgumentError):
            simulate_threshold_instability(0.5, trials_n, 0.404, 0.05, num_trials, seed)
