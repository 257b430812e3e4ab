"""Tests for pooling evidence across studies."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from replicalc import (
    ContradictoryEvidenceError,
    GaussianModel,
    IncompatibleGridsError,
    InvalidArgumentError,
    Observation,
    StudyRecord,
    gaussian_likelihood_curve,
    likelihood_curve,
    load_studies,
    make_grid,
    multiply_normalize,
    normalize,
    parse_studies,
    pool_studies,
    uniform_distribution,
    what_if_update,
)


def _records(*pairs):
    return [StudyRecord(f"study-{i}", Observation(r, n))
            for i, (r, n) in enumerate(pairs)]


class TestMultiplyNormalize:
    def test_uniform_prior_is_identity(self):
        """A flat prior contributes nothing: the result is the normalized
        likelihood itself."""
        grid = make_grid(1001)
        like = likelihood_curve(Observation(28, 53), grid)
        via_prior = multiply_normalize(uniform_distribution(grid), like)
        direct = normalize(like)
        assert_allclose(via_prior.values, direct.values, rtol=0, atol=1e-15)

    def test_point_mass_prior_is_absorbing(self):
        """A dogmatic prior cannot be moved by any evidence."""
        from replicalc.grid_model import DISTRIBUTION, Curve

        grid = make_grid(101)
        values = np.zeros(101)
        values[43] = 1.0
        prior = Curve(grid, values, DISTRIBUTION)
        like = likelihood_curve(Observation(28, 53), grid)
        posterior = multiply_normalize(prior, like)
        assert posterior.value_at(0.43) == 1.0

    def test_grid_mismatch_rejected(self):
        prior = uniform_distribution(make_grid(101))
        like = likelihood_curve(Observation(5, 9), make_grid(1001))
        with pytest.raises(IncompatibleGridsError):
            multiply_normalize(prior, like)

    def test_contradiction_rejected(self):
        """Prior and likelihood with disjoint support cannot combine."""
        from replicalc.grid_model import DISTRIBUTION, Curve

        grid = make_grid(101)
        values = np.zeros(101)
        values[0] = 1.0  # prior says p = 0, data says 9-of-9
        prior = Curve(grid, values, DISTRIBUTION)
        like = likelihood_curve(Observation(9, 9), grid)
        with pytest.raises(ContradictoryEvidenceError):
            multiply_normalize(prior, like)

    def test_requires_distribution_prior(self):
        grid = make_grid(101)
        like = likelihood_curve(Observation(5, 9), grid)
        with pytest.raises(InvalidArgumentError):
            multiply_normalize(like, like)


class TestPoolStudies:
    def test_pooling_identity(self):
        """22-of-46 then 28-of-53 equals one 50-of-99 study."""
        grid = make_grid(10001)
        pooled = pool_studies(_records((22, 46), (28, 53)), grid)
        direct = normalize(likelihood_curve(Observation(50, 99), grid))
        assert np.max(np.abs(pooled.values - direct.values)) <= 1e-10

    def test_pooling_identity_random_pairs(self):
        """Splitting any study in two and pooling reproduces the whole."""
        grid = make_grid(1001)
        rng = np.random.default_rng(1213)
        for _ in range(50):
            n = int(rng.integers(2, 201))
            r = int(rng.integers(0, n + 1))
            n1 = int(rng.integers(1, n))
            # Hypergeometric split: any partition of the trials works as
            # long as the success counts stay feasible in each part.
            r1_lo = max(0, r - (n - n1))
            r1_hi = min(r, n1)
            r1 = int(rng.integers(r1_lo, r1_hi + 1))
            pooled = pool_studies(_records((r1, n1), (r - r1, n - n1)), grid)
            direct = normalize(likelihood_curve(Observation(r, n), grid))
            assert np.max(np.abs(pooled.values - direct.values)) <= 1e-10

    def test_order_does_not_matter(self):
        grid = make_grid(1001)
        forward = pool_studies(_records((5, 9), (28, 53), (22, 46)), grid)
        backward = pool_studies(_records((22, 46), (28, 53), (5, 9)), grid)
        assert_allclose(forward.values, backward.values, rtol=0, atol=1e-12)

    def test_single_study(self):
        grid = make_grid(1001)
        pooled = pool_studies(_records((28, 53)), grid)
        direct = normalize(likelihood_curve(Observation(28, 53), grid))
        assert_allclose(pooled.values, direct.values, rtol=0, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pool_studies([], make_grid(101))

    def test_pooling_sharpens(self):
        """More agreeing evidence concentrates the posterior."""
        grid = make_grid(1001)
        one = pool_studies(_records((28, 53)), grid)
        two = pool_studies(_records((28, 53), (27, 51)), grid)
        assert two.values.max() > one.values.max()


class TestWhatIfUpdate:
    def test_matches_manual_multiply(self):
        grid = make_grid(1001)
        current = normalize(likelihood_curve(Observation(28, 53), grid))
        hypothetical = GaussianModel(0.52, 0.05)
        got = what_if_update(current, hypothetical, grid)
        manual = multiply_normalize(
            current, gaussian_likelihood_curve(hypothetical, grid))
        assert_allclose(got.values, manual.values, rtol=0, atol=1e-15)

    def test_consistent_evidence_sharpens(self):
        grid = make_grid(1001)
        current = normalize(likelihood_curve(Observation(28, 53), grid))
        updated = what_if_update(current, GaussianModel(0.53, 0.04), grid)
        assert updated.values.max() > current.values.max()

    def test_grid_mismatch_rejected(self):
        current = uniform_distribution(make_grid(11))
        with pytest.raises(IncompatibleGridsError) as info:
            what_if_update(current, GaussianModel(0.5, 0.1), make_grid(21))
        assert str(info.value) == "grids differ: 11 vs 21 points"


class TestParseStudies:
    def test_basic_lines(self):
        records = parse_studies([
            "# pilot cohort",
            "alpha, 22, 46",
            "",
            "beta,28,53   ",
        ])
        assert [r.label for r in records] == ["alpha", "beta"]
        assert records[0].observation == Observation(22, 46)
        assert records[1].observation == Observation(28, 53)

    def test_malformed_line_names_source_and_number(self):
        with pytest.raises(InvalidArgumentError, match=r"studies\.txt:3"):
            parse_studies(["a,1,2", "b,2,3", "oops"], source="studies.txt")

    def test_non_integer_counts(self):
        with pytest.raises(InvalidArgumentError, match=r":1"):
            parse_studies(["a,half,2"])

    def test_invalid_observation_carries_line(self):
        with pytest.raises(InvalidArgumentError, match=r":2"):
            parse_studies(["a,1,2", "b,5,3"])

    def test_empty_label_rejected(self):
        with pytest.raises(InvalidArgumentError):
            parse_studies([",1,2"])


class TestLoadStudies:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "studies.txt"
        path.write_text("# two cohorts\nalpha,22,46\nbeta,28,53\n",
                        encoding="utf-8")
        records = load_studies(path)
        assert len(records) == 2
        assert records[0].label == "alpha"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_studies(tmp_path / "absent.txt")

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("alpha,22\n", encoding="utf-8")
        with pytest.raises(InvalidArgumentError, match=r"bad\.txt:1"):
            load_studies(path)
