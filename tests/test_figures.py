"""Tests for the reference figure datasets."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from replicalc import InvalidArgumentError
from replicalc.figures import (
    FIGURE_IDS,
    FigureDataset,
    build_figure,
)


class TestFig2:
    def test_shape_and_columns(self):
        dataset = build_figure("fig2")
        assert dataset.columns == ("p", "normalized_likelihood_50_99",
                                   "binomial_pmf_k_over_99")
        assert dataset.rows.shape == (101, 3)
        assert dataset.rows[0, 0] == 0.0
        assert dataset.rows[-1, 0] == 1.0

    def test_columns_nearly_coincide(self):
        """The posterior for 50 of 99 and the attributed outcome
        distribution from a 50/99 population agree pointwise to 0.002."""
        dataset = build_figure("fig2")
        gap = np.abs(dataset.rows[:, 1] - dataset.rows[:, 2])
        assert gap.max() <= 0.002

    def test_both_columns_are_distributions(self):
        dataset = build_figure("fig2")
        assert_allclose(dataset.rows[:, 1].sum(), 1.0, rtol=0, atol=1e-12)
        assert_allclose(dataset.rows[:, 2].sum(), 1.0, rtol=0, atol=1e-12)

    def test_peak_at_observed_proportion(self):
        dataset = build_figure("fig2")
        peak_row = dataset.rows[np.argmax(dataset.rows[:, 1])]
        assert_allclose(peak_row[0], 50 / 99, rtol=0, atol=5e-3)


class TestFig3:
    def test_shape_and_columns(self):
        dataset = build_figure("fig3")
        assert dataset.columns == ("p", "prior_22_46",
                                   "normalized_likelihood_28_53", "posterior")
        assert dataset.rows.shape == (10001, 4)

    def test_posterior_is_normalized_product(self):
        """The posterior column equals the renormalized pointwise product
        of the prior and likelihood columns."""
        dataset = build_figure("fig3")
        product = dataset.rows[:, 1] * dataset.rows[:, 2]
        product /= product.sum()
        assert np.max(np.abs(product - dataset.rows[:, 3])) <= 1e-10

    def test_posterior_peak_scales_with_resolution(self):
        """Pooling 22/46 with 28/53 gives the 50/99 posterior; on a grid
        one hundred times finer than fig2's, per-point mass shrinks by
        about the same factor."""
        fine_peak = build_figure("fig3").rows[:, 3].max()
        coarse_peak = build_figure("fig2").rows[:, 1].max()
        assert_allclose(coarse_peak / fine_peak, 100.0, rtol=0.01)


class TestFig4:
    def test_shape_and_columns(self):
        dataset = build_figure("fig4")
        assert dataset.columns == ("p", "normalized_binomial_likelihood_50_99",
                                   "gaussian_null_40_4")
        assert dataset.rows.shape == (10001, 3)

    def test_gaussian_column(self):
        """The null curve is a normalized Gaussian centered at 0.404."""
        dataset = build_figure("fig4")
        gauss = dataset.rows[:, 2]
        assert_allclose(gauss.sum(), 1.0, rtol=0, atol=1e-12)
        assert dataset.rows[np.argmax(gauss), 0] == 0.404

    def test_gaussian_symmetry_about_null(self):
        dataset = build_figure("fig4")
        gauss = dataset.rows[:, 2]
        center = int(round(0.404 / 1e-4))
        k = min(center, gauss.size - 1 - center)
        left = gauss[center - k:center][::-1]
        right = gauss[center + 1:center + 1 + k]
        assert np.max(np.abs(left - right)) <= 1e-15

    def test_curves_separated(self):
        """The likelihood peaks well above the null center."""
        dataset = build_figure("fig4")
        like_mode = dataset.rows[np.argmax(dataset.rows[:, 1]), 0]
        assert like_mode > 0.404 + 0.05


class TestDatasetPlumbing:
    def test_unknown_figure_id(self):
        with pytest.raises(InvalidArgumentError):
            build_figure("fig9")

    def test_figure_ids_all_build(self):
        for figure_id in FIGURE_IDS:
            dataset = build_figure(figure_id)
            assert dataset.figure_id == figure_id

    def test_rows_must_increase_in_p(self):
        with pytest.raises(InvalidArgumentError):
            FigureDataset(figure_id="fig2", columns=("p", "a", "b"),
                          rows=np.array([[0.2, 1, 1], [0.1, 1, 1]]))

    def test_row_width_must_match_columns(self):
        with pytest.raises(InvalidArgumentError):
            FigureDataset(figure_id="fig2", columns=("p", "a"),
                          rows=np.array([[0.1, 1, 1]]))

    def test_rows_frozen(self):
        dataset = build_figure("fig2")
        with pytest.raises((ValueError, RuntimeError)):
            dataset.rows[0, 0] = 0.5
