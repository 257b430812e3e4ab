"""Tests for the special-function kernels.

The saddle-point binomial kernel and the complementary error function are
fixed rational/series approximations, so they are checked against
independent oracles: the C library via ``math`` and scipy's vetted
routines.  The binomial kernel is also pinned bit for bit to a frozen copy
of its original broadcast-everything form, and at p = 0 and p = 1 to the
hand-written edge values its callers used before it handled them itself.
"""

import math

import numpy as np
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from replicalc.grid_model import Observation, make_grid
from replicalc.likelihood import (
    binomial_outcome_pmf,
    binomial_pmf,
    likelihood_curve,
)
from replicalc.special import (
    _LOG_TWO_PI,
    _bd0,
    _binomial_log_pmf,
    _stirlerr,
    erfc,
    normal_cdf,
)


class TestSaddlePointKernel:
    """Stirling-error and deviance pieces of the binomial mass."""

    def test_stirlerr_definition(self):
        """stirlerr(n) = log n! - log(sqrt(2 pi n) (n/e)^n).

        Compared against the lgamma form only at moderate n: beyond a few
        hundred, math.lgamma's own absolute error (~ulp of a large log)
        exceeds the series' truncation error.
        """
        for n in list(range(1, 16)) + [16, 20, 35, 80, 200, 500]:
            expected = (math.lgamma(n + 1)
                        - ((n + 0.5) * math.log(n) - n + 0.5 * math.log(2 * math.pi)))
            assert_allclose(_stirlerr(n), expected, rtol=0, atol=5e-14)

    def test_stirlerr_stirling_bounds(self):
        """Exact classical bounds: 1/(12n+1) < stirlerr(n) < 1/(12n)."""
        n = np.array([1, 2, 5, 15, 16, 40, 99, 499, 10000, 100000], dtype=float)
        s = _stirlerr(n)
        assert np.all(s > 1.0 / (12.0 * n + 1.0))
        assert np.all(s < 1.0 / (12.0 * n))

    def test_stirlerr_array(self):
        n = np.array([1, 15, 16, 99, 10000])
        vec = _stirlerr(n)
        assert vec.shape == (5,)
        for i, k in enumerate(n):
            assert vec[i] == _stirlerr(int(k))

    def test_bd0_against_direct_formula(self):
        """Far from x = m the direct expression is safe to compare against."""
        rng = np.random.default_rng(21)
        x = rng.uniform(1.0, 5000.0, size=500)
        m = x * rng.uniform(1.5, 3.0, size=500)
        assert_allclose(_bd0(x, m), x * np.log(x / m) + m - x, rtol=1e-13)

    def test_bd0_near_equal_series(self):
        """The series branch must join smoothly onto the direct branch.

        Near x = m the direct expression cancels (absolute error ~1e-13 at
        x ~ 1000), so the comparison is absolute, not relative.
        """
        x = np.full(400, 1000.0)
        m = 1000.0 + np.linspace(-120.0, 120.0, 400)  # straddles the switch
        direct = x * np.log(x / m) + m - x
        assert_allclose(_bd0(x, m), direct, rtol=0, atol=1e-12)
        assert _bd0(1000.0, 1000.0)[0] == 0.0

    def test_log_pmf_matches_log_choose_form(self):
        """Against the textbook log-gamma decomposition at moderate n."""
        rng = np.random.default_rng(33)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            r = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0.01, 0.99))
            direct = (math.log(math.comb(n, r)) + r * math.log(p)
                      + (n - r) * math.log1p(-p))
            assert_allclose(_binomial_log_pmf(r, n, p)[0], direct,
                            rtol=0, atol=1e-11)


def _frozen_bd0(x, m):
    """The original _bd0: both operands broadcast to full size before masking."""
    x_arr, m_arr = np.broadcast_arrays(
        np.atleast_1d(np.asarray(x, dtype=float)),
        np.atleast_1d(np.asarray(m, dtype=float)),
    )
    out = np.empty(x_arr.shape)
    near = np.abs(x_arr - m_arr) < 0.1 * (x_arr + m_arr)
    if np.any(near):
        xn = x_arr[near]
        mn = m_arr[near]
        v = (xn - mn) / (xn + mn)
        s = (xn - mn) * v
        ej = 2.0 * xn * v
        v2 = v * v
        for j in range(1, 1000):
            ej = ej * v2
            s_next = s + ej / (2 * j + 1)
            if np.all(s_next == s):
                break
            s = s_next
        out[near] = s
    far = ~near
    if np.any(far):
        xf = x_arr[far]
        mf = m_arr[far]
        out[far] = xf * np.log(xf / mf) + mf - xf
    return out


def _frozen_binomial_log_pmf(x, n, p):
    """The original _binomial_log_pmf: x and p broadcast before every term."""
    x_arr, p_arr = np.broadcast_arrays(
        np.atleast_1d(np.asarray(x, dtype=float)),
        np.atleast_1d(np.asarray(p, dtype=float)),
    )
    out = np.empty(x_arr.shape)
    lo = x_arr == 0.0
    hi = x_arr == float(n)
    if np.any(lo):
        out[lo] = n * np.log1p(-p_arr[lo])
    if np.any(hi):
        out[hi] = n * np.log(p_arr[hi])
    mid = ~(lo | hi)
    if np.any(mid):
        xm = x_arr[mid]
        pm = p_arr[mid]
        qm = 1.0 - pm
        lc = (
            _stirlerr(n)
            - _stirlerr(xm)
            - _stirlerr(n - xm)
            - _frozen_bd0(xm, n * pm)
            - _frozen_bd0(n - xm, n * qm)
        )
        lf = _LOG_TWO_PI + np.log(xm) + np.log1p(-xm / n)
        out[mid] = lc - 0.5 * lf
    return out


def _assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@st.composite
def _count_and_trials(draw):
    n = draw(st.integers(min_value=1, max_value=100_000))
    r = draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))
    return r, n


class TestKernelBitIdentity:
    """Count-only and p-only terms evaluated once give the broadcast bits."""

    @settings(max_examples=150, deadline=None)
    @given(_count_and_trials(), st.integers(min_value=3, max_value=10_001))
    def test_likelihood_curve_matches_frozen_kernel(self, rn, points):
        r, n = rn
        p = make_grid(points).values[1:-1]
        _assert_same_bits(_binomial_log_pmf(r, n, p),
                          _frozen_binomial_log_pmf(r, n, p))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=100_000),
           st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_outcome_pmf_matches_frozen_kernel(self, n, p):
        k = np.arange(n + 1)
        _assert_same_bits(_binomial_log_pmf(k, n, p),
                          _frozen_binomial_log_pmf(k, n, p))

    def test_scalar_bd0_shape(self):
        _assert_same_bits(_bd0(1000.0, 1000.0), _frozen_bd0(1000.0, 1000.0))


def _frozen_log_pmf_at(r, n, p_values):
    """The old likelihood._log_pmf_at: the kernel on the grid interior only,
    with p = 0 and p = 1 written by hand."""
    out = np.full(p_values.shape, -np.inf)
    interior = (p_values > 0.0) & (p_values < 1.0)
    if np.any(interior):
        out[interior] = _frozen_binomial_log_pmf(r, n, p_values[interior])
    if r == 0:
        out[p_values == 0.0] = 0.0
    if r == n:
        out[p_values == 1.0] = 0.0
    return out


def _frozen_degenerate_outcome_pmf(n, p):
    """The old binomial_outcome_pmf branches for p = 0 and p = 1."""
    out = np.zeros(n + 1)
    out[0 if p == 0.0 else n] = 1.0
    return out


class TestDegenerateP:
    """The kernel's own p = 0 and p = 1 give the bits the callers used to write.

    Log values are compared with ``np.array_equal``: at p = 0, r = 0 the
    kernel gives n x log1p(-0.0) = -0.0 where the old path wrote +0.0, and
    both exponentiate to 1.0.
    """

    @settings(max_examples=150, deadline=None)
    @given(_count_and_trials(), st.integers(min_value=2, max_value=10_001))
    def test_likelihood_curve_matches_frozen_edge_handling(self, rn, points):
        r, n = rn
        grid = make_grid(points)
        expected = _frozen_log_pmf_at(r, n, grid.values)
        got = _binomial_log_pmf(r, n, grid.values)
        _assert_same_bits(got, expected)
        with np.errstate(under="ignore"):
            expected_values = np.exp(expected)
        curve = likelihood_curve(Observation(r, n), grid)
        assert curve.values.tobytes() == expected_values.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=100_000),
           st.sampled_from([0.0, -0.0, 1.0]))
    def test_outcome_pmf_matches_frozen_branches(self, n, p):
        got = binomial_outcome_pmf(n, p)
        assert got.tobytes() == _frozen_degenerate_outcome_pmf(n, p).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_count_and_trials())
    def test_negative_zero_is_zero(self, rn):
        """p = -0.0 passes the [0, 1] check and must act exactly as p = 0."""
        r, n = rn
        _assert_same_bits(_binomial_log_pmf(r, n, np.array([-0.0, 0.5])),
                          _frozen_log_pmf_at(r, n, np.array([0.0, 0.5])))

    def test_binomial_pmf_at_negative_zero(self):
        assert binomial_pmf(5, 10, -0.0) == 0.0
        assert binomial_pmf(0, 10, -0.0) == 1.0


class TestErfc:
    """Rational-approximation erfc against scipy across all three regimes."""

    def test_matches_scipy(self):
        # Spans the |x| <= 0.46875 series, the mid-range rational, and the
        # asymptotic region, plus the underflow tail.
        x = np.concatenate([
            np.linspace(-6.0, 6.0, 4001),
            np.linspace(-0.5, 0.5, 1001),
            np.linspace(3.9, 4.1, 101),
            np.linspace(6.0, 30.0, 301),
        ])
        assert_allclose(erfc(x), scipy.special.erfc(x), rtol=1e-12, atol=5e-300)

    def test_reflection(self):
        """erfc(-x) + erfc(x) = 2."""
        x = np.linspace(0.0, 8.0, 2000)
        assert_allclose(erfc(-x) + erfc(x), 2.0, rtol=0, atol=1e-14)

    def test_anchor_values(self):
        assert erfc(0.0) == 1.0
        assert_allclose(erfc(1.0), 0.15729920705028513, rtol=1e-13)

    def test_scalar_type(self):
        assert isinstance(erfc(0.3), float)


class TestNormalCdf:
    """Standard normal CDF built on erfc."""

    def test_matches_scipy(self):
        z = np.linspace(-10.0, 10.0, 8001)
        assert_allclose(normal_cdf(z), scipy.special.ndtr(z), rtol=1e-12,
                        atol=1e-15)

    def test_center_and_symmetry(self):
        assert normal_cdf(0.0) == 0.5
        z = np.linspace(0.0, 8.0, 1000)
        assert_allclose(normal_cdf(z) + normal_cdf(-z), 1.0, rtol=0, atol=1e-14)

    def test_monotone(self):
        z = np.linspace(-12.0, 12.0, 5000)
        assert np.all(np.diff(normal_cdf(z)) >= 0)

    def test_far_tails(self):
        """Deep tails keep relative accuracy (no premature underflow)."""
        for z in (-8.0, -12.0, -20.0):
            assert_allclose(normal_cdf(z), scipy.special.ndtr(z), rtol=1e-11)
        assert normal_cdf(40.0) == 1.0
