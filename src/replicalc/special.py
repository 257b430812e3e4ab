"""Deterministic special functions used by the statistical kernels.

The package evaluates binomial point masses and Gaussian tails through its
own fixed-coefficient routines rather than platform ``libm`` wrappers, so
that emitted numbers are bit-identical across operating systems and C
libraries.  Two classic, published approximations are used:

* ``erfc`` / ``normal_cdf`` — Cody's rational Chebyshev approximations for
  the error function (three regimes, relative error near machine epsilon).
* ``_binomial_log_pmf`` — Loader's saddle-point form of the binomial mass
  (Stirling error plus deviance terms).  Differencing three large
  log-gamma values would cost ~1e-11 of absolute error on the log scale at
  n = 10^4; the saddle-point split keeps it near machine epsilon, so
  outcome vectors sum to 1 within ~1e-13.  It takes p anywhere in [0, 1]
  and is exact at p = 0 and p = 1, so no caller special-cases them.

All routines accept scalars or numpy arrays and never call into
``math.lgamma`` or ``math.erf``, which may differ in the last bits between
platforms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["erfc", "normal_cdf"]

_LOG_SQRT_TWO_PI = 0.9189385332046727417803297364056176  # log(sqrt(2*pi))

# Stirling-series error stirlerr(n) = log n! - log( sqrt(2 pi n) (n/e)^n ).
# Exact table for n <= 15 (those factorials are exactly representable), the
# asymptotic series in 1/n^2 beyond.
_LOG_TWO_PI = 1.8378770664093454835606594728112353


def _exact_stirlerr_table() -> np.ndarray:
    table = np.empty(15)
    factorial = 1.0
    for k in range(1, 16):
        factorial *= k  # stays an exact integer below 2**53
        table[k - 1] = np.log(factorial) - (
            (k + 0.5) * np.log(k) - k + _LOG_SQRT_TWO_PI
        )
    return table


_STIRLERR_SMALL = _exact_stirlerr_table()

_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0


def _stirlerr(n):
    """stirlerr(n) for integer-valued n >= 1, scalar or array."""
    arr = np.atleast_1d(np.asarray(n, dtype=float))
    out = np.empty(arr.shape)
    small = arr <= 15.0
    if np.any(small):
        out[small] = _STIRLERR_SMALL[arr[small].astype(int) - 1]
    big = ~small
    if np.any(big):
        nb = arr[big]
        nn = nb * nb
        out[big] = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / nb
    if np.ndim(n) == 0:
        return float(out[0])
    return out


def _masked(a, mask):
    """``a``'s entries under ``mask``; a one-element ``a`` stays as is and broadcasts."""
    return a if a.size == 1 else np.broadcast_to(a, mask.shape)[mask]


def _bd0(x, m):
    """Deviance term x*log(x/m) + m - x for x > 0 and m >= 0, evaluated stably.

    Near x = m the direct expression cancels badly, so a convergent series
    in ((x-m)/(x+m))^2 takes over, as in Loader's reference evaluation; it
    overwrites the direct value there.  ``x`` and ``m`` broadcast, and a
    one-element operand is never copied out to the broadcast size.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    m_arr = np.atleast_1d(np.asarray(m, dtype=float))
    out = x_arr * np.log(x_arr / m_arr) + m_arr - x_arr
    near = np.abs(x_arr - m_arr) < 0.1 * (x_arr + m_arr)
    if np.any(near):
        xn = _masked(x_arr, near)
        mn = _masked(m_arr, near)
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
    return out


def _binomial_log_pmf(x, n: int, p):
    """log of C(n, x) p^x (1-p)^(n-x) for p in [0, 1].

    ``x`` is a scalar or integer-valued array in [0, n] and ``p`` a scalar
    or array in [0, 1]; the result is an ndarray of their broadcast shape
    (at least 1-d).  Callers pass one of the two as a scalar: a likelihood
    curve is one count x over an array of grid points, an outcome pmf is an
    array of counts at one p.  Terms that depend only on x are evaluated on
    x's own shape and terms that depend only on p on p's shape, so neither
    is repeated across the other's size; only the two deviance terms and
    the final sum are broadcast.  The operation order is fixed, so a term
    evaluated once gives the same bits as the same term evaluated per grid
    point.  Degenerate p is exact through log 0 = -inf: every impossible
    outcome gets -inf and the one possible outcome gets 0.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    # + 0.0 turns p = -0.0 into +0.0 and leaves every other value unchanged;
    # otherwise x log(x / -0.0) would be log(-inf) = NaN.
    p_arr = np.atleast_1d(np.asarray(p, dtype=float)) + 0.0
    lo = x_arr == 0.0
    hi = x_arr == float(n)
    mid = ~(lo | hi)
    with np.errstate(divide="ignore"):
        if np.any(mid):
            # Edge counts take the placeholder 1, finite in every term below
            # (mid is nonempty only for n >= 2), and are overwritten after.
            # At p = 0 or 1 a deviance term is x log(x/0) = +inf, never 0 x inf.
            xm = np.where(mid, x_arr, 1.0)
            lc = (
                _stirlerr(n)
                - _stirlerr(xm)
                - _stirlerr(n - xm)
                - _bd0(xm, n * p_arr)
                - _bd0(n - xm, n * (1.0 - p_arr))
            )
            lf = _LOG_TWO_PI + np.log(xm) + np.log1p(-xm / n)
            out = lc - 0.5 * lf
        else:
            out = np.empty(np.broadcast_shapes(x_arr.shape, p_arr.shape))
        if np.any(lo):
            np.copyto(out, n * np.log1p(-p_arr), where=lo)
        if np.any(hi):
            np.copyto(out, n * np.log(p_arr), where=hi)
    return out


# Cody (1969) rational Chebyshev coefficients for erf/erfc, three regimes.
_ERF_A = np.array(
    [
        3.16112374387056560e00,
        1.13864154151050156e02,
        3.77485237685302021e02,
        3.20937758913846947e03,
        1.85777706184603153e-1,
    ]
)
_ERF_B = np.array(
    [
        2.36012909523441209e01,
        2.44024637934444173e02,
        1.28261652607737228e03,
        2.84423683343917062e03,
    ]
)
_ERF_C = np.array(
    [
        5.64188496988670089e-1,
        8.88314979438837594e00,
        6.61191906371416295e01,
        2.98635138197400131e02,
        8.81952221241769090e02,
        1.71204761263407058e03,
        2.05107837782607147e03,
        1.23033935479799725e03,
        2.15311535474403846e-8,
    ]
)
_ERF_D = np.array(
    [
        1.57449261107098347e01,
        1.17693950891312499e02,
        5.37181101862009858e02,
        1.62138957456669019e03,
        3.29079923573345963e03,
        4.36261909014324716e03,
        3.43936767414372164e03,
        1.23033935480374942e03,
    ]
)
_ERF_P = np.array(
    [
        3.05326634961232344e-1,
        3.60344899949804439e-1,
        1.25781726111229246e-1,
        1.60837851487422766e-2,
        6.58749161529837803e-4,
        1.63153871373020978e-2,
    ]
)
_ERF_Q = np.array(
    [
        2.56852019228982242e00,
        1.87295284992346047e00,
        5.27905102951428412e-1,
        6.05183413124413191e-2,
        2.33520497626869185e-3,
    ]
)

_SQRT_HALF = 0.70710678118654752440084436210485
_ONE_OVER_SQRT_PI = 0.56418958354775628694807945156077


def _erfc_core(y):
    """erfc for nonnegative y (array), Cody's three-regime evaluation."""
    out = np.empty_like(y)

    small = y <= 0.46875
    if np.any(small):
        ys = y[small]
        z = ys * ys
        num = _ERF_A[4] * z
        den = z
        for i in range(3):
            num = (num + _ERF_A[i]) * z
            den = (den + _ERF_B[i]) * z
        erf_val = ys * (num + _ERF_A[3]) / (den + _ERF_B[3])
        out[small] = 1.0 - erf_val

    mid = (y > 0.46875) & (y <= 4.0)
    if np.any(mid):
        ym = y[mid]
        num = _ERF_C[8] * ym
        den = ym
        for i in range(7):
            num = (num + _ERF_C[i]) * ym
            den = (den + _ERF_D[i]) * ym
        ratio = (num + _ERF_C[7]) / (den + _ERF_D[7])
        out[mid] = _exp_neg_sq(ym) * ratio

    large = y > 4.0
    if np.any(large):
        yl = y[large]
        z = 1.0 / (yl * yl)
        num = _ERF_P[5] * z
        den = z
        for i in range(4):
            num = (num + _ERF_P[i]) * z
            den = (den + _ERF_Q[i]) * z
        ratio = z * (num + _ERF_P[4]) / (den + _ERF_Q[4])
        ratio = (_ONE_OVER_SQRT_PI - ratio) / yl
        with np.errstate(under="ignore"):
            out[large] = _exp_neg_sq(yl) * ratio

    return out


def _exp_neg_sq(y):
    """exp(-y*y) with the argument split to keep the far tail accurate.

    Splitting y*y into a coarse part (multiples of 1/16) and a remainder
    avoids the rounding of y*y itself dominating the result when y is
    large, which is how Cody's reference implementation evaluates it.
    """
    ysq = np.floor(y * 16.0) / 16.0
    with np.errstate(under="ignore"):
        return np.exp(-ysq * ysq) * np.exp(-(y - ysq) * (y + ysq))


def erfc(x):
    """Complementary error function for scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    flat = np.atleast_1d(arr).astype(float)
    result = _erfc_core(np.abs(flat))
    neg = flat < 0.0
    result[neg] = 2.0 - result[neg]
    if scalar:
        return float(result[0])
    return result.reshape(arr.shape)


def normal_cdf(z):
    """Standard normal CDF via erfc; accurate to ~1e-15 relative."""
    arr = np.asarray(z, dtype=float)
    out = 0.5 * erfc(-arr * _SQRT_HALF)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out)
    return out
