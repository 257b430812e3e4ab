"""Byte-level guard on the library's query and pooling outputs.

Each case runs one fixed input through the same chain as a benchmark
workload and compares a sha256 of every output with a value recorded
before any change it guards.  An array is hashed by its dtype, shape and
bytes, anything else by its ``repr``, so a last-bit move in any output
fails here.  A case that raises records its exact error type and message
instead.

Some recorded values are known defects, kept so that a fix shows as a
deliberate change of exactly those cases:

* ``query-tail-above-one``: a posterior tail of 1.0000000000000002;
* ``query-exact-p-above-one``: the exact P-value rounds above 1 and
  ``compare_p_and_posterior`` rejects its own result;
* ``query-null-tail-above-one``: the posterior null tail sums above 1
  and ``compare_p_and_posterior`` rejects its own result;
* ``query-all-zero-curve``: the likelihood underflows to zero at every
  point of an 11-point grid;
* ``pool-contradictory``: pooling 0/2000 with 2000/2000 finds no shared
  support, though the summed-count posterior exists;
* ``pool-far-from-summed``: the pooled posterior is 0.114 from the
  posterior of the summed counts.
"""

import hashlib

import numpy as np
import pytest

from replicalc import (
    AT_OR_ABOVE,
    AT_OR_BELOW,
    GaussianModel,
    InvalidArgumentError,
    Observation,
    RangeSpec,
    ReplicalcError,
    assess_replication,
    compare_p_and_posterior,
    gaussian_p_value,
    make_grid,
    parse_studies,
    pool_studies,
    posterior_distribution,
    range_probability,
    replication_interval,
    rescale_grid,
    tail_probability,
    what_if_update,
)


def _digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and the repr of other parts."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).data)
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _query(m, r, n, rng, threshold, tail_direction, null, null_direction, q):
    """The README quick-start on one study: posterior, queries, compare, rescale."""
    grid = make_grid(m)
    obs = Observation(r, n)
    post = posterior_distribution(obs, grid)
    in_range = range_probability(post, RangeSpec(*rng))
    tail = tail_probability(post, threshold, tail_direction)
    interval = replication_interval(post, 0.95)
    assessment = assess_replication(post, interval, q)
    try:
        report = compare_p_and_posterior(obs, null, grid, null_direction)
    except InvalidArgumentError as exc:
        # The at-observed Gaussian sd is undefined at r = 0 and r = n.
        if r not in (0, n):
            raise
        report = repr(exc)
    coarse = rescale_grid(post, make_grid(101))
    return post.values, in_range, tail, interval, assessment, report, coarse.values


def _pool(m, counts, center, sd, q):
    """Parse and pool studies, then a what-if update, an interval and an assessment."""
    grid = make_grid(m)
    studies = parse_studies(f"study-{j},{r},{n}" for j, (r, n) in enumerate(counts))
    pooled = pool_studies(studies, grid)
    updated = what_if_update(pooled, GaussianModel(center, sd), grid)
    interval = replication_interval(pooled, 0.95)
    return pooled.values, updated.values, interval, assess_replication(updated, interval, q)


def _split(k):
    """k studies with 20 <= n <= 2000 and proportions between 0.30 and 0.50."""
    counts = []
    for j in range(k):
        n = 20 + (733 * j + 101) % 1981
        counts.append((n * (30 + (37 * j) % 21) // 100, n))
    return counts


M4, M5, M6 = 10**4 + 1, 10**5 + 1, 10**6 + 1
ABOVE, BELOW = AT_OR_ABOVE, AT_OR_BELOW

# id -> (m, r, n, range, threshold, tail direction, null, null direction, q)
QUERY_CASES = {
    "query-m4-n13": (M4, 4, 13, (0.1, 0.45, True, False), 0.3, ABOVE, 0.2, ABOVE, 0.9),
    "query-m4-n178": (M4, 101, 178, (0.5, 0.6, False, True), 0.55, BELOW, 0.62, BELOW, 0.75),
    "query-m4-n2465": (M4, 612, 2465, (0.2, 0.3, True, True), 0.25, ABOVE, 0.27, BELOW, 0.6),
    "query-m4-n31416": (M4, 27182, 31416, (0.86, 0.87, False, False), 0.865, BELOW, 0.87, BELOW,
                        0.95),
    "query-m4-r0": (M4, 0, 540, (0.0, 0.01, True, True), 0.002, ABOVE, 0.05, ABOVE, 0.8),
    "query-m4-rn": (M4, 7000, 7000, (0.99, 1.0, False, True), 0.9995, BELOW, 0.95, BELOW, 0.55),
    "query-m5-n47": (M5, 30, 47, (0.4, 0.9, True, True), 0.7, BELOW, 0.5, ABOVE, 0.85),
    "query-m5-n509": (M5, 17, 509, (0.02, 0.05, False, True), 0.04, ABOVE, 0.06, BELOW, 0.7),
    "query-m5-n8191": (M5, 4095, 8191, (0.49, 0.51, True, False), 0.5, ABOVE, 0.49, ABOVE, 0.99),
    "query-m5-n73000": (M5, 1, 73000, (0.0, 0.0001, True, True), 0.00005, BELOW, 0.1, BELOW,
                        0.5),
    "query-m5-r0": (M5, 0, 99, (0.05, 0.5, False, False), 0.01, BELOW, 0.3, ABOVE, 0.65),
    "query-m5-rn": (M5, 42000, 42000, (0.9999, 1.0, True, True), 0.99995, ABOVE, 0.8, BELOW,
                    0.9),
    "query-m6-n10000": (M6, 4000, 10000, (0.39, 0.41, True, True), 0.405, ABOVE, 0.404, ABOVE,
                        0.9),
    "query-tail-above-one": (101, 0, 517, (0.0, 1.0, True, True), 0.9019, BELOW, 0.5, ABOVE, 0.9),
    "query-exact-p-above-one": (M4, 34, 69, (0.4, 0.6, True, True), 0.5, ABOVE, 0.9711, ABOVE,
                                0.9),
    "query-null-tail-above-one": (M4, 27182, 31416, (0.86, 0.87, True, True), 0.865, BELOW, 0.9,
                                  ABOVE, 0.95),
    "query-all-zero-curve": (11, 14, 8845, (0.0, 0.5, True, True), 0.5, ABOVE, 0.5, ABOVE, 0.9),
}

# id -> (observation, null, direction); z is below -8 in both.
GAUSSIAN_CASES = {
    "gaussian-90-100-null-0.1": (Observation(90, 100), 0.1, ABOVE),
    "gaussian-60-100-null-0.2": (Observation(60, 100), 0.2, ABOVE),
}

# id -> (m, [(r, n), ...], what-if center, what-if sd, q)
POOL_CASES = {
    "pool-k2": (M4, _split(2), 0.4, 0.1, 0.9),
    "pool-k20": (M4, _split(20), 0.35, 0.05, 0.7),
    "pool-k150": (M4, _split(150), 0.45, 0.2, 0.55),
    "pool-contradictory": (M4, [(0, 2000), (2000, 2000)], 0.5, 0.1, 0.9),
    "pool-far-from-summed": (M4, [(4116, 17069), (53, 4602)], 0.2, 0.1, 0.8),
}

RUNS = {
    **{name: (lambda a=args: _query(*a)) for name, args in QUERY_CASES.items()},
    **{name: (lambda a=args: (gaussian_p_value(*a),)) for name, args in GAUSSIAN_CASES.items()},
    **{name: (lambda a=args: _pool(*a)) for name, args in POOL_CASES.items()},
}

# id -> sha256 of the outputs, or (error type, message).
EXPECTED = {
    "query-m4-n13":
        "d92d0a062cfab81ac022e331e029a692113f9e5578e5a9d7d9a4084e47158056",
    "query-m4-n178":
        "7c55c8d096d91c3ef93deb8cf89ae24820b25444cda92b76690f0abc1fbb427a",
    "query-m4-n2465":
        "1f9f9c84a5a77a45c55c686d566aa527a95e23cc0b7a3e60f250f12d5b620501",
    "query-m4-n31416":
        "a180a65170c9da1018747a25a6c672a1e06e6e616319b5d94c63293681b0d2ab",
    "query-m4-r0":
        "564790281b336b6f19921710076fe2ec000f3e9526e88a54f2a808bdec158162",
    "query-m4-rn":
        "daa6fd01bbb296610f1a92d1f61a27113c309019f0c87edfee7b920d2f00f03b",
    "query-m5-n47":
        "d456a10d6019b2f129f1b2830be5becaf00bd0d6de9c6c6bbfbeb954ff4ede0b",
    "query-m5-n509":
        "b60fc01f8bb842817f915112d1458e1a25d8cbb5fd92a4ed57fbd4911f852a3e",
    "query-m5-n8191":
        "c9b2838632c10a44d9adc5cf9916312c4e76d5a064c5a936c73c6e14eb287233",
    "query-m5-n73000":
        "051e833cfd485aa42b6600547a77795c7738ed4bd1b107f00a55e6e8a56e7c93",
    "query-m5-r0":
        "a65a1d96840df1a74175f84cf251c510e1d80add9e49e7a826729d3c701da0dd",
    "query-m5-rn":
        "eb91c6d929210e3d2d19adf07a80c872e93eb2b3a839062b7c180cdccefb2d11",
    "query-m6-n10000":
        "faa0135e08a0c742cac08c2e0cc1b5b0e74599da3fdf269aed86b47b72ec27b8",
    "query-tail-above-one":
        "dbfd5946eec77ce520852d4d119cf8efc88e8b6775f6f8de6b1c93cd8f98e071",
    "query-exact-p-above-one":
        ("InvalidArgumentError", "p_value_exact_binomial must lie in [0, 1]"),
    "query-null-tail-above-one":
        ("InvalidArgumentError", "posterior_null_tail must lie in [0, 1]"),
    "query-all-zero-curve":
        ("DegenerateEvidenceError", "cannot normalize an all-zero curve"),
    "gaussian-90-100-null-0.1":
        "065ec0a295da1e313c98f51a6acf34c1fcc2807e482922dcb250d5d454a97239",
    "gaussian-60-100-null-0.2":
        "e33dda1e474ccdbaba2a5b3aa9839308260204c4fad4cce0db58819d4bc41a97",
    "pool-k2":
        "c46f6206c29e99e9a0034bff2eaee3f8c8f150892534a1e0c2bc870a25d3074e",
    "pool-k20":
        "e7098db68c16234bd643c8de701984bb5f4677553201626abf65de46f220d2d5",
    "pool-k150":
        "9ace45e10ca9cfdb8f152e5f1a084bd3a0add7eb0bb2beeca98d5bfe6d6d2125",
    "pool-contradictory":
        ("ContradictoryEvidenceError", "prior and likelihood share no support"),
    "pool-far-from-summed":
        "827e82c9d3c47528d116e1d4da11a0b8add6f71bd67090e8ffa35e1082cc8a69",
}


def _outcome(run):
    try:
        return _digest(*run())
    except ReplicalcError as exc:
        return (type(exc).__name__, str(exc))


def test_every_case_has_an_expected_value():
    assert EXPECTED.keys() == RUNS.keys()


@pytest.mark.parametrize("name", list(RUNS))
def test_output_unchanged(name):
    assert _outcome(RUNS[name]) == EXPECTED[name]
