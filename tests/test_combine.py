"""Tests for pooling evidence across studies.

Pooling multiplies over the running posterior's support only; it is pinned
bit for bit to a frozen copy of the full-grid products it replaced.
"""

import numpy as np
import pytest
from conftest import assert_passes_without_avx512
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
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
from replicalc import likelihood
from replicalc.errors import ReplicalcError
from replicalc.grid_model import DISTRIBUTION, Curve


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


def _frozen_multiply_normalize(prior, likelihood_curve_):
    """The old product: logs, max and exp over every grid cell."""
    if prior.kind != DISTRIBUTION:
        raise InvalidArgumentError("multiply_normalize expects a distribution prior")
    if prior.grid.points != likelihood_curve_.grid.points:
        raise IncompatibleGridsError(
            f"grids differ: {prior.grid.points} vs {likelihood_curve_.grid.points} points"
        )
    with np.errstate(divide="ignore"):
        log_product = np.log(prior.values) + np.log(likelihood_curve_.values)
    peak = np.max(log_product)
    if peak == -np.inf:
        raise ContradictoryEvidenceError("prior and likelihood share no support")
    with np.errstate(under="ignore"):
        shifted = np.exp(log_product - peak)
    return Curve(grid=prior.grid, values=shifted / shifted.sum(), kind=DISTRIBUTION)


def _frozen_pool_studies(studies, grid):
    """The old pool: one full-grid likelihood curve and product per study."""
    current = uniform_distribution(grid)
    for study in studies:
        current = _frozen_multiply_normalize(current, likelihood_curve(study.observation, grid))
    return current


def _frozen_what_if_update(current, hypothetical, grid):
    return _frozen_multiply_normalize(current, gaussian_likelihood_curve(hypothetical, grid))


def _outcome(func, *args):
    """The values of the curve ``func(*args)`` returns, or its error's type and message."""
    try:
        return func(*args).values
    except ReplicalcError as error:
        return type(error), str(error)


def _assert_same_outcome(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    else:
        assert got == want


# 107,001 and 2^17 + 1 points are above likelihood._ONE_CALL_MAX, so their
# supports are filled in blocks.
_POOL_GRIDS = (2, 3, 101, 10**4 + 1, 107_001, 2**17 + 1)


@st.composite
def _pools(draw):
    """A grid size and k studies around a shared proportion that is near 0
    or 1 at times; in half the pools r = 0 and r = n are drawn on purpose."""
    points = draw(st.sampled_from(_POOL_GRIDS))
    center = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-3),
                            st.floats(1.0 - 1e-3, 1.0)))
    k = draw(st.integers(1, 60 if points <= 10**4 + 1 else 4))
    edges = draw(st.booleans())
    studies = []
    for _ in range(k):
        n = draw(st.integers(1, 3000))
        near = st.integers(max(0, round(center * n) - 30), min(n, round(center * n) + 30))
        r = st.one_of(near, st.sampled_from([0, n])) if edges else near
        studies.append((draw(r), n))
    return points, studies


def _many_studies(k):
    """k agreeing (r, n) studies near p = 0.3, deterministically."""
    return [(round(0.3 * n) + i % 7 - 3, n) for i, n in enumerate(range(100, 100 + 13 * k, 13))]


class TestSupportPoolingBitIdentity:
    """Products over the posterior's support give the full-grid bits."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(pool=_pools(),
           model=st.builds(GaussianModel, st.floats(0.0, 1.0), st.floats(1e-3, 0.5)))
    @example(pool=(10**4 + 1, _many_studies(150)), model=GaussianModel(0.31, 0.02))
    @example(pool=(10**4 + 1, [(0, 2000), (2000, 2000)]), model=GaussianModel(0.5, 0.1))
    @example(pool=(2, [(0, 1), (1, 1)]), model=GaussianModel(0.5, 0.1))  # the CLI's contra.txt
    # Pooling's known underflow defect: 0.114 from the summed counts, with the same bits.
    @example(pool=(10**4 + 1, [(4116, 17069), (53, 4602)]), model=GaussianModel(0.1, 0.05))
    @example(pool=(101, [(0, 3000), (3000, 3000)]), model=GaussianModel(0.5, 0.3))
    @example(pool=(3, [(0, 5), (5, 5), (2, 4)]), model=GaussianModel(0.5, 0.2))
    @example(pool=(107_001, [(1, 3000), (0, 2500), (2, 2000)]), model=GaussianModel(1e-3, 0.01))
    @example(pool=(2**17 + 1, [(2999, 3000), (3000, 3000)]), model=GaussianModel(0.99, 0.2))
    def test_matches_frozen_full_grid_code(self, pool, model):
        points, studies = pool
        grid = make_grid(points)
        records = _records(*studies)
        want = _outcome(_frozen_pool_studies, records, grid)
        _assert_same_outcome(_outcome(pool_studies, records, grid), want)
        if not isinstance(want, np.ndarray):
            return
        prior = Curve(grid, want, DISTRIBUTION)
        _assert_same_outcome(_outcome(what_if_update, prior, model, grid),
                             _outcome(_frozen_what_if_update, prior, model, grid))
        obs = Observation(*studies[0])
        want = _outcome(_frozen_multiply_normalize, prior, likelihood_curve(obs, grid))
        _assert_same_outcome(_outcome(multiply_normalize, prior, likelihood_curve(obs, grid)), want)
        _assert_same_outcome(_outcome(multiply_normalize, prior, obs), want)

    @pytest.mark.parametrize("cells", [[0], [100], [0, 100], [3, 4, 50]])
    def test_support_at_the_grid_ends(self, cells):
        """A prior whose support starts at the first cell or stops at the
        last one, or is a single cell there, keeps the full-grid bits."""
        grid = make_grid(101)
        values = np.zeros(grid.points)
        values[cells] = 1.0 / len(cells)
        prior = Curve(grid, values, DISTRIBUTION)
        for obs in (Observation(0, 10), Observation(10, 10), Observation(4, 10)):
            _assert_same_outcome(
                _outcome(multiply_normalize, prior, obs),
                _outcome(_frozen_multiply_normalize, prior, likelihood_curve(obs, grid)))

    def test_matches_frozen_full_grid_code_without_avx512(self):
        """The explicit examples above, rerun where numpy's exp and log take
        their AVX2 paths."""
        assert_passes_without_avx512(
            "from hypothesis import Phase, settings\n"
            "settings.register_profile('explicit', phases=[Phase.explicit])\n"
            "settings.load_profile('explicit')\n"
            "import test_combine as t\n"
            "t.TestSupportPoolingBitIdentity().test_matches_frozen_full_grid_code()")

    def test_evaluates_only_the_support(self, monkeypatch):
        """Each step's kernel call covers the support it starts from, and
        20 agreeing studies on 10^4 + 1 points need far fewer than k m cells."""
        grid = make_grid(10**4 + 1)
        records = _records(*_many_studies(20))
        widths, current = [], uniform_distribution(grid)
        for record in records:
            nonzero = np.flatnonzero(current.values)
            widths.append(int(nonzero[-1] - nonzero[0]) + 1)
            current = _frozen_multiply_normalize(
                current, likelihood_curve(record.observation, grid))
        evaluated = []
        kernel = likelihood._binomial_log_pmf

        def counting(x, n, p):
            evaluated.append(np.broadcast(np.asarray(x), np.asarray(p)).size)
            return kernel(x, n, p)

        monkeypatch.setattr(likelihood, "_binomial_log_pmf", counting)
        pooled = pool_studies(records, grid)
        assert np.array_equal(pooled.values, current.values)
        assert sum(evaluated) == sum(widths) < len(records) * grid.points
