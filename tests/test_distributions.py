import math

import numpy as np
import pytest
from scipy import special, stats

from sbikit.distributions import (
    BoxUniform,
    DiagGaussian,
    Distribution,
    DistributionError,
    MixtureDiagGaussian,
    TruncatedNormal,
    prior_from_config,
    prior_to_config,
)

from .oracles import mixture_log_density


def trapezoid_mass(dist, lo, hi, nodes=4096):
    grid = np.linspace(lo, hi, nodes)
    dens = np.exp(dist.log_prob(grid[:, None]))
    return np.trapezoid(dens, grid)


def test_box_uniform_sample_mean():
    d = BoxUniform([0.0], [1.0])
    x = d.sample(np.random.default_rng(0), 100_000)
    assert abs(x.mean() - 0.5) < 0.01
    assert x.min() >= 0.0 and x.max() <= 1.0


def test_truncated_normal_ball_throw_prior_support():
    d = TruncatedNormal(loc=45.0, scale=25.0, low=0.0, high=90.0)
    x = d.sample(np.random.default_rng(1), 50_000)
    assert x.min() >= 0.0 and x.max() <= 90.0


def test_diag_gaussian_sample_variance():
    d = DiagGaussian([0.0], [0.0])
    x = d.sample(np.random.default_rng(2), 100_000)
    assert abs(x.var() - 1.0) < 0.03


def test_sampling_reproducible_under_fixed_seed():
    for d in (BoxUniform([0, 0], [1, 2]), DiagGaussian([1.0], [0.5]),
              TruncatedNormal(0, 1, -2, 2),
              MixtureDiagGaussian([0.0, 0.0], [[-1.0], [1.0]], [[0.0], [0.0]])):
        a = d.sample(np.random.default_rng(7), 100)
        b = d.sample(np.random.default_rng(7), 100)
        assert np.array_equal(a, b)


def test_standard_gaussian_log_prob_at_zero():
    d = DiagGaussian([0.0], [0.0])
    assert d.log_prob(np.array([0.0])) == pytest.approx(-0.9189385332046727, abs=1e-9)


def test_box_uniform_log_prob_value():
    d = BoxUniform([0.0, 0.0], [2.0, 2.0])
    assert d.log_prob(np.array([1.0, 1.0])) == pytest.approx(-math.log(4.0))
    assert d.log_prob(np.array([3.0, 1.0])) == -np.inf


def test_truncated_normal_log_prob_matches_quadrature_normalizer():
    d = TruncatedNormal(0.0, 1.0, -1.0, 1.0)
    expected = -0.9189385332046727 - math.log(math.erf(1.0 / math.sqrt(2.0)))
    assert d.log_prob(np.array([0.0])) == pytest.approx(expected, abs=1e-9)
    # independent check of the normalizer: quadrature of the untruncated
    # density over [-1, 1]
    grid = np.linspace(-1, 1, 200_001)
    mass = np.trapezoid(stats.norm.pdf(grid), grid)
    assert d.log_prob(np.array([0.0])) == pytest.approx(
        stats.norm.logpdf(0.0) - math.log(mass), abs=1e-8
    )


def test_log_prob_dimension_mismatch_rejected():
    d = BoxUniform([0.0], [1.0])
    with pytest.raises(DistributionError):
        d.log_prob(np.array([0.5, 0.5]))


@pytest.mark.parametrize("dist,lo,hi", [
    (BoxUniform([-1.0], [2.0]), -1.0, 2.0),
    (DiagGaussian([0.5], [math.log(0.7)]), -8.0, 9.0),
    (TruncatedNormal(45.0, 25.0, 0.0, 90.0), 0.0, 90.0),
    (MixtureDiagGaussian([math.log(0.3), math.log(0.7)], [[-2.0], [1.0]],
                         [[math.log(0.5)], [0.0]]), -12.0, 10.0),
])
def test_density_normalizes_by_quadrature(dist, lo, hi):
    assert trapezoid_mass(dist, lo, hi) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("name", ["box", "gauss", "trunc", "mixture"])
def test_empirical_cdf_matches_analytic(name):
    n = 100_000
    rng = np.random.default_rng(5)
    if name == "box":
        d, cdf = BoxUniform([2.0], [4.0]), lambda v: np.clip((v - 2.0) / 2.0, 0, 1)
    elif name == "gauss":
        d, cdf = DiagGaussian([1.0], [math.log(2.0)]), lambda v: stats.norm.cdf(v, 1.0, 2.0)
    elif name == "trunc":
        d = TruncatedNormal(0.0, 1.0, -1.0, 2.0)
        lo_c, hi_c = stats.norm.cdf(-1.0), stats.norm.cdf(2.0)
        cdf = lambda v: (stats.norm.cdf(np.clip(v, -1, 2)) - lo_c) / (hi_c - lo_c)
    else:
        d = MixtureDiagGaussian([math.log(0.4), math.log(0.6)], [[-1.0], [2.0]],
                                [[0.0], [math.log(0.5)]])
        cdf = lambda v: 0.4 * stats.norm.cdf(v, -1.0, 1.0) + 0.6 * stats.norm.cdf(v, 2.0, 0.5)
    x = np.sort(d.sample(rng, n)[:, 0])
    emp = np.arange(1, n + 1) / n
    ks = np.max(np.abs(emp - cdf(x)))
    assert ks < 0.02


def test_out_of_support_is_exactly_neg_inf_never_nan():
    """For every family, log_prob is exactly -inf at NaN points, points
    beyond a bound and infinite points, and contains rejects the first two."""
    for dist in [
        BoxUniform([0.0, -1.0], [1.0, 2.0]),
        DiagGaussian([0.5, -0.5], [0.1, -0.2]),
        TruncatedNormal(0.0, 1.0, -1.0, 1.0),
        MixtureDiagGaussian([0.0, -0.5], [[0.0, 1.0], [3.0, -1.0]], [[0.0, 0.2], [-0.3, 0.0]]),
    ]:
        def moved(j, value):
            point = dist.mean()
            point[j] = value
            return point

        outside, infinite = [np.full(dist.dim, np.nan)], []
        for j in range(dist.dim):
            far = [moved(j, np.inf), moved(j, -np.inf)]
            outside.append(moved(j, np.nan))
            if np.isfinite(dist.low[j]):
                outside += far + [moved(j, dist.low[j] - 1e-9), moved(j, dist.high[j] + 1e-9)]
            else:
                infinite += far
        for point in outside + infinite:
            assert dist.log_prob(point) == -np.inf, (dist, point)
        assert np.all(dist.log_prob(np.array(outside + infinite)) == -np.inf), dist
        assert not np.any(dist.contains(np.array(outside))), dist
        for point in outside:
            assert dist.contains(point) is False, (dist, point)


FAMILIES = {
    "box_uniform": lambda d: BoxUniform(-np.arange(1.0, d + 1), np.arange(1.0, d + 1) / 2),
    "diag_gaussian": lambda d: DiagGaussian(np.linspace(-1, 1, d), np.linspace(-0.5, 0.5, d)),
    "truncated_normal": lambda d: TruncatedNormal(0.0, 1.0, -1.0, 1.5),
    "mixture_diag_gaussian": lambda d: MixtureDiagGaussian(
        [0.0, -0.5], [np.zeros(d), np.ones(d)], [np.zeros(d), np.full(d, -0.3)]),
}


@pytest.mark.parametrize("rows, dim", [(1, 1), (3, 5), (4000, 2)])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_boundary_points_count_as_inside(family, rows, dim):
    dist = FAMILIES[family](dim)
    for corner in (dist.low, dist.high):
        # an unbounded family's corners are infinite: inside, at density zero
        assert dist.contains(corner) is True, corner
        assert np.isfinite(dist.log_prob(corner)) == np.all(np.isfinite(corner)), corner
    # the support check along the draw axis gives the row-wise expression's
    # booleans, at NaN, infinite, boundary and outside coordinates alike
    rng = np.random.default_rng(rows + dim)
    arr = rng.normal(scale=2.0, size=(rows, dist.dim))
    special_values = np.concatenate([[np.nan, np.inf, -np.inf], dist.low, dist.high])
    mask = rng.uniform(size=arr.shape) < (0.5 if rows < 4 else 0.2)
    arr[mask] = rng.choice(special_values, size=mask.sum())
    old = np.all((arr >= dist.low) & (arr <= dist.high), axis=1)
    assert 0 < old.sum() < rows or rows < 4
    np.testing.assert_array_equal(dist.contains(arr), old)
    np.testing.assert_array_equal(dist.log_prob(arr),
                                  np.where(old, dist._log_density(arr), -np.inf))


@pytest.mark.parametrize("low, high", [
    ([-1.0, 0.0, -np.inf, -np.inf], [1.0, np.inf, 2.0, np.inf]),
    ([-np.inf, -np.inf], [np.inf, np.inf]),
    ([-1.0, 0.5], [1.0, 2.0]),
], ids=["bounded-half-bounded-unbounded", "unbounded", "bounded"])
def test_contains_is_the_row_wise_bound_check_on_any_box(low, high):
    """A box with bounded, half-bounded and unbounded sides: contains gives
    the row-wise (x >= low) & (x <= high), which counts NaN as outside."""
    box = Distribution()
    box.low, box.high = np.array(low), np.array(high)
    box.dim = box.low.size
    rng = np.random.default_rng(99)
    arr = rng.normal(scale=2.0, size=(1001, box.dim))
    specials = np.concatenate([[np.nan, np.inf, -np.inf, -0.0], low, high])
    mask = rng.uniform(size=arr.shape) < 0.2
    arr[mask] = rng.choice(specials, size=mask.sum())
    arr[:3] = np.nan
    arr[1, 0] = arr[2, -1] = 0.0                            # NaN in all but one side
    expected = np.array([np.all((row >= low) & (row <= high)) for row in arr])
    assert 0 < expected.sum() < arr.shape[0] and not expected[:3].any()
    np.testing.assert_array_equal(box.contains(arr), expected)
    np.testing.assert_array_equal(box.contains(np.hstack([arr, arr])[:, :box.dim]), expected)
    for row, inside in zip(arr[:20], expected):
        assert box.contains(row) is bool(inside)
    # the bounds are read on every call
    box.low, box.high = box.low + 0.5, box.high - 0.5
    np.testing.assert_array_equal(
        box.contains(arr), [np.all((row >= box.low) & (row <= box.high)) for row in arr])


@pytest.mark.parametrize("dist", [
    DiagGaussian(np.zeros(3), np.ones(3)),
    MixtureDiagGaussian(np.zeros(2), np.zeros((2, 3)), np.ones((2, 3))),
], ids=["gaussian", "mixture"])
def test_gaussians_contain_every_point_but_nan(dist):
    """The Gaussian families skip the bound check: their support is the whole
    space, and their infinite bounds say the same."""
    assert dist._whole_space and np.all(dist.low == -np.inf) and np.all(dist.high == np.inf)
    arr = np.random.default_rng(5).normal(scale=1e300, size=(500, 3))
    arr[:40] = np.random.default_rng(6).choice([np.nan, np.inf, -np.inf, -0.0, 1.0], (40, 3))
    expected = ~np.isnan(arr).any(axis=1)
    assert 0 < expected.sum() < arr.shape[0]
    np.testing.assert_array_equal(dist.contains(arr), expected)


def test_mixture_weights_normalized_and_log_prob_matches_brute_force():
    rng = np.random.default_rng(3)
    logw = rng.normal(size=3)
    means = rng.normal(size=(3, 2))
    logs = rng.normal(size=(3, 2)) * 0.3
    d = MixtureDiagGaussian(logw, means, logs)
    assert abs(np.exp(d.log_weights).sum() - 1.0) < 1e-12
    pt = rng.normal(size=2)
    comps = [
        float(d.log_weights[k]) + np.sum(stats.norm.logpdf(pt, means[k], np.exp(logs[k])))
        for k in range(3)
    ]
    assert d.log_prob(pt) == pytest.approx(special.logsumexp(comps), abs=1e-12)
    # batches at the (components, dims) the mixture kernel is tested at, with
    # a point 1e3 std from every component and an infinite one
    for k, dim in [(1, 1), (3, 2), (10, 1), (10, 2), (17, 9)]:
        d = MixtureDiagGaussian(rng.normal(size=k), rng.normal(size=(k, dim)),
                                rng.uniform(-3.0, 3.0, size=(k, dim)))
        pts = rng.normal(scale=3.0, size=(30, dim))
        pts[1] = 1e3 * np.exp(d.log_stds.max())
        pts[2, -1] = np.inf
        ref = mixture_log_density(d.log_weights[None], d.means[None], d.log_stds[None], pts)
        np.testing.assert_allclose(d.log_prob(pts), ref, rtol=1e-12)
        assert np.isfinite(ref[1]) and ref[2] == -np.inf


def test_small_mass_truncated_normal_draws_follow_the_truncated_cdf():
    # the far upper tail (mass 6.7e-16), an interval of mass 2.3e-4 and its
    # mirror image, and a narrow interval around the mode (mass 0.06)
    for low, high in [(8.0, 9.0), (3.5, 9.0), (-9.0, -3.5), (-0.05, 0.1)]:
        d = TruncatedNormal(0.0, 1.0, low, high)
        draws = d.sample(np.random.default_rng(0), 20_000)[:, 0]
        assert np.all((draws >= low) & (draws <= high))
        assert stats.kstest(draws, stats.truncnorm(low, high).cdf).pvalue > 0.01, (low, high)


def test_moments_helpers():
    d = BoxUniform([0.0], [12.0])
    assert d.std()[0] == pytest.approx(12.0 / math.sqrt(12.0))
    t = TruncatedNormal(45.0, 25.0, 0.0, 90.0)
    samples = t.sample(np.random.default_rng(0), 200_000)[:, 0]
    assert t.mean()[0] == pytest.approx(samples.mean(), abs=0.1)
    assert t.std()[0] == pytest.approx(samples.std(), abs=0.1)
    # a 2-component, 2-D mixture: its std sets the slice sampler's step widths
    m = MixtureDiagGaussian([math.log(0.3), math.log(0.7)], [[-2.0, 1.0], [1.0, 0.5]],
                            [[math.log(0.5), 0.0], [0.0, math.log(2.0)]])
    draws = m.sample(np.random.default_rng(1), 200_000)
    np.testing.assert_allclose(m.mean(), draws.mean(axis=0), atol=0.02)
    np.testing.assert_allclose(m.std(), draws.std(axis=0), atol=0.02)


def test_prior_config_roundtrip():
    dists = [
        BoxUniform([0.0, -1.0], [1.0, 4.0]),
        DiagGaussian([0.5], [0.1]),
        TruncatedNormal(45.0, 25.0, 0.0, 90.0),
        MixtureDiagGaussian([0.0, -0.5], [[0.0], [3.0]], [[0.0], [0.0]]),
    ]
    rng = np.random.default_rng(9)
    for d in dists:
        clone = prior_from_config(prior_to_config(d))
        pts = d.sample(rng, 50)
        np.testing.assert_allclose(clone.log_prob(pts), d.log_prob(pts), rtol=1e-12)


def test_prior_from_config_rejects_unknown_kind():
    with pytest.raises(DistributionError, match="unknown prior kind"):
        prior_from_config({"kind": "cauchy", "loc": 0.0})


def test_constructor_validation():
    with pytest.raises(DistributionError):
        BoxUniform([1.0], [0.0])
    with pytest.raises(DistributionError):
        TruncatedNormal(0.0, -1.0, 0.0, 1.0)
