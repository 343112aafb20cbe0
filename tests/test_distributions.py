import math

import numpy as np
import pytest
from scipy import special, stats

from sbikit.distributions import (
    BoxUniform,
    DiagGaussian,
    DistributionError,
    MixtureDiagGaussian,
    TruncatedNormal,
    prior_from_config,
    prior_to_config,
)


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
    dists = [
        BoxUniform([0.0], [1.0]),
        TruncatedNormal(0.0, 1.0, -1.0, 1.0),
    ]
    points = np.array([[-0.5], [1.5], [100.0], [-1e6]])
    for d in dists:
        out = d.log_prob(points)
        outside = ~d.contains(points)
        assert np.all(out[outside] == -np.inf)
        assert not np.any(np.isnan(out))


def test_boundary_points_count_as_inside():
    d = BoxUniform([0.0], [1.0])
    assert np.isfinite(d.log_prob(np.array([0.0])))
    assert np.isfinite(d.log_prob(np.array([1.0])))
    t = TruncatedNormal(0.0, 1.0, -1.0, 1.0)
    assert np.isfinite(t.log_prob(np.array([1.0])))


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


def test_far_tail_truncated_normal_sampling_raises_instead_of_hanging():
    d = TruncatedNormal(0.0, 1.0, 8.0, 9.0)
    with pytest.raises(DistributionError, match=r"\[8\.0, 9\.0\] carries mass 6\.66e-16"):
        d.sample(np.random.default_rng(0), 1)


def test_moments_helpers():
    d = BoxUniform([0.0], [12.0])
    assert d.std()[0] == pytest.approx(12.0 / math.sqrt(12.0))
    t = TruncatedNormal(45.0, 25.0, 0.0, 90.0)
    samples = t.sample(np.random.default_rng(0), 200_000)[:, 0]
    assert t.mean()[0] == pytest.approx(samples.mean(), abs=0.1)
    assert t.std()[0] == pytest.approx(samples.std(), abs=0.1)


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
