import numpy as np
import pytest

from sbikit.distributions import BoxUniform, DiagGaussian, MixtureDiagGaussian
from sbikit.ndiff import Tensor
from sbikit.samplers import (_MAX_SHRINK, _MAX_STEPOUTS, SamplerConfig, map_estimate,
                              slice_sample)

CHAINS, DIM, SWEEPS = 3, 2, 3
CONFIG = dict(chains=CHAINS, warmup=SWEEPS - 1, thin=1)


class PointPrior:
    """Prior stand-in whose draws all sit at the origin."""

    dim = DIM

    def sample(self, rng, n):
        return np.zeros((n, self.dim))

    def log_prob(self, point):
        return np.zeros(len(point))

    def std(self):
        return np.ones(self.dim)


def test_flat_target_counts_every_update_as_stepout_capped():
    prior = DiagGaussian(np.zeros(DIM), np.zeros(DIM))
    draws, diag = slice_sample(lambda x: np.zeros(len(x)), prior, SamplerConfig(**CONFIG),
                               np.random.default_rng(0), CHAINS)
    updates = CHAINS * DIM * SWEEPS
    assert draws.shape == (CHAINS, DIM)
    assert diag.n_stepout_capped == updates
    assert diag.n_shrink_capped == 0
    # per update: every step-out on both ends, one accepted proposal
    assert diag.n_target_evals == CHAINS + (2 * _MAX_STEPOUTS + 1) * updates


def test_target_finite_only_at_current_point_counts_shrink_caps():
    def spike(x):
        return np.where(np.all(x == 0.0, axis=1), 0.0, -np.inf)

    draws, diag = slice_sample(spike, PointPrior(), SamplerConfig(**CONFIG),
                               np.random.default_rng(0), CHAINS)
    updates = CHAINS * DIM * SWEEPS
    assert np.all(draws == 0.0)
    assert diag.n_shrink_capped == updates
    assert diag.n_stepout_capped == 0
    # per update: both first step-outs fail, then every shrink round rejects
    assert diag.n_target_evals == CHAINS + (2 + _MAX_SHRINK) * updates


def test_slice_sampler_recovers_the_weights_and_modes_of_a_bimodal_mixture():
    # weights 0.3 / 0.7 at -2 / +2 with std 0.5, far from the box edges at -5 / 5
    target = MixtureDiagGaussian(np.log([0.3, 0.7]), [[-2.0], [2.0]], np.full((2, 1), np.log(0.5)))
    config = SamplerConfig(chains=40, warmup=30, thin=1)
    draws, diag = slice_sample(target.log_prob, BoxUniform([-5.0], [5.0]), config,
                               np.random.default_rng(0), 2000)
    theta = draws[:, 0]
    upper = theta > 0.0
    ess = diag.ess[0]
    # four standard errors at the sampler's own effective sample size
    assert upper.mean() == pytest.approx(0.7, abs=4 * np.sqrt(0.7 * 0.3 / ess))
    assert theta[upper].mean() == pytest.approx(2.0, abs=4 * 0.5 / np.sqrt(0.7 * ess))
    assert theta[~upper].mean() == pytest.approx(-2.0, abs=4 * 0.5 / np.sqrt(0.3 * ess))


class GaussianBoxPosterior:
    """Bound-posterior stand-in: an isotropic Gaussian log-density with a
    known mode on a box prior, sampled from the prior."""

    def __init__(self, mode, scale=0.5):
        self.prior = BoxUniform([-2.0, -1.0], [2.0, 3.0])
        self.mode = np.asarray(mode, dtype=np.float64)
        self.scale = scale

    def sample(self, n, rng):
        return self.prior.sample(rng, n)

    def log_prob_tape(self, tape, theta):
        diff = tape.add(theta, Tensor(np.tile(-self.mode, (theta.shape[0], 1))))
        quad = tape.multiply(tape.square(diff), -0.5 / self.scale ** 2)
        return tape.sum(quad, axis=1)


def test_map_estimate_finds_a_mode_inside_the_box():
    post = GaussianBoxPosterior([0.7, 1.4])
    theta = map_estimate(post, np.random.default_rng(0), restarts=4)
    np.testing.assert_allclose(theta, [0.7, 1.4], atol=1e-3)


def test_map_estimate_clamps_a_mode_outside_the_box_to_the_corner():
    post = GaussianBoxPosterior([3.0, -2.0])
    theta = map_estimate(post, np.random.default_rng(1), restarts=4, steps=300)
    np.testing.assert_array_equal(theta, [2.0, -1.0])
