from dataclasses import fields

import numpy as np
import pytest

from sbikit.distributions import BoxUniform, DiagGaussian, MixtureDiagGaussian
from sbikit.inference import LikelihoodModel, nle_posterior
from sbikit.samplers import (_MAX_SHRINK, _MAX_STEPOUTS, ChainDiagnostics, SamplerConfig,
                              SamplerError, _ess, _SliceState, _split_r_hat, map_estimate,
                              sir_init, slice_sample)

from .oracles import reference_sweep
from .test_inference import OBS_PRIOR, nle_task

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


def spike(off):
    """Log-target 0 at the origin and ``off`` everywhere else."""
    return lambda x: np.where(np.all(x == 0.0, axis=1), 0.0, off)


def test_target_finite_only_at_current_point_counts_shrink_caps():
    draws, diag = slice_sample(spike(-np.inf), PointPrior(), SamplerConfig(**CONFIG),
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


def sweep_run(target):
    """(draws, diagnostics) of one small slice-sampling run per target."""
    config, rng = SamplerConfig(**CONFIG), np.random.default_rng(5)
    if target == "flat":
        return slice_sample(lambda x: np.zeros(len(x)), DiagGaussian(np.zeros(DIM), np.zeros(DIM)),
                            config, rng, CHAINS)
    if target.startswith("spike"):
        return slice_sample(spike(np.nan if target == "spike_nan" else -np.inf), PointPrior(),
                            config, rng, CHAINS)
    if target == "bimodal":
        mix = MixtureDiagGaussian(np.log([0.3, 0.7]), [[-2.0], [2.0]], np.full((2, 1), np.log(0.5)))
        return slice_sample(mix.log_prob, BoxUniform([-5.0], [5.0]),
                            SamplerConfig(chains=7, warmup=10, thin=2), rng, 40)
    est, obs = nle_task("mixed", 23)
    post = nle_posterior(LikelihoodModel(est), OBS_PRIOR, obs,
                         SamplerConfig(chains=5, warmup=4, thin=1, sir_pool=40))
    return post.sample(12, rng), post.last_diagnostics


@pytest.mark.parametrize("target", ["flat", "spike", "spike_nan", "bimodal", "nle_mixed"])
def test_sweep_equals_the_reference_sweep(target, monkeypatch):
    draws, diag = sweep_run(target)
    monkeypatch.setattr(_SliceState, "sweep", reference_sweep)
    ref_draws, ref_diag = sweep_run(target)
    np.testing.assert_array_equal(draws, ref_draws)
    for field in fields(ChainDiagnostics):
        np.testing.assert_array_equal(getattr(diag, field.name), getattr(ref_diag, field.name),
                                      err_msg=field.name)
    if target.startswith("spike"):
        assert diag.n_shrink_capped > 0
    elif target == "flat":
        assert diag.n_stepout_capped > 0


def test_sir_weighs_a_nan_target_like_minus_infinity():
    def target(off):
        return lambda x: np.where(x[:, 0] > 0.0, off, -x[:, 0] ** 2)

    got, ref = (sir_init(target(off), BoxUniform([-1.0], [1.0]), 50, 10, np.random.default_rng(0))
                for off in (np.nan, -np.inf))
    np.testing.assert_array_equal(got, ref)
    assert np.all(got <= 0.0)


def test_ess_counts_the_disagreement_between_chains():
    # 4 chains of iid draws, each centred on its own mode: within-chain
    # autocorrelation alone would call all 8000 draws independent
    draws = np.random.default_rng(0).standard_normal((4, 2000, 1))
    shifted = draws + np.array([-3.0, -1.0, 1.0, 3.0])[:, None, None]
    assert _split_r_hat(shifted)[0] > 2.5
    assert _ess(shifted)[0] < 0.01 * 8000


def test_ess_matches_the_analytic_value_of_ar1_chains_and_of_iid_draws():
    # 8 dimensions, each 4 independent stationary AR(1) chains with phi = 0.5,
    # whose ESS is N (1 - phi) / (1 + phi) = 8000 / 3
    rng = np.random.default_rng(1)
    phi, eps = 0.5, rng.standard_normal((4, 2000, 8))
    ar = np.empty_like(eps)
    ar[:, 0] = eps[:, 0] / np.sqrt(1.0 - phi ** 2)
    for t in range(1, eps.shape[1]):
        ar[:, t] = phi * ar[:, t - 1] + eps[:, t]
    assert np.mean(_ess(ar)) == pytest.approx(8000 / 3, rel=0.05)
    assert np.mean(_ess(eps)) == pytest.approx(8000, rel=0.05)
    assert np.all(np.abs(_ess(ar) / (8000 / 3) - 1.0) < 0.2)


class GaussianBoxPosterior:
    """Direct-posterior stand-in: an isotropic Gaussian log-density whose
    mode is the observation, on a box prior, sampled from the prior."""

    def __init__(self, scale=0.5):
        self.prior = BoxUniform([-2.0, -1.0], [2.0, 3.0])
        self.scale = scale

    def sample(self, x, n, rng):
        return self.prior.sample(rng, n)

    def log_prob_tape(self, tape, x, theta):
        diff = tape.add(theta, np.tile(-np.asarray(x, dtype=np.float64), (theta.shape[0], 1)))
        quad = tape.multiply(tape.square(diff), -0.5 / self.scale ** 2)
        return tape.sum(quad, axis=1)


def test_map_estimate_finds_a_mode_inside_the_box():
    theta = map_estimate(GaussianBoxPosterior(), [0.7, 1.4], np.random.default_rng(0), restarts=4)
    np.testing.assert_allclose(theta, [0.7, 1.4], atol=1e-3)


def test_map_estimate_clamps_a_mode_outside_the_box_to_the_corner():
    theta = map_estimate(GaussianBoxPosterior(), [3.0, -2.0], np.random.default_rng(1),
                         restarts=4, steps=300)
    np.testing.assert_array_equal(theta, [2.0, -1.0])


@pytest.mark.parametrize("name", ["restarts", "steps"])
@pytest.mark.parametrize("value", [0, -2])
def test_map_estimate_rejects_fewer_than_one_restart_or_step(name, value):
    with pytest.raises(SamplerError, match=rf"{name} must be >= 1, got {value}"):
        map_estimate(GaussianBoxPosterior(), [0.7, 1.4], np.random.default_rng(0),
                     **{name: value})


@pytest.mark.parametrize("name", ["chains", "warmup", "thin", "sir_pool"])
def test_sampler_config_names_the_value_it_rejects(name):
    with pytest.raises(SamplerError, match=rf"^{name} must be >= 1, got 0$"):
        SamplerConfig(**{name: 0})
