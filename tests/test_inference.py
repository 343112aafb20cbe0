import numpy as np
import pytest

from sbikit.distributions import DiagGaussian
from sbikit.estimators import EstimatorConfig, build_estimator
from sbikit.inference import LikelihoodModel, nle_fit, nle_posterior
from sbikit.samplers import SamplerConfig
from sbikit.simulators import LinearGaussianSimulator, generate_dataset
from sbikit.trainer import TrainConfig

from .oracles import conjugate_posterior


def tiled_log_lik(estimator, observations, thetas):
    """Reference i.i.d. sum: the estimator's row density on every
    (theta, trial) pair, summed over trials."""
    t, c = observations.shape[0], thetas.shape[0]
    lp = estimator.log_prob(np.tile(observations, (c, 1)), np.repeat(thetas, t, axis=0))
    return lp.reshape(c, t).sum(axis=1)


def randomized(kind, target_dim, context_dim, targets, contexts, seed=3):
    cfg = EstimatorConfig(kind=kind, n_components=3, hidden=(8,), n_layers=3)
    est = build_estimator(cfg, target_dim, context_dim, seed=seed)
    rng = np.random.default_rng(seed + 1)
    est.store.load({n: rng.normal(scale=0.3, size=est.store[n].data.shape)
                    for n in est.store.names()})
    est.initialize_standardization(targets, contexts)
    return est


def mixed_trials(rng, n, choices=(0, 1)):
    return np.column_stack([rng.choice(choices, size=n).astype(np.float64),
                            rng.uniform(0.2, 2.0, size=n)])


def continuous_trials(rng, n):
    return rng.normal(size=(n, 2)) * [1.0, 3.0] + [0.5, -1.0]


@pytest.mark.parametrize("n_theta", [1, 4, 37])
@pytest.mark.parametrize("kind", ["mixed", "mdn", "flow"])
def test_log_lik_matches_tiled_reference(kind, n_theta):
    rng = np.random.default_rng(11)
    make = mixed_trials if kind == "mixed" else continuous_trials
    est = randomized(kind, 2, 3, make(rng, 200), rng.normal(size=(200, 3)))
    model = LikelihoodModel(est)
    thetas = rng.normal(size=(n_theta, 3))
    trial_sets = [make(rng, 25), make(rng, 1)]
    if kind == "mixed":
        trial_sets += [mixed_trials(rng, 25, choices=(0,)), mixed_trials(rng, 25, choices=(1,))]
    for obs in trial_sets:
        got = model.log_lik(obs, thetas)
        assert got.shape == (n_theta,)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, tiled_log_lik(est, obs, thetas), rtol=1e-12)


@pytest.mark.parametrize("bad_rt", [0.0, -0.3])
def test_mixed_log_lik_nonpositive_rt_is_neg_inf(bad_rt):
    rng = np.random.default_rng(12)
    est = randomized("mixed", 2, 3, mixed_trials(rng, 200), rng.normal(size=(200, 3)))
    obs = mixed_trials(rng, 25)
    obs[7, 1] = bad_rt
    thetas = rng.normal(size=(4, 3))
    got = LikelihoodModel(est).log_lik(obs, thetas)
    assert np.all(got == -np.inf)
    np.testing.assert_array_equal(got, tiled_log_lik(est, obs, thetas))


def test_log_lik_accepts_single_rows():
    rng = np.random.default_rng(13)
    est = randomized("mixed", 2, 3, mixed_trials(rng, 200), rng.normal(size=(200, 3)))
    obs, theta = mixed_trials(rng, 1), rng.normal(size=3)
    got = LikelihoodModel(est).log_lik(obs[0], theta)
    np.testing.assert_allclose(got, tiled_log_lik(est, obs, theta[None, :]), rtol=1e-12)


def test_nle_linear_gaussian_matches_conjugate_posterior():
    noise_std = 0.3
    sim = LinearGaussianSimulator(dim=1, noise_std=noise_std)
    prior = DiagGaussian([0.0], [0.0])
    data = generate_dataset(prior, sim, 2000, seed=5)
    model, _ = nle_fit(data, EstimatorConfig(kind="mdn", n_components=2, hidden=(20,)),
                            TrainConfig(max_epochs=150, learning_rate=3e-3, seed=5))
    x_obs = np.array([[0.9], [1.3], [0.7], [1.1], [1.0]])
    post = nle_posterior(model, prior, x_obs,
                         SamplerConfig(chains=20, warmup=50, thin=2, sir_pool=200))
    draws = post.sample(400, np.random.default_rng(6))
    mean, std = conjugate_posterior([0.0], [1.0], noise_std, x_obs)
    assert abs(draws.mean() - mean[0]) < 0.5 * std[0]
    assert 0.6 < draws.std() / std[0] < 1.5
