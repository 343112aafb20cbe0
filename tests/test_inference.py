import math
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sbikit import inference
from sbikit.distributions import BoxUniform, DiagGaussian, prior_to_config
from sbikit.estimators import (LOG_SCALE_BOUND, AffineCouplingFlow, ClassifierNet,
                               ConditionalMDN, EnsembleEstimator, EstimatorConfig, EstimatorError,
                               Mlp, Standardizer, build_estimator)
from sbikit.inference import (DirectPosterior, InferenceError, LikelihoodModel, McmcPosterior,
                              RatioModel, fit_ensemble, nle_fit, nle_posterior, npe_fit, nre_fit,
                              nre_posterior, tsnpe_round)
from sbikit.ndiff import EVALUATOR, sigmoid
from sbikit.samplers import SamplerConfig, map_estimate
from sbikit.simulators import (BallThrowSimulator, Dataset, LinearGaussianSimulator,
                               generate_dataset, simulate_rows)
from sbikit.trainer import TrainConfig

from .oracles import ball_throw_angle_posterior, conjugate_posterior, grid_modes


def tiled_log_lik(estimator, observations, thetas):
    """Reference i.i.d. sum: the estimator's row density on every
    (theta, trial) pair, summed over trials."""
    t, c = observations.shape[0], thetas.shape[0]
    lp = estimator.log_prob(np.tile(observations, (c, 1)), np.repeat(thetas, t, axis=0))
    return lp.reshape(c, t).sum(axis=1)


def randomized(kind, target_dim, context_dim, targets, contexts, seed=3, **config):
    cfg = replace(EstimatorConfig(kind=kind, n_components=3, hidden=(8,), n_layers=3), **config)
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


def first_column_trials(rng, n):
    return continuous_trials(rng, n)[:, :1]


# (kind, architecture beside the default one hidden layer of 8), by id
ARCHITECTURES = [pytest.param(kind, config, id=kind + tag)
                 for tag, config in [("", {}), ("-deep", {"hidden": (8, 8, 8)}),
                                     ("-embedded", {"embedding_dim": 2}),
                                     ("-one_component", {"n_components": 1})]
                 for kind in ["mixed", "mdn", "flow"]
                 if not (kind == "flow" and "n_components" in config)]


@pytest.mark.parametrize("n_theta", [1, 4, 37])
@pytest.mark.parametrize("kind, config", ARCHITECTURES)
def test_log_lik_matches_tiled_reference(kind, config, n_theta):
    rng = np.random.default_rng(11)
    make = mixed_trials if kind == "mixed" else continuous_trials
    est = randomized(kind, 2, 3, make(rng, 200), rng.normal(size=(200, 3)), **config)
    model = LikelihoodModel(est)
    thetas = rng.normal(size=(n_theta, 3))
    trial_sets = [make(rng, 25), make(rng, 1)]
    if kind == "mixed":
        trial_sets += [mixed_trials(rng, 25, choices=(0,)), mixed_trials(rng, 25, choices=(1,))]
    for obs in trial_sets:
        got = model.log_lik(obs, thetas)
        assert got.shape == (n_theta,)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(model.log_lik(model.trials(obs), thetas), got)
        np.testing.assert_allclose(got, tiled_log_lik(est, obs, thetas), rtol=1e-12)


@pytest.mark.parametrize("bad_rt", [0.0, -0.3, np.nan])
def test_mixed_log_lik_nonpositive_rt_is_neg_inf(bad_rt):
    rng = np.random.default_rng(12)
    est = randomized("mixed", 2, 3, mixed_trials(rng, 200), rng.normal(size=(200, 3)))
    model = LikelihoodModel(est)
    obs = mixed_trials(rng, 25)
    obs[7, 1] = bad_rt
    thetas = rng.normal(size=(4, 3))
    got = model.log_lik(obs, thetas)
    assert np.all(got == -np.inf)
    np.testing.assert_array_equal(model.log_lik(model.trials(obs), thetas), got)
    np.testing.assert_array_equal(got, tiled_log_lik(est, obs, thetas))


def test_log_lik_accepts_single_rows():
    rng = np.random.default_rng(13)
    est = randomized("mixed", 2, 3, mixed_trials(rng, 200), rng.normal(size=(200, 3)))
    obs, theta = mixed_trials(rng, 1), rng.normal(size=3)
    got = LikelihoodModel(est).log_lik(obs[0], theta)
    np.testing.assert_allclose(got, tiled_log_lik(est, obs, theta[None, :]), rtol=1e-12)


def nle_task(kind, seed):
    """A randomized estimator of a 2-column target given 2-column theta,
    and 30 trials to condition on."""
    rng = np.random.default_rng(seed)
    make = mixed_trials if kind == "mixed" else continuous_trials
    est = randomized(kind, 2, 2, make(rng, 200), rng.uniform(-1, 1, size=(200, 2)))
    return est, make(rng, 30)


@pytest.mark.parametrize("kind", ["mixed", "mdn"])
def test_nle_posterior_prepares_the_trials_once_per_posterior(kind):
    est, obs = nle_task(kind, 17)
    head = est.rt_head if kind == "mixed" else est.head
    transform, prepare, calls = est.target_standardizer.transform, head.prepare, []
    est.target_standardizer.transform = lambda x: calls.append("trials") or transform(x)
    head.prepare = lambda *a: calls.append("weights") or prepare(*a)
    post = nle_posterior(LikelihoodModel(est), OBS_PRIOR, obs, TINY_SAMPLER)
    post.sample(4, np.random.default_rng(0))
    assert post.last_diagnostics.n_target_evals > 10
    assert calls == ["trials", "weights"]


@pytest.mark.parametrize("kind", ["mixed", "mdn", "flow"])
def test_a_trial_set_prepared_before_the_parameters_changed_is_refused(kind):
    est, obs = nle_task(kind, 19)
    model, thetas = LikelihoodModel(est), np.random.default_rng(20).uniform(-1, 1, size=(3, 2))
    trials, version = model.trials(obs), est.store.version
    name = est.store.names()[0]
    with pytest.raises(ValueError, match="read-only"):
        est.store[name].data[...] *= 1.1        # parameters change only through load
    with pytest.raises(ValueError, match="read-only"):
        est.store.flat[:] = 5.0                 # and not through the whole buffer either
    for view in (est.store[name].data, est.store.flat):
        with pytest.raises(ValueError, match="WRITEABLE"):
            view.flags.writeable = True         # nor can either be made writeable again
    assert est.store.version == version
    est.store.load({n: est.store[n].data * 1.1 for n in est.store.names()})
    with pytest.raises(ValueError, match="WRITEABLE"):
        est.store.flat.flags.writeable = True   # not after a load either
    with pytest.raises(EstimatorError, match="stale trial set"):
        model.log_lik(trials, thetas)
    np.testing.assert_allclose(model.log_lik(model.trials(obs), thetas),
                               tiled_log_lik(est, obs, thetas), rtol=1e-12)


@pytest.mark.parametrize("kind", ["mixed", "mdn", "flow"])
def test_a_trial_set_prepared_before_the_standardization_changed_is_refused(kind):
    est, obs = nle_task(kind, 24)
    model, thetas = LikelihoodModel(est), np.random.default_rng(25).uniform(-1, 1, size=(3, 2))
    trials, rng = model.trials(obs), np.random.default_rng(26)
    make = mixed_trials if kind == "mixed" else continuous_trials
    est.initialize_standardization(make(rng, 200), rng.uniform(-2, 2, size=(200, 2)))
    with pytest.raises(EstimatorError, match="stale trial set"):
        model.log_lik(trials, thetas)
    np.testing.assert_allclose(model.log_lik(model.trials(obs), thetas),
                               tiled_log_lik(est, obs, thetas), rtol=1e-12)


@pytest.mark.parametrize("case", ["far_trial", "infinite_trial", "log_std_bound",
                                  "narrow_components_far_out", "single_trial_far_out",
                                  "components_far_out"])
@pytest.mark.parametrize("kind", ["mixed", "mdn"])
def test_log_lik_far_from_every_component_or_at_the_log_std_bound_is_never_nan(kind, case):
    est, obs = nle_task(kind, 21)
    thetas = np.random.default_rng(22).uniform(-1, 1, size=(4, 2))
    head = est.rt_head if kind == "mixed" else est.head
    if case == "narrow_components_far_out":
        # every component at the -5 log-std bound, 8 standardized units out,
        # and the trials on them: the i.i.d. scorer's expansion in the trials
        # cancels terms 1e4 times the exponent, unless it is centred
        rng = np.random.default_rng(23)
        k, d = est.config.n_components, head.target_dim
        mu = 8.0 + rng.uniform(-0.02, 0.02, size=k * d)
        est.store.load({head.mu_head.prefix + "w0": np.zeros_like(est.store[head.mu_head.prefix + "w0"].data),
                        head.mu_head.prefix + "b0": mu,
                        head.std_head.prefix + "w0": np.zeros_like(est.store[head.std_head.prefix + "w0"].data),
                        head.std_head.prefix + "b0": np.full(k * d, -1e3)})
        which = rng.integers(0, k, size=len(obs))
        y_z = mu.reshape(k, d)[which] + math.exp(-LOG_SCALE_BOUND) * rng.standard_normal((len(obs), d))
        sd = est.target_standardizer
        y = sd.mean + y_z * sd.std
        obs[:, -d:] = np.exp(y) if kind == "mixed" else y
    elif case == "single_trial_far_out":
        # one trial, so its level's centre, 1e155 standardized units out, where
        # every mean less the centre, squared, overflows; for the mixed
        # estimator, as far out as a finite rt reaches
        sd = est.target_standardizer
        obs = obs[:1].copy()
        obs[0, -sd.mean.size:] = np.finfo(float).max if kind == "mixed" else sd.mean + 1e155 * sd.std
    elif case == "components_far_out":
        # every component's mean 1e160 standardized units out, from the weights
        name = head.mu_head.prefix + "b0"
        est.store.load({name: np.full_like(est.store[name].data, 1e160)})
    elif case != "log_std_bound":
        # a trial 1e3 standardized units from every component, or infinitely
        # far, where every component's log-density is -inf
        sd = est.target_standardizer
        far = sd.mean + (1e3 if case == "far_trial" else np.inf) * sd.std
        obs[5, -far.size:] = np.exp(far) if kind == "mixed" else far
    else:
        # log-std weights that drive the bound into saturation, at large theta
        name = head.std_head.prefix + "w0"
        est.store.load({name: est.store[name].data * 1e4})
        thetas *= 1e3
    # an overflow warning is an error: a square past the float range in the
    # mixture kernel is a -inf term, not a warning
    with warnings.catch_warnings(), np.errstate(over="warn"):
        warnings.simplefilter("error")
        got = LikelihoodModel(est).log_lik(obs, thetas)
        ref = tiled_log_lik(est, obs, thetas)
    assert not np.any(np.isnan(got)) and np.all(got < np.inf)
    if case in ("infinite_trial", "components_far_out"):
        assert np.all(got == -np.inf)
    np.testing.assert_allclose(got, ref, rtol=1e-12)


@pytest.mark.parametrize("kind", ["mixed", "mdn"])
def test_nle_draws_equal_those_of_a_target_that_prepares_the_trials_on_every_call(kind):
    est, obs = nle_task(kind, 18)
    model, config = LikelihoodModel(est), SamplerConfig(chains=4, warmup=3, thin=1, sir_pool=50)
    raw = inference._mcmc_posterior(model.log_lik, OBS_PRIOR, obs, config)
    post = nle_posterior(model, OBS_PRIOR, obs, config)
    got, ref = (p.sample(12, np.random.default_rng(4)) for p in (post, raw))
    np.testing.assert_array_equal(got, ref)
    assert post.last_diagnostics.n_target_evals == raw.last_diagnostics.n_target_evals


def tiled_direct_log_prob(posterior, x, theta):
    """Reference direct density: the estimator's log_prob with the
    observation repeated once per theta row, masked to the prior support."""
    lp = posterior.estimator.log_prob(theta, np.tile(np.atleast_2d(x), (theta.shape[0], 1)))
    return np.where(posterior.prior.contains(theta), lp, -np.inf)


def tiled_draws(est, x, n, rng):
    """Reference draws from context features computed on n copies of ``x``,
    one set of network outputs per draw, with the generator calls of
    ``est.sample``."""
    feats = est.context_net.forward(EVALUATOR, np.tile(np.atleast_2d(x), (n, 1)))
    if isinstance(est, AffineCouplingFlow):
        return est._sample(feats, n, rng)
    if isinstance(est, ConditionalMDN):
        return est.target_standardizer.inverse(est.head.sample(feats, np.arange(n), rng))
    p1 = sigmoid(est.choice_net.forward(EVALUATOR, feats))[:, 0]
    choice = (rng.uniform(size=n) < p1).astype(np.float64)[:, None]
    y_z = est.rt_head.sample(np.concatenate([feats, choice], axis=1), np.arange(n), rng)
    return np.concatenate([choice, np.exp(est.target_standardizer.inverse(y_z))], axis=1)


# a flow of a 1-column target, whose conditioners read the context alone, at
# one and at three observation columns: kind -> (estimator kind, x columns)
FLOW_1D = {"flow-1d-x1": ("flow", 1), "flow-1d-x3": ("flow", 3)}


def direct_query(kind, prior, **config):
    """A DirectPosterior over a randomized estimator of a 2-column target
    given 3-column observations (two MDNs for "ensemble"; see ``FLOW_1D``),
    the target maker, and a generator."""
    rng = np.random.default_rng(15)
    base, x_dim = FLOW_1D.get(kind, ("mdn" if kind == "ensemble" else kind, 3))
    make = mixed_trials if base == "mixed" else continuous_trials
    if kind in FLOW_1D:
        make = first_column_trials
    members = [randomized(base, prior.dim, x_dim, make(rng, 200), rng.normal(size=(200, x_dim)),
                          seed, **config)
               for seed in (3, 5)]
    est = EnsembleEstimator(members) if kind == "ensemble" else members[0]
    return DirectPosterior(est, prior), make, rng


@pytest.mark.parametrize("kind", ["mdn", "flow", "mixed", "ensemble", *FLOW_1D])
def test_direct_log_prob_at_one_observation_matches_the_tiled_reference(kind):
    prior = BoxUniform([-0.5, 0.1], [1.5, 1.9]) if kind == "mixed" else BoxUniform([-1, -6], [2, 4])
    if kind in FLOW_1D:
        prior = BoxUniform([-1], [2])
    post, make, rng = direct_query(kind, prior)
    x, theta = rng.normal(size=post.estimator.context_dim), make(rng, 500)
    got = post.log_prob(x, theta)
    assert np.isfinite(got).sum() > 300 and np.any(got == -np.inf)
    np.testing.assert_allclose(got, tiled_direct_log_prob(post, x, theta), rtol=1e-12)


@pytest.mark.parametrize("kind", ["mdn", "flow", "mixed", *FLOW_1D])
def test_direct_draws_at_one_observation_match_the_tiled_reference(kind):
    dim = 1 if kind in FLOW_1D else 2
    post, _, rng = direct_query(kind, DiagGaussian([0.0] * dim, [0.0] * dim))
    x, n = rng.normal(size=post.estimator.context_dim), 4000
    got = post.sample(x, n, np.random.default_rng(16))
    ref = tiled_draws(post.estimator, x, n, np.random.default_rng(16))
    # a draw whose component (or choice) flips on a last-bit difference of
    # the cumulative weights lands far from its reference; count those apart
    flipped = ~np.all(np.isclose(got, ref, rtol=1e-12, atol=1e-12), axis=1)
    assert np.count_nonzero(flipped) <= n // 1000
    np.testing.assert_allclose(got[~flipped], ref[~flipped], rtol=1e-12, atol=1e-12)


def boolean_index_draws(post, x, n, rng):
    """Reference ``DirectPosterior.sample``: every round's draws masked by
    the row-wise support expression and copied by boolean index."""
    low, high = post.prior.low, post.prior.high
    out, filled = np.empty((n, post.prior.dim)), 0
    while filled < n:
        draw = post.estimator.sample(x, max(n - filled, 32), rng)
        keep = draw[np.all((draw >= low) & (draw <= high), axis=1)]
        take = min(keep.shape[0], n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


@pytest.mark.parametrize("kind", ["mdn", "flow", "mixed", "ensemble"])
def test_direct_draws_in_a_box_equal_the_boolean_index_loop(kind):
    """Under a box that cuts off part of the estimator's mass, and under one
    that holds every draw, the draws equal the boolean-index loop's."""
    cut = BoxUniform([-0.5, 0.1], [1.5, 1.9]) if kind == "mixed" else BoxUniform([-1, -6], [2, 4])
    post, _, rng = direct_query(kind, cut)
    x = rng.normal(size=3)
    wide = BoxUniform([-1e3, 0.0 if kind == "mixed" else -1e3], [1e3, 1e3])
    for prior in (cut, wide):
        leaked = ~prior.contains(post.estimator.sample(x, 4000, np.random.default_rng(17)))
        assert 0.05 < leaked.mean() < 0.9 if prior is cut else not leaked.any()
        post.prior = prior
        for n in (5, 4000):
            np.testing.assert_array_equal(post.sample(x, n, np.random.default_rng(18)),
                                          boolean_index_draws(post, x, n,
                                                              np.random.default_rng(18)))


@pytest.mark.parametrize("kind, context_only", [
    ("mdn", ["ctx.embed.", "mdn.trunk.", "mdn.weights.", "mdn.means.", "mdn.logstds."]),
    ("flow", ["ctx.embed."]),
    ("mixed", ["ctx.embed.", "choice."]),
    *[(kind, ["ctx.embed.", "layer0.", "layer1.", "layer2."]) for kind in FLOW_1D],
])
def test_a_direct_query_sends_one_row_through_each_context_only_network(kind, context_only,
                                                                        monkeypatch):
    rows = {}
    forward = Mlp.forward

    def counted(self, ops, x):
        rows.setdefault(self.prefix, []).append(x.shape[0])
        return forward(self, ops, x)

    monkeypatch.setattr(Mlp, "forward", counted)
    dim = 1 if kind in FLOW_1D else 2
    post, _, rng = direct_query(kind, DiagGaussian([0.0] * dim, [0.0] * dim),
                                embedding_dim=4, embedding_hidden=(8,))
    x = rng.normal(size=post.estimator.context_dim)
    for n in (40, 4000):
        rows.clear()
        post.log_prob(x, post.sample(x, n, rng))
        # one call in sample and one in log_prob, one row each, whatever n
        assert {name: rows[name] for name in context_only} == dict.fromkeys(context_only, [1, 1])
        if kind == "mixed":
            assert rows["rt.trunk."][0] == 2    # the RT head at choice 0 and choice 1


X_OBS = np.array([[0.9], [1.3], [0.7], [1.1], [1.0]])
CONJUGATE_TRAIN = TrainConfig(max_epochs=150, learning_rate=3e-3, seed=5)
CONJUGATE_SAMPLER = SamplerConfig(chains=20, warmup=50, thin=2, sir_pool=200)


def assert_draws_match_conjugate(make_posterior, x_obs=X_OBS, noise_std=0.3):
    """Train on the 1-d linear Gaussian, then compare posterior draws at
    ``x_obs`` with the conjugate posterior; returns the posterior and the
    conjugate mean and std."""
    sim = LinearGaussianSimulator(dim=1, noise_std=noise_std)
    prior = DiagGaussian([0.0], [0.0])
    data = generate_dataset(prior, sim, 2000, seed=5)
    posterior = make_posterior(data, prior)
    # a direct posterior takes the observation per call; an MCMC one was built on it
    at = (x_obs,) if isinstance(posterior, DirectPosterior) else ()
    draws = posterior.sample(*at, 400, np.random.default_rng(6))
    mean, std = conjugate_posterior([0.0], [1.0], noise_std, x_obs)
    assert abs(draws.mean() - mean[0]) < 0.5 * std[0]
    assert 0.6 < draws.std() / std[0] < 1.5
    return posterior, mean[0], std[0]


def test_npe_linear_gaussian_matches_conjugate_posterior_and_mode():
    x_o = np.array([1.0])

    def make(data, prior):
        post, _ = npe_fit(data, EstimatorConfig(kind="mdn", n_components=2, hidden=(20,)),
                          CONJUGATE_TRAIN)
        return post
    post, mean, std = assert_draws_match_conjugate(make, x_o)
    # the conjugate posterior is Gaussian, so its mode is its mean; the
    # search ascends the taped density, DirectPosterior.log_prob_tape
    theta_map = map_estimate(post, x_o, np.random.default_rng(7))
    assert abs(theta_map[0] - mean) < 0.5 * std


def test_nle_linear_gaussian_matches_conjugate_posterior():
    def make(data, prior):
        model, _ = nle_fit(data, EstimatorConfig(kind="mdn", n_components=2, hidden=(20,)),
                           CONJUGATE_TRAIN)
        return nle_posterior(model, prior, X_OBS, CONJUGATE_SAMPLER)
    assert_draws_match_conjugate(make)


def test_nre_linear_gaussian_matches_conjugate_posterior():
    def make(data, prior):
        model, _ = nre_fit(data, hidden=(20,), train_config=CONJUGATE_TRAIN)
        return nre_posterior(model, prior, X_OBS, CONJUGATE_SAMPLER)
    assert_draws_match_conjugate(make)


def grid_side_median(grid, density, inside):
    """Median of the grid density restricted to the points where ``inside`` holds."""
    cdf = np.cumsum(density[inside])
    return np.interp(0.5, cdf / cdf[-1], grid[inside])


def test_nre_ball_throw_recovers_both_angle_modes():
    # x_o = 13 m is reached from a low and a high angle. Seeds 0-15 gave side
    # medians within 1.9 degrees of the grid's and a mass below 45 degrees of
    # 0.46-0.57 (grid 0.53), about 1.5 s each.
    x_o = 13.0
    grid, density = ball_throw_angle_posterior(x_o)
    modes = grid_modes(grid, density)
    assert len(modes) == 2 and min(modes) < 45.0 < max(modes)
    low = grid < 45.0
    grid_mass_low = np.trapezoid(density[low], grid[low])

    sim = BallThrowSimulator()
    prior = sim.default_prior()
    data = generate_dataset(prior, sim, 4000, seed=0)
    model, _ = nre_fit(data, train_config=TrainConfig(max_epochs=40, learning_rate=2e-3, seed=0))
    posterior = nre_posterior(model, prior, [x_o], SamplerConfig(chains=40, warmup=20))
    draws = posterior.sample(1000, np.random.default_rng(0))[:, 0]

    draws_low = draws < 45.0
    assert 0.2 < draws_low.mean() < 0.8   # draws on both sides of 45 degrees
    assert abs(np.median(draws[draws_low]) - grid_side_median(grid, density, low)) < 3.0
    assert abs(np.median(draws[~draws_low]) - grid_side_median(grid, density, ~low)) < 3.0
    assert abs(draws_low.mean() - grid_mass_low) < 0.1


def box_gaussian_task(n, seed):
    sim = LinearGaussianSimulator(dim=1, noise_std=0.3)
    prior = BoxUniform([-3.0], [3.0])
    return sim, prior, generate_dataset(prior, sim, n, seed=seed)


SMALL_MDN = EstimatorConfig(kind="mdn", n_components=2, hidden=(10,))


def test_ensemble_density_normalizes_inside_the_support_and_averages_members():
    _, prior, data = box_gaussian_task(600, seed=1)
    ens, reports = fit_ensemble(data, 3, SMALL_MDN,
                                TrainConfig(max_epochs=80, learning_rate=5e-3, seed=1))
    assert len(reports) == 3
    assert isinstance(ens, DirectPosterior)
    x_o = [0.5]
    grid = np.linspace(-3.0, 3.0, 4001)[:, None]
    lp = ens.log_prob(x_o, grid)
    assert abs(np.trapezoid(np.exp(lp), grid[:, 0]) - 1.0) < 1e-4
    context = np.full_like(grid, 0.5)
    member_mean = np.mean([np.exp(m.log_prob(grid, context)) for m in ens.estimator.members],
                          axis=0)
    np.testing.assert_allclose(lp, np.log(member_mean), rtol=1e-12, atol=1e-12)
    assert np.all(ens.log_prob(x_o, [[-3.5], [3.01], [10.0]]) == -np.inf)


def gaussian_mdn(mean, std):
    """A one-component MDN whose density is N(mean, std^2) at every context."""
    m = build_estimator(EstimatorConfig(kind="mdn", n_components=1, hidden=(4,)), 1, 1)
    m.store.load({n: np.zeros_like(m.store[n].data) for n in m.store.names()
                  if n.startswith(("mdn.weights", "mdn.means", "mdn.logstds"))})
    m.target_standardizer = Standardizer([mean], [std])
    return m


def test_ensemble_draws_follow_the_density_it_reports_on_a_truncating_support():
    # Member N(-1, 1) keeps 0.136 of its mass in [0, 1], member N(0.5, 0.1)
    # nearly all of it; drawing each member inside the box on its own would
    # put 16% of the draws below 0.2, where log_prob puts 4%.
    post = DirectPosterior(EnsembleEstimator([gaussian_mdn(-1.0, 1.0), gaussian_mdn(0.5, 0.1)]),
                           BoxUniform([0.0], [1.0]))
    n = 100_000
    share = np.mean(post.sample([0.0], n, np.random.default_rng(0))[:, 0] < 0.2)
    grid = np.linspace(0.0, 1.0, 20_001)
    dens = np.exp(post.log_prob([0.0], grid[:, None]))
    mass = np.trapezoid(dens[grid <= 0.2], grid[grid <= 0.2]) / np.trapezoid(dens, grid)
    assert abs(share - mass) < 4 * np.sqrt(mass * (1 - mass) / n)


OBS_PRIOR = BoxUniform([-1.0, -1.0], [1.0, 1.0])
TINY_SAMPLER = SamplerConfig(chains=2, warmup=1, thin=1, sir_pool=10)


def untrained(kind, target_dim, context_dim):
    cfg = EstimatorConfig(kind=kind, n_components=2, hidden=(8,), n_layers=2)
    return build_estimator(cfg, target_dim, context_dim)


def untrained_npe():
    return DirectPosterior(untrained("mdn", 2, 2), OBS_PRIOR)


def mcmc_draws(make_posterior, model, x):
    return make_posterior(model, OBS_PRIOR, x, TINY_SAMPLER).sample(2, np.random.default_rng(0))


def log_lik_at(kind, x):
    return LikelihoodModel(untrained(kind, 2, 2)).log_lik(x, np.zeros((4, 2)))


# route: (x_dim, whether it takes exactly one row, a query at observation x)
OBSERVATION_ROUTES = {
    "npe_sample": (2, True, lambda x: untrained_npe().sample(x, 3, np.random.default_rng(0))),
    "npe_log_prob": (2, True, lambda x: untrained_npe().log_prob(x, np.zeros((3, 2)))),
    "nle_mdn": (2, False, lambda x: mcmc_draws(
        nle_posterior, LikelihoodModel(untrained("mdn", 2, 2)), x)),
    "nle_mixed": (2, False, lambda x: mcmc_draws(
        nle_posterior, LikelihoodModel(untrained("mixed", 2, 2)), x)),
    "nre": (1, False, lambda x: mcmc_draws(
        nre_posterior, RatioModel(ClassifierNet(2, 1, hidden=(8,))), x)),
    "log_lik_mdn": (2, False, lambda x: log_lik_at("mdn", x)),
    "log_lik_flow": (2, False, lambda x: log_lik_at("flow", x)),
    "log_lik_mixed": (2, False, lambda x: log_lik_at("mixed", x)),
    "log_ratio": (1, False, lambda x: RatioModel(ClassifierNet(2, 1, hidden=(8,))).log_ratio(
        x, np.zeros((4, 2)))),
}


def bad_observations(x_dim, one_row):
    cases = [[], np.zeros((0, x_dim)), np.zeros((3, x_dim + 1)), np.zeros(x_dim + 3)]
    if x_dim > 1:
        cases.append(np.zeros((3, x_dim - 1)))
    if one_row:
        cases.append(np.zeros((2, x_dim)))
    return cases


@pytest.mark.parametrize("route,x", [
    pytest.param(route, x, id=f"{route}-{np.shape(x)}")
    for route, (x_dim, one_row, _) in OBSERVATION_ROUTES.items()
    for x in bad_observations(x_dim, one_row)])
def test_observation_of_the_wrong_shape_raises_naming_it(route, x):
    with pytest.raises(InferenceError, match=re.escape(f"shape {np.shape(x)}")):
        OBSERVATION_ROUTES[route][2](x)


def test_fit_ensemble_rejects_fewer_than_two_members_before_training(monkeypatch):
    def train(*args, **kwargs):
        raise AssertionError("a member was trained")

    monkeypatch.setattr(inference, "npe_fit", train)
    _, _, data = box_gaussian_task(50, seed=1)
    for n_members in (1, 0):
        with pytest.raises(InferenceError, match=rf"at least 2 members, got n_members={n_members}"):
            fit_ensemble(data, n_members, SMALL_MDN)


@pytest.mark.parametrize("n", [0, -1])
def test_direct_sample_rejects_fewer_than_one_draw(n):
    ensemble = EnsembleEstimator([untrained("mdn", 2, 2), untrained("flow", 2, 2)])
    for posterior in (untrained_npe(), DirectPosterior(ensemble, OBS_PRIOR)):
        with pytest.raises(InferenceError, match=rf"n >= 1, got {n}"):
            posterior.sample([0.0, 0.0], n, np.random.default_rng(0))


def test_every_fit_route_rejects_an_empty_dataset_before_building_anything(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("an estimator was built")

    monkeypatch.setattr(inference, "build_estimator", build)
    data = Dataset(np.zeros((0, 2)), np.zeros((0, 2)), {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit_route in (lambda: npe_fit(data, prior=OBS_PRIOR), lambda: nle_fit(data),
                          lambda: nre_fit(data)):
            with pytest.raises(InferenceError, match=r"empty dataset|got 0"):
                fit_route()


@pytest.mark.parametrize("n", [1, 5, 9])
def test_every_fit_route_rejects_fewer_rows_than_a_split_needs_before_building_anything(
        monkeypatch, n):
    def build(*args, **kwargs):
        raise AssertionError("an estimator was built")

    monkeypatch.setattr(inference, "build_estimator", build)
    monkeypatch.setattr(inference, "ClassifierNet", build)
    data = Dataset(np.zeros((n, 2)), np.zeros((n, 2)), {})
    # a batch size small enough that NRE's 2*batch_size rule alone would pass
    train = TrainConfig(batch_size=1)
    for fit_route in (lambda: npe_fit(data, train_config=train, prior=OBS_PRIOR),
                      lambda: nle_fit(data, train_config=train),
                      lambda: nre_fit(data, train_config=train)):
        with pytest.raises(InferenceError, match=rf"at least 10 rows.*got {n}$"):
            fit_route()


@pytest.fixture(scope="module")
def tsnpe_run():
    """One TSNPE round on 500 prior rows of the box task, adding 200 rows;
    the input posterior is trained long enough for its region to exclude
    part of the prior."""
    sim, prior, data = box_gaussian_task(500, seed=2)
    train = TrainConfig(max_epochs=150, learning_rate=3e-3, seed=2)
    post, _ = npe_fit(data, SMALL_MDN, train)
    theta_true = np.array([[0.7]])
    x_o = simulate_rows(sim, theta_true, seed=3)[0]
    new_post, merged, _ = tsnpe_round(post, x_o, prior, sim, 200, SMALL_MDN, train,
                                      seed=4, data=data)
    return SimpleNamespace(sim=sim, prior=prior, data=data, post=post, theta_true=theta_true,
                           x_o=x_o, new_post=new_post, merged=merged)


def test_tsnpe_round_accumulates_rows_drawn_inside_the_region(tsnpe_run):
    run = tsnpe_run
    data, post, x_o, merged = run.data, run.post, run.x_o, run.merged
    assert len(merged) == len(data) + 200
    np.testing.assert_array_equal(merged.theta[:len(data)], data.theta)
    # the metadata counts every merged row and records the round that added 200
    assert merged.meta["n"] == len(data) + 200
    assert merged.meta["seed"] == data.meta["seed"] == 2
    (record,) = merged.meta["rounds"]
    assert set(record) == {"seed", "n_new", "x_o", "cutoff", "acceptance_rate"}
    assert (record["seed"], record["n_new"], record["x_o"]) == (4, 200, list(x_o))
    assert 0.0 < record["acceptance_rate"] < 0.9
    assert data.meta["n"] == len(data) and "rounds" not in data.meta
    # the region is {theta: log q(theta | x_o) >= cutoff} under the input posterior
    assert post.log_prob(x_o, run.theta_true)[0] >= record["cutoff"]
    assert np.all(post.log_prob(x_o, merged.theta[len(data):]) >= record["cutoff"])
    assert np.all(np.isfinite(run.new_post.log_prob(x_o, run.theta_true)))
    mcmc = McmcPosterior(run.prior.log_prob, run.prior, TINY_SAMPLER)
    with pytest.raises(InferenceError, match="direct posterior"):
        tsnpe_round(mcmc, x_o, run.prior, run.sim, 10, seed=4)


def test_tsnpe_round_runs_from_an_ensemble_posterior(tsnpe_run):
    run = tsnpe_run
    short = TrainConfig(max_epochs=3, seed=6)
    ens, _ = fit_ensemble(run.data, 2, SMALL_MDN, short)
    new_post, merged, _ = tsnpe_round(ens, run.x_o, run.prior, run.sim, 50, SMALL_MDN, short,
                                      seed=6, data=run.data)
    assert len(merged) == len(run.data) + 50
    (record,) = merged.meta["rounds"]
    assert np.all(ens.log_prob(run.x_o, merged.theta[len(run.data):]) >= record["cutoff"])
    assert isinstance(new_post, DirectPosterior)


def test_tsnpe_round_record_rebuilds_the_region_after_save_and_load(tsnpe_run, tmp_path):
    run = tsnpe_run
    run.merged.save(tmp_path / "round.csv")
    loaded = Dataset.load(tmp_path / "round.csv")
    assert loaded.digest() == run.merged.digest()
    # the prior the loss trains against is the untruncated one
    assert loaded.meta["prior"] == prior_to_config(run.prior)
    (record,) = loaded.meta["rounds"]
    new_rows = loaded.theta[len(run.data):]
    assert np.all(run.post.log_prob(record["x_o"], new_rows) >= record["cutoff"])


def test_tsnpe_round_without_data_records_its_prior_and_simulator(tsnpe_run, tmp_path):
    run = tsnpe_run
    short = TrainConfig(max_epochs=3, seed=5)
    _, fresh, _ = tsnpe_round(run.post, run.x_o, run.prior, run.sim, 100, SMALL_MDN, short,
                              seed=5)
    assert fresh.meta["simulator"] == run.sim.name
    assert fresh.meta["prior"] == prior_to_config(run.prior)
    fresh.save(tmp_path / "fresh.csv")
    loaded = Dataset.load(tmp_path / "fresh.csv")
    # npe_fit takes the prior from the metadata, both in memory and from the file
    for dataset in (fresh, loaded):
        post, _ = npe_fit(dataset, SMALL_MDN, short)
        assert prior_to_config(post.prior) == prior_to_config(run.prior)


def test_tsnpe_round_without_new_rows_fails_before_its_density_pass(tsnpe_run, monkeypatch):
    run = tsnpe_run

    def density_pass(*args):
        raise AssertionError("the density pass ran")

    monkeypatch.setattr(run.post, "sample", density_pass)
    for n_new in (0, -3):
        with pytest.raises(InferenceError, match=rf"n_new >= 1, got {n_new}"):
            tsnpe_round(run.post, run.x_o, run.prior, run.sim, n_new, seed=4)


def test_tsnpe_acceptance_error_names_the_bound_in_use(tsnpe_run):
    run = tsnpe_run
    # the region lies inside [-3, 3], so a prior 2000 times wider accepts
    # under 5e-4 of its draws, below the bound of 1e-3
    wide = BoxUniform([-6000.0], [6000.0])
    with pytest.raises(InferenceError, match=r"below 0\.001; region and prior barely overlap"):
        tsnpe_round(run.post, run.x_o, wide, run.sim, 1000, SMALL_MDN, seed=4)

