"""The core inference algorithms and the two forms of posterior they return.

Three routes to the posterior: train a conditional estimator of parameters
given data and sample it directly (NPE, amortized); train an estimator of
data given parameters and run MCMC on the product with the prior (NLE);
train a classifier whose logit estimates the likelihood-to-evidence ratio
and run MCMC on summed logits plus the prior (NRE). On top of these:
truncated sequential refinement (multi-round NPE on a restricted prior)
and posterior ensembles that average member densities.

Direct posteriors are one class, ``DirectPosterior``, over any estimator of
the ``estimators`` contract; an ensemble is one such estimator,
``EnsembleEstimator``. They are amortized: every call takes its
observation, as in ``sample(x, n, rng)`` and ``log_prob(x, theta)``. MCMC
posteriors (NLE, NRE) are built per observation set: ``sample(n, rng)``.
``_observations`` checks the shape of every observation that either one or
the NLE and NRE models receive.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .distributions import Distribution, prior_from_config, prior_to_config
from .estimators import (ClassifierNet, EnsembleEstimator, EstimatorConfig, NllTask,
                         build_estimator, pairwise_iid_sum)
from .samplers import SamplerConfig, slice_sample
from .simulators import Dataset, Simulator, simulate_rows
from .trainer import TrainConfig, TrainReport, fit


_MAX_LEAK_ROUNDS = 200   # estimator draws per direct sample before leakage is an error
# tsnpe_round: posterior mass left outside the region, posterior draws that
# place its cutoff, prior draws per rejection batch, and the acceptance below
# which a round aborts after 100 batches
_TSNPE_EPSILON = 1e-4
_TSNPE_DENSITY_SAMPLES = 10_000
_TSNPE_BATCH = 4096
_TSNPE_MIN_ACCEPTANCE = 1e-3


class InferenceError(RuntimeError):
    pass


def _resolve_prior(dataset: Dataset, prior: Distribution | None) -> Distribution:
    if prior is not None:
        return prior
    if "prior" in dataset.meta:
        return prior_from_config(dataset.meta["prior"])
    raise InferenceError("no prior given and dataset metadata carries none")


def _observations(x, x_dim: int, single: bool = False) -> np.ndarray:
    """``x`` as a (rows, x_dim) float array with at least one row, or exactly
    one row when ``single``; a 1-D ``x`` is one row."""
    arr = np.asarray(x, dtype=np.float64)
    rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
    if (rows.ndim != 2 or rows.shape[1] != x_dim or rows.shape[0] < 1
            or (single and rows.shape[0] != 1)):
        raise InferenceError(f"observation of shape {arr.shape} does not fit x_dim={x_dim}"
                             + (" as one row" if single else ""))
    return rows


class DirectPosterior:
    """Amortized posterior: one trained estimator (or ensemble) serves any observation.

    Every call takes one observation row ``x``. Sampling rejects the
    estimator's leakage outside the prior support, so draws follow the
    density that log_prob reports: the estimator density inside the support
    and -inf outside (not renormalized for leakage, which cancels in
    rank-based diagnostics).
    """

    def __init__(self, estimator, prior: Distribution):
        self.estimator = estimator
        self.prior = prior

    def _row(self, x) -> np.ndarray:
        return _observations(x, self.estimator.context_dim, single=True)

    def sample(self, x, n, rng):
        if n < 1:
            raise InferenceError(f"sample needs n >= 1, got {n}")
        x = self._row(x)
        out = np.empty((n, self.prior.dim))
        filled = 0
        for _ in range(_MAX_LEAK_ROUNDS):
            draw = self.estimator.sample(x, max(n - filled, 32), rng)
            keep = draw[self.prior.contains(draw)]
            take = min(keep.shape[0], n - filled)
            out[filled:filled + take] = keep[:take]
            filled += take
            if filled == n:
                return out
        raise InferenceError(
            "posterior sampling kept leaking outside the prior support; "
            f"accepted {filled}/{n}"
        )

    def log_prob(self, x, theta):
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        lp = self.estimator.log_prob(theta, np.tile(self._row(x), (theta.shape[0], 1)))
        return np.where(self.prior.contains(theta), lp, -np.inf)

    def log_prob_tape(self, ops, x, theta):
        """(n,1) estimator log-density at every theta row, support not masked."""
        ctx = ops.const(np.tile(self._row(x), (theta.shape[0], 1)))
        return self.estimator.log_prob_tape(ops, theta, ctx)


class LikelihoodModel:
    """Trained estimator of data given parameters, exposing summed log-likelihoods."""

    def __init__(self, estimator):
        self.estimator = estimator

    def log_lik(self, observations, thetas) -> np.ndarray:
        """Sum of log q(x_t | theta) over the observation rows, per theta row."""
        observations = _observations(observations, self.estimator.target_dim)
        thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
        return self.estimator.iid_log_lik(observations, thetas)


class RatioModel:
    """Trained classifier whose logit estimates log p(x|theta) - log p(x)."""

    def __init__(self, classifier: ClassifierNet):
        self.classifier = classifier

    def log_ratio(self, observations, thetas) -> np.ndarray:
        observations = _observations(observations, self.classifier.x_dim)
        thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
        return pairwise_iid_sum(lambda x, theta: self.classifier.logit(theta, x),
                                observations, thetas)


class McmcPosterior:
    """Posterior accessed through slice sampling of a learned log-target."""

    def __init__(self, log_target, prior: Distribution, sampler_config: SamplerConfig):
        self.log_target = log_target
        self.prior = prior
        self.sampler_config = sampler_config
        self.last_diagnostics = None

    def sample(self, n, rng):
        samples, diag = slice_sample(self.log_target, self.prior,
                                     self.sampler_config, rng, n)
        self.last_diagnostics = diag
        return samples


def _fit_density(dataset: Dataset, estimator_config: EstimatorConfig | None,
                 train_config: TrainConfig | None, theta_is_target: bool):
    """Build, standardize and train a density estimator of theta given x
    (``theta_is_target``, NPE) or of x given theta (NLE)."""
    if len(dataset) == 0:
        raise InferenceError("cannot fit on an empty dataset")
    estimator_config = estimator_config or EstimatorConfig(kind="mdn")
    train_config = train_config or TrainConfig()
    target, context = (dataset.theta, dataset.x) if theta_is_target else (dataset.x, dataset.theta)
    estimator = build_estimator(estimator_config, target.shape[1], context.shape[1],
                                seed=train_config.seed)
    estimator.initialize_standardization(target, context)
    return estimator, fit(NllTask(estimator, theta_is_target), dataset, train_config)


def npe_fit(dataset: Dataset, estimator_config: EstimatorConfig | None = None,
            train_config: TrainConfig | None = None,
            prior: Distribution | None = None) -> tuple[DirectPosterior, TrainReport]:
    """Train a conditional estimator of theta given x; inference at any new
    observation afterwards needs no further simulation."""
    prior = _resolve_prior(dataset, prior)
    estimator, report = _fit_density(dataset, estimator_config, train_config, theta_is_target=True)
    return DirectPosterior(estimator, prior), report


def nle_fit(dataset: Dataset, estimator_config: EstimatorConfig | None = None,
            train_config: TrainConfig | None = None) -> tuple[LikelihoodModel, TrainReport]:
    """Train a conditional estimator of x given theta (the surrogate likelihood)."""
    estimator, report = _fit_density(dataset, estimator_config, train_config, theta_is_target=False)
    return LikelihoodModel(estimator), report


def nre_fit(dataset: Dataset, hidden: tuple = (50, 50),
            train_config: TrainConfig | None = None) -> tuple[RatioModel, TrainReport]:
    """Train the ratio classifier on matched vs cyclically shuffled pairs."""
    train_config = train_config or TrainConfig()
    if len(dataset) < 2 * train_config.batch_size:
        raise InferenceError(
            f"NRE needs at least 2*batch_size={2 * train_config.batch_size} rows, "
            f"got {len(dataset)}"
        )
    classifier = ClassifierNet(dataset.theta_dim, dataset.x_dim, hidden=hidden,
                               seed=train_config.seed)
    classifier.initialize_standardization(dataset.theta, dataset.x)
    report = fit(classifier, dataset, train_config)
    return RatioModel(classifier), report


def _mcmc_posterior(term, prior: Distribution, observations, x_dim: int,
                    sampler_config: SamplerConfig | None) -> McmcPosterior:
    """MCMC posterior whose log-target is the prior plus
    ``term(observations, thetas)``, short-circuited to -inf outside the prior
    support (the network is never queried there)."""
    observations = _observations(observations, x_dim)

    def log_target(thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
        lp = prior.log_prob(thetas)
        out = np.full(thetas.shape[0], -np.inf)
        ok = np.isfinite(lp)
        if ok.any():
            out[ok] = lp[ok] + term(observations, thetas[ok])
        return out

    return McmcPosterior(log_target, prior, sampler_config or SamplerConfig())


def nle_posterior(model: LikelihoodModel, prior: Distribution, observations,
                  sampler_config: SamplerConfig | None = None) -> McmcPosterior:
    """MCMC posterior over the summed single-trial log-likelihoods, valid for
    any number of i.i.d. observations.

    Each target call evaluates the estimator's ``iid_log_lik``: for the MDN
    and the mixed estimator the network cost scales with the number of theta
    rows in the call, not theta rows times trials; only the mixture density
    is evaluated per trial.
    """
    return _mcmc_posterior(model.log_lik, prior, observations, model.estimator.target_dim,
                           sampler_config)


def nre_posterior(model: RatioModel, prior: Distribution, observations,
                  sampler_config: SamplerConfig | None = None) -> McmcPosterior:
    """MCMC posterior over summed per-trial logits plus the prior."""
    return _mcmc_posterior(model.log_ratio, prior, observations, model.classifier.x_dim,
                           sampler_config)


def tsnpe_round(posterior: DirectPosterior, x_o, prior: Distribution,
                simulator: Simulator, n_new: int,
                estimator_config: EstimatorConfig | None = None,
                train_config: TrainConfig | None = None, seed: int = 0,
                data: Dataset | None = None) -> tuple[DirectPosterior, Dataset, TrainReport]:
    """One truncated-sequential refinement round (TSNPE).

    The truncation region is {theta: log q(theta | x_o) >= cutoff} under the
    input posterior, with the cutoff set so that it holds all but
    ``_TSNPE_EPSILON`` of that posterior's mass. The round rejection-samples
    ``n_new`` prior draws inside the region, simulates them, and retrains on
    all accumulated data with the unmodified NPE loss against ``prior``.

    Returns (posterior, accumulated dataset, TrainReport). The accumulated
    dataset's ``meta`` counts all its rows in ``n`` and appends this round's
    record ``{seed, n_new, x_o, cutoff, acceptance_rate}`` to ``rounds``;
    ``x_o`` and ``cutoff`` together with the input posterior rebuild the
    region. ``meta["prior"]`` names the prior the unmodified loss trains
    against, not the truncated proposal: it is carried over from ``data``,
    or recorded with ``meta["simulator"]`` when the round starts without
    data, so ``npe_fit`` on the dataset or its saved file needs no prior.
    """
    if not isinstance(posterior, DirectPosterior):
        raise InferenceError("truncated sequential refinement needs a direct posterior")
    if n_new < 1:
        raise InferenceError(f"a refinement round needs n_new >= 1, got {n_new}")
    x_o = _observations(x_o, posterior.estimator.context_dim, single=True)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    densities = posterior.log_prob(x_o, posterior.sample(x_o, _TSNPE_DENSITY_SAMPLES, rng))
    cutoff = float(np.quantile(densities, _TSNPE_EPSILON))
    kept = []
    n_kept = 0
    n_drawn = 0
    while n_kept < n_new:
        draw = prior.sample(rng, _TSNPE_BATCH)
        ok = posterior.log_prob(x_o, draw) >= cutoff
        kept.append(draw[ok])
        n_kept += int(ok.sum())
        n_drawn += _TSNPE_BATCH
        if n_drawn >= 100 * _TSNPE_BATCH and n_kept < _TSNPE_MIN_ACCEPTANCE * n_drawn:
            raise InferenceError(
                f"truncated-prior rejection acceptance {n_kept / n_drawn:.2e} "
                f"below {_TSNPE_MIN_ACCEPTANCE:g}; region and prior barely overlap"
            )
    thetas = np.vstack(kept)[:n_new]
    new_data = Dataset(thetas, simulate_rows(simulator, thetas, seed=seed),
                       {"simulator": simulator.name, "prior": prior_to_config(prior)})
    merged = data.concat(new_data) if data is not None else new_data
    merged.meta["n"] = len(merged)
    merged.meta["rounds"] = merged.meta.get("rounds", []) + [{
        "seed": int(seed), "n_new": int(n_new), "x_o": x_o[0].tolist(),
        "cutoff": cutoff, "acceptance_rate": n_kept / n_drawn}]
    new_posterior, report = npe_fit(merged, estimator_config, train_config, prior=prior)
    return new_posterior, merged, report


def fit_ensemble(dataset: Dataset, n_members: int = 5,
                 estimator_config: EstimatorConfig | None = None,
                 train_config: TrainConfig | None = None,
                 prior: Distribution | None = None) -> tuple[DirectPosterior, list]:
    """Train NPE members differing only in seed (init and shuffling); return
    the direct posterior over their ``EnsembleEstimator`` and the members'
    reports. Sampling rejects the mixture's leakage, not each member's, so
    draws weight members by their mass inside the support, as log_prob does.
    """
    if n_members < 2:
        raise InferenceError(f"an ensemble needs at least 2 members, got n_members={n_members}")
    prior = _resolve_prior(dataset, prior)
    train_config = train_config or TrainConfig()
    members, reports = [], []
    for k in range(n_members):
        cfg_k = replace(train_config, seed=train_config.seed + k)
        post, report = npe_fit(dataset, estimator_config, cfg_k, prior=prior)
        members.append(post.estimator)
        reports.append(report)
    return DirectPosterior(EnsembleEstimator(members), prior), reports
