"""The benchmark's four SBI workflows, driven through sbikit's public API.

Every workload follows the same shape, so the run loop in run.py can time
any of them:

* ``setup(seed)`` builds the simulator, the prior and the query
  observations from the benchmark seed (the library only sees the
  generated inputs);
* ``workflow`` runs simulate -> table round trip -> train -> first
  posterior once and returns its timings and digests;
* ``query`` answers one posterior query on the trained model;
* ``error`` scores a query against the workload's reference, and
  ``aggregate_ok`` gates the median score of a run.

Workloads and their sizes are fixed here; see README.md for why each one
was chosen and which metrics it should move.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from sbikit.distributions import DistributionError
from sbikit.estimators import ClassifierNet, EstimatorConfig, EstimatorError, build_estimator
from sbikit.inference import (InferenceError, nle_fit, nle_posterior, npe_fit, nre_fit,
                              nre_posterior)
from sbikit.ndiff import NdiffError, NonFiniteGradientError, Tape, Tensor
from sbikit.samplers import SamplerConfig, SamplerError
from sbikit.simulators import (BallThrowSimulator, Dataset, DDMSimulator,
                               LinearGaussianSimulator, SimulationBudgetError, SimulatorError,
                               generate_dataset, simulate_rows)
from sbikit.trainer import TrainConfig, TrainingError
from speed import Stopwatch

# An operation that raises one of these failed; any other exception is a
# defect of the benchmark or the library and ends the run.
SBIKIT_ERRORS = (SimulatorError, SimulationBudgetError, EstimatorError, TrainingError,
                 InferenceError, SamplerError, NdiffError, NonFiniteGradientError,
                 DistributionError)


DESIGN_SEED = 20250817   # fixed design of generating parameters, see Workload.setup


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def stream_seed(seed: int, *key: int) -> int:
    """An integer seed for one library call, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def setup_digest(st: Setup) -> str:
    """Digest of the generated inputs, compared across processes."""
    return digest(st.truths, *st.observations)


def query_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, 2, k])


@dataclass
class Setup:
    simulator: object
    prior: object
    truths: np.ndarray          # generating parameters, one row per observation
    observations: list          # one array per query observation


@dataclass
class QueryOut:
    draws: np.ndarray           # what the query delivered (posterior draws or trials)
    finite: bool
    diagnostics: object = None  # ChainDiagnostics for MCMC queries


@dataclass
class Rep:
    """One timed pass of the workflow."""

    clock: Stopwatch            # stage 0 simulates; all stages make up the workflow
    rows: int = 0               # rows accepted into the training set / bank
    discards: int = 0
    table_bytes: int = 0
    digests: dict = field(default_factory=dict)
    model: object = None
    report: object = None
    data: Dataset | None = None
    ops: int = 0
    failures: list = field(default_factory=list)


class Workload:
    name = ""
    trains = True
    n_sims = 0
    epochs = 20
    n_obs = 0                   # observations built at set-up; queries cycle over them,
                                # and query metrics cover whole cycles
    n_draws = 0                 # draws (or trials) delivered per query
    error_unit = ""
    median_tol = None           # gate on the median error of the counted queries

    def workers(self) -> int:
        return 1

    def make_simulator(self):
        raise NotImplementedError

    def make_observations(self, sim, truths, seed) -> list:
        raise NotImplementedError

    def setup(self, seed: int) -> Setup:
        sim = self.make_simulator()
        prior = sim.default_prior()
        # The generating parameters are a fixed design, the same at every
        # seed, as in fixed-task SBI benchmarks: a query's cost depends on
        # them, and drawing them per seed made the query mix differ between
        # seeds. The seed drives the observation noise, the training data and
        # the sampler.
        truths = prior.sample(np.random.default_rng(DESIGN_SEED), self.n_obs)
        return Setup(sim, prior, truths, self.make_observations(sim, truths, seed))

    def train_config(self, seed: int) -> TrainConfig:
        # patience = max_epochs: every seed trains the same number of steps
        return TrainConfig(max_epochs=self.epochs, patience=self.epochs, seed=seed)

    def fit(self, data: Dataset, st: Setup, seed: int):
        raise NotImplementedError

    def instrument(self, model, tr) -> None:
        """Wrap the trained model's public methods with timers (traced run)."""

    def query(self, model, st: Setup, k: int, rng, tr) -> QueryOut:
        raise NotImplementedError

    def error(self, st: Setup, k: int, out: QueryOut) -> float | None:
        return None

    def aggregate_ok(self, errors: list) -> bool:
        return self.median_tol is None or float(np.median(errors)) < self.median_tol

    def replay_model(self, data: Dataset, seed: int):
        """A fresh copy of the workload's trainable model and its batch loss."""
        raise NotImplementedError


# -- shared pieces ------------------------------------------------------------

def _mcmc_query(post, n_draws, rng, tr) -> QueryOut:
    post.log_target = tr.wrap(post.log_target, "inference.log_target", rows_arg=0)
    with tr.span("samplers.slice_sample", rows=n_draws):
        draws = post.sample(n_draws, rng)
    finite = bool(np.all(np.isfinite(draws))) and bool(np.all(post.prior.contains(draws)))
    return QueryOut(draws, finite, post.last_diagnostics)


def nll_loss(estimator, theta_is_target: bool):
    """Mean negative log-density batch loss, as the trainer's NPE and NLE
    tasks compute it."""
    def loss(tape, theta, x):
        target, context = (theta, x) if theta_is_target else (x, theta)
        lp = estimator.log_prob_tape(tape, Tensor(target), Tensor(context))
        return tape.negate(tape.mean(lp))
    return loss


# -- workloads ----------------------------------------------------------------

class NpeGaussian(Workload):
    """NPE with the default MDN on the 2-d linear Gaussian; amortized queries."""

    name = "npe_gaussian"
    n_sims = 5_000
    n_obs = 64
    n_draws = 4000
    error_unit = "posterior std"
    noise_std = 0.1
    median_tol = 0.5     # posterior std

    def make_simulator(self):
        return LinearGaussianSimulator(dim=2, noise_std=self.noise_std)

    def make_observations(self, sim, truths, seed):
        return list(simulate_rows(sim, truths, seed=stream_seed(seed, 1)))

    def fit(self, data, st, seed):
        return npe_fit(data, EstimatorConfig(kind="mdn"), self.train_config(seed), prior=st.prior)

    def instrument(self, model, tr):
        est = model.estimator
        est.sample = tr.wrap(est.sample, "estimators.sample", rows_arg=1)
        est.log_prob = tr.wrap(est.log_prob, "estimators.log_prob", rows_arg=0)

    def query(self, model, st, k, rng, tr):
        x = st.observations[k]
        with tr.span("inference.DirectPosterior.sample", rows=self.n_draws):
            draws = model.sample(x, self.n_draws, rng)
        with tr.span("inference.DirectPosterior.log_prob", rows=self.n_draws):
            lp = model.log_prob(x, draws)
        return QueryOut(draws, bool(np.all(np.isfinite(draws)) and np.all(np.isfinite(lp))))

    def conjugate(self, x):
        """Posterior mean and std for the N(0, 1) prior (see tests/oracles.py)."""
        noise_var = self.noise_std ** 2
        post_var = 1.0 / (1.0 + 1.0 / noise_var)
        return post_var * np.asarray(x) / noise_var, math.sqrt(post_var)

    def error(self, st, k, out):
        mean, std = self.conjugate(st.observations[k])
        return float(np.mean(np.abs(out.draws.mean(axis=0) - mean)) / std)

    def replay_model(self, data, seed):
        est = build_estimator(EstimatorConfig(kind="mdn"), data.theta_dim, data.x_dim, seed=seed)
        est.initialize_standardization(data.theta, data.x)
        return est.store, nll_loss(est, theta_is_target=True)


class NleDdm(Workload):
    """NLE with the mixed choice/RT estimator on the collapsing-bound DDM;
    slice-MCMC posteriors over sets of i.i.d. trials."""

    name = "nle_ddm"
    n_sims = 3_000
    n_obs = 8
    n_draws = 24
    trials = 100
    error_unit = "prior std"
    sampler = SamplerConfig(chains=4, warmup=6, thin=1, sir_pool=100)

    def make_simulator(self):
        return DDMSimulator()

    def make_observations(self, sim, truths, seed):
        return [simulate_rows(sim, np.tile(t, (self.trials, 1)), seed=stream_seed(seed, 1, k))
                for k, t in enumerate(truths)]

    def fit(self, data, st, seed):
        return nle_fit(data, EstimatorConfig(kind="mixed"), self.train_config(seed))

    def instrument(self, model, tr):
        model.log_lik = tr.wrap(model.log_lik, "inference.target", rows_arg=1)
        est = model.estimator
        est.log_prob = tr.wrap(est.log_prob, "estimators.log_prob", rows_arg=0)

    def query(self, model, st, k, rng, tr):
        post = nle_posterior(model, st.prior, st.observations[k], self.sampler)
        return _mcmc_query(post, self.n_draws, rng, tr)

    def error(self, st, k, out):
        gap = np.abs(out.draws.mean(axis=0) - st.truths[k]) / st.prior.std()
        return float(np.mean(gap))

    def replay_model(self, data, seed):
        est = build_estimator(EstimatorConfig(kind="mixed"), data.x_dim, data.theta_dim, seed=seed)
        est.initialize_standardization(data.x, data.theta)
        return est.store, nll_loss(est, theta_is_target=False)


class NreBallThrow(Workload):
    """NRE on the ball throw; single-observation queries on a bimodal 1-d
    posterior."""

    name = "nre_ball_throw"
    n_sims = 12_000
    n_obs = 32
    n_draws = 400
    error_unit = "degrees"
    sampler = SamplerConfig(chains=50, warmup=20, thin=1, sir_pool=500)
    median_tol = 4.0     # degrees of 1-Wasserstein distance

    def make_simulator(self):
        return BallThrowSimulator()

    def make_observations(self, sim, truths, seed):
        return list(simulate_rows(sim, truths, seed=stream_seed(seed, 1)))

    def fit(self, data, st, seed):
        return nre_fit(data, train_config=self.train_config(seed))

    def instrument(self, model, tr):
        model.log_ratio = tr.wrap(model.log_ratio, "inference.target", rows_arg=1)
        clf = model.classifier
        clf.logit = tr.wrap(clf.logit, "estimators.log_prob", rows_arg=0)

    def query(self, model, st, k, rng, tr):
        post = nre_posterior(model, st.prior, st.observations[k], self.sampler)
        return _mcmc_query(post, self.n_draws, rng, tr)

    def grid_posterior(self, st, x_o, n_angle=721, wind_nodes=801, wind_span=8.0):
        """Angle posterior on a grid by quadrature over the tailwind, with the
        measurement noise integrated analytically (see tests/oracles.py)."""
        c = st.simulator.config
        angles = np.linspace(0.0, 90.0, n_angle)
        winds = np.linspace(-wind_span * c.tailwind_std, wind_span * c.tailwind_std, wind_nodes)
        rad = np.deg2rad(angles)[:, None]
        flight = 2.0 * c.launch_speed * np.sin(rad) / c.gravity
        dist = (c.launch_speed * np.cos(rad) + winds) * flight
        meas = np.exp(-0.5 * ((x_o - dist) / c.noise_std) ** 2)
        lik = np.trapezoid(meas * np.exp(-0.5 * (winds / c.tailwind_std) ** 2), winds, axis=1)
        post = lik * np.exp(-0.5 * ((angles - st.prior.loc) / st.prior.scale) ** 2)
        return angles, post / np.trapezoid(post, angles)

    def error(self, st, k, out):
        angles, dens = self.grid_posterior(st, float(st.observations[k][0]))
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(angles))])
        cdf /= cdf[-1]
        emp = np.searchsorted(np.sort(out.draws[:, 0]), angles, side="right") / out.draws.shape[0]
        return float(np.trapezoid(np.abs(emp - cdf), angles))

    def replay_model(self, data, seed):
        clf = ClassifierNet(data.theta_dim, data.x_dim, seed=seed)
        clf.initialize_standardization(data.theta, data.x)
        return clf.store, clf.loss


class DdmBank(Workload):
    """A DDM simulation bank built on the worker pool, written and read back.
    A query simulates one trial at each of 100 design parameters, in the
    calling thread: 100 trials are too few to pay for a pool. A trial's cost
    depends strongly on its parameter, so a query of one parameter's i.i.d.
    trials had a bimodal latency whose median jumped between runs."""

    name = "ddm_bank"
    trains = False
    n_sims = 10_000
    n_obs = 64
    n_draws = 100

    def workers(self):
        return len(os.sched_getaffinity(0))

    def make_simulator(self):
        return DDMSimulator()

    def make_observations(self, sim, truths, seed):
        design = sim.default_prior().sample(np.random.default_rng([DESIGN_SEED, 1]),
                                            self.n_obs * self.n_draws)
        return np.split(design, self.n_obs)

    def query(self, model, st, k, rng, tr):
        thetas = st.observations[k]
        with tr.span("simulators.simulate_rows", rows=thetas.shape[0]):
            trials = simulate_rows(st.simulator, thetas, seed=int(rng.integers(2**62)))
        ok = (np.all(np.isfinite(trials)) and np.all(np.isin(trials[:, 0], (0.0, 1.0)))
              and np.all(trials[:, 1] > thetas[:, 3]))
        return QueryOut(trials, bool(ok))


WORKLOADS = {w.name: w for w in (NpeGaussian(), NleDdm(), NreBallThrow(), DdmBank())}


# -- one pass of the workflow ---------------------------------------------------

def run_workflow(w: Workload, st: Setup, seed: int, workdir, tr, meter) -> Rep:
    """simulate -> write -> read -> verify -> train -> first posterior.

    Operations that raise a named sbikit error or give non-finite output are
    recorded in ``Rep.failures``; the pass stops at the first one because
    later stages need its output.
    """
    path = os.path.join(workdir, f"{w.name}.tbl")
    clock = Stopwatch(meter)
    rep = Rep(clock, ops=1)
    try:
        with tr.span("simulators.generate_dataset", rows=w.n_sims):
            data = generate_dataset(st.prior, st.simulator, w.n_sims, seed, workers=w.workers())
        clock.lap()
        with tr.span("tableio.save", rows=len(data)):
            data.save(path)
        with tr.span("tableio.load", rows=len(data)):
            loaded = Dataset.load(path)
    except SBIKIT_ERRORS as exc:
        rep.failures.append(f"simulate: {exc!r}")
        return rep
    rep.rows = len(data)
    rep.discards = int(data.meta["discards"])
    rep.data = loaded
    rep.digests["dataset"] = data.digest()
    if loaded.digest() != data.digest():
        rep.failures.append("simulate: dataset digest changed in the table round trip")
        return rep
    clock.lap()
    rep.table_bytes = os.path.getsize(path)
    os.remove(path)

    if w.trains:
        rep.ops += 1
        try:
            with tr.span("trainer.fit", rows=len(loaded)):
                model, report = w.fit(loaded, st, seed)
        except SBIKIT_ERRORS as exc:
            rep.failures.append(f"train: {exc!r}")
            return rep
        rep.model, rep.report = model, report
        rep.digests["train_report"] = report.content_digest()
        if not math.isfinite(report.best_val_loss):
            rep.failures.append("train: non-finite validation loss")
            return rep
        w.instrument(model, tr)
        rep.ops += 1
        try:
            out = w.query(model, st, 0, query_rng(seed, 0), tr)
        except SBIKIT_ERRORS as exc:
            rep.failures.append(f"first query: {exc!r}")
            return rep
        clock.lap()
        rep.digests["posterior_draws"] = digest(out.draws)
        if not out.finite:
            rep.failures.append("first query: non-finite or out-of-support draws")
    return rep


def replay_steps(store, loss_fn, theta, x, steps: int, lr: float = 5e-4) -> dict:
    """Time forward (loss), backward and Adam separately on one fixed batch."""
    fwd, bwd, adam = [], [], []
    nodes = 0
    for _ in range(steps):
        tape = Tape()
        t0 = time.perf_counter()
        loss = loss_fn(tape, theta, x)
        t1 = time.perf_counter()
        grads = tape.backward(loss)
        t2 = time.perf_counter()
        store.adam_step(grads, lr=lr)
        t3 = time.perf_counter()
        nodes = len(tape)
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
        adam.append(t3 - t2)
    return {"nodes": nodes, "forward_s": float(np.median(fwd)),
            "backward_s": float(np.median(bwd)), "adam_s": float(np.median(adam))}
