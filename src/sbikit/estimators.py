"""Conditional density estimators and the ratio classifier, built on the tape engine.

Every estimator is conditional: it models the target given a context of at
least one column, theta given x for NPE and x given theta for NLE. All keep
one contract, ``target_dim``, ``context_dim``, ``sample(context, n, rng)``,
``log_prob(target, context)`` and ``log_prob_tape(ops, target, context)``,
so ``inference.DirectPosterior`` serves any of them: the density estimators
on one scaffold (MDN, coupling flow, mixed choice/reaction-time) and
``EnsembleEstimator``, their uniform mixture. Training goes through one
adapter, ``NllTask``: the mean negative log-density of the target given the
context. ``ClassifierNet`` is the one classifier, the NRE head; its loss and
the mixed estimator's choice term share one binary cross-entropy.

Each model's math is written once, against an ``ops`` argument that is
either an ``ndiff.Tape`` (Tensors in and out, recorded for gradients) or
``ndiff.EVALUATOR``, which runs the same primitives on bare arrays and
records nothing. ``log_prob_tape`` and the training losses receive a Tape;
``log_prob``, ``iid_log_lik``, ``sample``, ``logit`` and the validation loss
run the same code on the evaluator, so the two agree bit for bit on the
same inputs.

The density estimators also expose ``iid_log_lik(targets, contexts)``: the
sum of the log-density over all target rows, one value per context row.
This is the NLE likelihood of i.i.d. trials that MCMC evaluates many times
per query, so the MDN and the mixed estimator run their networks once per
context (the mixed estimator's reaction-time head once per context and
choice) and broadcast only the mixture density over the targets, through
``distributions.mixture_log_prob``. The flow's conditioner mixes target and
context, so it keeps the scaffold's default, which evaluates every
(context, target) pair. Tests pin each to that pairwise reference.

Inputs and targets are z-scored with training-set statistics stored inside
the model; densities are reported in original coordinates through the
standardization Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import LOG_2PI, mixture_log_prob
from .ndiff import EVALUATOR, ParamStore, Tensor, sigmoid

# soft bound on emitted log-scales, preventing early-training divergence
LOG_SCALE_BOUND = 5.0


class EstimatorError(ValueError):
    pass


def _bounded(ops, raw):
    return ops.multiply(ops.tanh(ops.multiply(raw, 1.0 / LOG_SCALE_BOUND)), LOG_SCALE_BOUND)


def _bce(ops, logit, labels: np.ndarray):
    """Binary cross-entropy of logits against constant 0/1 labels, (n,1) on
    a Tape; on the evaluator the labels may broadcast against the logits."""
    return ops.add(
        ops.multiply(ops.softplus(ops.negate(logit)), ops.const(labels)),
        ops.multiply(ops.softplus(logit), ops.const(1.0 - labels)),
    )


class Standardizer:
    """Per-column z-scoring with constant columns left untouched."""

    def __init__(self, mean, std):
        self.mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64).copy()
        std[std < 1e-12] = 1.0
        self.std = std
        # Jacobian term for densities reported in original coordinates
        self.log_det = -float(np.sum(np.log(self.std)))
        self._w = Tensor(np.diag(1.0 / self.std))
        self._b = Tensor(-self.mean / self.std)

    @classmethod
    def fit(cls, data: np.ndarray) -> "Standardizer":
        data = np.atleast_2d(data)
        return cls(data.mean(axis=0), data.std(axis=0))

    @classmethod
    def identity(cls, dim: int) -> "Standardizer":
        return cls(np.zeros(dim), np.ones(dim))

    def transform(self, x):
        return (np.atleast_2d(x) - self.mean) / self.std

    def inverse(self, z):
        return np.atleast_2d(z) * self.std + self.mean

    def transform_ops(self, ops, x):
        """``transform`` as one affine primitive, for inputs that feed a network."""
        return ops.affine(x, self._w, self._b)


class Mlp:
    """Feedforward stack with parameters registered in a shared ParamStore."""

    def __init__(self, store: ParamStore, prefix: str, sizes: list[int],
                 rng: np.random.Generator, zero_init_last: bool = False):
        self.store = store
        self.layer_names = []
        for i, (d_in, d_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = i == len(sizes) - 2
            if zero_init_last and last:
                w = np.zeros((d_in, d_out))
            else:
                w = rng.standard_normal((d_in, d_out)) * math.sqrt(2.0 / (d_in + d_out))
            store.add(f"{prefix}w{i}", w)
            store.add(f"{prefix}b{i}", np.zeros(d_out))
            self.layer_names.append((f"{prefix}w{i}", f"{prefix}b{i}"))

    def forward(self, ops, x):
        h = x
        for i, (wn, bn) in enumerate(self.layer_names):
            h = ops.affine(h, self.store[wn], self.store[bn])
            if i < len(self.layer_names) - 1:
                h = ops.tanh(h)
        return h


@dataclass
class EstimatorConfig:
    """Architecture knobs shared by the conditional estimators."""

    kind: str = "mdn"                 # mdn | flow | mixed
    n_components: int = 10
    hidden: tuple = (50, 50)
    n_layers: int = 5                 # coupling layers (flow only)
    embedding_dim: int | None = None
    embedding_hidden: tuple = (50, 50)


class _ContextNet:
    """Standardized context, optionally passed through an embedding MLP
    trained end-to-end with the downstream estimator."""

    def __init__(self, store, prefix, context_dim, config: EstimatorConfig, rng):
        if context_dim < 1:
            raise EstimatorError(
                f"estimators are conditional: context_dim must be at least 1, got {context_dim}")
        self.standardizer = Standardizer.identity(context_dim)
        if config.embedding_dim is not None:
            sizes = [context_dim, *config.embedding_hidden, config.embedding_dim]
            self.embedding = Mlp(store, f"{prefix}embed.", sizes, rng)
            self.out_dim = config.embedding_dim
        else:
            self.embedding = None
            self.out_dim = context_dim

    def fit_standardizer(self, contexts):
        self.standardizer = Standardizer.fit(contexts)

    def forward(self, ops, x):
        z = self.standardizer.transform_ops(ops, x)
        if self.embedding is not None:
            z = ops.tanh(self.embedding.forward(ops, z))
        return z


# -- Gaussian mixture head shared by the MDN and the mixed estimator -------

def pairwise_iid_sum(row_fn, targets, contexts) -> np.ndarray:
    """Sum of ``row_fn(target, context)`` over the target rows, per context
    row, by evaluating every (context, target) pair as one batch row."""
    t, c = targets.shape[0], contexts.shape[0]
    out = row_fn(np.tile(targets, (c, 1)), np.repeat(contexts, t, axis=0))
    return out.reshape(c, t).sum(axis=1)


class _MixtureHead:
    """Per-context component weights, means, and log-stds for a diagonal
    Gaussian mixture over a standardized target."""

    def __init__(self, store, prefix, in_dim, target_dim, n_components, hidden, rng):
        self.n_components = n_components
        self.target_dim = target_dim
        k, d = n_components, target_dim
        self.trunk = Mlp(store, f"{prefix}trunk.", [in_dim, *hidden], rng)
        h = hidden[-1]
        self.w_head = Mlp(store, f"{prefix}weights.", [h, k], rng)
        self.mu_head = Mlp(store, f"{prefix}means.", [h, k * d], rng)
        self.std_head = Mlp(store, f"{prefix}logstds.", [h, k * d], rng)

    def params(self, ops, feats):
        """Log-weights (n, K); means and log-stds (n, K*D), component-major."""
        h = ops.tanh(self.trunk.forward(ops, feats))
        logits = self.w_head.forward(ops, h)
        lse = ops.logsumexp(logits, axis=1)
        log_w = ops.add(logits, ops.negate(ops.concat([lse] * self.n_components, axis=1)))
        mu = self.mu_head.forward(ops, h)
        log_std = _bounded(ops, self.std_head.forward(ops, h))
        return log_w, mu, log_std

    def components(self, feats):
        """``params`` on the evaluator, means and log-stds shaped (n, K, D)."""
        log_w, mu, log_std = self.params(EVALUATOR, feats)
        shape = (feats.shape[0], self.n_components, self.target_dim)
        return log_w, mu.reshape(shape), log_std.reshape(shape)

    def log_prob(self, ops, feats, y_z):
        """(n,1) mixture log-density of the standardized target."""
        k, d = self.n_components, self.target_dim
        log_w, mu, log_std = self.params(ops, feats)
        # a loop, not mixture_log_prob: the benchmark pins its tape node count
        comp_cols = []
        for j in range(k):
            mu_j = ops.slice_cols(mu, j * d, (j + 1) * d)
            ls_j = ops.slice_cols(log_std, j * d, (j + 1) * d)
            diff = ops.add(y_z, ops.negate(mu_j))
            z = ops.multiply(diff, ops.exp(ops.negate(ls_j)))
            quad = ops.multiply(ops.square(z), -0.5)
            terms = ops.add(ops.add(quad, ops.negate(ls_j)), -0.5 * LOG_2PI)
            comp_cols.append(ops.sum(terms, axis=1))
        comp = ops.concat(comp_cols, axis=1)
        return ops.logsumexp(ops.add(comp, log_w), axis=1)

    def sample(self, feats, rng):
        log_w, mu, log_std = self.components(feats)
        n = feats.shape[0]
        u = rng.uniform(size=(n, 1))
        choice = (np.exp(log_w).cumsum(axis=1) < u).sum(axis=1)
        choice = np.minimum(choice, self.n_components - 1)
        rows = np.arange(n)
        eps = rng.standard_normal((n, self.target_dim))
        return mu[rows, choice] + np.exp(log_std[rows, choice]) * eps


class _ConditionalDensity:
    """Scaffold of the density estimators: a parameter store, the context
    network, and the target standardizer whose Jacobian reports densities
    in original coordinates. Subclasses register their layers in ``_build``,
    give the log-density of the standardized target in ``_log_prob_z`` and
    draw targets from context features in ``_sample``."""

    def __init__(self, target_dim: int, context_dim: int, config: EstimatorConfig,
                 seed: int = 0):
        self.config = config
        self.target_dim = target_dim
        self.context_dim = context_dim
        self.store = ParamStore()
        # before _build, where the mixed estimator replaces it with one for log(rt)
        self.target_standardizer = Standardizer.identity(target_dim)
        rng = np.random.default_rng(seed)
        self.context_net = _ContextNet(self.store, "ctx.", context_dim, config, rng)
        self._build(rng)

    def initialize_standardization(self, targets, contexts):
        self.target_standardizer = Standardizer.fit(targets)
        self.context_net.fit_standardizer(contexts)

    def log_prob(self, target, context) -> np.ndarray:
        return self.log_prob_tape(EVALUATOR, np.atleast_2d(target), np.atleast_2d(context))[:, 0]

    def log_prob_tape(self, ops, target, context):
        """(n,1) log-density of the target rows given the context rows."""
        feats = self.context_net.forward(ops, context)
        y_z = self.target_standardizer.transform_ops(ops, target)
        return ops.add(self._log_prob_z(ops, y_z, feats), self.target_standardizer.log_det)

    def iid_log_lik(self, targets, contexts) -> np.ndarray:
        """Summed log-density of all target rows, per context row, pair by pair."""
        return pairwise_iid_sum(self.log_prob, targets, contexts)

    def sample(self, context, n: int, rng) -> np.ndarray:
        """(n, target_dim) draws at one context row."""
        feats = self.context_net.forward(EVALUATOR, np.tile(np.atleast_2d(context), (n, 1)))
        return self._sample(feats, rng)


class ConditionalMDN(_ConditionalDensity):
    """Mixture density network: context -> Gaussian mixture over the target."""

    def _build(self, rng):
        self.head = _MixtureHead(self.store, "mdn.", self.context_net.out_dim, self.target_dim,
                                 self.config.n_components, self.config.hidden, rng)

    def _log_prob_z(self, ops, y_z, feats):
        return self.head.log_prob(ops, feats, y_z)

    def iid_log_lik(self, targets, contexts) -> np.ndarray:
        """Summed log-density of all target rows, per context row; the
        mixture parameters are computed once per context."""
        log_w, mu, log_std = self.head.components(self.context_net.forward(EVALUATOR, contexts))
        y_z = self.target_standardizer.transform(targets)
        lp = (mixture_log_prob(log_w[:, None], mu[:, None], log_std[:, None], y_z)
              + self.target_standardizer.log_det)
        return lp.sum(axis=1)

    def _sample(self, feats, rng):
        return self.target_standardizer.inverse(self.head.sample(feats, rng))


class AffineCouplingFlow(_ConditionalDensity):
    """Coupling flow with a standard Gaussian base.

    Each layer shifts and rescales one half of the coordinates conditioned
    on the other half plus the context, then rotates the halves so that
    successive layers transform alternating coordinates. One-dimensional
    targets keep the split defined through an empty pass-through half, so
    the conditioner sees the context alone.
    """

    def _build(self, rng):
        self.n_trans = (self.target_dim + 1) // 2
        self.n_pass = self.target_dim - self.n_trans
        in_dim = self.n_pass + self.context_net.out_dim
        self.nets = [
            Mlp(self.store, f"layer{i}.", [in_dim, *self.config.hidden, 2 * self.n_trans],
                rng, zero_init_last=True)
            for i in range(self.config.n_layers)
        ]

    def _conditioner(self, ops, net, passthrough, feats):
        """Shift and bounded log-scale of one coupling layer."""
        inp = ops.concat([passthrough, feats], axis=1) if self.n_pass else feats
        out = net.forward(ops, inp)
        shift = ops.slice_cols(out, 0, self.n_trans)
        log_scale = _bounded(ops, ops.slice_cols(out, self.n_trans, 2 * self.n_trans))
        return shift, log_scale

    def _inverse(self, ops, y_z, feats):
        """Standardized target -> base, plus each layer's (n,1) term of
        log|det dbase/dtarget|."""
        u = y_z
        logdets = []
        for net in reversed(self.nets):
            trans = ops.slice_cols(u, self.n_pass, self.target_dim)
            passthrough = ops.slice_cols(u, 0, self.n_pass)
            shift, log_scale = self._conditioner(ops, net, passthrough, feats)
            orig = ops.multiply(ops.add(trans, ops.negate(shift)),
                                ops.exp(ops.negate(log_scale)))
            u = ops.concat([orig, passthrough], axis=1) if self.n_pass else orig
            logdets.append(ops.negate(ops.sum(log_scale, axis=1)))
        return u, logdets

    def _to_target(self, u, feats):
        """Base -> standardized target, the sampling direction (no gradients)."""
        y = u
        for net in self.nets:
            trans = y[:, :self.n_trans]
            passthrough = y[:, self.n_trans:]
            shift, log_scale = self._conditioner(EVALUATOR, net, passthrough, feats)
            y = np.concatenate([passthrough, trans * np.exp(log_scale) + shift], axis=1)
        return y

    def _log_prob_z(self, ops, y_z, feats):
        u, logdets = self._inverse(ops, y_z, feats)
        lp = ops.sum(ops.add(ops.multiply(ops.square(u), -0.5), -0.5 * LOG_2PI), axis=1)
        for col in logdets:
            lp = ops.add(lp, col)
        return lp

    def _sample(self, feats, rng):
        u = rng.standard_normal((feats.shape[0], self.target_dim))
        return self.target_standardizer.inverse(self._to_target(u, feats))


class MixedEstimator(_ConditionalDensity):
    """Joint density over a binary choice and a positive reaction time.

    A categorical head models P(choice | context); a mixture head models
    log(rt) given (context, choice), with separate trunks. The change of
    variables from log(rt) to rt contributes -log(rt) to the joint density.
    Both heads read the context through ``_ContextNet``, so an embedding
    configured in ``EstimatorConfig`` trains with them. The target convention
    is x = [choice, rt]; the target standardizer z-scores log(rt).
    """

    def _build(self, rng):
        if self.target_dim != 2:
            raise EstimatorError("mixed estimator expects a (choice, rt) target")
        feat_dim = self.context_net.out_dim
        self.choice_net = Mlp(self.store, "choice.", [feat_dim, *self.config.hidden, 1], rng)
        self.rt_head = _MixtureHead(self.store, "rt.", feat_dim + 1, 1,
                                    self.config.n_components, self.config.hidden, rng)
        self.target_standardizer = Standardizer.identity(1)

    def initialize_standardization(self, targets, contexts):
        rts = np.atleast_2d(targets)[:, 1:2]
        if np.any(rts <= 0):
            raise EstimatorError("reaction times must be positive")
        super().initialize_standardization(np.log(rts), contexts)

    def _choice_logit(self, ops, context):
        feats = self.context_net.forward(ops, context)
        return feats, self.choice_net.forward(ops, feats)

    def _log_prob(self, ops, data, context):
        """(n,1) joint log-density; ``data`` holds the (choice, rt) values,
        every rt positive."""
        choice = data[:, 0:1]
        log_rt = np.log(data[:, 1:2])
        ctx, logit = self._choice_logit(ops, context)
        logp_choice = ops.negate(_bce(ops, logit, choice))
        y_z = ops.const(self.target_standardizer.transform(log_rt))
        feats = ops.concat([ctx, ops.const(choice)], axis=1)
        logp_rt = self.rt_head.log_prob(ops, feats, y_z)
        jac = ops.const(self.target_standardizer.log_det - log_rt)
        return ops.add(ops.add(logp_choice, logp_rt), jac)

    def log_prob(self, target, context) -> np.ndarray:
        target = np.atleast_2d(target)
        context = np.atleast_2d(context)
        out = np.full(target.shape[0], -np.inf)
        ok = target[:, 1] > 0
        if ok.any():
            out[ok] = self._log_prob(EVALUATOR, target[ok], context[ok])[:, 0]
        return out

    def iid_log_lik(self, targets, contexts) -> np.ndarray:
        """Summed log-density of all (choice, rt) trials, per context row.

        The choice net runs once per context and the RT head once per
        (context, distinct choice); only the mixture density, the choice
        term and the -log(rt) Jacobian are broadcast over the trials. A
        trial with rt <= 0 makes every sum -inf.
        """
        choice, rt = targets[:, 0], targets[:, 1]
        if not np.all(rt > 0):
            return np.full(contexts.shape[0], -np.inf)
        ctx, logit = self._choice_logit(EVALUATOR, contexts)
        logp_choice = -_bce(EVALUATOR, logit, choice[None, :])
        levels, which = np.unique(choice, return_inverse=True)
        c, u = ctx.shape[0], levels.size
        feats = np.concatenate([np.repeat(ctx, u, axis=0), np.tile(levels, c)[:, None]], axis=1)
        log_w, mu, log_std = self.rt_head.components(feats)
        k = log_w.shape[1]
        log_w = log_w.reshape(c, u, k)[:, which]
        mu = mu.reshape(c, u, k, 1)[:, which]
        log_std = log_std.reshape(c, u, k, 1)[:, which]
        y_z = self.target_standardizer.transform(np.log(rt)[:, None])
        logp_rt = (mixture_log_prob(log_w, mu, log_std, y_z)
                   + self.target_standardizer.log_det - np.log(rt))
        return (logp_choice + logp_rt).sum(axis=1)

    def log_prob_tape(self, ops, target, context):
        """(n,1) joint log-density as training sees it; any rt <= 0 is an error."""
        # the target is data, never a parameter, so its values are read directly
        data = target.data if isinstance(target, Tensor) else target
        if np.any(data[:, 1] <= 0):
            raise EstimatorError("reaction times must be positive for training")
        return self._log_prob(ops, data, context)

    def choice_probability(self, context) -> np.ndarray:
        _, logit = self._choice_logit(EVALUATOR, np.atleast_2d(context))
        return sigmoid(logit)[:, 0]

    def _sample(self, feats, rng):
        p1 = sigmoid(self.choice_net.forward(EVALUATOR, feats))[:, 0]
        choice = (rng.uniform(size=feats.shape[0]) < p1).astype(np.float64)[:, None]
        y_z = self.rt_head.sample(np.concatenate([feats, choice], axis=1), rng)
        rt = np.exp(self.target_standardizer.inverse(y_z))
        return np.concatenate([choice, rt], axis=1)


class EnsembleEstimator:
    """Uniform mixture of trained conditional estimators that share
    ``target_dim`` and ``context_dim``: the density is the member average,
    and each draw comes from a member picked uniformly at random."""

    def __init__(self, members):
        self.members = list(members)
        if len(self.members) < 2:
            raise EstimatorError(f"an ensemble needs at least 2 members, got {len(self.members)}")
        dims = {(m.target_dim, m.context_dim) for m in self.members}
        if len(dims) != 1:
            raise EstimatorError(
                f"ensemble members disagree on (target_dim, context_dim): {sorted(dims)}")
        ((self.target_dim, self.context_dim),) = dims

    def log_prob(self, target, context) -> np.ndarray:
        return self.log_prob_tape(EVALUATOR, np.atleast_2d(target), np.atleast_2d(context))[:, 0]

    def log_prob_tape(self, ops, target, context):
        cols = [m.log_prob_tape(ops, target, context) for m in self.members]
        lse = ops.logsumexp(ops.concat(cols, axis=1), axis=1)
        return ops.add(lse, -math.log(len(self.members)))

    def sample(self, context, n: int, rng) -> np.ndarray:
        which = rng.integers(0, len(self.members), size=n)
        out = np.empty((n, self.target_dim))
        for k, member in enumerate(self.members):
            idx = np.flatnonzero(which == k)
            if idx.size:
                out[idx] = member.sample(context, idx.size, rng)
        return out


class ClassifierNet:
    """Classifier over concatenated (theta, x) pairs, the ratio-estimation
    head, trained with binary cross-entropy."""

    def __init__(self, theta_dim: int, x_dim: int, hidden: tuple = (50, 50), seed: int = 0):
        self.theta_dim = theta_dim
        self.x_dim = x_dim
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        self.net = Mlp(self.store, "clf.", [theta_dim + x_dim, *hidden, 1], rng)
        self.standardizer = Standardizer.identity(theta_dim + x_dim)

    def initialize_standardization(self, theta, x):
        self.standardizer = Standardizer.fit(np.hstack([np.atleast_2d(theta), np.atleast_2d(x)]))

    def _logit(self, ops, pairs):
        return self.net.forward(ops, self.standardizer.transform_ops(ops, pairs))

    def logit(self, theta, x) -> np.ndarray:
        theta = np.atleast_2d(theta)
        x = np.atleast_2d(x)
        if theta.shape[1] != self.theta_dim or x.shape[1] != self.x_dim:
            raise EstimatorError(
                f"classifier expects dims ({self.theta_dim}, {self.x_dim}), "
                f"got ({theta.shape[1]}, {x.shape[1]})"
            )
        return self._logit(EVALUATOR, np.hstack([theta, x]))[:, 0]

    def loss(self, ops, theta, x):
        """NRE batch loss: class 1 is the matched pairing, class 0 pairs each
        x with the next row's theta (cyclic shift, exact 50/50 per batch)."""
        theta = np.atleast_2d(theta)
        x = np.atleast_2d(x)
        shuffled = np.roll(theta, -1, axis=0)
        pairs = np.vstack([np.hstack([theta, x]), np.hstack([shuffled, x])])
        labels = np.concatenate([np.ones(theta.shape[0]), np.zeros(theta.shape[0])])[:, None]
        return ops.mean(_bce(ops, self._logit(ops, ops.const(pairs)), labels))


class NllTask:
    """Trainer adapter: mean negative log-density of the target rows given
    the context rows. ``theta_is_target`` orients it: True trains a posterior
    estimator (NPE), False a likelihood estimator (NLE)."""

    def __init__(self, estimator, theta_is_target: bool):
        self.estimator = estimator
        self.theta_is_target = theta_is_target
        self.store = estimator.store

    def loss(self, ops, theta, x):
        target, context = (theta, x) if self.theta_is_target else (x, theta)
        lp = self.estimator.log_prob_tape(ops, ops.const(target), ops.const(context))
        return ops.negate(ops.mean(lp))


_KINDS = {"mdn": ConditionalMDN, "flow": AffineCouplingFlow, "mixed": MixedEstimator}


def build_estimator(config: EstimatorConfig, target_dim: int, context_dim: int, seed: int = 0):
    if config.kind not in _KINDS:
        raise EstimatorError(f"unknown estimator kind {config.kind!r}")
    return _KINDS[config.kind](target_dim, context_dim, config, seed=seed)
