"""Conditional density estimators and the ratio classifier, built on the tape engine.

Every estimator is conditional: it models the target given a context of at
least one column, theta given x for NPE and x given theta for NLE. All keep
one contract, ``target_dim``, ``context_dim``, ``sample(context, n, rng)``,
``log_prob(target, context)`` and ``log_prob_tape(ops, target, context)``,
so ``inference.DirectPosterior`` serves any of them: the density estimators
on one scaffold (MDN, coupling flow, mixed choice/reaction-time) and
``EnsembleEstimator``, their uniform mixture.

The context of ``log_prob`` is one row, which is broadcast over the target
rows, or one row per target row; ``sample`` takes exactly one row. A
one-row context runs the networks that read only the context once, so an
amortized query at one observation costs one network pass for that part,
whatever the number of targets. ``log_prob_tape`` needs one context row per
target row, because the Tape does not broadcast. Other row counts raise an
``EstimatorError`` naming both shapes. Training goes through one
adapter, ``NllTask``: the mean negative log-density of the target given the
context. ``ClassifierNet`` is the one classifier, the NRE head; its loss and
the mixed estimator's choice term share one binary cross-entropy.

Each model's math is written once, against an ``ops`` argument that is
either an ``ndiff.Tape``, which records for gradients, or
``ndiff.EVALUATOR``, which records nothing; both take and return plain
arrays, so data enters either one as it is. ``log_prob_tape`` and the
training losses receive a Tape; ``log_prob``, ``iid_log_lik``, ``sample``,
``logit`` and the validation loss run the same code on the evaluator, so
the two agree bit for bit on the same inputs. The mixture density,
``ops.mixture_log_prob``, is the one primitive whose evaluator computes the
Tape's values in another layout, reducing along the long target axis
instead of the short component and dimension axes; a test keeps the two
equal bit for bit.

The density estimators also expose ``iid_log_lik(trials, contexts)``: the
sum of the log-density over an i.i.d. trial set, one value per context
row. This is the NLE likelihood that MCMC evaluates hundreds of times per
query at a few contexts each, so it is split in two. ``iid_trials(targets)``
does, once per trial set, the work that reads only the trials and returns
it as an ``IidTrials``; each ``iid_log_lik`` call then does only the work
that depends on the contexts. For the MDN and the mixed estimator that
means the networks once per context (the mixed estimator's reaction-time
head once per context and choice level), and ``_MixtureHead.iid_log_lik``,
the one routine that evaluates a mixture density over the trials for
both: it forms each component's constants before gathering them to the
trials and takes one log-sum-exp over components laid out (K, contexts,
trials). The flow's conditioner mixes target and context, so it keeps the
scaffold's default, which evaluates every (context, target) pair. Tests
pin each to that pairwise reference.

Inputs and targets are z-scored with training-set statistics stored inside
the model; densities are reported in original coordinates through the
standardization Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ndiff import (EVALUATOR, LOG_2PI, ParamStore, Tensor, logsumexp, sigmoid,
                    slice_logsumexp)

# soft bound on emitted log-scales, preventing early-training divergence
LOG_SCALE_BOUND = 5.0


class EstimatorError(ValueError):
    pass


def _bounded(ops, raw):
    return ops.multiply(ops.tanh(ops.multiply(raw, 1.0 / LOG_SCALE_BOUND)), LOG_SCALE_BOUND)


def _context(context, context_dim: int, target=None) -> np.ndarray:
    """``context`` as a 2-D array of ``context_dim`` columns: one row, or
    one row per row of ``target`` when a target is given."""
    arr = np.atleast_2d(context)
    rows = 1 if target is None else target.shape[0]
    if arr.ndim == 2 and arr.shape[1] == context_dim and arr.shape[0] in (1, rows):
        return arr
    if target is None:
        raise EstimatorError(f"sample takes one context row of shape (1, {context_dim}), "
                             f"got shape {np.shape(context)}")
    raise EstimatorError(f"context of shape {np.shape(context)} does not fit target of shape "
                         f"{target.shape}: expected (1, {context_dim}) or ({rows}, {context_dim})")


def _broadcast_rows(feats, rows: int):
    """One-row context features repeated to ``rows`` rows, for a concat
    with per-target columns; on the Tape the rows already agree."""
    return feats if feats.shape[0] == rows else np.broadcast_to(feats, (rows, feats.shape[1]))


def _bce(ops, logit, labels: np.ndarray):
    """Binary cross-entropy of logits against constant 0/1 labels, (n,1) on
    a Tape; on the evaluator the labels may broadcast against the logits."""
    return ops.add(
        ops.multiply(ops.softplus(ops.negate(logit)), labels),
        ops.multiply(ops.softplus(logit), 1.0 - labels),
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


@dataclass(frozen=True)
class IidTrials:
    """An i.i.d. trial set with the work that reads only the trials done
    once, by ``iid_trials`` of the estimator that scores it.

    ``rows`` are the trials as given, all that the pairwise default reads.
    The mixture estimators add the values of the discrete columns that
    their head reads besides the context (``levels``; none for the MDN,
    whose trials share one level), each trial's level, the trial count
    per level, the standardized continuous values ``y_z``, and ``const``,
    the Jacobian terms summed over the trials: -inf when a trial lies
    outside the support.
    """

    rows: np.ndarray
    levels: np.ndarray | None = None     # (levels, discrete columns)
    level: np.ndarray | None = None      # (trials,) index into counts
    counts: np.ndarray | None = None     # (levels,) float trial counts
    y_z: np.ndarray | None = None        # (D, trials)
    const: float = 0.0


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
        return ops.mixture_log_prob(*self.params(ops, feats), y_z)

    def iid_log_lik(self, feats, trials: IidTrials) -> np.ndarray:
        """Summed mixture log-density of the trials plus ``trials.const``, per
        row of the context features. Each trial is scored by the mixture at
        its level, which the head reads as the features followed by the
        level's ``trials.levels`` columns, if there are any."""
        k, d, c, u = self.n_components, self.target_dim, feats.shape[0], trials.counts.size
        if trials.levels is not None:
            feats = np.concatenate([np.repeat(feats, u, axis=0),
                                    np.concatenate([trials.levels] * c)], axis=1)
        log_w, mu, log_std = self.params(EVALUATOR, feats)
        # per-component terms, formed on (context, level) rows before the
        # gather to the trials; inv carries the 1/sqrt(2) of exp(-z^2 / 2)
        const = log_w - log_std.reshape(-1, k, d).sum(axis=2) - 0.5 * d * LOG_2PI
        inv = np.exp(-log_std) * math.sqrt(0.5)
        const = const.T.reshape(k, c, u).take(trials.level, axis=2)
        mu = mu.T.reshape(k, d, c, u).take(trials.level, axis=3)
        inv = inv.T.reshape(k, d, c, u).take(trials.level, axis=3)
        z = (trials.y_z[:, None] - mu) * inv
        comp = const - (z * z).sum(axis=1)                        # (K, contexts, trials)
        return logsumexp(comp, axis=0)[0].sum(axis=1) + trials.const

    def sample(self, feats, which, rng):
        """One standardized draw per entry of ``which``, from the mixture at
        that row of ``feats``; the parameters are computed once per row."""
        log_w, mu, log_std = self.components(feats)
        n = which.shape[0]
        u = rng.uniform(size=n)
        # the count of cdf entries below u: a cumsum of weights never
        # decreases, and a NaN sorts last as it compares False
        choice = np.empty(n, dtype=np.intp)
        for row, cdf in enumerate(np.exp(log_w).cumsum(axis=1)):
            hit = which == row
            choice[hit] = np.searchsorted(cdf, u[hit], side="left")
        choice = np.minimum(choice, self.n_components - 1)
        eps = rng.standard_normal((n, self.target_dim))
        return mu[which, choice] + np.exp(log_std[which, choice]) * eps


class _ConditionalDensity:
    """Scaffold of the density estimators: a parameter store, the context
    network, and the target standardizer whose Jacobian reports densities
    in original coordinates. Subclasses register their layers in ``_build``,
    give the log-density of the standardized target in ``_log_prob_z`` and
    draw n targets from one row of context features in ``_sample``.

    ``log_prob`` takes one context row, broadcast over the targets, or one
    row per target; ``sample`` takes one row; ``log_prob_tape`` needs one
    row per target. The context network runs once on a one-row context,
    and so does every network that reads only its features."""

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
        target = np.atleast_2d(target)
        context = _context(context, self.context_dim, target)
        return self.log_prob_tape(EVALUATOR, target, context)[:, 0]

    def log_prob_tape(self, ops, target, context):
        """(n,1) log-density of the target rows given the context rows; on
        the evaluator a one-row context is broadcast over the targets."""
        feats = self.context_net.forward(ops, context)
        y_z = self.target_standardizer.transform_ops(ops, target)
        return ops.add(self._log_prob_z(ops, y_z, feats), self.target_standardizer.log_det)

    def iid_trials(self, targets) -> IidTrials:
        """The (trials, target_dim) rows as ``iid_log_lik`` takes them."""
        return IidTrials(targets)

    def iid_log_lik(self, trials: IidTrials, contexts) -> np.ndarray:
        """Summed log-density of all trials, per context row, pair by pair."""
        return pairwise_iid_sum(self.log_prob, trials.rows, contexts)

    def sample(self, context, n: int, rng) -> np.ndarray:
        """(n, target_dim) draws at one context row."""
        feats = self.context_net.forward(EVALUATOR, _context(context, self.context_dim))
        return self._sample(feats, n, rng)


class ConditionalMDN(_ConditionalDensity):
    """Mixture density network: context -> Gaussian mixture over the target."""

    def _build(self, rng):
        self.head = _MixtureHead(self.store, "mdn.", self.context_net.out_dim, self.target_dim,
                                 self.config.n_components, self.config.hidden, rng)

    def _log_prob_z(self, ops, y_z, feats):
        return self.head.log_prob(ops, feats, y_z)

    def iid_trials(self, targets) -> IidTrials:
        """The trials standardized, all at the one level of a head that reads
        only the context."""
        t = targets.shape[0]
        return IidTrials(targets, None, np.zeros(t, dtype=np.intp), np.array([float(t)]),
                         self.target_standardizer.transform(targets).T,
                         t * self.target_standardizer.log_det)

    def iid_log_lik(self, trials: IidTrials, contexts) -> np.ndarray:
        """Summed log-density of all trials, per context row; the mixture
        parameters are computed once per context."""
        return self.head.iid_log_lik(self.context_net.forward(EVALUATOR, contexts), trials)

    def _sample(self, feats, n, rng):
        y_z = self.head.sample(feats, np.zeros(n, dtype=np.intp), rng)
        return self.target_standardizer.inverse(y_z)


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
        if self.n_pass:
            inp = ops.concat([passthrough, _broadcast_rows(feats, passthrough.shape[0])], axis=1)
        else:
            inp = feats
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

    def _sample(self, feats, n, rng):
        u = rng.standard_normal((n, self.target_dim))
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
        y_z = self.target_standardizer.transform(log_rt)
        feats = ops.concat([_broadcast_rows(ctx, choice.shape[0]), choice], axis=1)
        logp_rt = self.rt_head.log_prob(ops, feats, y_z)
        jac = self.target_standardizer.log_det - log_rt
        return ops.add(ops.add(logp_choice, logp_rt), jac)

    def log_prob(self, target, context) -> np.ndarray:
        target = np.atleast_2d(target)
        context = _context(context, self.context_dim, target)
        out = np.full(target.shape[0], -np.inf)
        ok = target[:, 1] > 0
        if ok.any():
            ctx = context if context.shape[0] == 1 else context[ok]
            out[ok] = self._log_prob(EVALUATOR, target[ok], ctx)[:, 0]
        return out

    def iid_trials(self, targets) -> IidTrials:
        """The trials' choice levels with their counts, standardized log(rt)
        and summed Jacobian; an rt <= 0 (or NaN) makes ``const`` -inf."""
        choice, rt = targets[:, 0], targets[:, 1]
        if not np.all(rt > 0):
            return IidTrials(targets, const=-np.inf)
        levels, level, counts = np.unique(choice, return_inverse=True, return_counts=True)
        log_rt = np.log(rt)[:, None]
        return IidTrials(targets, levels[:, None], level, counts.astype(np.float64),
                         self.target_standardizer.transform(log_rt).T,
                         rt.size * self.target_standardizer.log_det - log_rt.sum())

    def iid_log_lik(self, trials: IidTrials, contexts) -> np.ndarray:
        """Summed log-density of all (choice, rt) trials, per context row.

        The choice net runs once per context and its term once per
        (context, level), weighted by the level's trial count; the RT head
        runs once per (context, level). A trial with rt <= 0 makes every
        sum -inf.
        """
        if trials.const == -np.inf:
            return np.full(contexts.shape[0], -np.inf)
        ctx, logit = self._choice_logit(EVALUATOR, contexts)
        logp_choice = -_bce(EVALUATOR, logit, trials.levels.T) @ trials.counts
        return logp_choice + self.rt_head.iid_log_lik(ctx, trials)

    def log_prob_tape(self, ops, target, context):
        """(n,1) joint log-density as training sees it; any rt <= 0 is an error."""
        data = np.asarray(target)
        if np.any(data[:, 1] <= 0):
            raise EstimatorError("reaction times must be positive for training")
        return self._log_prob(ops, data, context)

    def choice_probability(self, context) -> np.ndarray:
        _, logit = self._choice_logit(EVALUATOR, np.atleast_2d(context))
        return sigmoid(logit)[:, 0]

    def _sample(self, feats, n, rng):
        p1 = sigmoid(self.choice_net.forward(EVALUATOR, feats))[:, 0]
        choice = (rng.uniform(size=n) < p1).astype(np.intp)
        # the RT head's mixtures at choice 0 and at choice 1, row = choice
        levels = np.concatenate([np.repeat(feats, 2, axis=0), [[0.0], [1.0]]], axis=1)
        y_z = self.rt_head.sample(levels, choice, rng)
        rt = np.exp(self.target_standardizer.inverse(y_z))
        return np.concatenate([choice[:, None].astype(np.float64), rt], axis=1)


class EnsembleEstimator:
    """Uniform mixture of trained conditional estimators that share
    ``target_dim`` and ``context_dim``: the density is the member average,
    and each draw comes from a member picked uniformly at random.

    ``log_prob`` mixes the members' own ``log_prob``, so the ensemble's
    support is its members': a row outside every member's support (an
    rt <= 0 for mixed estimators) gets -inf. ``log_prob_tape`` mixes their
    taped densities, the training and MAP path."""

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
        lps = np.stack([m.log_prob(target, context) for m in self.members])
        return slice_logsumexp(lps) - math.log(len(self.members))

    def log_prob_tape(self, ops, target, context):
        cols = [m.log_prob_tape(ops, target, context) for m in self.members]
        lse = ops.logsumexp(ops.concat(cols, axis=1), axis=1)
        return ops.add(lse, -math.log(len(self.members)))

    def sample(self, context, n: int, rng) -> np.ndarray:
        context = _context(context, self.context_dim)
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
        return ops.mean(_bce(ops, self._logit(ops, pairs), labels))


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
        lp = self.estimator.log_prob_tape(ops, target, context)
        return ops.negate(ops.mean(lp))


_KINDS = {"mdn": ConditionalMDN, "flow": AffineCouplingFlow, "mixed": MixedEstimator}


def build_estimator(config: EstimatorConfig, target_dim: int, context_dim: int, seed: int = 0):
    if config.kind not in _KINDS:
        raise EstimatorError(f"unknown estimator kind {config.kind!r}")
    return _KINDS[config.kind](target_dim, context_dim, config, seed=seed)
