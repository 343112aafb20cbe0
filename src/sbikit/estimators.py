"""Conditional density estimators and the ratio classifier, built on the tape engine.

The density estimators (MDN, coupling flow, mixed choice/reaction-time) train
through one adapter, ``NllTask``: the mean negative log-density of the target
given the context, with theta as the target for NPE and x for NLE.
``ClassifierNet`` is the one classifier, the NRE head; its loss and the mixed
estimator's choice term share one taped binary cross-entropy.

Each model keeps two evaluation paths: a taped one used for training and
gradient-based optimization, and a plain numpy one used by MCMC and the
diagnostics where no gradients are needed. The two are pinned together by
equality tests. The numpy path stays because MCMC calls it hundreds of times
per query: for one NLE target call on the DDM (3 theta rows) the networks
take about 70 us in numpy and 90-100 us through a tape that records nothing,
out of a 250-350 us call (2-core x86-64).

The density estimators also expose ``iid_log_lik(targets, contexts)``: the
sum of the numpy log-density over all target rows, one value per context
row. This is the NLE likelihood of i.i.d. trials that MCMC evaluates many
times per query, so the MDN and the mixed estimator run their networks once
per context (the mixed estimator's reaction-time head once per context and
choice) and broadcast only the mixture density over the targets. The flow's
conditioner mixes target and context, so it evaluates every (context,
target) pair. Tests pin each to that pairwise reference.

Inputs and targets are z-scored with training-set statistics stored inside
the model; densities are reported in original coordinates through the
standardization Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ndiff import ParamStore, Tape, Tensor, logsumexp, sigmoid, softplus

LOG_2PI = math.log(2.0 * math.pi)

# soft bound on emitted log-scales, preventing early-training divergence
LOG_SCALE_BOUND = 5.0


class EstimatorError(ValueError):
    pass


def _bounded(raw: np.ndarray) -> np.ndarray:
    return LOG_SCALE_BOUND * np.tanh(raw / LOG_SCALE_BOUND)


def _bounded_tape(tape: Tape, raw: Tensor) -> Tensor:
    return tape.multiply(tape.tanh(tape.multiply(raw, 1.0 / LOG_SCALE_BOUND)), LOG_SCALE_BOUND)


def _bce_tape(tape: Tape, logit: Tensor, labels: np.ndarray) -> Tensor:
    """(n,1) binary cross-entropy of logits against constant 0/1 labels."""
    return tape.add(
        tape.multiply(tape.softplus(tape.negate(logit)), Tensor(labels)),
        tape.multiply(tape.softplus(logit), Tensor(1.0 - labels)),
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

    def transform_tape(self, tape: Tape, x: Tensor) -> Tensor:
        w = Tensor(np.diag(1.0 / self.std))
        b = Tensor(-self.mean / self.std)
        return tape.affine(x, w, b)


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

    def forward(self, tape: Tape, x: Tensor) -> Tensor:
        h = x
        for i, (wn, bn) in enumerate(self.layer_names):
            h = tape.affine(h, self.store[wn], self.store[bn])
            if i < len(self.layer_names) - 1:
                h = tape.tanh(h)
        return h

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(x)
        for i, (wn, bn) in enumerate(self.layer_names):
            h = h @ self.store[wn].data + self.store[bn].data
            if i < len(self.layer_names) - 1:
                h = np.tanh(h)
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
        self.context_dim = context_dim
        self.standardizer = Standardizer.identity(max(context_dim, 1))
        if config.embedding_dim is not None and context_dim > 0:
            sizes = [context_dim, *config.embedding_hidden, config.embedding_dim]
            self.embedding = Mlp(store, f"{prefix}embed.", sizes, rng)
            self.out_dim = config.embedding_dim
        else:
            self.embedding = None
            self.out_dim = context_dim

    def fit_standardizer(self, contexts):
        if self.context_dim > 0:
            self.standardizer = Standardizer.fit(contexts)

    def forward(self, tape, x: Tensor) -> Tensor | None:
        if self.context_dim == 0:
            return None
        z = self.standardizer.transform_tape(tape, x)
        if self.embedding is not None:
            z = tape.tanh(self.embedding.forward(tape, z))
        return z

    def forward_np(self, x) -> np.ndarray | None:
        if self.context_dim == 0:
            return None
        z = self.standardizer.transform(x)
        if self.embedding is not None:
            z = np.tanh(self.embedding.forward_np(z))
        return z


# -- Gaussian mixture head shared by the MDN and the mixed estimator -------

def mixture_log_prob_np(log_w, mu, log_std, y):
    """log of sum_k w_k N(y; mu_k, sigma_k) for batched diagonal components.

    Shapes: log_w (..., K), mu/log_std (..., K, D), y (..., D) -> (...);
    the leading axes broadcast, so one set of parameters per context can
    score many targets.
    """
    z = (y[..., None, :] - mu) * np.exp(-log_std)
    comp = np.sum(-0.5 * z * z - 0.5 * LOG_2PI - log_std, axis=-1)
    return logsumexp(comp + log_w, axis=-1)[..., 0]


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

    def params_np(self, feats):
        h = np.tanh(self.trunk.forward_np(feats))
        n = h.shape[0]
        k, d = self.n_components, self.target_dim
        logits = self.w_head.forward_np(h)
        log_w = logits - logsumexp(logits, axis=1)
        mu = self.mu_head.forward_np(h).reshape(n, k, d)
        log_std = _bounded(self.std_head.forward_np(h).reshape(n, k, d))
        return log_w, mu, log_std

    def log_prob_tape(self, tape, feats: Tensor, y_z: Tensor) -> Tensor:
        """(n,1) mixture log-density of the standardized target."""
        k, d = self.n_components, self.target_dim
        h = tape.tanh(self.trunk.forward(tape, feats))
        logits = self.w_head.forward(tape, h)
        lse = tape.logsumexp(logits, axis=1)
        log_w = tape.add(logits, tape.negate(tape.concat([lse] * k, axis=1)))
        mu = self.mu_head.forward(tape, h)
        raw_std = self.std_head.forward(tape, h)
        log_std = _bounded_tape(tape, raw_std)
        comp_cols = []
        for j in range(k):
            mu_j = tape.slice_cols(mu, j * d, (j + 1) * d)
            ls_j = tape.slice_cols(log_std, j * d, (j + 1) * d)
            diff = tape.add(y_z, tape.negate(mu_j))
            z = tape.multiply(diff, tape.exp(tape.negate(ls_j)))
            quad = tape.multiply(tape.square(z), -0.5)
            terms = tape.add(tape.add(quad, tape.negate(ls_j)), -0.5 * LOG_2PI)
            comp_cols.append(tape.sum(terms, axis=1))
        comp = tape.concat(comp_cols, axis=1)
        return tape.logsumexp(tape.add(comp, log_w), axis=1)

    def sample_np(self, feats, rng):
        log_w, mu, log_std = self.params_np(feats)
        n = feats.shape[0]
        u = rng.uniform(size=(n, 1))
        choice = (np.exp(log_w).cumsum(axis=1) < u).sum(axis=1)
        choice = np.minimum(choice, self.n_components - 1)
        rows = np.arange(n)
        eps = rng.standard_normal((n, self.target_dim))
        return mu[rows, choice] + np.exp(log_std[rows, choice]) * eps


class ConditionalMDN:
    """Mixture density network: context -> Gaussian mixture over the target."""

    def __init__(self, target_dim: int, context_dim: int,
                 config: EstimatorConfig | None = None, seed: int = 0):
        self.config = config or EstimatorConfig(kind="mdn")
        self.target_dim = target_dim
        self.context_dim = context_dim
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        self.context_net = _ContextNet(self.store, "ctx.", context_dim, self.config, rng)
        in_dim = max(self.context_net.out_dim, 1)
        self.head = _MixtureHead(self.store, "mdn.", in_dim, target_dim,
                                 self.config.n_components, self.config.hidden, rng)
        self.target_standardizer = Standardizer.identity(target_dim)
        self.seed = seed

    def initialize_standardization(self, targets, contexts):
        self.target_standardizer = Standardizer.fit(targets)
        self.context_net.fit_standardizer(contexts)

    def _feats_np(self, x, n_rows):
        feats = self.context_net.forward_np(x)
        if feats is None:
            feats = np.ones((n_rows, 1))
        return feats

    def component_params(self, x):
        """Mixture parameters (standardized space) for a batch of contexts."""
        x = np.atleast_2d(x)
        return self.head.params_np(self._feats_np(x, x.shape[0]))

    def log_prob(self, target, context) -> np.ndarray:
        target = np.atleast_2d(target)
        context = np.atleast_2d(context) if self.context_dim else None
        y_z = self.target_standardizer.transform(target)
        log_w, mu, log_std = self.component_params(
            context if context is not None else np.zeros((target.shape[0], 0)))
        return (mixture_log_prob_np(log_w, mu, log_std, y_z)
                + self.target_standardizer.log_det)

    def iid_log_lik(self, targets, contexts) -> np.ndarray:
        """Summed log-density of all target rows, per context row; the
        mixture parameters are computed once per context."""
        log_w, mu, log_std = self.component_params(contexts)
        y_z = self.target_standardizer.transform(targets)
        lp = (mixture_log_prob_np(log_w[:, None], mu[:, None], log_std[:, None], y_z)
              + self.target_standardizer.log_det)
        return lp.sum(axis=1)

    def log_prob_tape(self, tape, target: Tensor, context: Tensor | None) -> Tensor:
        feats = self.context_net.forward(tape, context) if context is not None else None
        if feats is None:
            feats = Tensor(np.ones((target.shape[0], 1)))
        y_z = self.target_standardizer.transform_tape(tape, target)
        lp = self.head.log_prob_tape(tape, feats, y_z)
        return tape.add(lp, self.target_standardizer.log_det)

    def sample(self, context, n: int, rng) -> np.ndarray:
        if self.context_dim:
            ctx = np.tile(np.atleast_2d(context), (n, 1))
        else:
            ctx = np.zeros((n, 0))
        z = self.head.sample_np(self._feats_np(ctx, n), rng)
        return self.target_standardizer.inverse(z)


class AffineCouplingFlow:
    """Coupling flow with a standard Gaussian base.

    Each layer shifts and rescales one half of the coordinates conditioned
    on the other half plus the context, then rotates the halves so that
    successive layers transform alternating coordinates. One-dimensional
    targets keep the split defined through an empty pass-through half, so
    the conditioner sees the context alone.
    """

    def __init__(self, target_dim: int, context_dim: int,
                 config: EstimatorConfig | None = None, seed: int = 0):
        self.config = config or EstimatorConfig(kind="flow")
        self.target_dim = target_dim
        self.context_dim = context_dim
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        self.context_net = _ContextNet(self.store, "ctx.", context_dim, self.config, rng)
        self.n_trans = (target_dim + 1) // 2
        self.n_pass = target_dim - self.n_trans
        in_dim = self.n_pass + self.context_net.out_dim
        self.nets = [
            Mlp(self.store, f"layer{i}.", [max(in_dim, 1), *self.config.hidden, 2 * self.n_trans],
                rng, zero_init_last=True)
            for i in range(self.config.n_layers)
        ]
        self.target_standardizer = Standardizer.identity(target_dim)
        self.seed = seed

    def initialize_standardization(self, targets, contexts):
        self.target_standardizer = Standardizer.fit(targets)
        self.context_net.fit_standardizer(contexts)

    def _conditioner_np(self, net, passthrough, feats, n_rows):
        parts = []
        if self.n_pass:
            parts.append(passthrough)
        if feats is not None:
            parts.append(feats)
        inp = np.concatenate(parts, axis=1) if parts else np.ones((n_rows, 1))
        out = net.forward_np(inp)
        shift = out[:, :self.n_trans]
        log_scale = _bounded(out[:, self.n_trans:])
        return shift, log_scale

    def _inverse_np(self, y_z, feats):
        """Target (standardized) -> base, accumulating log|det dbase/dtarget|."""
        n = y_z.shape[0]
        u = y_z.copy()
        total = np.zeros(n)
        for net in reversed(self.nets):
            trans = u[:, self.n_pass:]
            passthrough = u[:, :self.n_pass]
            shift, log_scale = self._conditioner_np(net, passthrough, feats, n)
            orig_trans = (trans - shift) * np.exp(-log_scale)
            u = np.concatenate([orig_trans, passthrough], axis=1)
            total -= log_scale.sum(axis=1)
        return u, total

    def _forward_np(self, u, feats):
        """Base -> target (standardized)."""
        n = u.shape[0]
        y = u.copy()
        for net in self.nets:
            trans = y[:, :self.n_trans]
            passthrough = y[:, self.n_trans:]
            shift, log_scale = self._conditioner_np(net, passthrough, feats, n)
            y = np.concatenate([passthrough, trans * np.exp(log_scale) + shift], axis=1)
        return y

    def log_prob(self, target, context) -> np.ndarray:
        target = np.atleast_2d(target)
        feats = self.context_net.forward_np(context) if self.context_dim else None
        y_z = self.target_standardizer.transform(target)
        u, logdet = self._inverse_np(y_z, feats)
        base = np.sum(-0.5 * u * u - 0.5 * LOG_2PI, axis=1)
        return base + logdet + self.target_standardizer.log_det

    def iid_log_lik(self, targets, contexts) -> np.ndarray:
        """Summed log-density of all target rows, per context row. The
        conditioner sees target and context together, so every pair runs."""
        return pairwise_iid_sum(self.log_prob, targets, contexts)

    def log_prob_tape(self, tape, target: Tensor, context: Tensor | None) -> Tensor:
        n = target.shape[0]
        feats = self.context_net.forward(tape, context) if context is not None else None
        u = self.target_standardizer.transform_tape(tape, target)
        logdet_cols = []
        for net in reversed(self.nets):
            trans = tape.slice_cols(u, self.n_pass, self.target_dim)
            passthrough = tape.slice_cols(u, 0, self.n_pass)
            parts = []
            if self.n_pass:
                parts.append(passthrough)
            if feats is not None:
                parts.append(feats)
            inp = tape.concat(parts, axis=1) if parts else Tensor(np.ones((n, 1)))
            out = net.forward(tape, inp)
            shift = tape.slice_cols(out, 0, self.n_trans)
            log_scale = _bounded_tape(tape, tape.slice_cols(out, self.n_trans, 2 * self.n_trans))
            orig = tape.multiply(tape.add(trans, tape.negate(shift)),
                                 tape.exp(tape.negate(log_scale)))
            u = tape.concat([orig, passthrough], axis=1) if self.n_pass else orig
            logdet_cols.append(tape.negate(tape.sum(log_scale, axis=1)))
        base = tape.sum(tape.add(tape.multiply(tape.square(u), -0.5), -0.5 * LOG_2PI), axis=1)
        lp = base
        for col in logdet_cols:
            lp = tape.add(lp, col)
        return tape.add(lp, self.target_standardizer.log_det)

    def sample(self, context, n: int, rng) -> np.ndarray:
        if self.context_dim:
            ctx = np.tile(np.atleast_2d(context), (n, 1))
            feats = self.context_net.forward_np(ctx)
        else:
            feats = None
        u = rng.standard_normal((n, self.target_dim))
        y_z = self._forward_np(u, feats)
        return self.target_standardizer.inverse(y_z)


class MixedEstimator:
    """Joint density over a binary choice and a positive reaction time.

    A categorical head models P(choice | context); a mixture head models
    log(rt) given (context, choice), with separate trunks. The change of
    variables from log(rt) to rt contributes -log(rt) to the joint density.
    The target convention is x = [choice, rt].
    """

    def __init__(self, context_dim: int, config: EstimatorConfig | None = None, seed: int = 0):
        self.config = config or EstimatorConfig(kind="mixed")
        self.target_dim = 2
        self.context_dim = context_dim
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        self.context_standardizer = Standardizer.identity(context_dim)
        self.choice_net = Mlp(self.store, "choice.", [context_dim, *self.config.hidden, 1], rng)
        self.rt_head = _MixtureHead(self.store, "rt.", context_dim + 1, 1,
                                    self.config.n_components, self.config.hidden, rng)
        self.logrt_standardizer = Standardizer.identity(1)
        self.seed = seed

    def initialize_standardization(self, targets, contexts):
        targets = np.atleast_2d(targets)
        rts = targets[:, 1:2]
        if np.any(rts <= 0):
            raise EstimatorError("reaction times must be positive")
        self.logrt_standardizer = Standardizer.fit(np.log(rts))
        self.context_standardizer = Standardizer.fit(contexts)

    def _choice_logp_np(self, logit, choice):
        return -(choice * softplus(-logit) + (1.0 - choice) * softplus(logit))

    def log_prob(self, target, context) -> np.ndarray:
        target = np.atleast_2d(target)
        context = np.atleast_2d(context)
        choice = target[:, 0:1]
        rt = target[:, 1:2]
        ctx_z = self.context_standardizer.transform(context)
        logit = self.choice_net.forward_np(ctx_z)
        logp_choice = self._choice_logp_np(logit, choice)[:, 0]
        out = np.full(target.shape[0], -np.inf)
        ok = rt[:, 0] > 0
        if ok.any():
            y_z = self.logrt_standardizer.transform(np.log(rt[ok]))
            feats = np.concatenate([ctx_z[ok], choice[ok]], axis=1)
            log_w, mu, log_std = self.rt_head.params_np(feats)
            logp_rt = (mixture_log_prob_np(log_w, mu, log_std, y_z)
                       + self.logrt_standardizer.log_det - np.log(rt[ok, 0]))
            out[ok] = logp_choice[ok] + logp_rt
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
        ctx_z = self.context_standardizer.transform(contexts)
        logp_choice = self._choice_logp_np(self.choice_net.forward_np(ctx_z), choice[None, :])
        levels, which = np.unique(choice, return_inverse=True)
        c, u = ctx_z.shape[0], levels.size
        feats = np.concatenate([np.repeat(ctx_z, u, axis=0), np.tile(levels, c)[:, None]], axis=1)
        log_w, mu, log_std = self.rt_head.params_np(feats)
        k = log_w.shape[1]
        log_w = log_w.reshape(c, u, k)[:, which]
        mu = mu.reshape(c, u, k, 1)[:, which]
        log_std = log_std.reshape(c, u, k, 1)[:, which]
        y_z = self.logrt_standardizer.transform(np.log(rt)[:, None])
        logp_rt = (mixture_log_prob_np(log_w, mu, log_std, y_z)
                   + self.logrt_standardizer.log_det - np.log(rt))
        return (logp_choice + logp_rt).sum(axis=1)

    def log_prob_tape(self, tape, target: Tensor, context: Tensor) -> Tensor:
        data = target.data
        if np.any(data[:, 1] <= 0):
            raise EstimatorError("reaction times must be positive for training")
        choice = data[:, 0:1]
        ctx_z = self.context_standardizer.transform_tape(tape, context)
        logit = self.choice_net.forward(tape, ctx_z)
        logp_choice = tape.negate(_bce_tape(tape, logit, choice))
        y_z = Tensor(self.logrt_standardizer.transform(np.log(data[:, 1:2])))
        feats = tape.concat([ctx_z, Tensor(choice)], axis=1)
        logp_rt = self.rt_head.log_prob_tape(tape, feats, y_z)
        jac = Tensor(self.logrt_standardizer.log_det - np.log(data[:, 1:2]))
        return tape.add(tape.add(logp_choice, logp_rt), jac)

    def choice_probability(self, context) -> np.ndarray:
        ctx_z = self.context_standardizer.transform(context)
        return sigmoid(self.choice_net.forward_np(ctx_z))[:, 0]

    def sample(self, context, n: int, rng) -> np.ndarray:
        ctx = np.tile(np.atleast_2d(context), (n, 1))
        ctx_z = self.context_standardizer.transform(ctx)
        p1 = sigmoid(self.choice_net.forward_np(ctx_z))[:, 0]
        choice = (rng.uniform(size=n) < p1).astype(np.float64)[:, None]
        feats = np.concatenate([ctx_z, choice], axis=1)
        y_z = self.rt_head.sample_np(feats, rng)
        rt = np.exp(self.logrt_standardizer.inverse(y_z))
        return np.concatenate([choice, rt], axis=1)


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
        self.seed = seed

    def initialize_standardization(self, theta, x):
        self.standardizer = Standardizer.fit(np.hstack([np.atleast_2d(theta), np.atleast_2d(x)]))

    def logit(self, theta, x) -> np.ndarray:
        theta = np.atleast_2d(theta)
        x = np.atleast_2d(x)
        if theta.shape[1] != self.theta_dim or x.shape[1] != self.x_dim:
            raise EstimatorError(
                f"classifier expects dims ({self.theta_dim}, {self.x_dim}), "
                f"got ({theta.shape[1]}, {x.shape[1]})"
            )
        return self.net.forward_np(self.standardizer.transform(np.hstack([theta, x])))[:, 0]

    def loss(self, tape, theta, x):
        """NRE batch loss: class 1 is the matched pairing, class 0 pairs each
        x with the next row's theta (cyclic shift, exact 50/50 per batch)."""
        theta = np.atleast_2d(theta)
        x = np.atleast_2d(x)
        shuffled = np.roll(theta, -1, axis=0)
        feats = np.vstack([np.hstack([theta, x]), np.hstack([shuffled, x])])
        labels = np.concatenate([np.ones(theta.shape[0]), np.zeros(theta.shape[0])])[:, None]
        logit = self.net.forward(tape, self.standardizer.transform_tape(tape, Tensor(feats)))
        return tape.mean(_bce_tape(tape, logit, labels))


class NllTask:
    """Trainer adapter: mean negative log-density of the target rows given
    the context rows. ``theta_is_target`` orients it: True trains a posterior
    estimator (NPE), False a likelihood estimator (NLE)."""

    def __init__(self, estimator, theta_is_target: bool):
        self.estimator = estimator
        self.theta_is_target = theta_is_target
        self.store = estimator.store

    def loss(self, tape, theta, x):
        target, context = (theta, x) if self.theta_is_target else (x, theta)
        lp = self.estimator.log_prob_tape(
            tape, Tensor(target), Tensor(context) if self.estimator.context_dim else None)
        return tape.negate(tape.mean(lp))


def build_estimator(config: EstimatorConfig, target_dim: int, context_dim: int, seed: int = 0):
    if config.kind == "mdn":
        return ConditionalMDN(target_dim, context_dim, config, seed=seed)
    if config.kind == "flow":
        return AffineCouplingFlow(target_dim, context_dim, config, seed=seed)
    if config.kind == "mixed":
        if target_dim != 2:
            raise EstimatorError("mixed estimator expects a (choice, rt) target")
        return MixedEstimator(context_dim, config, seed=seed)
    raise EstimatorError(f"unknown estimator kind {config.kind!r}")
