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

Each model's math is written once, against an ``ops`` argument that is either
an ``ndiff.Tape``, which records for gradients, or ``ndiff.EVALUATOR``, which
records nothing; both take and return plain arrays, so data enters either one
as it is. ``log_prob_tape`` and the training losses receive a Tape;
``log_prob``, ``sample``, ``logit``, the validation loss and
``Standardizer.transform`` (the one z-score formula, ``transform_ops``) run
the same code on the evaluator, so the two agree bit for bit on the same
inputs, except in the mixture density, ``ops.mixture_log_prob``: the
evaluator's is the pointwise numpy mixture kernel, and agrees with the Tape's
loop to rounding. Each ``Mlp`` holds its layers' (w, b) parameter handles.

The density estimators also expose ``iid_log_lik(trials, contexts)``, the NLE
likelihood that MCMC evaluates hundreds of times per query at a few contexts
each: the log-density summed over an i.i.d. trial set, per context row.
``iid_trials(targets)`` prepares the set once as an ``IidTrials``, with
everything that does not depend on the context. For the MDN and the mixed
estimator that is each trial's features [1, y', -y'^2 / 2], y' its
standardized value less the mean of its level's trials, the mixture head's
arrays (the trunk's level columns as one bias per level, the three heads
stacked into one product with each level's centre taken off its means), and
the choice term's trial counts per label. Each call runs the context and
choice networks' own ``forward`` on the evaluator, forms each (component,
context, level)'s coefficients of the features and scores every trial with
one matrix product and one log-sum-exp (``_mixture_iid_log_lik``), and the
choices with ``ndiff.softplus``; its sums agree with ``log_prob``'s to
rounding. A set whose product could overflow (``_iid_mixture`` bounds it
from the trials and the head's weights), or a mixed set with an rt <= 0, is
scored pair by pair. A set older than its store's ``version`` (``load``,
``adam_step`` and ``initialize_standardization`` bump it) raises an
``EstimatorError``. The flow scores every (context, target) pair. Tests pin
each to that reference.

Inputs and targets are z-scored with training-set statistics stored inside
the model; densities are reported in original coordinates through the
standardization Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ndiff import EVALUATOR, LOG_2PI, ParamStore, logsumexp, sigmoid, softplus

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
    """(n,1) binary cross-entropy of logits against constant 0/1 labels."""
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
        self._scale, self._shift = 1.0 / std, -self.mean / std

    @classmethod
    def fit(cls, data: np.ndarray) -> "Standardizer":
        data = np.atleast_2d(data)
        return cls(data.mean(axis=0), data.std(axis=0))

    @classmethod
    def identity(cls, dim: int) -> "Standardizer":
        return cls(np.zeros(dim), np.ones(dim))

    def transform(self, x):
        return self.transform_ops(EVALUATOR, np.atleast_2d(x))

    def inverse(self, z):
        # broadcast: per-column or transposed layouts win at 4000 rows but lose at few rows or one column
        return np.atleast_2d(z) * self.std + self.mean

    def transform_ops(self, ops, x):
        """The z-score as one elementwise primitive, x * (1/std) - mean/std."""
        return ops.scale_shift(x, self._scale, self._shift)


class Mlp:
    """Feedforward stack holding its layers' (w, b) handles from a shared ParamStore."""

    def __init__(self, store: ParamStore, prefix: str, sizes: list[int],
                 rng: np.random.Generator, zero_init_last: bool = False):
        self.prefix = prefix
        self.handles = []
        for i, (d_in, d_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            if zero_init_last and i == len(sizes) - 2:
                w = np.zeros((d_in, d_out))
            else:
                w = rng.standard_normal((d_in, d_out)) * math.sqrt(2.0 / (d_in + d_out))
            self.handles.append((store.add(f"{prefix}w{i}", w),
                                 store.add(f"{prefix}b{i}", np.zeros(d_out))))

    def forward(self, ops, x):
        *hidden, (w, b) = self.handles
        for wi, bi in hidden:
            x = ops.affine(x, wi, bi)   # rebinding x frees the layer's input
            x = ops.tanh(x)             # before tanh allocates; nesting is slower
        return ops.affine(x, w, b)


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
    """The ``rows`` of an i.i.d. trial set and, for the mixtures, all that does
    not depend on the context, made by ``iid_trials`` at the store's ``version``:
    the trials' ``features`` from ``_trial_features``, the mixture ``head``'s
    arrays from ``_MixtureHead.prepare`` (its means less each level's centre),
    the summed Jacobian and ``choice``: (the choice ``Mlp``, n at label 1, at 0)."""

    rows: np.ndarray
    version: int
    features: np.ndarray | None = None
    head: tuple | None = None
    const: float = 0.0
    choice: tuple | None = None


def _trial_features(y_z, level, n_levels):
    """Each level's centre, the mean of its trials' standardized values
    ``y_z`` (trials, D), and the trials' (2D + 1) * levels feature rows:
    [1, y', -y'^2 / 2] per dimension, y' = y_z less the trial's level
    centre, in that level's rows and zero in the others'. (None, None) when
    a feature is not finite."""
    t, d = y_z.shape
    with np.errstate(over="ignore", invalid="ignore"):
        centre = np.stack([y_z[level == u].mean(axis=0) for u in range(n_levels)])
        y = y_z - centre[level]
        feats = np.zeros((2 * d + 1, n_levels, t))
        cols = np.arange(t)
        feats[0, level, cols] = 1.0
        feats[1:d + 1, level, cols] = y.T
        feats[d + 1:, level, cols] = -0.5 * (y * y).T
    if not np.all(np.isfinite(feats)):
        return None, None
    return centre, feats.reshape(-1, t)


def _iid_mixture(head, levels, y_z, level):
    """The trial features and ``head.prepare``'s arrays at ``levels`` that
    ``_mixture_iid_log_lik`` takes, or None when a term of its product could
    be non-finite at some context: that set is scored pair by pair.

    The head's outputs are an affine map of tanh outputs, so B = max over
    its rows of sum |w| + max |b| bounds every logit and every mean less its
    level's centre, and 1 / sigma^2 <= e^10. So every coefficient is within
    C = (D + 1) e^10 (B + 1)^2 + log K, every feature within F = max
    |feature|, each exponent within (2D + 1) C F, and the trial sum of its
    log-sum-exp within twice that per trial."""
    centre, features = _trial_features(y_z, level, len(levels))
    if features is None:
        return None
    arrays = head.prepare(levels, centre)
    w, b = arrays[3], arrays[4].reshape(arrays[3].shape[0], -1)
    d, k, t = head.target_dim, head.n_components, features.shape[1]
    with np.errstate(over="ignore"):
        b1 = float(np.max(np.abs(w).sum(axis=1) + np.abs(b).max(axis=1))) + 1.0   # B + 1
    coef = (d + 1) * math.exp(2.0 * LOG_SCALE_BOUND) * b1 * b1 + math.log(k)
    exponent = (2 * d + 1) * coef * float(np.max(np.abs(features)))
    return (features, arrays) if math.isfinite(2.0 * t * exponent) else None


def _mixture_iid_log_lik(head, feats, features) -> np.ndarray:
    """Summed log-density of the trials under the mixture at each trial's
    level, per row of the context features ``feats``, from the arrays of
    ``_MixtureHead.prepare`` and ``_trial_features``, less D/2 log 2 pi per trial.

    With mu' = mu - centre, each component's exponent, log w - sum_d log
    sigma - sum_d (y' - mu')^2 / (2 sigma^2), is the product of the
    trial's features with the coefficients [log w - sum_d (log sigma +
    mu'^2 / (2 sigma^2)), mu' / sigma^2, 1 / sigma^2], formed per
    (component, context, level). So one matrix product scores every trial
    at every context, with no gather to the trials, and one log-sum-exp
    over the components follows; the bound in ``_iid_mixture`` keeps every
    term finite.

    Error bound: the expansion adds and cancels terms as large as (y'^2 +
    mu'^2) / (2 sigma^2), so a (trial, component) exponent is off by a few
    ulp of that, where forming (y' - mu')^2 directly is off by a few ulp of
    the exponent itself. The centres keep y' and mu' at the spread of a
    level's trials and components instead of their distance from zero: with
    every component at sigma = e^-5, 8 standardized units out, and the
    trials on them, the sums agree with the direct form to about 1e-15
    relative, against 4e-11 uncentred."""
    w_in, bias, rest, w, b = head
    (f, k, _, u), c, d = b.shape, feats.shape[0], (b.shape[0] - 1) // 2
    h = np.tanh((feats @ w_in)[:, None] + bias).reshape(c * u, -1)
    for wi, bi in rest:
        h = np.tanh(h @ wi + bi)
    out = (w @ h.T).reshape(f, k, c, u) + b
    log_w, mu, log_std = out[0], out[1:d + 1], out[d + 1:]
    log_w -= np.maximum.reduce(log_w, axis=0)   # finite: the logits are an affine map of tanh outputs
    log_w -= np.log(np.add.reduce(np.exp(log_w), axis=0))
    coef = np.empty((k, c, f, u))                          # one row per (component, context)
    a = coef.transpose(2, 0, 1, 3)                         # a0, a1 (D), a2 (D)
    r = np.multiply(np.tanh(log_std, out=log_std), -2.0 * LOG_SCALE_BOUND, out=log_std)
    np.exp(r, out=a[d + 1:])                               # 1 / sigma^2, from r = -2 log sigma
    np.multiply(mu, a[d + 1:], out=a[1:d + 1])
    mu *= a[1:d + 1]
    r -= mu
    np.add(log_w, 0.5 * np.add.reduce(r, axis=0), out=a[0])
    terms = (coef.reshape(k * c, -1) @ features).reshape(k, c, -1)
    m = np.maximum.reduce(terms, axis=0)
    terms -= m
    s = np.add.reduce(np.exp(terms, out=terms), axis=0)
    return np.add.reduce(np.log(s, out=s) + m, axis=1)


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

    def log_prob(self, ops, feats, y_z):
        """(n,1) mixture log-density of the standardized target."""
        return ops.mixture_log_prob(*self.params(ops, feats), y_z)

    def prepare(self, levels, centre):
        """The trunk's first layer as its context-feature rows and one bias per
        row of ``levels``; its other layers' (w, b); and the heads as one
        transposed product: log-weights (K), means and log-stds / 5 (D, K),
        with one bias per level, whose means are less that level's ``centre``."""
        (w0, b0), *rest = [(w.data, b.data) for w, b in self.trunk.handles]
        f = w0.shape[0] - levels.shape[1]
        k, d = self.n_components, self.target_dim
        by_dim = k + np.arange(k * d).reshape(k, d).T.ravel()
        rows = np.concatenate([np.arange(k), by_dim, k * d + by_dim])
        scale = np.repeat([1.0, 1.0, 1.0 / LOG_SCALE_BOUND], [k, k * d, k * d])[:, None]
        ws, bs = zip(*[net.handles[0] for net in (self.w_head, self.mu_head, self.std_head)])
        b = np.repeat(np.concatenate(bs)[rows, None] * scale, len(levels), axis=1)
        b[k:k + k * d] -= np.repeat(centre.T, k, axis=0)
        return (w0[:f], levels @ w0[f:] + b0, rest,
                np.concatenate(ws, axis=1).T[rows] * scale, b.reshape(2 * d + 1, k, 1, -1))

    def sample(self, feats, which, rng):
        """One standardized draw per entry of ``which``, from the mixture at
        that row of ``feats``; the parameters are computed once per row."""
        log_w, mu, log_std = self.params(EVALUATOR, feats)
        n, d = which.shape[0], self.target_dim
        u = rng.uniform(size=n)
        # the count of cdf entries below u: a cumsum of weights never
        # decreases, and a NaN sorts last as it compares False
        choice = np.empty(n, dtype=np.intp)
        for row, cdf in enumerate(np.exp(log_w).cumsum(axis=1)):
            hit = which == row
            choice[hit] = np.searchsorted(cdf, u[hit], side="left")
        choice = np.minimum(choice, self.n_components - 1)
        eps = rng.standard_normal((n, d))
        # one flat row index per draw: a two-array fancy index is slow
        flat = which * self.n_components + choice
        return (mu.reshape(-1, d).take(flat, axis=0)
                + np.exp(log_std.reshape(-1, d).take(flat, axis=0)) * eps)


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
        self.context_net.standardizer = Standardizer.fit(contexts)
        self.store.version += 1     # a trial set prepared before is stale

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
        return IidTrials(targets, self.store.version)

    def iid_log_lik(self, trials: IidTrials, contexts) -> np.ndarray:
        """Summed log-density of all trials, per context row, from the arrays
        ``iid_trials`` prepared and one context-network pass (pair by pair for
        the flow); stale ones raise."""
        if trials.version != self.store.version:
            raise EstimatorError("stale trial set: the model changed since it was prepared")
        if trials.head is None:
            return pairwise_iid_sum(self.log_prob, trials.rows, contexts)
        feats = self.context_net.forward(EVALUATOR, contexts)
        lik = _mixture_iid_log_lik(trials.head, feats, trials.features) + trials.const
        if trials.choice is not None:
            net, n1, n0 = trials.choice
            logit = net.forward(EVALUATOR, feats)[:, 0]
            lik -= n1 * softplus(-logit) + n0 * softplus(logit)
        return lik

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
        """The standardized trials' features, at the one level of a head that
        reads only the context, and the head's arrays; when the product
        could overflow, the rows alone, which are scored pair by pair."""
        t = targets.shape[0]
        mixture = _iid_mixture(self.head, np.zeros((1, 0)),
                               self.target_standardizer.transform(targets), np.zeros(t, dtype=np.intp))
        if mixture is None:
            return super().iid_trials(targets)
        return IidTrials(targets, self.store.version, *mixture,
                         t * (self.target_standardizer.log_det - 0.5 * self.target_dim * LOG_2PI))

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

    def _log_prob(self, ops, data, context):
        """(n,1) joint log-density; ``data`` holds the (choice, rt) values,
        every rt positive."""
        choice = data[:, 0:1]
        log_rt = np.log(data[:, 1:2])
        ctx = self.context_net.forward(ops, context)
        logp_choice = ops.negate(_bce(ops, self.choice_net.forward(ops, ctx), choice))
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
        """The features of each trial's standardized log(rt) at its choice
        level, the summed Jacobian and the networks' arrays, the RT head's with
        one bias per level; with an rt <= 0 (or NaN), or when the product
        could overflow, the rows alone, which are scored pair by pair."""
        choice, rt = targets[:, 0], targets[:, 1]
        if not np.all(rt > 0):
            return super().iid_trials(targets)
        levels, level, counts = np.unique(choice, return_inverse=True, return_counts=True)
        log_rt = np.log(rt)[:, None]
        mixture = _iid_mixture(self.rt_head, levels[:, None],
                               self.target_standardizer.transform(log_rt), level)
        if mixture is None:
            return super().iid_trials(targets)
        return IidTrials(targets, self.store.version, *mixture,
                         rt.size * (self.target_standardizer.log_det - 0.5 * LOG_2PI) - log_rt.sum(),
                         (self.choice_net, levels @ counts, (1.0 - levels) @ counts))

    def log_prob_tape(self, ops, target, context):
        """(n,1) joint log-density as training sees it; any rt <= 0 is an error."""
        data = np.asarray(target)
        if np.any(data[:, 1] <= 0):
            raise EstimatorError("reaction times must be positive for training")
        return self._log_prob(ops, data, context)

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
        cols = np.stack([m.log_prob(target, context) for m in self.members], axis=1)
        return logsumexp(cols, axis=1)[:, 0] - math.log(len(self.members))

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
