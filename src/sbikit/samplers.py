"""Axis-aligned slice-sampling MCMC, SIR initialization, MAP search.

The slice sampler needs only log-target evaluations (no gradients) and runs
all chains in lockstep: every step-out and shrinkage round evaluates the
batched target on the still-active chains only. Chains start from SIR
draws; the step-out width of each coordinate is its prior std, with at most
``_MAX_STEPOUTS`` step-outs per end and ``_MAX_SHRINK`` shrink rounds per
update. Output order is chain-major and fully deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .ndiff import Gradients, ParamStore, Tape

_MAX_STEPOUTS = 50
_MAX_SHRINK = 200


class SamplerError(RuntimeError):
    pass


@dataclass
class SamplerConfig:
    chains: int = 100
    warmup: int = 1000            # sweeps per chain before retention
    thin: int = 2
    sir_pool: int = 1000

    def __post_init__(self):
        for name in ("chains", "warmup", "thin", "sir_pool"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class ChainDiagnostics:
    r_hat: np.ndarray                    # per dimension
    ess: np.ndarray                      # per dimension
    acceptance: np.ndarray               # per chain, shrinkage acceptance rate
    n_target_evals: int = 0
    n_stepout_capped: int = 0            # (chain, coordinate) updates stopped at _MAX_STEPOUTS
    n_shrink_capped: int = 0             # updates that hit _MAX_SHRINK and kept the current point


def _sanitize(logf: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(logf), -np.inf, logf)


def sir_init(log_target, prior: Distribution, pool_size: int, chains: int,
             rng: np.random.Generator) -> np.ndarray:
    """Sequential importance resampling: prior pool reweighted by the target.

    Weights are proportional to exp(log_target - log_prior); returned points
    are members of the pool.
    """
    if pool_size < chains:
        raise SamplerError(f"SIR pool size {pool_size} < chain count {chains}")
    pool = prior.sample(rng, pool_size)
    log_w = _sanitize(np.asarray(log_target(pool), dtype=np.float64)) - prior.log_prob(pool)
    finite = np.isfinite(log_w)
    if not finite.any():
        raise SamplerError("SIR initialization failed: log-target is -inf at every candidate")
    w = np.zeros(pool_size)
    w[finite] = np.exp(log_w[finite] - log_w[finite].max())
    w /= w.sum()
    idx = rng.choice(pool_size, size=chains, replace=True, p=w)
    return pool[idx]


class _SliceState:
    """Lockstep slice sampler over a batch of chains."""

    def __init__(self, log_target, x0, widths, rng):
        self.log_target = log_target
        self.x = np.array(x0, dtype=np.float64)
        self.widths = widths
        self.rng = rng
        self.logf = _sanitize(np.asarray(log_target(self.x), dtype=np.float64))
        if not np.all(np.isfinite(self.logf)):
            raise SamplerError("log-target not finite at initialization points")
        self.n_evals = self.x.shape[0]
        self.chain_accepted = np.zeros(self.x.shape[0], dtype=np.int64)
        self.chain_proposed = np.zeros(self.x.shape[0], dtype=np.int64)
        self.stepout_capped = 0
        self.shrink_capped = 0

    def _eval_coord(self, idx, coord, values):
        probe = self.x[idx].copy()
        probe[:, coord] = values
        self.n_evals += idx.size
        return _sanitize(np.asarray(self.log_target(probe), dtype=np.float64))

    def sweep(self):
        """One update of every coordinate (fixed order) on every chain."""
        n, d = self.x.shape
        for j in range(d):
            w = self.widths[j]
            level = self.logf + np.log(self.rng.uniform(size=n))
            u = self.rng.uniform(size=n)
            left = self.x[:, j] - u * w
            right = left + w

            # step out the interval until both ends fall below the level
            capped = np.zeros(n, dtype=bool)
            for end, step in ((left, -w), (right, w)):
                grow = np.arange(n)
                for _ in range(_MAX_STEPOUTS):
                    if grow.size == 0:
                        break
                    lf = self._eval_coord(grow, j, end[grow])
                    still = lf > level[grow]
                    end[grow[still]] += step
                    grow = grow[still]
                capped[grow] = True
            self.stepout_capped += int(capped.sum())

            # shrink toward the current point until a proposal is accepted
            active = np.arange(n)
            for _ in range(_MAX_SHRINK):
                if active.size == 0:
                    break
                prop = left[active] + self.rng.uniform(size=active.size) * (
                    right[active] - left[active])
                lf = self._eval_coord(active, j, prop)
                self.chain_proposed[active] += 1
                acc = lf > level[active]
                hit = active[acc]
                self.x[hit, j] = prop[acc]
                self.logf[hit] = lf[acc]
                self.chain_accepted[hit] += 1
                rej = active[~acc]
                pr = prop[~acc]
                lower = pr < self.x[rej, j]
                left[rej[lower]] = pr[lower]
                right[rej[~lower]] = pr[~lower]
                active = rej
            # pathological shrinkage: keep the current (always valid) point
            self.shrink_capped += active.size


def _split_r_hat(draws: np.ndarray) -> np.ndarray:
    """Split-R-hat per dimension from (chains, draws, dim) retained output."""
    c, q, d = draws.shape
    if q < 4:
        return np.full(d, np.nan)
    half = q // 2
    halves = np.concatenate([draws[:, :half], draws[:, half:2 * half]], axis=0)
    means = halves.mean(axis=1)
    variances = halves.var(axis=1, ddof=1)
    w = variances.mean(axis=0)
    b = half * means.var(axis=0, ddof=1)
    out = np.ones(d)
    ok = w > 0
    var_plus = (half - 1) / half * w[ok] + b[ok] / half
    out[ok] = np.sqrt(var_plus / w[ok])
    return np.maximum(out, 1.0)


def _ess(draws: np.ndarray) -> np.ndarray:
    """Effective sample size per dimension; the autocorrelation sum stops
    at the first negative lag."""
    c, q, d = draws.shape
    total = c * q
    out = np.empty(d)
    for k in range(d):
        series = draws[:, :, k]
        centered = series - series.mean(axis=1, keepdims=True)
        denom = (centered * centered).sum(axis=1).mean()
        if denom == 0 or q < 4:
            out[k] = total
            continue
        rho_sum = 0.0
        for lag in range(1, q):
            rho = (centered[:, :-lag] * centered[:, lag:]).sum(axis=1).mean() / denom
            if rho < 0.0:
                break
            rho_sum += rho
        out[k] = min(total, total / (1.0 + 2.0 * rho_sum))
    return np.maximum(out, 1.0)


def slice_sample(log_target, prior: Distribution, config: SamplerConfig,
                 rng: np.random.Generator, n_samples: int):
    """Pooled posterior draws from multi-chain slice sampling.

    Returns (samples, ChainDiagnostics); samples has exactly ``n_samples``
    rows, pooled chain-major after warmup and thinning.
    """
    if n_samples < 1:
        raise SamplerError("need n_samples >= 1")
    widths = np.asarray(prior.std(), dtype=np.float64)
    x0 = sir_init(log_target, prior, config.sir_pool, config.chains, rng)
    state = _SliceState(log_target, x0, widths, rng)

    for _ in range(config.warmup):
        state.sweep()

    per_chain = math.ceil(n_samples / config.chains)
    retained = np.empty((config.chains, per_chain, prior.dim))
    for k in range(per_chain):
        for _ in range(config.thin):
            state.sweep()
        retained[:, k] = state.x

    samples = retained.reshape(config.chains * per_chain, prior.dim)[:n_samples]
    with np.errstate(invalid="ignore"):
        acceptance = np.where(state.chain_proposed > 0,
                              state.chain_accepted / np.maximum(state.chain_proposed, 1), 1.0)
    diag = ChainDiagnostics(
        r_hat=_split_r_hat(retained),
        ess=_ess(retained),
        acceptance=acceptance,
        n_target_evals=state.n_evals,
        n_stepout_capped=state.stepout_capped,
        n_shrink_capped=state.shrink_capped,
    )
    return samples, diag


def map_estimate(posterior, rng: np.random.Generator, restarts: int = 10,
                 lr: float = 0.01, steps: int = 1000):
    """Posterior mode by batched Adam ascent from posterior-sample starts.

    ``posterior`` must be bound to an observation and expose differentiable
    ``log_prob_tape`` plus ``sample``/``prior``. The best point ever visited
    wins; the result is clamped to the prior support.
    """
    prior = posterior.prior
    starts = posterior.sample(restarts, rng)
    store = ParamStore()
    theta = store.add("theta", np.clip(starts, prior.low, prior.high))
    best_logp = np.full(restarts, -np.inf)
    best_theta = theta.data.copy()
    trace = []

    for _ in range(steps):
        tape = Tape()
        lp = posterior.log_prob_tape(tape, theta)
        lp_np = lp.data[:, 0]
        better = lp_np > best_logp
        best_logp[better] = lp_np[better]
        best_theta[better] = theta.data[better]
        trace.append(float(np.nanmax(lp_np)))
        g = tape.backward(tape.negate(tape.sum(lp)))[theta]
        g[~np.isfinite(g)] = 0.0
        store.adam_step(Gradients({id(theta): g}), lr=lr)
        theta.data = np.clip(theta.data, prior.low, prior.high)

    if not np.any(np.isfinite(best_logp)):
        raise SamplerError(f"MAP search diverged in all restarts; trace tail {trace[-5:]}")
    winner = int(np.argmax(best_logp))
    return best_theta[winner]
