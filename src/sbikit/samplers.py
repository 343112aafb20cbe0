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
                raise SamplerError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class ChainDiagnostics:
    r_hat: np.ndarray                    # per dimension
    ess: np.ndarray                      # per dimension
    acceptance: np.ndarray               # per chain, shrinkage acceptance rate
    n_target_evals: int = 0
    n_stepout_capped: int = 0            # (chain, coordinate) updates stopped at _MAX_STEPOUTS
    n_shrink_capped: int = 0             # updates that hit _MAX_SHRINK and kept the current point


def sir_init(log_target, prior: Distribution, pool_size: int, chains: int,
             rng: np.random.Generator) -> np.ndarray:
    """Sequential importance resampling: prior pool reweighted by the target.

    Weights are proportional to exp(log_target - log_prior), zero where that
    is not finite (a NaN target among them); returned points are members of
    the pool.
    """
    if pool_size < chains:
        raise SamplerError(f"SIR pool size {pool_size} < chain count {chains}")
    pool = prior.sample(rng, pool_size)
    log_w = np.asarray(log_target(pool), dtype=np.float64) - prior.log_prob(pool)
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
        self.logf = np.asarray(log_target(self.x), dtype=np.float64)
        if not np.all(np.isfinite(self.logf)):
            raise SamplerError("log-target not finite at initialization points")
        self.n_evals = self.x.shape[0]
        self.chain_accepted = np.zeros(self.x.shape[0], dtype=np.int64)
        self.chain_proposed = np.zeros(self.x.shape[0], dtype=np.int64)
        self.stepout_capped = 0
        self.shrink_capped = 0

    def _eval_coord(self, probe, coord, values):
        """The target at ``probe`` with column ``coord`` set to ``values``. A
        NaN is left as it is: it compares False with every level, as -inf does."""
        probe[:, coord] = values
        self.n_evals += probe.shape[0]
        return np.asarray(self.log_target(probe), dtype=np.float64)

    def _step_out(self, j, end, step, level):
        """Move each chain's ``end`` of coordinate ``j`` by ``step`` until the
        target there falls to the chain's ``level``, at most ``_MAX_STEPOUTS``
        times, on the still-growing chains' points. Returns the chains that
        reached the cap."""
        grow, probe = np.arange(end.size), self.x.copy()
        for _ in range(_MAX_STEPOUTS):
            still = self._eval_coord(probe, j, end[grow]) > level[grow]
            grow, probe = grow[still], probe[still]
            if grow.size == 0:
                break
            end[grow] += step
        return grow

    def sweep(self):
        """One update of every coordinate (fixed order) on every chain."""
        n, d = self.x.shape
        for j in range(d):
            w = self.widths[j]
            level = self.logf + np.log(self.rng.uniform(size=n))
            u = self.rng.uniform(size=n)
            left = self.x[:, j] - u * w
            right = left + w
            lo, hi = self._step_out(j, left, -w, level), self._step_out(j, right, w, level)
            if lo.size or hi.size:
                self.stepout_capped += np.union1d(lo, hi).size

            # shrink toward the current point until a proposal is accepted, on
            # the still-active chains' interval, level, point and coordinate
            active, probe, cur = np.arange(n), self.x.copy(), self.x[:, j].copy()
            for _ in range(_MAX_SHRINK):
                prop = left + self.rng.uniform(size=active.size) * (right - left)
                lf = self._eval_coord(probe, j, prop)
                self.chain_proposed[active] += 1
                acc = lf > level
                hit = active[acc]
                self.x[hit, j] = prop[acc]
                self.logf[hit] = lf[acc]
                self.chain_accepted[hit] += 1
                rej = ~acc
                active, probe, prop = active[rej], probe[rej], prop[rej]
                if active.size == 0:
                    break
                left, right, level, cur = left[rej], right[rej], level[rej], cur[rej]
                lower = prop < cur
                left = np.where(lower, prop, left)
                right = np.where(lower, right, prop)
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
    """Effective sample size per dimension from (chains, draws, dim) output
    (Vehtari et al. 2021, arXiv:1903.08008): autocorrelations taken against
    the pooled variance, which counts the spread between chains, summed
    over Geyer's initial monotone sequence of lag pairs."""
    c, q, d = draws.shape
    total = c * q
    out = np.full(d, float(total))
    if q < 4:
        return out
    centered = draws - draws.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(centered, n=2 * q, axis=1)
    # autocovariance at lags 0..q-1, averaged over the chains: (q, d)
    acov = np.fft.irfft(spec * spec.conj(), n=2 * q, axis=1)[:, :q].mean(axis=0) / q
    within = acov[0] * q / (q - 1)
    var_plus = acov[0] + (draws.mean(axis=1).var(axis=0, ddof=1) if c > 1 else 0.0)
    ok = var_plus > 0
    rho = 1.0 - (within[ok] - acov[:, ok]) / var_plus[ok]
    rho[0] = 1.0
    pairs = rho[0:q - 1:2] + rho[1:q:2]
    initial = np.logical_and.accumulate(pairs > 0, axis=0)
    tau = 2.0 * np.where(initial, np.minimum.accumulate(pairs, axis=0), 0.0).sum(axis=0) - 1.0
    out[ok] = total / np.maximum(tau, 1.0 / math.log10(total))
    return out


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


def map_estimate(posterior, x, rng: np.random.Generator, restarts: int = 10,
                 lr: float = 0.01, steps: int = 1000):
    """Mode of a direct (amortized) posterior at observation ``x``: batched
    Adam ascent on ``log_prob_tape(tape, x, theta)`` from ``sample(x, ...)``
    starts. The best point ever visited wins, clamped to the prior support.
    """
    for name, value in (("restarts", restarts), ("steps", steps)):
        if value < 1:
            raise SamplerError(f"{name} must be >= 1, got {value}")
    prior = posterior.prior
    starts = posterior.sample(x, restarts, rng)
    store = ParamStore()
    theta = store.add("theta", np.clip(starts, prior.low, prior.high))
    best_logp = np.full(restarts, -np.inf)
    best_theta = theta.data.copy()
    trace = []

    for _ in range(steps):
        tape = Tape()
        lp = posterior.log_prob_tape(tape, x, theta.data)
        lp_np = lp[:, 0]
        better = lp_np > best_logp
        best_logp[better] = lp_np[better]
        best_theta[better] = theta.data[better]
        trace.append(float(np.nanmax(lp_np)))
        g = tape.backward(tape.negate(tape.sum(lp)))[theta.data]
        g = np.where(np.isfinite(g), g, 0.0)
        store.adam_step(Gradients({id(theta): g}), lr=lr)
        store.load({"theta": np.clip(theta.data, prior.low, prior.high)})

    if not np.any(np.isfinite(best_logp)):
        raise SamplerError(f"MAP search diverged in all restarts; trace tail {trace[-5:]}")
    winner = int(np.argmax(best_logp))
    return best_theta[winner]
