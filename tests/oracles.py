"""Independent brute-force and analytic oracles used to freeze expected values.

Everything here is deliberately written against the math directly (lockstep
vectorized simulation, grid quadrature, conjugate formulas) and never calls
the library code paths it is used to check.
"""

import math

import numpy as np
from scipy import special, stats

from sbikit.samplers import _MAX_SHRINK, _MAX_STEPOUTS


def conjugate_posterior(prior_mean, prior_std, noise_std, x_obs):
    """Gaussian prior N(m0, s0^2) per dim, likelihood x ~ N(theta, sigma^2)
    with one or more i.i.d. observations. Returns posterior (mean, std) arrays.
    """
    x_obs = np.atleast_2d(np.asarray(x_obs, dtype=np.float64))
    n = x_obs.shape[0]
    prior_mean = np.asarray(prior_mean, dtype=np.float64)
    prior_var = np.asarray(prior_std, dtype=np.float64) ** 2
    noise_var = float(noise_std) ** 2
    post_var = 1.0 / (1.0 / prior_var + n / noise_var)
    post_mean = post_var * (prior_mean / prior_var + x_obs.sum(axis=0) / noise_var)
    return post_mean, np.sqrt(post_var)


class ExactConjugateSampler:
    """Analytic posterior sampler for the linear-Gaussian task.

    Mimics the amortized posterior interface used by the calibration
    diagnostics: sample(x, n, rng) and log_prob(x, theta).
    """

    def __init__(self, prior_mean, prior_std, noise_std, scale=1.0, shift=0.0):
        self.prior_mean = np.asarray(prior_mean, dtype=np.float64)
        self.prior_std = np.asarray(prior_std, dtype=np.float64)
        self.noise_std = float(noise_std)
        self.scale = float(scale)    # < 1 makes the posterior overconfident
        self.shift = float(shift)    # in units of prior std, miscalibrates the mean
        self.dim = self.prior_mean.size

    def _moments(self, x):
        mean, std = conjugate_posterior(self.prior_mean, self.prior_std, self.noise_std, x)
        return mean + self.shift * self.prior_std, std * self.scale

    def sample(self, x, n, rng):
        mean, std = self._moments(x)
        return mean + std * rng.standard_normal((n, self.dim))

    def log_prob(self, x, theta):
        theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
        mean, std = self._moments(x)
        z = (theta - mean) / std
        return np.sum(-0.5 * z * z - 0.5 * math.log(2 * math.pi) - np.log(std), axis=1)


def mixture_log_density(log_w, mu, log_std, y):
    """log sum_k w_k prod_d N(y_d; mu_kd, exp(log_std_kd)), one component at a
    time with scipy: log-weights (n, K), means and log-stds (n, K, D) and
    targets (n, D), whose rows broadcast -> (n,)."""
    comps = [log_w[:, k] + stats.norm.logpdf(y, mu[:, k], np.exp(log_std[:, k])).sum(axis=1)
             for k in range(log_w.shape[1])]
    return special.logsumexp(np.stack(comps, axis=1), axis=1)


def reference_sweep(state):
    """One update of every coordinate on every chain of a slice-sampler
    state, as the sampler's sweep was first written: every step-out and
    shrink round gathers the still-active chains from full-length index
    arrays, and every target value that is NaN becomes -inf. Takes the
    place of ``samplers._SliceState.sweep`` in the tests that compare it
    with the sampler's own."""

    def eval_coord(idx, coord, values):
        probe = state.x[idx]
        probe[:, coord] = values
        state.n_evals += idx.size
        logf = np.asarray(state.log_target(probe), dtype=np.float64)
        return np.where(np.isnan(logf), -np.inf, logf)

    n, d = state.x.shape
    for j in range(d):
        w = state.widths[j]
        level = state.logf + np.log(state.rng.uniform(size=n))
        u = state.rng.uniform(size=n)
        left = state.x[:, j] - u * w
        right = left + w

        capped = np.zeros(n, dtype=bool)
        for end, step in ((left, -w), (right, w)):
            grow = np.arange(n)
            for _ in range(_MAX_STEPOUTS):
                if grow.size == 0:
                    break
                lf = eval_coord(grow, j, end[grow])
                still = lf > level[grow]
                end[grow[still]] += step
                grow = grow[still]
            capped[grow] = True
        state.stepout_capped += int(capped.sum())

        active = np.arange(n)
        for _ in range(_MAX_SHRINK):
            if active.size == 0:
                break
            prop = left[active] + state.rng.uniform(size=active.size) * (
                right[active] - left[active])
            lf = eval_coord(active, j, prop)
            state.chain_proposed[active] += 1
            acc = lf > level[active]
            hit = active[acc]
            state.x[hit, j] = prop[acc]
            state.logf[hit] = lf[acc]
            state.chain_accepted[hit] += 1
            rej = active[~acc]
            pr = prop[~acc]
            lower = pr < state.x[rej, j]
            left[rej[lower]] = pr[lower]
            right[rej[~lower]] = pr[~lower]
            active = rej
        state.shrink_capped += active.size


def ball_throw_likelihood(x_o, angles_deg, launch_speed=12.5, gravity=9.81,
                          tailwind_std=1.0, noise_std=0.25, wind_nodes=2001,
                          wind_span=8.0):
    """p(x_o | angle) by trapezoid quadrature over the tailwind, with the
    measurement noise handled analytically."""
    rad = np.deg2rad(np.asarray(angles_deg, dtype=np.float64))
    winds = np.linspace(-wind_span * tailwind_std, wind_span * tailwind_std, wind_nodes)
    vx = launch_speed * np.cos(rad)[:, None] + winds[None, :]
    flight = 2.0 * launch_speed * np.sin(rad)[:, None] / gravity
    dist = vx * flight
    meas = np.exp(-0.5 * ((x_o - dist) / noise_std) ** 2) / (noise_std * math.sqrt(2 * math.pi))
    wind_pdf = np.exp(-0.5 * (winds / tailwind_std) ** 2) / (tailwind_std * math.sqrt(2 * math.pi))
    return np.trapezoid(meas * wind_pdf[None, :], winds, axis=1)


def ball_throw_angle_posterior(x_o, n_angle=1801, prior_loc=45.0, prior_scale=25.0,
                               **kwargs):
    """Normalized posterior density over the throwing angle on a grid."""
    from scipy import stats

    angles = np.linspace(0.0, 90.0, n_angle)
    lik = ball_throw_likelihood(x_o, angles, **kwargs)
    prior = stats.norm.pdf(angles, prior_loc, prior_scale)
    post = lik * prior
    post /= np.trapezoid(post, angles)
    return angles, post


def grid_modes(grid, density, min_height_frac=0.05):
    """Local maxima of a 1-D density on a grid, tallest first."""
    interior = (density[1:-1] > density[:-2]) & (density[1:-1] > density[2:])
    idx = np.where(interior)[0] + 1
    idx = idx[density[idx] >= min_height_frac * density.max()]
    return grid[idx[np.argsort(-density[idx])]]


def grid_sample(grid, density, n, rng):
    """Inverse-CDF sampling from a 1-D grid density."""
    cdf = np.cumsum(density)
    cdf /= cdf[-1]
    u = rng.uniform(size=n)
    return np.interp(u, cdf, grid)


def ddm_reference(drift, boundary, start_bias, nondecision, collapse,
                  n_trials, dt, seed, max_time=10.0):
    """Lockstep-vectorized first-passage simulation for all trials at once.

    Independent of the library's per-trial block integrator; used to freeze
    reference choice probabilities and mean reaction times at a fine step.
    """
    rng = np.random.default_rng(seed)
    z = np.full(n_trials, start_bias * boundary)
    alive = np.ones(n_trials, dtype=bool)
    choice = np.zeros(n_trials, dtype=np.int64)
    rt = np.full(n_trials, nondecision + max_time)
    sqdt = math.sqrt(dt)
    n_steps = int(round(max_time / dt))
    half = 0.5 * boundary
    for step in range(1, n_steps + 1):
        n_alive = int(alive.sum())
        if n_alive == 0:
            break
        z[alive] += drift * dt + sqdt * rng.standard_normal(n_alive)
        bound = half * math.exp(collapse * step * dt)
        hit = alive & (np.abs(z) >= bound)
        if hit.any():
            choice[hit] = (z[hit] > 0).astype(np.int64)
            rt[hit] = nondecision + step * dt
            alive &= ~hit
    censored = alive
    choice[censored] = (z[censored] > 0).astype(np.int64)
    return float(choice.mean()), float(rt.mean()), int(censored.sum())


# -zeta(1/2) / sqrt(2 pi): how far a barrier checked every dt sits, in effect,
# beyond the continuously monitored one, in units of sqrt(dt) (Broadie,
# Glasserman & Kou 1997, "A continuity correction for discrete barrier
# options", Math. Finance 7:325)
DISCRETE_BARRIER_SHIFT = 0.5826


def wiener_first_passage_density(t, upper, drift, boundary, start_bias, dt=0.0, n_terms=12):
    """Density of the decision time ``t`` (seconds) of a constant-bound DDM
    trial ending at the upper bound (``upper``) or the lower one.

    Unit-diffusion Wiener process with drift ``drift`` between bounds at
    +-boundary/2, from start_bias * boundary, as the library's DDM at
    collapse = 0. Each bound is moved out by DISCRETE_BARRIER_SHIFT *
    sqrt(dt), the continuity correction for Euler steps of length ``dt``.
    Navarro & Fuss 2009 (J. Math. Psych. 53:222) series for the lower
    bound, in normalized time u = t / a^2: the small-time series below
    u = 1 and the large-time series above it, each with ``n_terms`` terms on
    a side. The upper bound is the lower bound of the mirrored process.
    """
    shift = DISCRETE_BARRIER_SHIFT * math.sqrt(dt)
    a = boundary + 2.0 * shift
    w = ((0.5 + start_bias) * boundary + shift) / a   # start, from the lower bound
    v, w = (-drift, 1.0 - w) if upper else (drift, w)
    t = np.asarray(t, dtype=np.float64)
    u = t / (a * a)
    k = np.arange(1, n_terms + 1)[:, None]
    large = math.pi * np.sum(k * np.exp(-0.5 * (k * math.pi) ** 2 * u)
                             * np.sin(k * math.pi * w), axis=0)
    r = w + 2.0 * np.arange(-n_terms, n_terms + 1)[:, None]
    small_u = np.minimum(u, 1.0)
    small = (np.sum(r * np.exp(-r * r / (2.0 * small_u)), axis=0)
             / np.sqrt(2.0 * math.pi * small_u ** 3))
    f = np.where(u < 1.0, small, large)
    return f * np.exp(-v * a * w - 0.5 * v * v * t) / (a * a)


def wiener_upper_probability(drift, boundary, start_bias, dt=0.0):
    """Closed-form probability that the trial of
    ``wiener_first_passage_density`` ends at the upper bound."""
    shift = DISCRETE_BARRIER_SHIFT * math.sqrt(dt)
    a = boundary + 2.0 * shift
    z = (0.5 + start_bias) * boundary + shift
    if drift == 0.0:
        return z / a
    return math.expm1(-2.0 * drift * z) / math.expm1(-2.0 * drift * a)
