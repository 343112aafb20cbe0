"""Analytic distributions used as priors and as mixture components.

All distributions are immutable after construction; RNG streams are
caller-owned. ``Distribution`` owns the density contract: ``log_prob`` and
``contains`` take a single point ``(d,)`` -> float or bool, or a batch
``(n, d)`` -> ``(n,)``. The support is the box ``[low, high]``: boundary
points count as inside, NaN coordinates as outside, and ``log_prob`` is
exactly ``-inf`` (never NaN) outside.
"""

from __future__ import annotations

import math

import numpy as np

from .ndiff import EVALUATOR, LOG_2PI, logsumexp

# scipy.special is imported only inside TruncatedNormal, which uses it: the
# import alone holds about 25 MB of resident memory, which no other route needs.

# TruncatedNormal intervals of smaller mass are sampled by inverse CDF, not rejection
_INVERSE_CDF_MASS = 0.1


class DistributionError(ValueError):
    pass


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, not a bool: the test
    every count argument of the package passes."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _normal_logpdf(z):
    return -0.5 * z * z - 0.5 * LOG_2PI


class Distribution:
    """A density with support ``[low, high]``. Subclasses set ``dim`` and
    the float vectors ``low`` and ``high`` (infinite where unbounded), and
    give ``sample`` and ``_log_density(arr)``: the log-density of the rows
    of a ``(n, dim)`` batch, broadcastable to ``(n,)``, which is read only
    at rows inside the support. A family whose support is always all of
    R^dim says so with ``_whole_space``; ``contains`` then reads no bound."""

    dim: int
    low: np.ndarray
    high: np.ndarray
    _whole_space = False

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def _log_density(self, arr: np.ndarray):
        raise NotImplementedError

    def _per_point(self, point, fn):
        """``fn`` on ``point`` as a batch; a single point gives a scalar."""
        arr = np.asarray(point, dtype=np.float64)
        single = arr.ndim == 1
        batch = arr[None, :] if single else arr
        if batch.ndim != 2 or batch.shape[1] != self.dim:
            raise DistributionError(
                f"point dimension {batch.shape} does not match distribution dim {self.dim}"
            )
        out = fn(batch)
        return out[0].item() if single else out

    def _inside(self, arr):
        # along the rows of a transposed copy: over a short trailing axis numpy
        # runs one tiny loop per row. On the whole space only NaN is outside
        cols = arr.T.copy()
        if self._whole_space:
            return ~np.isnan(cols).any(axis=0)
        return ((cols >= self.low[:, None]) & (cols <= self.high[:, None])).all(axis=0)

    def log_prob(self, point):
        return self._per_point(
            point, lambda arr: np.where(self._inside(arr), self._log_density(arr), -np.inf))

    def contains(self, point):
        return self._per_point(point, self._inside)

    def mean(self) -> np.ndarray:
        raise NotImplementedError

    def std(self) -> np.ndarray:
        raise NotImplementedError


class BoxUniform(Distribution):
    def __init__(self, lower, upper):
        self.low = np.atleast_1d(np.asarray(lower, dtype=np.float64))
        self.high = np.atleast_1d(np.asarray(upper, dtype=np.float64))
        if self.low.shape != self.high.shape or self.low.ndim != 1:
            raise DistributionError("lower and upper must be vectors of equal length")
        if not np.all(self.low < self.high):
            raise DistributionError(
                f"need lower < upper per dimension, got {self.low} and {self.high}"
            )
        self.dim = self.low.size
        self._span = self.high - self.low
        self._log_volume = float(np.sum(np.log(self._span)))

    def sample(self, rng, n):
        # the arithmetic of rng.uniform(lower, upper), without its broadcasting
        return self.low + self._span * rng.random((n, self.dim))

    def _log_density(self, arr):
        return -self._log_volume

    def mean(self):
        return 0.5 * (self.low + self.high)

    def std(self):
        return (self.high - self.low) / math.sqrt(12.0)


class DiagGaussian(Distribution):
    _whole_space = True

    def __init__(self, mean, log_std):
        self._mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        self._log_std = np.atleast_1d(np.asarray(log_std, dtype=np.float64))
        if self._mean.shape != self._log_std.shape or self._mean.ndim != 1:
            raise DistributionError("mean and log_std must be vectors of equal length")
        self.dim = self._mean.size
        self.low = np.full(self.dim, -np.inf)
        self.high = np.full(self.dim, np.inf)

    def sample(self, rng, n):
        return self._mean + np.exp(self._log_std) * rng.standard_normal((n, self.dim))

    def _log_density(self, arr):
        z = (arr - self._mean) * np.exp(-self._log_std)
        return np.sum(_normal_logpdf(z) - self._log_std, axis=1)

    def mean(self):
        return self._mean.copy()

    def std(self):
        return np.exp(self._log_std)


class TruncatedNormal(Distribution):
    """Scalar normal restricted to [low, high]: rejection-sampled, or by
    inverse CDF when the interval's mass is below ``_INVERSE_CDF_MASS``."""

    def __init__(self, loc, scale, low, high):
        if not (low < high):
            raise DistributionError(f"need low < high, got {low} >= {high}")
        if scale <= 0:
            raise DistributionError(f"scale must be positive, got {scale}")
        self.loc = float(loc)
        self.scale = float(scale)
        self.low = np.array([float(low)])
        self.high = np.array([float(high)])
        self.dim = 1
        a = (float(low) - self.loc) / self.scale
        b = (float(high) - self.loc) / self.scale
        from scipy import special
        self._mass = float(special.ndtr(b) - special.ndtr(a))
        if self._mass <= 0:
            raise DistributionError("truncation interval carries no mass")
        self._log_mass = math.log(self._mass)
        phi_a = math.exp(_normal_logpdf(a))
        phi_b = math.exp(_normal_logpdf(b))
        delta = (phi_a - phi_b) / self._mass
        self._mean_val = self.loc + self.scale * delta
        var = 1.0 + (a * phi_a - b * phi_b) / self._mass - delta ** 2
        self._std_val = self.scale * math.sqrt(var)

    def sample(self, rng, n):
        if self._mass < _INVERSE_CDF_MASS:
            return self._sample_inverse_cdf(rng, n)[:, None]
        out = np.empty(n)
        filled = 0
        while filled < n:
            draw = self.loc + self.scale * rng.standard_normal(max(n - filled, 16))
            keep = draw[(draw >= self.low[0]) & (draw <= self.high[0])]
            take = min(keep.size, n - filled)
            out[filled:filled + take] = keep[:take]
            filled += take
        return out[:, None]

    def _sample_inverse_cdf(self, rng, n):
        # mirror the interval so its bulk lies in the lower tail, where
        # log_ndtr and ndtri_exp keep full relative precision
        a = (self.low[0] - self.loc) / self.scale
        b = (self.high[0] - self.loc) / self.scale
        sign = -1.0 if a + b > 0 else 1.0
        lo, hi = sorted((sign * a, sign * b))
        from scipy import special
        log_hi = special.log_ndtr(hi)
        r = math.exp(special.log_ndtr(lo) - log_hi)   # Phi(lo) / Phi(hi)
        # log(Phi(lo) + u * (Phi(hi) - Phi(lo))) for u ~ U(0, 1)
        z = special.ndtri_exp(log_hi + np.log(r + rng.uniform(size=n) * (1.0 - r)))
        return np.clip(self.loc + self.scale * sign * z, self.low[0], self.high[0])

    def _log_density(self, arr):
        z = (arr[:, 0] - self.loc) / self.scale
        return _normal_logpdf(z) - math.log(self.scale) - self._log_mass

    def mean(self):
        return np.array([self._mean_val])

    def std(self):
        return np.array([self._std_val])


class MixtureDiagGaussian(Distribution):
    """Mixture of diagonal Gaussians with log-softmax-normalized weights."""

    _whole_space = True

    def __init__(self, log_weights, means, log_stds):
        log_weights = np.atleast_1d(np.asarray(log_weights, dtype=np.float64))
        self.means = np.atleast_2d(np.asarray(means, dtype=np.float64))
        self.log_stds = np.atleast_2d(np.asarray(log_stds, dtype=np.float64))
        if self.means.shape != self.log_stds.shape:
            raise DistributionError("means and log_stds must have equal shape")
        if log_weights.size != self.means.shape[0]:
            raise DistributionError("one log-weight per component required")
        # normalize so exp(log_weights) sums to one
        self.log_weights = log_weights - logsumexp(log_weights, axis=0)
        self.n_components = log_weights.size
        self.dim = self.means.shape[1]
        self.low = np.full(self.dim, -np.inf)
        self.high = np.full(self.dim, np.inf)

    def sample(self, rng, n):
        comp = rng.choice(self.n_components, size=n, p=np.exp(self.log_weights))
        eps = rng.standard_normal((n, self.dim))
        return self.means[comp] + np.exp(self.log_stds[comp]) * eps

    def _log_density(self, arr):
        # one mixture row, broadcast over the points
        return EVALUATOR.mixture_log_prob(self.log_weights[None], self.means.reshape(1, -1),
                                          self.log_stds.reshape(1, -1), arr)[:, 0]

    def mean(self):
        w = np.exp(self.log_weights)
        return w @ self.means

    def std(self):
        w = np.exp(self.log_weights)
        second = w @ (np.exp(2.0 * self.log_stds) + self.means ** 2)
        return np.sqrt(second - self.mean() ** 2)


_PRIOR_KINDS = {
    "box_uniform": BoxUniform,
    "diag_gaussian": DiagGaussian,
    "truncated_normal": TruncatedNormal,
    "mixture_diag_gaussian": MixtureDiagGaussian,
}


def prior_from_config(config: dict) -> Distribution:
    """Build a distribution from its config record, e.g.
    ``{"kind": "box_uniform", "lower": [...], "upper": [...]}``."""
    spec = dict(config)
    kind = spec.pop("kind", None)
    if kind not in _PRIOR_KINDS:
        raise DistributionError(
            f"unknown prior kind {kind!r}; expected one of {sorted(_PRIOR_KINDS)}"
        )
    try:
        return _PRIOR_KINDS[kind](**spec)
    except TypeError as exc:
        raise DistributionError(f"bad fields for prior kind {kind!r}: {exc}") from exc


def prior_to_config(dist: Distribution) -> dict:
    if isinstance(dist, BoxUniform):
        return {"kind": "box_uniform", "lower": dist.low.tolist(), "upper": dist.high.tolist()}
    if isinstance(dist, DiagGaussian):
        return {"kind": "diag_gaussian", "mean": dist._mean.tolist(), "log_std": dist._log_std.tolist()}
    if isinstance(dist, TruncatedNormal):
        return {"kind": "truncated_normal", "loc": dist.loc, "scale": dist.scale,
                "low": float(dist.low[0]), "high": float(dist.high[0])}
    if isinstance(dist, MixtureDiagGaussian):
        return {"kind": "mixture_diag_gaussian", "log_weights": dist.log_weights.tolist(),
                "means": dist.means.tolist(), "log_stds": dist.log_stds.tolist()}
    raise DistributionError(f"no config encoding for {type(dist).__name__}")
