"""Stochastic simulators and batch dataset generation.

Built-ins: a ball-throw simulator (angle -> distance), an identity-plus-noise
linear Gaussian reference task with analytic posterior, and a drift-diffusion
model with collapsing boundaries emitting (choice, reaction time) trials.

Simulators run rows in batches: ``Simulator.simulate_batch(thetas, rngs)``
takes one ``Generator`` per row and each row draws only from its own
generator, so a row's output depends on its parameters and its stream, not on
which other rows share the batch. ``simulate(theta, rng)`` is a one-row
batch.

``simulate_rows`` (given parameters) and ``generate_dataset`` (parameters
drawn from a prior, optionally filtered) run one row loop that derives an RNG
stream per (row, attempt) from the root seed, draws each row's parameters on
it, simulates a block of rows in one batch call, and retries the rows with
invalid output as a batch on their next attempt's streams. Rows run in the
calling thread, and results are bit-identical for a fixed seed.

``Dataset.save``/``Dataset.load`` store a dataset as delimited text: a magic
line, a ``# meta: `` line holding the JSON metadata record (with
``theta_dim`` and ``x_dim``), one header row naming the columns, then one
comma-separated row per simulation, decimal with 17 significant digits so
doubles (``-0``, ``inf``, ``nan`` too) round-trip exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, prior_to_config


# attempts per prior-drawn row in generate_dataset before the row fails
_MAX_ATTEMPTS_PER_ROW = 64
# rows whose streams the row loop builds and simulates in one batch call
_ROW_BLOCK = 128
# first line of a saved dataset, and the prefix of its metadata line
_TABLE_MAGIC = "# sbikit-table 1"
_TABLE_META = "# meta: "


def _normals(rngs, m: int) -> np.ndarray:
    """(rows, m) standard normals, row i drawn from ``rngs[i]``; rows that
    share one generator draw from it in row order, in one call if all do."""
    if rngs and all(rng is rngs[0] for rng in rngs):
        return rngs[0].standard_normal((len(rngs), m))
    out = np.empty((len(rngs), m))
    for rng, row in zip(rngs, out):
        rng.standard_normal(out=row)
    return out


class SimulatorError(ValueError):
    pass


class SimulationBudgetError(RuntimeError):
    """Too many invalid simulations; the prior/simulator pair looks misspecified."""


class Simulator:
    """Maps parameter rows and one RNG stream per row to output rows.

    Subclasses set name/theta_dim/x_dim and implement one of two hooks:
    ``raw_simulate(theta, rng)`` for one row, or
    ``raw_simulate_batch(thetas, rngs)`` for a block of rows, where
    ``rngs[i]`` is row i's ``Generator``. The base batch hook loops over
    ``raw_simulate``, so a per-row simulator works unchanged; the built-ins
    implement only the batch hook.

    Contract of the batch hook: row i draws only from ``rngs[i]``, and
    draws from it in the order one call on that row alone would. Rows may
    share a generator (``[rng] * n``); they then draw from it one after
    another, so a batch is a valid sample, but not necessarily the one a
    loop of one-row calls would give. Any float reduction over a row's steps keeps
    a fixed association that does not depend on the batch size (the DDM
    restarts its partial sum at every ``_DDM_BLOCK`` steps), so a row's
    output is the same bits in any batch.

    A hand-written summary statistic belongs in the batch hook; the output
    must have the declared ``x_dim`` columns.

    ``row_flags(thetas, xs)`` takes a block of parameter rows and their
    outputs and returns ``{name: (rows,) bool array}``, recomputed from the
    stored rows alone; ``generate_dataset`` counts the set rows of each
    flag into ``meta["flags"]``.
    """

    name: str = "simulator"
    theta_dim: int = 1
    x_dim: int = 1

    def raw_simulate(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def raw_simulate_batch(self, thetas: np.ndarray, rngs) -> np.ndarray:
        rows = [self.raw_simulate(theta, rng) for theta, rng in zip(thetas, rngs)]
        return np.array(rows, dtype=np.float64) if rows else np.empty((0, self.x_dim))

    def simulate_batch(self, thetas, rngs) -> np.ndarray:
        """Simulate each parameter row on its own generator ``rngs[i]``."""
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim != 2 or thetas.shape[1] != self.theta_dim:
            raise SimulatorError(
                f"{self.name}: parameter shape {thetas.shape} != (rows, {self.theta_dim})"
            )
        if len(rngs) != thetas.shape[0]:
            raise SimulatorError(
                f"{self.name}: {len(rngs)} generators for {thetas.shape[0]} parameter rows"
            )
        x = np.asarray(self.raw_simulate_batch(thetas, rngs), dtype=np.float64)
        if x.shape[1:] != (self.x_dim,):
            raise SimulatorError(
                f"{self.name}: output shape {x.shape[1:]} != declared ({self.x_dim},)"
            )
        return x

    def simulate(self, theta, rng) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.theta_dim,):
            raise SimulatorError(
                f"{self.name}: parameter shape {theta.shape} != ({self.theta_dim},)"
            )
        return self.simulate_batch(theta[None, :], [rng])[0]

    def row_flags(self, thetas: np.ndarray, xs: np.ndarray) -> dict:
        return {}

    def default_prior(self) -> Distribution:
        raise NotImplementedError(f"{self.name} declares no default prior")


@dataclass
class BallThrowConfig:
    launch_speed: float = 12.5   # m/s, fixed throwing force
    gravity: float = 9.81        # m/s^2
    tailwind_std: float = 1.0    # m/s, added to the horizontal velocity
    noise_std: float = 0.25      # m, measurement noise on the distance

    def __post_init__(self):
        if self.launch_speed <= 0:
            raise SimulatorError("launch speed must be positive")
        if self.tailwind_std < 0 or self.noise_std < 0:
            raise SimulatorError("noise stds must be nonnegative")


class BallThrowSimulator(Simulator):
    """Distance reached by a ball thrown at a given angle.

    Projectile range with the tailwind perturbing the horizontal velocity:
    x = (v cos(angle) + wind) * (2 v sin(angle) / g) + measurement noise.
    The noise-free range peaks near 16 m at 45 degrees, so an observed
    13 m is reachable from a low and a high angle (bimodal posterior).
    """

    name = "ball_throw"
    theta_dim = 1
    x_dim = 1

    def __init__(self, config: BallThrowConfig | None = None):
        self.config = config or BallThrowConfig()

    def range_given_wind(self, angle_deg, wind):
        c = self.config
        rad = np.deg2rad(np.asarray(angle_deg, dtype=np.float64))
        vx = c.launch_speed * np.cos(rad) + wind
        vy = c.launch_speed * np.sin(rad)
        return vx * (2.0 * vy / c.gravity)

    def raw_simulate_batch(self, thetas, rngs):
        angle = thetas[:, 0]
        outside = ~((angle >= 0.0) & (angle <= 90.0))
        if outside.any():
            raise SimulatorError(
                f"ball_throw: angle {angle[np.argmax(outside)]} outside [0, 90] degrees")
        c = self.config
        noise = _normals(rngs, 2)   # per row: tailwind, then measurement noise
        wind = c.tailwind_std * noise[:, 0]
        distance = self.range_given_wind(angle, wind) + c.noise_std * noise[:, 1]
        return distance[:, None]

    def default_prior(self):
        from .distributions import TruncatedNormal
        return TruncatedNormal(loc=45.0, scale=25.0, low=0.0, high=90.0)


class LinearGaussianSimulator(Simulator):
    """x = theta + isotropic Gaussian noise; conjugate reference task."""

    name = "linear_gaussian"

    def __init__(self, dim: int = 2, noise_std: float = 0.1):
        if noise_std <= 0:
            raise SimulatorError("noise std must be positive")
        self.theta_dim = dim
        self.x_dim = dim
        self.noise_std = float(noise_std)

    def raw_simulate_batch(self, thetas, rngs):
        return thetas + self.noise_std * _normals(rngs, self.theta_dim)

    def default_prior(self):
        from .distributions import DiagGaussian
        return DiagGaussian(np.zeros(self.theta_dim), np.zeros(self.theta_dim))


# uniform prior ranges for (drift, boundary, start bias, non-decision, collapse)
DDM_PRIOR_LOW = np.array([-2.5, 0.25, -0.25, 0.05, -1.0])
DDM_PRIOR_HIGH = np.array([2.5, 1.0, 0.25, 0.95, -0.1])

# Euler steps per block: a trial's partial sum restarts at every block, so
# this fixes the float association of each path and must not change
_DDM_BLOCK = 1024
# steps of the first sub-chunk of a block; each later sub-chunk doubles, so
# a trial that ends early draws few of its block's steps
_DDM_FIRST_CHUNK = 64
# trials integrated in lockstep, which bounds the working set of a call
_DDM_ROWS = 64


class DDMSimulator(Simulator):
    """Drift-diffusion trial with symmetric exponentially collapsing bounds.

    Parameters are (drift, boundary, start_bias, nondecision, collapse):
    the evidence accumulation rate, the boundary separation at t = 0, the
    start point's offset from the midpoint in units of the boundary, the
    seconds added outside the diffusion process, and the boundary collapse
    rate (negative means collapsing).

    Euler-Maruyama integration of dz = drift*dt + dW (unit diffusion) from
    z0 = start_bias * boundary until |z| >= (boundary/2) * exp(collapse * t).
    Output is (choice, reaction time); censored trials are cut at
    ``max_decision_time`` and flagged via ``row_flags``.
    """

    name = "ddm"
    theta_dim = 5
    x_dim = 2

    def __init__(self, dt: float = 1e-3, max_decision_time: float = 10.0):
        self.dt = float(dt)
        self.max_decision_time = float(max_decision_time)

    def raw_simulate_batch(self, thetas, rngs):
        x = np.empty((thetas.shape[0], 2))
        for lo in range(0, thetas.shape[0], _DDM_ROWS):
            hi = lo + _DDM_ROWS
            x[lo:hi] = self._lockstep(thetas[lo:hi], rngs[lo:hi])
        return x

    def _lockstep(self, thetas, rngs):
        """Integrate a block of trials together. Row i draws its steps'
        normals from ``rngs[i]`` in step order and stops drawing once it hits."""
        drift, boundary, start_bias, nondecision, collapse = thetas.T
        for invalid, message in (
                (boundary <= 0, "boundary separation must be positive"),
                (nondecision <= 0, "non-decision time must be positive"),
                (~((-0.5 < start_bias) & (start_bias < 0.5)),
                 "start bias must lie strictly inside (-0.5, 0.5)")):
            if invalid.any():
                raise SimulatorError(f"ddm: {message}")
        dt = self.dt
        sqdt = math.sqrt(dt)
        n_total = int(round(self.max_decision_time / dt))
        step = drift * dt
        half = 0.5 * boundary
        z = start_bias * boundary
        x = np.empty((thetas.shape[0], 2))
        live = np.arange(thetas.shape[0])   # trials that have not hit a bound
        done = 0
        while done < n_total and live.size:
            m = min(_DDM_BLOCK, n_total - done)
            partial = None   # each live trial's sum of its block's increments so far
            pos, width = 0, _DDM_FIRST_CHUNK
            while pos < m and live.size:
                w = min(width, m - pos)
                # in place: sqrt(dt) * normal + drift * dt gives the same
                # floats as drift * dt + sqrt(dt) * normal
                path = _normals([rngs[i] for i in live], w)
                path *= sqdt
                path += step[live, None]
                if partial is not None:
                    path[:, 0] += partial
                np.cumsum(path, axis=1, out=path)
                partial = path[:, -1].copy()
                path += z[live, None]
                times = (done + np.arange(pos + 1, pos + w + 1)) * dt
                bound = collapse[live, None] * times
                np.exp(bound, out=bound)
                bound *= half[live, None]
                hit = np.abs(path) >= bound
                ended = hit.any(axis=1)
                if ended.any():
                    rows = np.flatnonzero(ended)
                    first = np.argmax(hit[rows], axis=1)
                    x[live[rows], 0] = path[rows, first] > 0
                    x[live[rows], 1] = nondecision[live[rows]] + times[first]
                    live, partial = live[~ended], partial[~ended]
                pos += w
                width *= 2
            z[live] = z[live] + partial
            done += m
        # censored trials: the choice is the side of the last position
        x[live, 0] = z[live] > 0
        for i in live[z[live] == 0.0]:
            x[i, 0] = rngs[i].integers(0, 2)
        x[live, 1] = nondecision[live] + self.max_decision_time
        return x

    def row_flags(self, thetas, xs):
        return {"censored": xs[:, 1] >= thetas[:, 3] + self.max_decision_time - 1e-12}

    def default_prior(self):
        from .distributions import BoxUniform
        return BoxUniform(DDM_PRIOR_LOW, DDM_PRIOR_HIGH)


@dataclass
class Dataset:
    """Paired parameter and simulation-output matrices, the training currency."""

    theta: np.ndarray
    x: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.theta = np.atleast_2d(np.asarray(self.theta, dtype=np.float64))
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        if self.theta.shape[0] != self.x.shape[0]:
            raise SimulatorError(
                f"row mismatch: {self.theta.shape[0]} parameters vs {self.x.shape[0]} outputs"
            )

    def __len__(self):
        return self.theta.shape[0]

    @property
    def theta_dim(self):
        return self.theta.shape[1]

    @property
    def x_dim(self):
        return self.x.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.theta[idx], self.x[idx], dict(self.meta))

    def concat(self, other: "Dataset") -> "Dataset":
        if other.theta_dim != self.theta_dim or other.x_dim != self.x_dim:
            raise SimulatorError("cannot concatenate datasets with different dims")
        return Dataset(
            np.vstack([self.theta, other.theta]),
            np.vstack([self.x, other.x]),
            dict(self.meta),
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.theta).tobytes())
        h.update(np.ascontiguousarray(self.x).tobytes())
        return h.hexdigest()

    def save(self, path) -> None:
        meta = dict(self.meta, theta_dim=self.theta_dim, x_dim=self.x_dim)
        cols = [f"theta_{i}" for i in range(self.theta_dim)] + [f"x_{j}" for j in range(self.x_dim)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{_TABLE_MAGIC}\n{_TABLE_META}{json.dumps(meta, sort_keys=True)}\n"
                     f"{','.join(cols)}\n")
            np.savetxt(fh, np.hstack([self.theta, self.x]), fmt="%.17g", delimiter=",")

    @classmethod
    def load(cls, path) -> "Dataset":
        with open(path, "r", encoding="utf-8") as fh:
            magic = fh.readline().rstrip("\n")
            if magic != _TABLE_MAGIC:
                raise SimulatorError(f"{path}: not a sbikit table (got {magic!r})")
            line = fh.readline()
            try:
                meta = json.loads(line[len(_TABLE_META):]) if line.startswith(_TABLE_META) else {}
            except ValueError as exc:
                raise SimulatorError(f"{path}: bad metadata line: {exc}") from exc
            for key in ("theta_dim", "x_dim"):
                if key not in meta:
                    raise SimulatorError(f"{path}: table metadata has no {key!r} field")
            td, xd = int(meta["theta_dim"]), int(meta["x_dim"])
            fh.readline()   # the header row names the columns
            start = fh.tell()
            if not fh.readline():   # no data rows, where loadtxt would warn
                array = np.empty((0, td + xd))
            else:
                fh.seek(start)
                try:
                    array = np.loadtxt(fh, delimiter=",", ndmin=2)
                except ValueError as exc:
                    raise SimulatorError(f"{path}: {exc}") from exc
        if array.shape[1] != td + xd:
            raise SimulatorError(f"{path}: {array.shape[1]} columns, but the metadata "
                                 f"declares theta_dim {td} + x_dim {xd}")
        return cls(array[:, :td], array[:, td:], meta)


def _attempt_rng(seed: int, row: int, attempt: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(row, attempt))
    return np.random.default_rng(ss)


def _run_rows(simulator: Simulator, n: int, seed: int, propose, max_attempts: int,
              accept=None):
    """Fill rows 0..n-1 in blocks of ``_ROW_BLOCK`` rows, one batch call per
    block and attempt.

    Attempt ``a`` of row ``i`` draws from its own stream: ``propose(rows,
    rngs)`` gives the parameters of each row on its stream, the simulator
    runs each row on the same stream, and the attempt is kept when the
    output is finite and ``accept(theta, x)``, if given, holds. The rows of
    a block that fail attempt ``a`` run again as one batch on attempt
    ``a + 1``. Returns (theta, x, attempts per row, failed rows). The seed
    must be an integer >= 0; anything else raises before any row runs.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise SimulatorError(f"seed must be an integer >= 0, got {seed!r}")
    theta = np.empty((n, simulator.theta_dim))
    x = np.empty((n, simulator.x_dim))
    attempts = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=bool)
    for lo in range(0, n, _ROW_BLOCK):
        pending = np.arange(lo, min(lo + _ROW_BLOCK, n))
        for attempt in range(max_attempts):
            if not pending.size:
                break
            rngs = [_attempt_rng(seed, i, attempt) for i in pending]
            t = propose(pending, rngs)
            xs = simulator.simulate_batch(t, rngs)
            attempts[pending] += 1
            ok = np.all(np.isfinite(xs), axis=1)
            if accept is not None:
                ok = np.array([bool(o and accept(ti, xi)) for o, ti, xi in zip(ok, t, xs)])
            theta[pending[ok]] = t[ok]
            x[pending[ok]] = xs[ok]
            pending = pending[~ok]
        failed[pending] = True
    return theta, x, attempts, failed


def simulate_rows(simulator: Simulator, thetas: np.ndarray, seed: int) -> np.ndarray:
    """Run the simulator once per given parameter row with per-row streams.

    Rows with non-finite output are retried on fresh per-row streams a few
    times before erroring.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    _, x, _, failed = _run_rows(simulator, thetas.shape[0], seed,
                                lambda rows, rngs: thetas[rows], max_attempts=16)
    if failed.any():
        raise SimulationBudgetError(
            f"row {int(np.argmax(failed))}: simulator kept returning non-finite output"
        )
    return x


def generate_dataset(prior: Distribution, simulator: Simulator, n: int, seed: int,
                     validity_filter=None, workers: int | None = None) -> Dataset:
    """Draw parameters from the prior, simulate, and filter invalid rows.

    Invalid rows (non-finite outputs or filter rejections) are resampled
    with fresh per-row streams until valid; the discard count lands in the
    metadata. Aborts when more than half of all attempts are discarded.

    ``workers`` is ignored: every row runs in the calling thread. The
    keyword stays only until the benchmark's ddm_bank workload stops
    passing it, and is then deleted (ROADMAP item 1).
    """
    if n < 1:
        raise SimulatorError("need n >= 1")
    theta, x, attempts, failed = _run_rows(
        simulator, n, seed,
        lambda rows, rngs: np.array([prior.sample(rng, 1)[0] for rng in rngs]),
        _MAX_ATTEMPTS_PER_ROW, validity_filter)

    total_attempts = int(attempts.sum())
    discards = total_attempts - n + int(failed.sum())
    if failed.any() or discards > 0.5 * total_attempts:
        raise SimulationBudgetError(
            f"discarded {discards} of {total_attempts} simulation attempts; "
            "the prior/simulator pair looks misspecified"
        )

    meta = {
        "simulator": simulator.name,
        "prior": prior_to_config(prior),
        "seed": int(seed),
        "n": int(n),
        "discards": int(discards),
    }
    flags = {key: int(hit.sum()) for key, hit in simulator.row_flags(theta, x).items()
             if hit.any()}
    if flags:
        meta["flags"] = flags
    return Dataset(theta, x, meta)
