"""Stochastic simulators and batch dataset generation.

Built-ins: a ball-throw simulator (angle -> distance), an identity-plus-noise
linear Gaussian reference task with analytic posterior, and a drift-diffusion
model with collapsing boundaries emitting (choice, reaction time) trials.

``simulate_rows`` (given parameters) and ``generate_dataset`` (parameters
drawn from a prior, optionally filtered) run one row loop that derives an RNG
stream per (row, attempt) from the root seed and retries rows with invalid
output, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, prior_to_config
from .tableio import read_table, write_table


class SimulatorError(ValueError):
    pass


class SimulationBudgetError(RuntimeError):
    """Too many invalid simulations; the prior/simulator pair looks misspecified."""


class Simulator:
    """Maps a parameter vector and an RNG stream to one output vector.

    Subclasses set name/theta_dim/x_dim and implement
    ``raw_simulate``. An optional summary map is applied to the raw output;
    declared dimensions refer to the post-summary output. Simulators are
    pure functions of (theta, rng) and safe to call from multiple threads.
    """

    name: str = "simulator"
    theta_dim: int = 1
    x_dim: int = 1

    def __init__(self, summary=None):
        self.summary = summary

    def raw_simulate(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def simulate(self, theta, rng) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.theta_dim,):
            raise SimulatorError(
                f"{self.name}: parameter shape {theta.shape} != ({self.theta_dim},)"
            )
        x = np.asarray(self.raw_simulate(theta, rng), dtype=np.float64)
        if self.summary is not None:
            x = np.asarray(self.summary(x), dtype=np.float64)
        if x.shape != (self.x_dim,):
            raise SimulatorError(
                f"{self.name}: output shape {x.shape} != declared ({self.x_dim},)"
            )
        return x

    def row_flags(self, theta: np.ndarray, x: np.ndarray) -> dict:
        """Per-row metadata flags, recomputed from the stored row."""
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

    def __init__(self, config: BallThrowConfig | None = None, summary=None):
        super().__init__(summary=summary)
        self.config = config or BallThrowConfig()

    def noise_free_range(self, angle_deg):
        c = self.config
        rad = np.deg2rad(np.asarray(angle_deg, dtype=np.float64))
        return c.launch_speed ** 2 * np.sin(2.0 * rad) / c.gravity

    def range_given_wind(self, angle_deg, wind):
        c = self.config
        rad = np.deg2rad(np.asarray(angle_deg, dtype=np.float64))
        vx = c.launch_speed * np.cos(rad) + wind
        vy = c.launch_speed * np.sin(rad)
        return vx * (2.0 * vy / c.gravity)

    def raw_simulate(self, theta, rng):
        angle = theta[0]
        if not (0.0 <= angle <= 90.0):
            raise SimulatorError(f"ball_throw: angle {angle} outside [0, 90] degrees")
        c = self.config
        wind = c.tailwind_std * rng.standard_normal()
        distance = self.range_given_wind(angle, wind) + c.noise_std * rng.standard_normal()
        return np.array([distance])

    def default_prior(self):
        from .distributions import TruncatedNormal
        return TruncatedNormal(loc=45.0, scale=25.0, low=0.0, high=90.0)


class LinearGaussianSimulator(Simulator):
    """x = theta + isotropic Gaussian noise; conjugate reference task."""

    name = "linear_gaussian"

    def __init__(self, dim: int = 2, noise_std: float = 0.1, summary=None):
        super().__init__(summary=summary)
        if noise_std <= 0:
            raise SimulatorError("noise std must be positive")
        self.theta_dim = dim
        self.x_dim = dim
        self.noise_std = float(noise_std)

    def raw_simulate(self, theta, rng):
        return theta + self.noise_std * rng.standard_normal(theta.size)

    def default_prior(self):
        from .distributions import DiagGaussian
        return DiagGaussian(np.zeros(self.theta_dim), np.zeros(self.theta_dim))


@dataclass
class DDMParams:
    drift: float           # evidence accumulation rate
    boundary: float        # boundary separation at t = 0
    start_bias: float      # relative start point; offset from midpoint is start_bias * boundary
    nondecision: float     # seconds added outside the diffusion process
    collapse: float        # boundary collapse rate, negative means collapsing

    def validate(self):
        if self.boundary <= 0:
            raise SimulatorError("boundary separation must be positive")
        if self.nondecision <= 0:
            raise SimulatorError("non-decision time must be positive")
        if not (-0.5 < self.start_bias < 0.5):
            raise SimulatorError("start bias must lie strictly inside (-0.5, 0.5)")


# uniform prior ranges for (drift, boundary, start bias, non-decision, collapse)
DDM_PRIOR_LOW = np.array([-2.5, 0.25, -0.25, 0.05, -1.0])
DDM_PRIOR_HIGH = np.array([2.5, 1.0, 0.25, 0.95, -0.1])


class DDMSimulator(Simulator):
    """Drift-diffusion trial with symmetric exponentially collapsing bounds.

    Euler-Maruyama integration of dz = drift*dt + dW (unit diffusion) from
    z0 = start_bias * boundary until |z| >= (boundary/2) * exp(collapse * t).
    Output is (choice, reaction time); censored trials are cut at
    ``max_decision_time`` and flagged via ``row_flags``.
    """

    name = "ddm"
    theta_dim = 5
    x_dim = 2

    def __init__(self, dt: float = 1e-3, max_decision_time: float = 10.0, summary=None):
        super().__init__(summary=summary)
        self.dt = float(dt)
        self.max_decision_time = float(max_decision_time)

    def trial(self, params: DDMParams, rng) -> tuple[int, float, bool]:
        params.validate()
        dt = self.dt
        sqdt = math.sqrt(dt)
        n_total = int(round(self.max_decision_time / dt))
        z = params.start_bias * params.boundary
        half = 0.5 * params.boundary
        done = 0
        block = 1024
        while done < n_total:
            m = min(block, n_total - done)
            incr = params.drift * dt + sqdt * rng.standard_normal(m)
            path = z + np.cumsum(incr)
            times = (done + np.arange(1, m + 1)) * dt
            hit = np.abs(path) >= half * np.exp(params.collapse * times)
            if hit.any():
                i = int(np.argmax(hit))
                choice = 1 if path[i] > 0 else 0
                return choice, params.nondecision + float(times[i]), False
            z = float(path[-1])
            done += m
        if z == 0.0:
            choice = int(rng.integers(0, 2))
        else:
            choice = 1 if z > 0 else 0
        return choice, params.nondecision + self.max_decision_time, True

    def raw_simulate(self, theta, rng):
        params = DDMParams(*theta)
        choice, rt, _ = self.trial(params, rng)
        return np.array([float(choice), rt])

    def row_flags(self, theta, x):
        censored = x[1] >= theta[3] + self.max_decision_time - 1e-12
        return {"censored": bool(censored)}

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
        meta = dict(self.meta)
        meta["theta_dim"] = self.theta_dim
        meta["x_dim"] = self.x_dim
        cols = [f"theta_{i}" for i in range(self.theta_dim)] + [f"x_{j}" for j in range(self.x_dim)]
        write_table(path, np.hstack([self.theta, self.x]), cols, meta)

    @classmethod
    def load(cls, path) -> "Dataset":
        array, _cols, meta = read_table(path)
        if "theta_dim" not in meta:
            raise SimulatorError(f"{path}: table metadata has no 'theta_dim' field")
        td = int(meta["theta_dim"])
        return cls(array[:, :td], array[:, td:], meta)


def _attempt_rng(seed: int, row: int, attempt: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(row, attempt))
    return np.random.default_rng(ss)


def _run_rows(simulator: Simulator, n: int, seed: int, workers: int | None, propose,
              max_attempts: int, accept=None):
    """Fill rows 0..n-1, one contiguous chunk per worker thread (small
    batches run in the calling thread).

    Attempt ``a`` of row ``i`` draws from its own stream: ``propose(i, rng)``
    gives the parameters, the simulator runs on the same stream, and the
    attempt is kept when the output is finite and ``accept(theta, x)``, if
    given, holds. Returns (theta, x, attempts per row, failed rows).
    """
    theta = np.empty((n, simulator.theta_dim))
    x = np.empty((n, simulator.x_dim))
    attempts = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=bool)

    def fill(rows):
        for i in rows:
            for attempt in range(max_attempts):
                rng = _attempt_rng(seed, i, attempt)
                t = propose(i, rng)
                xi = simulator.simulate(t, rng)
                attempts[i] += 1
                ok = bool(np.all(np.isfinite(xi)))
                if ok and accept is not None:
                    ok = bool(accept(t, xi))
                if ok:
                    theta[i] = t
                    x[i] = xi
                    break
            else:
                failed[i] = True

    n_workers = 1 if workers is None else max(1, int(workers))
    if n_workers == 1 or n < 2 * n_workers:
        fill(range(n))
    else:
        chunks = np.array_split(np.arange(n), n_workers)
        with ThreadPoolExecutor(n_workers) as pool:
            list(pool.map(fill, chunks))
    return theta, x, attempts, failed


def simulate_rows(simulator: Simulator, thetas: np.ndarray, seed: int,
                  workers: int | None = None) -> np.ndarray:
    """Run the simulator once per given parameter row with per-row streams.

    Bit-identical for any worker count; rows with non-finite output are
    retried on fresh per-row streams a few times before erroring.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    _, x, _, failed = _run_rows(simulator, thetas.shape[0], seed, workers,
                                lambda i, rng: thetas[i], max_attempts=16)
    if failed.any():
        raise SimulationBudgetError(
            f"row {int(np.argmax(failed))}: simulator kept returning non-finite output"
        )
    return x


def generate_dataset(prior: Distribution, simulator: Simulator, n: int, seed: int,
                     validity_filter=None, workers: int | None = None,
                     max_attempts_per_row: int = 64) -> Dataset:
    """Draw parameters from the prior, simulate, and filter invalid rows.

    Invalid rows (non-finite outputs or filter rejections) are resampled
    with fresh per-row streams until valid; the discard count lands in the
    metadata. Aborts when more than half of all attempts are discarded.
    """
    if n < 1:
        raise SimulatorError("need n >= 1")
    theta, x, attempts, failed = _run_rows(
        simulator, n, seed, workers, lambda i, rng: prior.sample(rng, 1)[0],
        max_attempts_per_row, validity_filter)

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
    flag_counts: dict[str, int] = {}
    for i in range(n):
        for key, val in simulator.row_flags(theta[i], x[i]).items():
            if val:
                flag_counts[key] = flag_counts.get(key, 0) + 1
    if flag_counts:
        meta["flags"] = flag_counts
    return Dataset(theta, x, meta)
