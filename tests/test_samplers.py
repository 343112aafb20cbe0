import numpy as np

from sbikit.distributions import DiagGaussian
from sbikit.samplers import _MAX_SHRINK, SamplerConfig, slice_sample
from sbikit.tableio import read_table

CHAINS, DIM, SWEEPS = 3, 2, 3
CONFIG = dict(chains=CHAINS, warmup=SWEEPS - 1, thin=1, init="prior")


class PointPrior:
    """Prior stand-in whose draws all sit at the origin."""

    dim = DIM

    def sample(self, rng, n):
        return np.zeros((n, self.dim))

    def std(self):
        return np.ones(self.dim)


def test_flat_target_counts_every_update_as_stepout_capped(tmp_path):
    prior = DiagGaussian(np.zeros(DIM), np.zeros(DIM))
    config = SamplerConfig(max_stepouts=1, **CONFIG)
    draws, diag = slice_sample(lambda x: np.zeros(len(x)), prior, config,
                               np.random.default_rng(0), CHAINS)
    updates = CHAINS * DIM * SWEEPS
    assert draws.shape == (CHAINS, DIM)
    assert diag.n_stepout_capped == updates
    assert diag.n_shrink_capped == 0
    # per update: one left and one right step-out, one accepted proposal
    assert diag.n_target_evals == CHAINS + 3 * updates
    diag.save(tmp_path / "diag.csv")
    _, _, meta = read_table(tmp_path / "diag.csv")
    assert meta["n_stepout_capped"] == updates
    assert meta["n_shrink_capped"] == 0


def test_target_finite_only_at_current_point_counts_shrink_caps(tmp_path):
    def spike(x):
        return np.where(np.all(x == 0.0, axis=1), 0.0, -np.inf)

    draws, diag = slice_sample(spike, PointPrior(), SamplerConfig(**CONFIG),
                               np.random.default_rng(0), CHAINS)
    updates = CHAINS * DIM * SWEEPS
    assert np.all(draws == 0.0)
    assert diag.n_shrink_capped == updates
    assert diag.n_stepout_capped == 0
    # per update: both first step-outs fail, then every shrink round rejects
    assert diag.n_target_evals == CHAINS + (2 + _MAX_SHRINK) * updates
    diag.save(tmp_path / "diag.csv")
    _, _, meta = read_table(tmp_path / "diag.csv")
    assert meta["n_shrink_capped"] == updates
    assert meta["n_stepout_capped"] == 0
