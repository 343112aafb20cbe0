import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats

from sbikit.distributions import BoxUniform, DiagGaussian, prior_to_config
from sbikit.simulators import (
    BallThrowConfig,
    BallThrowSimulator,
    DDMSimulator,
    Dataset,
    LinearGaussianSimulator,
    SimulationBudgetError,
    Simulator,
    SimulatorError,
    generate_dataset,
    simulate_rows,
)

from .oracles import conjugate_posterior, wiener_first_passage_density, wiener_upper_probability


class TestBallThrow:
    def test_noise_free_range_peaks_at_45_degrees(self):
        sim = BallThrowSimulator()
        angles = np.linspace(0, 90, 9001)
        ranges = sim.range_given_wind(angles, 0.0)
        assert angles[np.argmax(ranges)] == pytest.approx(45.0, abs=0.02)

    def test_range_value_at_45_degrees(self):
        sim = BallThrowSimulator()
        assert sim.range_given_wind(45.0, 0.0) == pytest.approx(12.5 ** 2 / 9.81, abs=1e-9)

    def test_zero_angle_output_is_pure_measurement_noise(self):
        sim = BallThrowSimulator()
        draws = np.array([sim.simulate(np.array([0.0]), np.random.default_rng(i))[0]
                          for i in range(2000)])
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - sim.config.noise_std) < 0.02

    def test_repeated_calls_differ(self):
        sim = BallThrowSimulator()
        rng = np.random.default_rng(0)
        a = sim.simulate(np.array([45.0]), rng)
        b = sim.simulate(np.array([45.0]), rng)
        assert a[0] != b[0]

    def test_angle_outside_range_rejected(self):
        sim = BallThrowSimulator()
        rng = np.random.default_rng(0)
        with pytest.raises(SimulatorError, match="outside"):
            sim.simulate(np.array([-5.0]), rng)
        with pytest.raises(SimulatorError, match="outside"):
            sim.simulate(np.array([95.0]), rng)

    def test_config_validation(self):
        with pytest.raises(SimulatorError):
            BallThrowConfig(launch_speed=-1.0)
        with pytest.raises(SimulatorError):
            BallThrowConfig(noise_std=-0.1)


class TestLinearGaussian:
    def test_tiny_noise_limit_returns_theta(self):
        sim = LinearGaussianSimulator(dim=3, noise_std=1e-12)
        theta = np.array([1.0, -2.0, 0.5])
        x = sim.simulate(theta, np.random.default_rng(0))
        np.testing.assert_allclose(x, theta, atol=1e-10)

    def test_empirical_noise_std(self):
        sim = LinearGaussianSimulator(dim=1, noise_std=0.4)
        rng = np.random.default_rng(1)
        resid = np.array([sim.simulate(np.array([2.0]), rng)[0] - 2.0
                          for _ in range(100_000)])
        assert abs(resid.std() - 0.4) / 0.4 < 0.02

    def test_conjugate_formula_verified_by_grid_quadrature(self):
        # posterior for x_o under prior N(0,1), noise 0.1: quadrature on a
        # theta grid must match mean x_o/(1+s^2), std s/sqrt(1+s^2)
        sigma = 0.1
        x_o = 0.37
        grid = np.linspace(-1, 2, 200_001)
        log_post = stats.norm.logpdf(grid) + stats.norm.logpdf(x_o, grid, sigma)
        post = np.exp(log_post - log_post.max())
        post /= np.trapezoid(post, grid)
        mean_q = np.trapezoid(grid * post, grid)
        std_q = np.sqrt(np.trapezoid((grid - mean_q) ** 2 * post, grid))
        assert mean_q == pytest.approx(x_o / (1 + sigma ** 2), abs=1e-6)
        assert std_q == pytest.approx(sigma / np.sqrt(1 + sigma ** 2), abs=1e-6)
        mean_o, std_o = conjugate_posterior([0.0], [1.0], sigma, [[x_o]])
        assert mean_o[0] == pytest.approx(mean_q, abs=1e-9)
        assert std_o[0] == pytest.approx(std_q, abs=1e-6)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(SimulatorError):
            LinearGaussianSimulator(dim=1, noise_std=0.0)


def trials(sim, theta, n, rng):
    """n trials of one parameter row, all drawn from one generator."""
    return sim.simulate_batch(np.tile(theta, (n, 1)), [rng] * n)


class TestDDM:
    def test_extreme_drift_forces_choice_one(self):
        outcomes = trials(DDMSimulator(), [50.0, 0.8, 0.0, 0.3, -0.5], 3000,
                          np.random.default_rng(0))[:, 0]
        assert np.mean(outcomes) > 0.999

    def test_symmetric_case_is_fair(self):
        outcomes = trials(DDMSimulator(), [0.0, 0.8, 0.0, 0.3, -1e-9], 10_000,
                          np.random.default_rng(1))[:, 0]
        p = outcomes.mean()
        # 4 sigma binomial band around 0.5 at n = 10^4
        assert abs(p - 0.5) < 4 * 0.5 / 100

    def test_rt_strictly_exceeds_nondecision_time(self):
        sim = DDMSimulator()
        rng = np.random.default_rng(2)
        thetas = sim.default_prior().sample(rng, 300)
        x = sim.simulate_batch(thetas, [rng] * 300)
        assert np.all(x[:, 1] > thetas[:, 3])

    def test_production_step_matches_fine_step_oracle(self):
        # reference from 10^6 lockstep trials at dt = 1e-4 (tests/oracles.py,
        # ddm_reference(1.0, 0.8, 0.0, 0.3, -0.5, 1_000_000, 1e-4, 20240801))
        ref_p1, ref_rt = 0.681937, 0.437944
        sim = DDMSimulator()  # production dt = 1e-3
        x = trials(sim, [1.0, 0.8, 0.0, 0.3, -0.5], 200_000, np.random.default_rng(99))
        assert abs(x[:, 0].mean() - ref_p1) < 0.01
        assert abs(x[:, 1].mean() - ref_rt) < 0.01

    @pytest.mark.parametrize("drift, boundary, start_bias",
                             [(1.0, 0.8, 0.0), (-0.5, 1.2, 0.1), (2.0, 0.6, -0.15)])
    def test_constant_bounds_follow_the_exact_first_passage_density(self, drift, boundary,
                                                                     start_bias):
        sim = DDMSimulator()
        n, dt, nondecision = 30_000, sim.dt, 0.3
        x = trials(sim, [drift, boundary, start_bias, nondecision, 0.0], n,
                   np.random.default_rng(17))
        step = np.rint((x[:, 1] - nondecision) / dt).astype(np.int64)
        # the oracle's mass of a hit at step k is its density over ((k-1) dt, k dt]
        k = np.arange(1, int(round(sim.max_decision_time / dt)) + 1)
        p_upper = wiener_upper_probability(drift, boundary, start_bias, dt)
        upper = x[:, 0] == 1.0
        assert abs(upper.mean() - p_upper) < 4 * math.sqrt(p_upper * (1 - p_upper) / n)
        observed, expected = [], []
        for side, p_side in ((True, p_upper), (False, 1.0 - p_upper)):
            mass = wiener_first_passage_density((k - 0.5) * dt, side, drift, boundary,
                                                start_bias, dt) * dt
            assert mass.sum() == pytest.approx(p_side, abs=1e-6)
            hits = step[upper == side]
            mean_steps = np.sum(k * mass) / p_side
            assert abs(hits.mean() - mean_steps) < 4 * hits.std() / math.sqrt(hits.size)
            # ten bins of equal oracle mass per side, edges on the step lattice
            cdf = np.cumsum(mass)
            edges = np.concatenate([[0], np.searchsorted(cdf, p_side * np.arange(1, 10) / 10),
                                    [k[-1]]])
            observed.append(np.histogram(hits, bins=edges + 0.5)[0])
            expected.append(n * np.add.reduceat(mass, edges[:-1]))
        observed, expected = np.concatenate(observed), np.concatenate(expected)
        chi2 = np.sum((observed - expected) ** 2 / expected)
        assert stats.chi2.sf(chi2, observed.size - 1) > 1e-3

    def test_censoring_never_hangs_and_is_flagged(self):
        sim = DDMSimulator(max_decision_time=0.05)
        theta = np.array([0.0, 1.0, 0.0, 0.3, -0.1])
        x = trials(sim, theta, 50, np.random.default_rng(3))
        assert np.all(x[:, 1] <= theta[3] + 0.05 + 1e-12)
        censored = sim.row_flags(np.tile(theta, (len(x), 1)), x)["censored"]
        assert censored.shape == (50,) and censored.dtype == bool
        assert censored.any()
        # a censored trial ends exactly at the cut, with a definite choice
        cut = x[censored]
        assert np.all(cut[:, 1] == theta[3] + 0.05)
        assert set(cut[:, 0]) <= {0.0, 1.0}

    def test_one_row_call_is_the_same_trial_as_in_a_batch(self):
        sim = DDMSimulator()
        thetas = sim.default_prior().sample(np.random.default_rng(4), 40)
        batch = sim.simulate_batch(thetas, [np.random.default_rng(i) for i in range(40)])
        one = [sim.simulate(t, np.random.default_rng(i)) for i, t in enumerate(thetas)]
        np.testing.assert_array_equal(batch, one)

    def test_invalid_row_in_a_batch_is_rejected(self):
        sim = DDMSimulator()
        thetas = np.tile([0.0, 1.0, 0.0, 0.3, -0.5], (5, 1))
        thetas[3, 2] = 0.7
        with pytest.raises(SimulatorError, match="start bias"):
            sim.simulate_batch(thetas, [np.random.default_rng(0)] * 5)

    def test_parameter_validation(self):
        sim = DDMSimulator()
        rng = np.random.default_rng(0)
        with pytest.raises(SimulatorError, match="boundary"):
            sim.simulate(np.array([0.0, -1.0, 0.0, 0.3, -0.5]), rng)
        with pytest.raises(SimulatorError, match="start bias"):
            sim.simulate(np.array([0.0, 1.0, 0.7, 0.3, -0.5]), rng)
        with pytest.raises(SimulatorError, match="non-decision"):
            sim.simulate(np.array([0.0, 1.0, 0.0, -0.1, -0.5]), rng)


class TestGenerateDataset:
    def test_digest_deterministic(self):
        sim = BallThrowSimulator()
        prior = sim.default_prior()
        ds1 = generate_dataset(prior, sim, 1000, seed=42)
        ds_again = generate_dataset(prior, BallThrowSimulator(), 1000, seed=42)
        assert ds1.digest() == ds_again.digest()
        ds_other = generate_dataset(prior, BallThrowSimulator(), 1000, seed=43)
        assert ds1.digest() != ds_other.digest()

    def test_nan_filter_discard_fraction(self):
        class Leaky(LinearGaussianSimulator):
            def raw_simulate_batch(self, thetas, rngs):
                x = super().raw_simulate_batch(thetas, rngs)
                x[thetas[:, 0] > 0.9] = np.nan
                return x

        sim = Leaky(dim=1, noise_std=0.1)
        prior = BoxUniform([0.0], [1.0])
        ds = generate_dataset(prior, sim, 4000, seed=7)
        total = ds.meta["discards"] + ds.meta["n"]
        assert ds.meta["discards"] / total == pytest.approx(0.1, abs=0.02)
        assert np.all(ds.theta[:, 0] <= 0.9)
        assert np.all(np.isfinite(ds.x))

    def test_single_row(self):
        sim = BallThrowSimulator()
        ds = generate_dataset(sim.default_prior(), sim, 1, seed=0)
        assert len(ds) == 1

    def test_validity_filter_applied(self):
        sim = LinearGaussianSimulator(dim=1, noise_std=0.1)
        prior = BoxUniform([0.0], [1.0])
        ds = generate_dataset(prior, sim, 500, seed=1,
                              validity_filter=lambda t, x: x[0] > 0.2)
        assert np.all(ds.x[:, 0] > 0.2)

    def test_high_discard_rate_aborts_with_misspecification_warning(self):
        class Broken(LinearGaussianSimulator):
            def raw_simulate_batch(self, thetas, rngs):
                return np.full((thetas.shape[0], 1), np.nan)

        sim = Broken(dim=1, noise_std=0.1)
        with pytest.raises(SimulationBudgetError, match="misspecified"):
            generate_dataset(DiagGaussian([0.0], [0.0]), sim, 50, seed=0)

    def test_censored_trials_flagged_in_metadata(self):
        sim = DDMSimulator(max_decision_time=0.02)
        ds = generate_dataset(sim.default_prior(), sim, 50, seed=5)
        assert ds.meta.get("flags", {}).get("censored", 0) > 0

    def test_call_counter_tracks_simulations(self):
        calls = []

        class Counted(LinearGaussianSimulator):
            def raw_simulate_batch(self, thetas, rngs):
                calls.extend(thetas)
                return super().raw_simulate_batch(thetas, rngs)

        ds = generate_dataset(DiagGaussian([0.0], [0.0]), Counted(dim=1, noise_std=0.1), 200,
                              seed=3, validity_filter=lambda t, x: x[0] > -1.0)
        assert ds.meta["discards"] > 0
        # the metadata's attempt count is the number of rows simulated
        assert len(calls) == ds.meta["n"] + ds.meta["discards"]


class TestSimulateRows:
    MARK = 5.0   # theta value of the rows the flaky simulator fails on

    class Flaky(LinearGaussianSimulator):
        """Non-finite output on its first ``bad_calls`` rows at theta = MARK."""

        def __init__(self, bad_calls):
            super().__init__(dim=1, noise_std=0.1)
            self.bad_calls = bad_calls

        def raw_simulate_batch(self, thetas, rngs):
            x = super().raw_simulate_batch(thetas, rngs)
            for i in np.flatnonzero(thetas[:, 0] == TestSimulateRows.MARK):
                if self.bad_calls > 0:
                    self.bad_calls -= 1
                    x[i] = np.nan
            return x

    def test_non_finite_row_is_retried_on_its_next_stream(self):
        thetas = np.linspace(0.0, 1.0, 10)[:, None]
        thetas[4] = self.MARK
        clean = simulate_rows(LinearGaussianSimulator(dim=1, noise_std=0.1), thetas, seed=3)
        sim = self.Flaky(bad_calls=3)
        got = simulate_rows(sim, thetas, seed=3)
        assert sim.bad_calls == 0   # row 4 was simulated four times
        keep = np.arange(10) != 4
        np.testing.assert_array_equal(got[keep], clean[keep])
        # the fourth attempt of row 4 draws from stream (seed, row 4, attempt 3)
        rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(4, 3)))
        assert got[4, 0] == self.MARK + 0.1 * rng.standard_normal(1)[0]

    def test_row_that_never_turns_finite_is_named(self):
        thetas = np.linspace(0.0, 1.0, 10)[:, None]
        thetas[[3, 7]] = self.MARK
        with pytest.raises(SimulationBudgetError, match="^row 3: "):
            simulate_rows(self.Flaky(bad_calls=np.inf), thetas, seed=0)


def test_builtin_simulators_emit_only_finite_values_over_prior_draws():
    checks = [
        (BallThrowSimulator(), 1_000_000),
        (LinearGaussianSimulator(dim=2, noise_std=0.1), 1_000_000),
        (DDMSimulator(), 300_000),
    ]
    for sim, n in checks:
        rng = np.random.default_rng(123)
        thetas = sim.default_prior().sample(rng, n)
        x = sim.simulate_batch(thetas, [rng] * n)
        bad = int(np.sum(~np.all(np.isfinite(x), axis=1)))
        assert bad == 0, f"{sim.name} emitted {bad} non-finite outputs"


class OneStream:
    """A generator under another name: rows given one each share its
    stream, but are not the same object, so no bulk draw serves them."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("sim", [BallThrowSimulator(), DDMSimulator(),
                                 LinearGaussianSimulator(dim=2, noise_std=0.1)],
                         ids=lambda sim: sim.name)
def test_rows_that_share_one_generator_draw_in_bulk_what_they_draw_row_by_row(sim):
    n = 300
    thetas = sim.default_prior().sample(np.random.default_rng(5), n)
    bulk = sim.simulate_batch(thetas, [np.random.default_rng(9)] * n)
    shared = np.random.default_rng(9)
    by_row = sim.simulate_batch(thetas, [OneStream(shared) for _ in range(n)])
    np.testing.assert_array_equal(bulk, by_row)


class Shifted(Simulator):
    """A per-row simulator: it implements only ``raw_simulate``."""

    name = "shifted"
    x_dim = 2

    def raw_simulate(self, theta, rng):
        return np.array([theta[0], theta[0] + rng.standard_normal()])


def test_per_row_simulator_runs_through_the_base_batch_loop():
    thetas = np.arange(6.0)[:, None]
    got = simulate_rows(Shifted(), thetas, seed=9)
    for i, t in enumerate(thetas[:, 0]):
        rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(i, 0)))
        assert got[i].tolist() == [t, t + rng.standard_normal()]


@pytest.mark.parametrize("seed", [1.7, "5", -1, None, True, np.float64(2.0)])
def test_a_seed_that_is_not_an_integer_at_least_zero_raises_naming_it(seed):
    sim = LinearGaussianSimulator(dim=1, noise_std=0.1)
    for run in (lambda: generate_dataset(sim.default_prior(), sim, 5, seed),
                lambda: simulate_rows(sim, np.zeros((3, 1)), seed)):
        with pytest.raises(SimulatorError, match=f"got {re.escape(repr(seed))}$"):
            run()


def test_a_numpy_integer_seed_gives_the_rows_of_the_same_int():
    sim = DDMSimulator()
    ds, ds_np = (generate_dataset(sim.default_prior(), sim, 50, s) for s in (3, np.int64(3)))
    np.testing.assert_array_equal(ds_np.theta, ds.theta)
    np.testing.assert_array_equal(ds_np.x, ds.x)
    assert ds_np.meta == ds.meta
    thetas = ds.theta[:7]
    np.testing.assert_array_equal(simulate_rows(sim, thetas, np.int64(3)),
                                  simulate_rows(sim, thetas, 3))


def sha16(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


class TestStreamContract:
    """Outputs pinned when each row was still simulated alone: row i's
    attempt a draws its parameters and its simulation from stream
    (seed, i, a), so batching rows must not move a bit of any output."""

    DATASETS = {
        # case: (simulator, rows, seed, validity filter, digest prefix, discards, flags)
        "ddm": (DDMSimulator, 600, 2024, None, "36d2ea74f206f451", 0, None),
        "ddm_filtered": (DDMSimulator, 600, 2024, lambda t, x: x[1] < 1.0,
                         "072bd94c69128311", 40, None),
        "ddm_censored": (lambda: DDMSimulator(max_decision_time=0.02), 300, 5, None,
                         "893d755e8bc42207", 0, {"censored": 261}),
        "ball": (BallThrowSimulator, 2000, 11, None, "ab2b1ebb02331234", 0, None),
        "ball_filtered": (BallThrowSimulator, 2000, 11, lambda t, x: x[0] > 8.0,
                          "896a49d84da228d9", 437, None),
        "linear_gaussian_filtered": (lambda: LinearGaussianSimulator(dim=2, noise_std=0.1),
                                     2000, 5, lambda t, x: x[0] > -0.5,
                                     "88a18f1c480455e3", 905, None),
    }

    # workers is ignored; both values must give the same pinned output.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(DATASETS))
    def test_generate_dataset_digest_and_meta(self, case, workers):
        make, n, seed, keep, digest, discards, flags = self.DATASETS[case]
        sim = make()
        prior = (DiagGaussian(np.zeros(2), np.zeros(2)) if sim.name == "linear_gaussian"
                 else sim.default_prior())
        ds = generate_dataset(prior, sim, n, seed, validity_filter=keep, workers=workers)
        assert ds.digest()[:16] == digest
        expected = {"simulator": sim.name, "prior": prior_to_config(prior), "seed": seed,
                    "n": n, "discards": discards}
        if flags:
            expected["flags"] = flags
        assert ds.meta == expected

    def test_ddm_simulate_rows(self):
        sim = DDMSimulator()
        thetas = sim.default_prior().sample(np.random.default_rng(17), 200)
        assert sha16(simulate_rows(sim, thetas, seed=17)) == "c02940ed75570a52"

    def test_censored_ddm_rows(self):
        thetas = np.tile([0.0, 1.0, 0.0, 0.3, -0.1], (4, 1))
        got = simulate_rows(DDMSimulator(max_decision_time=0.02), thetas, seed=8)
        assert got.tolist() == [[0.0, 0.32], [0.0, 0.32], [1.0, 0.32], [0.0, 0.32]]
        # below half a step no step is taken, so an unbiased start is still at
        # z == 0 and the choice comes from the row's stream
        got = simulate_rows(DDMSimulator(max_decision_time=1e-4), thetas, seed=8)
        assert got.tolist() == [[1.0, 0.3001], [0.0, 0.3001], [1.0, 0.3001], [0.0, 0.3001]]


class TestDatasetIO:
    def test_save_load_roundtrip_is_exact(self, tmp_path):
        sim = BallThrowSimulator()
        ds = generate_dataset(sim.default_prior(), sim, 200, seed=11)
        path = tmp_path / "data.csv"
        ds.save(path)
        loaded = Dataset.load(path)
        assert np.array_equal(loaded.theta, ds.theta)
        assert np.array_equal(loaded.x, ds.x)
        assert loaded.meta["simulator"] == "ball_throw"
        assert loaded.meta["seed"] == 11

    def test_load_without_theta_dim_names_path_and_field(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("# sbikit-table 1\n# meta: {}\na,b\n0,0\n0,0\n0,0\n")
        with pytest.raises(SimulatorError, match=r"bare\.csv.*'theta_dim'"):
            Dataset.load(path)

    def test_saved_file_is_the_pinned_text(self, tmp_path):
        ds = Dataset([[0.1, -2.0], [1e-300, 3.0]], [[1.0 / 3.0], [-0.0]], {"seed": 7})
        ds.save(tmp_path / "two.csv")
        assert (tmp_path / "two.csv").read_bytes() == (
            b"# sbikit-table 1\n"
            b'# meta: {"seed": 7, "theta_dim": 2, "x_dim": 1}\n'
            b"theta_0,theta_1,x_0\n"
            b"0.10000000000000001,-2,0.33333333333333331\n"
            b"1e-300,3,-0\n")

    def test_signed_zero_infinities_and_nan_round_trip_exactly(self, tmp_path):
        ds = Dataset([[-0.0, np.inf], [np.nan, 5e-324]], [[-np.inf], [0.1]])
        ds.save(tmp_path / "special.csv")
        loaded = Dataset.load(tmp_path / "special.csv")
        assert loaded.digest() == ds.digest()

    @pytest.mark.parametrize("rows", [0, 1])
    def test_short_datasets_round_trip_without_warning(self, tmp_path, rows):
        ds = Dataset(np.arange(rows * 5.0).reshape(rows, 5), np.ones((rows, 2)))
        ds.save(tmp_path / "short.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = Dataset.load(tmp_path / "short.csv")
        assert loaded.theta.shape == (rows, 5) and loaded.x.shape == (rows, 2)
        assert loaded.digest() == ds.digest()

    @pytest.mark.parametrize("body, message", [
        ("1,2,3,4,5,6,7\n", r"7 columns, but the metadata declares theta_dim 5 \+ x_dim 3"),
        ("1,2,3,4,5,6,7,8\n1,2,3,4,5,6,7\n", "number of columns changed"),
        ("1,2,3,4,5,6,abc,8\n", "could not convert string 'abc'"),
    ], ids=["column_count", "ragged", "not_numeric"])
    def test_file_that_disagrees_with_its_metadata_names_path(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text('# sbikit-table 1\n# meta: {"theta_dim": 5, "x_dim": 3}\n'
                        "theta_0,theta_1,theta_2,theta_3,theta_4,x_0,x_1,x_2\n" + body)
        with pytest.raises(SimulatorError, match=rf"bad\.csv: .*{message}"):
            Dataset.load(path)

    def test_malformed_metadata_line_names_path(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text('# sbikit-table 1\n# meta: {"theta_dim": 5,\nx_0\n1\n')
        with pytest.raises(SimulatorError, match=r"meta\.csv: bad metadata line"):
            Dataset.load(path)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(SimulatorError, match="row mismatch"):
            Dataset(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_concat_and_subset(self):
        a = Dataset(np.ones((3, 2)), np.zeros((3, 1)))
        b = Dataset(2 * np.ones((2, 2)), np.ones((2, 1)))
        c = a.concat(b)
        assert len(c) == 5
        assert len(c.subset(np.array([0, 4]))) == 2


@pytest.mark.parametrize("make", [BallThrowSimulator, LinearGaussianSimulator, DDMSimulator,
                                  Shifted], ids=lambda make: make.name)
def test_zero_row_batch_gives_zero_rows(make):
    sim = make()
    x = sim.simulate_batch(np.empty((0, sim.theta_dim)), [])
    assert x.shape == (0, sim.x_dim)


def test_output_must_have_the_declared_columns():
    class Misdeclared(Simulator):
        name = "misdeclared"
        theta_dim = 2
        x_dim = 3

        def raw_simulate_batch(self, thetas, rngs):
            return thetas.copy()

    with pytest.raises(SimulatorError,
                       match=r"misdeclared: output shape \(2,\) != declared \(3,\)"):
        Misdeclared().simulate(np.array([1.0, 2.0]), np.random.default_rng(0))
