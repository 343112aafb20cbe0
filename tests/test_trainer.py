import numpy as np
import pytest

from sbikit.estimators import ClassifierNet, ConditionalMDN, EstimatorConfig, NllTask
from sbikit.ndiff import ParamStore
from sbikit.simulators import Dataset
from sbikit.trainer import TrainConfig, TrainingError, fit, split


def toy_dataset(n=100, seed=0):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(n, 1))
    x = theta + 0.1 * rng.normal(size=(n, 1))
    return Dataset(theta, x)


class ScriptedModel:
    """Validation losses follow a script; parameters record the epoch.

    Geared to 20 train rows in batches of 5 plus one validation chunk:
    every fifth loss call is the end-of-epoch validation pass.
    """

    CYCLE = 5

    def __init__(self, schedule):
        self.schedule = schedule
        self.store = ParamStore()
        self.param = self.store.add("p", [0.0])
        self.epoch = -1
        self.calls = 0

    def train_value(self):
        return 1.0

    def loss(self, ops, theta, x):
        is_validation = self.calls % self.CYCLE == self.CYCLE - 1
        self.calls += 1
        if is_validation:
            self.epoch += 1
            self.param.data[:] = self.epoch
            value = self.schedule[min(self.epoch, len(self.schedule) - 1)]
        else:
            value = self.train_value()
        # a constant, so the parameter's gradient is zero on a Tape
        return ops.const(value)


class TestSplit:
    def test_90_10_split(self):
        tr, va = split(toy_dataset(100), 0.1, seed=0)
        assert len(tr) == 90 and len(va) == 10

    def test_same_seed_same_split(self):
        ds = toy_dataset(50)
        tr1, va1 = split(ds, 0.2, seed=3)
        tr2, va2 = split(ds, 0.2, seed=3)
        assert np.array_equal(tr1.theta, tr2.theta)
        assert np.array_equal(va1.x, va2.x)

    def test_union_recovers_original_rows_exactly(self):
        ds = toy_dataset(73)
        tr, va = split(ds, 0.15, seed=5)
        merged = np.vstack([tr.theta, va.theta])
        assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.theta, axis=0))
        assert len(tr) + len(va) == 73

    def test_too_few_validation_rows_rejected(self):
        with pytest.raises(ValueError, match="validation"):
            split(toy_dataset(12), 0.1, seed=0)

    def test_tiny_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            split(toy_dataset(8), 0.3, seed=0)


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 200
        assert cfg.learning_rate == 5e-4
        assert cfg.val_fraction == 0.1
        assert cfg.patience == 20
        assert cfg.max_epochs == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=0.7)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        for field, value in [("batch_size", 0), ("max_epochs", 0), ("learning_rate", -1.0),
                             ("learning_rate", 0.0), ("learning_rate", float("nan")),
                             ("learning_rate", float("inf"))]:
            with pytest.raises(ValueError, match=field):
                TrainConfig(**{field: value})


def test_plateau_stops_at_best_plus_patience_and_restores_best_weights():
    # validation loss improves through epoch 5, then flatlines
    schedule = [1.0 - 0.1 * e for e in range(6)] + [0.5] * 100
    model = ScriptedModel(schedule)
    cfg = TrainConfig(batch_size=5, val_fraction=0.2, patience=4, max_epochs=200, seed=0)
    report = fit(model, toy_dataset(25), cfg)
    assert report.best_epoch == 5
    assert report.stopped_early
    assert report.n_epochs == 5 + 4 + 1
    assert model.param.data[0] == 5.0


def test_fixed_seed_gives_bit_identical_reports_and_parameters():
    def run():
        est = ConditionalMDN(1, 1, EstimatorConfig(n_components=2, hidden=(8,)), seed=1)
        ds = toy_dataset(60, seed=2)
        est.initialize_standardization(ds.theta, ds.x)
        model = NllTask(est, theta_is_target=True)
        report = fit(model, ds, TrainConfig(batch_size=16, patience=3, max_epochs=12, seed=4))
        return report, est.store.values()

    r1, p1 = run()
    r2, p2 = run()
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses
    assert r1.content_digest() == r2.content_digest()
    for name in p1:
        assert np.array_equal(p1[name], p2[name])


def test_returned_model_has_min_validation_loss_exactly():
    est = ConditionalMDN(1, 1, EstimatorConfig(n_components=2, hidden=(8,)), seed=7)
    ds = toy_dataset(80, seed=8)
    est.initialize_standardization(ds.theta, ds.x)
    model = NllTask(est, theta_is_target=True)
    cfg = TrainConfig(batch_size=16, patience=5, max_epochs=30, seed=9)
    report = fit(model, ds, cfg)
    assert report.val_losses[report.best_epoch] == min(report.val_losses)
    from sbikit.trainer import _full_loss, split as _split
    _, va = _split(ds, cfg.val_fraction, cfg.seed)
    recomputed = _full_loss(model, va.theta, va.x)
    assert recomputed == report.val_losses[report.best_epoch]
    assert report.val_losses[report.best_epoch] <= report.val_losses[-1]


def test_training_reduces_loss_on_small_dataset():
    rng = np.random.default_rng(11)
    theta = rng.normal(size=(50, 1))
    x = 2.0 * theta
    ds = Dataset(theta, x)
    est = ConditionalMDN(1, 1, EstimatorConfig(n_components=3, hidden=(32, 32)), seed=12)
    est.initialize_standardization(ds.theta, ds.x)
    model = NllTask(est, theta_is_target=True)
    report = fit(model, ds, TrainConfig(batch_size=10, learning_rate=5e-3,
                                        patience=20, max_epochs=300, seed=13))
    best = report.train_losses[report.best_epoch]
    assert best <= 0.5 * report.train_losses[0] or (
        report.train_losses[0] < 0 and best < report.train_losses[0]
    )


def test_one_row_trailing_batch_joins_the_previous_batch():
    # 21 training rows in batches of 5 would leave a one-row batch, in which
    # NRE's cyclic shift pairs the row with its own theta as a class-0 pair
    clf = ClassifierNet(1, 1, hidden=(8,), seed=0)
    ds = toy_dataset(26)
    clf.initialize_standardization(ds.theta, ds.x)
    sizes = []

    class Spy:
        store = clf.store

        def loss(self, tape, theta, x):
            sizes.append(theta.shape[0])
            return clf.loss(tape, theta, x)

    report = fit(Spy(), ds, TrainConfig(batch_size=5, val_fraction=0.2, max_epochs=2, seed=0))
    assert sizes == [5, 5, 5, 6, 5] * 2   # four training batches, then validation
    assert np.all(np.isfinite(report.train_losses))


def test_nonfinite_loss_aborts_with_diagnostic_and_best_checkpoint():
    class Exploding(ScriptedModel):
        def train_value(self):
            return np.nan if self.epoch >= 2 else 1.0

    model = Exploding([1.0, 0.9, 0.8] + [0.8] * 50)
    with pytest.raises(TrainingError, match="non-finite") as err:
        fit(model, toy_dataset(25),
            TrainConfig(batch_size=5, val_fraction=0.2, patience=10, max_epochs=50, seed=0))
    assert err.value.report.aborted is not None
    assert model.param.data[0] == 2.0  # best epoch checkpoint restored
