"""Dataset splitting, minibatch training, early stopping, checkpointing.

``fit`` drives any model exposing ``store`` (a ParamStore) and
``loss(ops, theta, x)``, a scalar array computed on a Tape for training
steps and on ``ndiff.EVALUATOR`` for the validation loss. The model is
left holding the parameters of the epoch with minimal validation loss.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import is_integer
from .ndiff import EVALUATOR, NonFiniteGradientError, Tape
from .simulators import Dataset

_VAL_CHUNK = 4096
MIN_ROWS = 10   # the fewest rows ``split`` accepts


class TrainingError(RuntimeError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class TrainConfig:
    batch_size: int = 200
    learning_rate: float = 5e-4
    val_fraction: float = 0.1
    patience: int = 20
    max_epochs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.val_fraction < 0.5):
            raise TrainingError(f"validation fraction must be in (0, 0.5), got {self.val_fraction}")
        for name in ("batch_size", "patience", "max_epochs"):
            value = getattr(self, name)
            if not is_integer(value) or value < 1:
                raise TrainingError(f"{name} must be an integer >= 1, got {value!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainingError(f"learning_rate must be finite and positive, got {self.learning_rate}")


@dataclass
class TrainReport:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False
    aborted: str | None = None
    # sha256 of the restored parameters, recorded by ``fit``
    params_sha256: str = field(default="", init=False)

    @property
    def best_val_loss(self) -> float:
        return min(self.val_losses) if self.val_losses else float("nan")

    @property
    def n_epochs(self) -> int:
        return len(self.val_losses)

    def content_digest(self) -> str:
        """Digest of the loss trajectory, the stopping outcome and the
        parameters ``fit`` left the model holding."""
        h = hashlib.sha256()
        h.update(np.asarray(self.train_losses).tobytes())
        h.update(np.asarray(self.val_losses).tobytes())
        h.update(f"{self.best_epoch}|{self.stopped_early}|{self.params_sha256}".encode())
        return h.hexdigest()


def split(dataset: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split into disjoint, exhaustive train/validation sets."""
    n = len(dataset)
    if n < MIN_ROWS:
        raise TrainingError(f"need at least {MIN_ROWS} rows to split, got {n}")
    n_val = int(round(n * val_fraction))
    if n_val < 2:
        raise TrainingError(f"validation fraction {val_fraction} leaves {n_val} rows; need >= 2")
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[n_val:]), dataset.subset(perm[:n_val])


def _full_loss(model, theta: np.ndarray, x: np.ndarray) -> float:
    """Row-weighted mean loss over fixed-size chunks (deterministic)."""
    n = theta.shape[0]
    total = 0.0
    for start in range(0, n, _VAL_CHUNK):
        stop = min(start + _VAL_CHUNK, n)
        loss = model.loss(EVALUATOR, theta[start:stop], x[start:stop])
        total += float(loss) * (stop - start)
    return total / n


def fit(model, dataset: Dataset, config: TrainConfig | None = None) -> TrainReport:
    """Minibatch Adam with epoch-level early stopping on the validation loss.

    Stops once the validation loss has not improved for ``patience``
    consecutive epochs and restores the parameters of the best epoch.
    A non-finite loss or gradient aborts training: the best finite
    checkpoint is restored and a TrainingError carrying the report raised.
    """
    config = config or TrainConfig()
    train_set, val_set = split(dataset, config.val_fraction, config.seed)
    theta_tr, x_tr = train_set.theta, train_set.x
    theta_va, x_va = val_set.theta, val_set.x

    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(1,)))
    report = TrainReport()
    store = model.store
    best_values = store.values()
    best_val = float("inf")
    epochs_since_best = 0

    def restore_best():
        store.load(best_values)
        report.params_sha256 = hashlib.sha256(store.flat.tobytes()).hexdigest()

    def abort(message):
        restore_best()
        report.aborted = message
        raise TrainingError(message, report=report)

    n_train = theta_tr.shape[0]
    starts = list(range(0, n_train, config.batch_size))
    if len(starts) > 1 and n_train - starts[-1] == 1:
        # a lone trailing row joins the previous batch: NRE pairs each row
        # with the next row's theta, which a one-row batch cannot do
        starts.pop()
    stops = starts[1:] + [n_train]
    for epoch in range(config.max_epochs):
        perm = rng.permutation(n_train)
        epoch_loss = 0.0
        for start, stop in zip(starts, stops):
            idx = perm[start:stop]
            tape = Tape()
            loss = model.loss(tape, theta_tr[idx], x_tr[idx])
            value = float(loss)
            if not np.isfinite(value):
                abort(f"non-finite training loss at epoch {epoch}")
            grads = tape.backward(loss)
            try:
                store.adam_step(grads, lr=config.learning_rate)
            except NonFiniteGradientError as exc:
                abort(f"epoch {epoch}: {exc}")
            epoch_loss += value * idx.size
        report.train_losses.append(epoch_loss / n_train)

        val_loss = _full_loss(model, theta_va, x_va)
        if not np.isfinite(val_loss):
            abort(f"non-finite validation loss at epoch {epoch}")
        report.val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_values = store.values()
            report.best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                report.stopped_early = True
                break

    restore_best()
    return report
