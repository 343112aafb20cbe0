"""Minimal reverse-mode autodiff over dense float64 arrays.

Every trainable model in this package is a small MLP stack, so the engine
favors explicit shapes and a flat replay tape over graph optimization.
A fresh tape is built for each forward pass; ``Tape.backward`` replays the
recorded primitives in exact reverse order and accumulates adjoints.
``EVALUATOR`` runs the same primitives on bare arrays without recording,
for forward passes that need no gradients.
"""

from __future__ import annotations

import operator

import numpy as np

# softplus(x) = x for x above this threshold, avoiding exp overflow
_SOFTPLUS_CUTOFF = 33.0
# Adam moment decay rates and denominator guard (Kingma & Ba's defaults)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class NdiffError(ValueError):
    """Shape mismatch or invalid tape operation."""


class NonFiniteGradientError(RuntimeError):
    """A gradient turned non-finite during an optimizer step."""


class Tensor:
    """Dense float64 array produced by or fed into tape primitives."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Gradients:
    """Adjoint arrays keyed by the tensors they belong to."""

    def __init__(self, table):
        self._table = table

    def __getitem__(self, tensor: Tensor) -> np.ndarray:
        g = self._table.get(id(tensor))
        if g is None:
            return np.zeros_like(tensor.data)
        return g


def _accumulate(table, tensor, delta):
    key = id(tensor)
    if key in table:
        table[key] += delta
    else:
        table[key] = np.array(delta, dtype=np.float64)


class Tape:
    """Ordered record of primitive operations, replayed backward for adjoints."""

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def _record(self, out: Tensor, backward_fn) -> Tensor:
        self._nodes.append((out, backward_fn))
        return out

    # -- primitives ------------------------------------------------------

    def const(self, arr) -> Tensor:
        """A constant input: wrapped, not recorded, and given no adjoint."""
        return Tensor(arr)

    def add(self, a: Tensor, b) -> Tensor:
        if isinstance(b, (int, float)):
            out = Tensor(a.data + float(b))

            def back(g, table):
                _accumulate(table, a, g)

            return self._record(out, back)
        if a.shape != b.shape:
            raise NdiffError(f"add shapes differ: {a.shape} vs {b.shape}")
        out = Tensor(a.data + b.data)

        def back2(g, table):
            _accumulate(table, a, g)
            _accumulate(table, b, g)

        return self._record(out, back2)

    def multiply(self, a: Tensor, b) -> Tensor:
        if isinstance(b, (int, float)):
            c = float(b)
            out = Tensor(a.data * c)

            def back(g, table):
                _accumulate(table, a, g * c)

            return self._record(out, back)
        if a.shape != b.shape:
            raise NdiffError(f"multiply shapes differ: {a.shape} vs {b.shape}")
        out = Tensor(a.data * b.data)

        def back2(g, table):
            _accumulate(table, a, g * b.data)
            _accumulate(table, b, g * a.data)

        return self._record(out, back2)

    def affine(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """x @ w + b with the bias broadcast across rows."""
        if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
            raise NdiffError(f"affine shapes do not conform: {x.shape} @ {w.shape}")
        if b.shape != (w.shape[1],):
            raise NdiffError(f"affine bias shape {b.shape} != ({w.shape[1]},)")
        out = Tensor(x.data @ w.data + b.data)

        def back(g, table):
            _accumulate(table, x, g @ w.data.T)
            _accumulate(table, w, x.data.T @ g)
            _accumulate(table, b, g.sum(axis=0))

        return self._record(out, back)

    def tanh(self, a: Tensor) -> Tensor:
        y = np.tanh(a.data)
        out = Tensor(y)

        def back(g, table):
            _accumulate(table, a, g * (1.0 - y * y))

        return self._record(out, back)

    def softplus(self, a: Tensor) -> Tensor:
        out = Tensor(softplus(a.data))

        def back(g, table):
            _accumulate(table, a, g * sigmoid(a.data))

        return self._record(out, back)

    def exp(self, a: Tensor) -> Tensor:
        y = np.exp(a.data)
        out = Tensor(y)

        def back(g, table):
            _accumulate(table, a, g * y)

        return self._record(out, back)

    def square(self, a: Tensor) -> Tensor:
        out = Tensor(a.data * a.data)

        def back(g, table):
            _accumulate(table, a, g * (2.0 * a.data))

        return self._record(out, back)

    def negate(self, a: Tensor) -> Tensor:
        out = Tensor(-a.data)

        def back(g, table):
            _accumulate(table, a, -g)

        return self._record(out, back)

    def logsumexp(self, a: Tensor, axis: int) -> Tensor:
        """Stable log-sum-exp over one axis of a 2-D tensor, keepdims."""
        if a.ndim != 2:
            raise NdiffError(f"logsumexp expects a 2-D tensor, got shape {a.shape}")
        if axis not in (0, 1):
            raise NdiffError(f"logsumexp axis must be 0 or 1, got {axis}")
        y = logsumexp(a.data, axis=axis)
        out = Tensor(y)

        def back(g, table):
            _accumulate(table, a, g * np.exp(a.data - y))

        return self._record(out, back)

    def sum(self, a: Tensor, axis=None) -> Tensor:
        if axis is None:
            out = Tensor(a.data.sum())

            def back(g, table):
                _accumulate(table, a, np.full_like(a.data, float(g)))

            return self._record(out, back)
        if a.ndim != 2 or axis != 1:
            raise NdiffError(f"axis sum supports 2-D tensors over axis 1, got {a.shape}")
        out = Tensor(a.data.sum(axis=1, keepdims=True))

        def back2(g, table):
            _accumulate(table, a, np.broadcast_to(g, a.shape).copy())

        return self._record(out, back2)

    def mean(self, a: Tensor) -> Tensor:
        out = Tensor(a.data.mean())
        n = a.size

        def back(g, table):
            _accumulate(table, a, np.full_like(a.data, float(g) / n))

        return self._record(out, back)

    def concat(self, parts, axis: int = 1) -> Tensor:
        if axis != 1:
            raise NdiffError("concat supports axis 1 only")
        rows = {p.shape[0] for p in parts}
        if any(p.ndim != 2 for p in parts) or len(rows) != 1:
            raise NdiffError(
                f"concat expects 2-D tensors with equal rows, got {[p.shape for p in parts]}"
            )
        out = Tensor(np.concatenate([p.data for p in parts], axis=1))
        widths = [p.shape[1] for p in parts]

        def back(g, table):
            offset = 0
            for p, w in zip(parts, widths):
                _accumulate(table, p, g[:, offset:offset + w])
                offset += w

        return self._record(out, back)

    def slice_cols(self, a: Tensor, start: int, stop: int) -> Tensor:
        if a.ndim != 2:
            raise NdiffError(f"slice expects a 2-D tensor, got shape {a.shape}")
        if not (0 <= start <= stop <= a.shape[1]):
            raise NdiffError(f"slice [{start}:{stop}] out of range for shape {a.shape}")
        out = Tensor(a.data[:, start:stop].copy())

        def back(g, table):
            full = np.zeros_like(a.data)
            full[:, start:stop] = g
            _accumulate(table, a, full)

        return self._record(out, back)

    # -- backward ----------------------------------------------------------

    def backward(self, output: Tensor) -> Gradients:
        """Adjoints of a scalar output w.r.t. every tensor on the tape."""
        if output.size != 1:
            raise NdiffError(f"backward seed must be scalar, got shape {output.shape}")
        table = {id(output): np.ones_like(output.data)}
        for out, back in reversed(self._nodes):
            g = table.get(id(out))
            if g is None:
                continue
            back(g, table)
        return Gradients(table)


# -- stable scalar kernels shared by the Tape and the evaluator ------------

def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > _SOFTPLUS_CUTOFF, x, np.log1p(np.exp(np.minimum(x, _SOFTPLUS_CUTOFF))))


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logsumexp(x, axis):
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))


class Evaluator:
    """The Tape's primitives on bare arrays, recording nothing.

    Models write their math once against an ``ops`` argument: a ``Tape``
    when gradients are needed, ``EVALUATOR`` otherwise. Each primitive
    computes the same numpy expression as the Tape's primitive of the same
    name, so results match the taped forward bit for bit. Inputs and outputs
    are ndarrays; parameters (the ``w`` and ``b`` of ``affine``) stay Tensors
    and are read through ``.data``. Shapes are not checked, so operands may
    broadcast where the Tape would reject them.
    """

    const = staticmethod(lambda arr: np.asarray(arr, dtype=np.float64))
    add = staticmethod(operator.add)
    multiply = staticmethod(operator.mul)
    affine = staticmethod(lambda x, w, b: x @ w.data + b.data)
    tanh = staticmethod(np.tanh)
    softplus = staticmethod(softplus)
    exp = staticmethod(np.exp)
    square = staticmethod(lambda a: a * a)
    negate = staticmethod(operator.neg)
    logsumexp = staticmethod(logsumexp)
    sum = staticmethod(lambda a, axis=None:
                       a.sum() if axis is None else a.sum(axis=axis, keepdims=True))
    mean = staticmethod(np.mean)
    concat = staticmethod(lambda parts, axis=1: np.concatenate(parts, axis=axis))
    slice_cols = staticmethod(lambda a, start, stop: a[:, start:stop])


EVALUATOR = Evaluator()


class ParamStore:
    """Named parameter tensors plus Adam moment accumulators.

    Confined to one thread during a training step; distinct replicas may
    train in parallel.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, values) -> Tensor:
        if name in self._params:
            raise NdiffError(f"parameter {name!r} already registered")
        t = Tensor(np.array(values, dtype=np.float64))
        self._params[name] = t
        self._m[name] = np.zeros_like(t.data)
        self._v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self):
        return list(self._params)

    def values(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self._params.items()}

    def load(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            t = self._params.get(name)
            if t is None:
                raise NdiffError(f"unknown parameter {name!r}")
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != t.data.shape:
                raise NdiffError(
                    f"parameter {name!r} shape {arr.shape} != stored {t.data.shape}"
                )
            t.data = arr.copy()

    def adam_step(self, grads: Gradients, lr: float) -> None:
        """Bias-corrected Adam update on every registered parameter."""
        t = self.step_count + 1
        bc1 = 1.0 - _ADAM_BETA1 ** t
        bc2 = 1.0 - _ADAM_BETA2 ** t
        for name, p in self._params.items():
            g = grads[p]
            if g.shape != p.data.shape:
                raise NdiffError(
                    f"gradient shape {g.shape} != parameter {name!r} shape {p.data.shape}"
                )
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(
                    f"non-finite gradient for parameter {name!r} at step {t}"
                )
            m = self._m[name]
            v = self._v[name]
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)
        self.step_count = t
