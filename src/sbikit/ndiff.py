"""Minimal reverse-mode autodiff over dense float64 arrays.

Every trainable model in this package is a small MLP stack, so the engine
favors explicit shapes and a flat replay tape over graph optimization. A fresh
``Tape`` is built for each forward pass. It takes and returns plain ndarrays
and records each output, known by its identity, with one pullback per operand;
``Tape.backward`` replays the record in exact reverse order, summing adjoints
in one place. ``EVALUATOR`` runs the same primitives on the same arrays and
records nothing, each with the Tape's numpy expression (the package's one
``softplus``, log(1 + e^x), is below), so the two agree bit for bit.
``mixture_log_prob`` is the exception: the Tape's is a loop of primitives, the
gradient path, and the evaluator's is the package's one pointwise numpy
mixture kernel, which agrees with the loop to rounding and also serves
``MixtureDiagGaussian``; the NLE i.i.d. scorer
(``estimators._mixture_iid_log_lik``) expands the same exponent in each
trial's features instead, so that one matrix product scores a whole trial
set at every context. A ``Tensor`` is only a parameter's handle, whose
``.data``, like the store's ``flat``, is a read-only view of its
``ParamStore``'s one buffer, which only ``load`` and ``adam_step`` write,
through ``ParamStore._write``, which lifts the buffer's own read-only flag
for that write alone. Nothing writes into a recorded value or an adjoint in
place, since either may share memory with another.
"""

from __future__ import annotations

import math
import operator

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
# Adam moment decay rates and denominator guard (Kingma & Ba's defaults)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class NdiffError(ValueError):
    """Shape mismatch or invalid tape operation."""


class NonFiniteGradientError(RuntimeError):
    """A gradient turned non-finite during an optimizer step."""


class Tensor:
    """A parameter's handle: a stable identity for its adjoint, and its
    float64 values in ``data``, a view into the owning ``ParamStore``."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    def __array__(self, dtype=None, copy=None):
        return self.data.copy() if copy else self.data


class Gradients:
    """Adjoint arrays keyed by the values they belong to: a parameter's
    ``Tensor`` or an array the Tape recorded or took in. An adjoint may
    share memory with another: copy it before writing into it."""

    def __init__(self, table):
        self._table = table

    def __getitem__(self, value) -> np.ndarray:
        g = self._table.get(id(value))
        if g is None:
            return np.zeros_like(value)
        return g


def _same(g):
    return g


class Tape:
    """Ordered record of primitive operations, replayed backward for adjoints.

    Primitives take and return ndarrays; ``affine`` also takes parameter
    Tensors. A node is a primitive's output and one ``(operand, pullback)``
    pair per operand; an operand no node produced is a constant. ``backward``
    sums adjoints in reverse node order, operands in order, out of place, so
    a pullback may return its input or a view of it. Full reductions return
    0-d arrays: ``add`` and ``multiply`` take a ``float`` for a constant.
    """

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def _record(self, value, *pullbacks) -> np.ndarray:
        self._nodes.append((value, pullbacks))
        return value

    # -- primitives ------------------------------------------------------

    def add(self, a, b):
        if isinstance(b, (int, float)):
            return self._record(a + float(b), (a, _same))
        if a.shape != b.shape:
            raise NdiffError(f"add shapes differ: {a.shape} vs {b.shape}")
        return self._record(a + b, (a, _same), (b, _same))

    def multiply(self, a, b):
        if isinstance(b, (int, float)):
            c = float(b)
            return self._record(a * c, (a, lambda g: g * c))
        if a.shape != b.shape:
            raise NdiffError(f"multiply shapes differ: {a.shape} vs {b.shape}")
        return self._record(a * b, (a, lambda g: g * b), (b, lambda g: g * a))

    def affine(self, x, w: Tensor, b: Tensor):
        """x @ w + b with the bias broadcast across rows."""
        x = np.asarray(x)
        if x.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.data.shape[0]:
            raise NdiffError(f"affine shapes do not conform: {x.shape} @ {w.data.shape}")
        if b.data.shape != (w.data.shape[1],):
            raise NdiffError(f"affine bias shape {b.data.shape} != ({w.data.shape[1]},)")
        return self._record(x @ w.data + b.data,
                            (x, lambda g: g @ w.data.T),
                            (w, lambda g: x.T @ g),
                            (b, lambda g: g.sum(axis=0)))

    def scale_shift(self, x, scale, shift):
        """x * scale + shift, with constant ``scale`` and ``shift`` broadcast across rows."""
        x = np.asarray(x)
        return self._record(x * scale + shift, (x, lambda g: g * scale))

    def tanh(self, a):
        y = np.tanh(a)
        return self._record(y, (a, lambda g: g * (1.0 - y * y)))

    def softplus(self, a):
        return self._record(softplus(a), (a, lambda g: g * sigmoid(a)))

    def exp(self, a):
        y = np.exp(a)
        return self._record(y, (a, lambda g: g * y))

    def square(self, a):
        return self._record(a * a, (a, lambda g: g * (2.0 * a)))

    def negate(self, a):
        return self._record(-a, (a, operator.neg))

    def logsumexp(self, a, axis: int):
        """Stable log-sum-exp over one axis of a 2-D array, keepdims."""
        if a.ndim != 2:
            raise NdiffError(f"logsumexp expects a 2-D array, got shape {a.shape}")
        if axis not in (0, 1):
            raise NdiffError(f"logsumexp axis must be 0 or 1, got {axis}")
        y = logsumexp(a, axis=axis)
        # an all -inf row has no mass to share out: shifting it by +inf
        # gives it a zero adjoint instead of exp(-inf - -inf) = NaN
        return self._record(
            y, (a, lambda g: g * np.exp(a - np.where(y == -np.inf, np.inf, y))))

    def sum(self, a, axis=None):
        if axis is None:
            return self._record(np.array(a.sum()), (a, lambda g: np.full_like(a, float(g))))
        if a.ndim != 2 or axis != 1:
            raise NdiffError(f"axis sum supports 2-D arrays over axis 1, got {a.shape}")
        return self._record(a.sum(axis=1, keepdims=True),
                            (a, lambda g: np.broadcast_to(g, a.shape)))

    def mean(self, a):
        n = a.size
        return self._record(np.array(a.mean()), (a, lambda g: np.full_like(a, float(g) / n)))

    def concat(self, parts, axis: int = 1):
        if axis != 1:
            raise NdiffError("concat supports axis 1 only")
        rows = {p.shape[0] for p in parts}
        if any(p.ndim != 2 for p in parts) or len(rows) != 1:
            raise NdiffError(
                f"concat expects 2-D arrays with equal rows, got {[p.shape for p in parts]}"
            )
        pullbacks, start = [], 0
        for p in parts:
            stop = start + p.shape[1]
            pullbacks.append((p, lambda g, start=start, stop=stop: g[:, start:stop]))
            start = stop
        return self._record(np.concatenate(parts, axis=1), *pullbacks)

    def slice_cols(self, a, start: int, stop: int):
        if a.ndim != 2:
            raise NdiffError(f"slice expects a 2-D array, got shape {a.shape}")
        if not (0 <= start <= stop <= a.shape[1]):
            raise NdiffError(f"slice [{start}:{stop}] out of range for shape {a.shape}")

        def pullback(g):
            full = np.zeros_like(a)
            full[:, start:stop] = g
            return full

        return self._record(a[:, start:stop], (a, pullback))

    # -- composite ---------------------------------------------------------

    def mixture_log_prob(self, log_w, mu, log_std, y_z):
        """(n,1) log-density of the rows of ``y_z`` (n, D) under diagonal
        Gaussian mixtures: log-weights (n, K), means and log-stds (n, K*D),
        component-major, one mixture per row."""
        k, d = log_w.shape[1], y_z.shape[1]
        # a loop of primitives, not one node: the benchmark pins its tape
        # node count. ROADMAP item 3 replaces it with one node whose forward
        # is Evaluator.mixture_log_prob, with a hand-written backward.
        comp_cols = []
        for j in range(k):
            mu_j = self.slice_cols(mu, j * d, (j + 1) * d)
            ls_j = self.slice_cols(log_std, j * d, (j + 1) * d)
            diff = self.add(y_z, self.negate(mu_j))
            z = self.multiply(diff, self.exp(self.negate(ls_j)))
            quad = self.multiply(self.square(z), -0.5)
            terms = self.add(self.add(quad, self.negate(ls_j)), -0.5 * LOG_2PI)
            comp_cols.append(self.sum(terms, axis=1))
        comp = self.concat(comp_cols, axis=1)
        return self.logsumexp(self.add(comp, log_w), axis=1)

    # -- backward ----------------------------------------------------------

    def backward(self, output) -> Gradients:
        """Adjoints of a scalar output w.r.t. every value on the tape."""
        if output.size != 1:
            raise NdiffError(f"backward seed must be scalar, got shape {output.shape}")
        table = {id(output): np.ones_like(output)}
        for out, pullbacks in reversed(self._nodes):
            g = table.get(id(out))
            if g is None:
                continue
            for operand, pullback in pullbacks:
                delta = pullback(g)
                key = id(operand)
                table[key] = table[key] + delta if key in table else delta
        return Gradients(table)


# -- stable scalar kernels shared by the Tape and the evaluator ------------

def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logsumexp(x, axis):
    """log(sum(exp(x))) along ``axis``, keepdims; -inf where every entry is."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    finite = np.isfinite(m)
    s = np.sum(np.exp(x - np.where(finite, m, 0.0)), axis=axis, keepdims=True)
    # a row whose max is not finite is its max (-inf, +inf or NaN); skipping
    # its log avoids log(0) on an all -inf row without entering np.errstate
    return m + np.log(s, out=s, where=finite)


class Evaluator:
    """The Tape's primitives, recording nothing.

    Models write their math once against an ``ops`` argument: a ``Tape``
    when gradients are needed, ``EVALUATOR`` otherwise. Both take and
    return the same ndarrays, parameters aside, and each primitive computes
    the same numpy expression as the Tape's primitive of the same name, so
    results match the taped forward bit for bit. ``mixture_log_prob`` is
    the exception: it is one pointwise kernel, not the Tape's loop, and
    agrees with that loop to rounding. Shapes are not checked, so operands may
    broadcast where the Tape would reject them.
    """

    add = staticmethod(operator.add)
    multiply = staticmethod(operator.mul)
    affine = staticmethod(lambda x, w, b: x @ w.data + b.data)
    scale_shift = staticmethod(lambda x, scale, shift: np.asarray(x) * scale + shift)
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

    @staticmethod
    def mixture_log_prob(log_w, mu, log_std, y_z):
        """``Tape.mixture_log_prob`` as one pointwise kernel: log sum_k exp(log_c[k]
        - sum_d ((y[d] - mu[d, k]) * inv_scale[d, k])^2), log_c = log w - sum_d
        log sigma - D/2 log 2 pi, inv_scale = 1 / (sqrt(2) sigma), over C-ordered
        (D, K, rows) copies of parameters of one row, broadcast over the targets,
        or one per target; the terms fill one buffer, reduced in place. A square
        past the float range is a -inf term."""
        k, d = log_w.shape[1], y_z.shape[1]

        def layout(p):
            # (rows, K*D) component-major -> a C-ordered (D, K, rows) copy
            return p.T.reshape(k, d, -1).transpose(1, 0, 2).copy()

        ls = layout(log_std)
        log_c = log_w.T - ls.sum(axis=0) - 0.5 * d * LOG_2PI
        inv_scale = np.exp(np.subtract(-0.5 * math.log(2.0), ls, out=ls), out=ls)
        z = np.subtract(np.ascontiguousarray(y_z.T)[:, None], layout(mu))
        z *= inv_scale
        with np.errstate(over="ignore"):
            z *= z
        buf = np.subtract(log_c, z[0], out=z[0])            # (K, targets)
        for zj in z[1:]:
            buf -= zj
        m = buf.max(axis=0)                                 # logsumexp over K, in place,
        finite = np.isfinite(m)                             # with logsumexp's guard
        buf -= np.where(finite, m, 0.0)
        s = np.exp(buf, out=buf).sum(axis=0)
        return (m + np.log(s, out=s, where=finite))[:, None]


EVALUATOR = Evaluator()


class ParamStore:
    """Named parameters as reshaped views into one contiguous float64 buffer,
    with Adam's two moment buffers in the same layout, so Adam moves every
    parameter at once. Parameters change only through ``load`` and
    ``adam_step``, which write into the buffer and count each write in
    ``version`` (so does an estimator's ``initialize_standardization``: a
    prepared trial set holds the old statistics). The buffer itself is
    read-only outside those two, so
    ``flat``, a view of the whole buffer, and each parameter's ``.data``
    are read-only views that numpy refuses to make writeable again;
    rebinding ``.data`` would detach it from the buffer."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._spans: dict[str, slice] = {}
        self._flat = self.flat = np.zeros(0)
        self._m = np.zeros(0)
        self._v = np.zeros(0)
        self.step_count = 0
        self.version = 0

    def add(self, name: str, values) -> Tensor:
        if name in self._params:
            raise NdiffError(f"parameter {name!r} already registered")
        t = self._params[name] = Tensor(values)
        self._flat = np.concatenate([self._flat, t.data.ravel()])
        self._flat.flags.writeable = False    # and so is every view of it, for good
        self.flat = self._flat.view()
        self._m = np.concatenate([self._m, np.zeros(t.data.size)])
        self._v = np.concatenate([self._v, np.zeros(t.data.size)])
        start = 0
        for n, p in self._params.items():
            self._spans[n] = span = slice(start, start + p.data.size)
            p.data = self.flat[span].reshape(p.data.shape)
            start = span.stop
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self):
        return list(self._params)

    def values(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self._params.items()}

    def load(self, values: dict[str, np.ndarray]) -> None:
        self.version += 1   # first: a load that raises part way may have written
        for name, arr in values.items():
            t = self._params.get(name)
            if t is None:
                raise NdiffError(f"unknown parameter {name!r}")
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != t.data.shape:
                raise NdiffError(f"parameter {name!r} shape {arr.shape} != stored {t.data.shape}")
            self._write(self._spans[name], arr.ravel())

    def _write(self, index, values) -> None:
        """The one write into the buffer: ``_flat[index] = values``, with the
        buffer's read-only flag lifted for that write alone."""
        self._flat.flags.writeable = True
        try:
            self._flat[index] = values
        finally:
            self._flat.flags.writeable = False

    def adam_step(self, grads: Gradients, lr: float) -> None:
        """Bias-corrected Adam update on every registered parameter.

        Every gradient is gathered and checked first, so a step that raises
        leaves the parameters, both moments and ``step_count`` as they were.
        """
        t = self.step_count + 1
        g = np.empty_like(self._flat)
        start = 0
        for name, p in self._params.items():
            gp, shape = grads[p], p.data.shape
            if gp.shape != shape:
                raise NdiffError(f"gradient shape {gp.shape} != parameter {name!r} shape {shape}")
            g[start:start + gp.size] = gp.ravel()
            start += gp.size
        if not np.all(np.isfinite(g)):
            name = next(n for n, p in self._params.items() if not np.all(np.isfinite(grads[p])))
            raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r} at step {t}")
        self._m *= _ADAM_BETA1
        self._m += (1.0 - _ADAM_BETA1) * g
        self._v *= _ADAM_BETA2
        self._v += (1.0 - _ADAM_BETA2) * g * g
        m_hat = self._m / (1.0 - _ADAM_BETA1 ** t)
        v_hat = self._v / (1.0 - _ADAM_BETA2 ** t)
        step = lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        self._write(slice(None), self._flat - step)
        self.step_count = t
        self.version += 1
