"""Minimal reverse-mode autodiff over dense float64 arrays.

Every trainable model in this package is a small MLP stack, so the engine
favors explicit shapes and a flat replay tape over graph optimization.
A fresh ``Tape`` is built for each forward pass. It takes and returns plain
ndarrays and records each output, known by its identity, with one pullback
per operand; ``Tape.backward`` replays the record in exact reverse order,
summing adjoints in one place. ``EVALUATOR`` runs the same primitives on
the same arrays and records nothing, each with the Tape's numpy
expression, except ``mixture_log_prob``, which computes the Tape's values
in a layout that reduces along the long target axis; a test keeps the two
equal bit for bit. A ``Tensor`` is only a parameter's
handle, whose ``.data`` is a view into its ``ParamStore``'s one buffer:
code writes into it and never rebinds it. Nothing writes into a recorded
value or an adjoint in place, since either may share memory with another.
"""

from __future__ import annotations

import math
import operator

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
# numpy's pairwise sum: sequential below this many terms, then this many
# accumulators up to _PW_BLOCK terms, and halves above that
_PW_UNROLL = 8
_PW_BLOCK = 128
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
        # is the evaluator's kernel, with a hand-written backward.
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
    """log(sum(exp(x))) along ``axis``, keepdims; -inf where every entry is."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    finite = np.isfinite(m)
    s = np.sum(np.exp(x - np.where(finite, m, 0.0)), axis=axis, keepdims=True)
    # a row whose max is not finite is its max (-inf, +inf or NaN); skipping
    # its log avoids log(0) on an all -inf row without entering np.errstate
    return m + np.log(s, out=s, where=finite)


def slice_sum(a):
    """Sum over the leading axis, adding whole slices in the order numpy's
    pairwise sum adds the terms of one contiguous axis, so ``slice_sum(a.T)``
    equals ``np.sum(a, axis=1)`` of a 2-D C-ordered ``a`` bit for bit; fast
    when the leading axis is short and the slices long."""
    n = a.shape[0]
    if n > _PW_BLOCK:
        half = n // 2
        half -= half % _PW_UNROLL
        res = slice_sum(a[:half])
        res += slice_sum(a[half:])
        return res
    # starting from a + 0.0, as numpy starts from its identity, gives a
    # zero sum numpy's sign
    if n < _PW_UNROLL:
        res = a[0] + 0.0
        rest = 1
    else:
        acc = a[:_PW_UNROLL] + 0.0
        rest = n - n % _PW_UNROLL
        for i in range(_PW_UNROLL, rest, _PW_UNROLL):
            acc += a[i:i + _PW_UNROLL]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        res = acc[0]
        res += acc[4]
    for i in range(rest, n):
        res += a[i]
    return res


def slice_logsumexp(a):
    """``logsumexp`` over the leading axis, without keepdims, equal bit for
    bit to ``logsumexp(a.T, axis=1)[:, 0]`` of a 2-D ``a``: the max is a
    running maximum, which keeps a NaN as ``np.max`` does, and the sum is
    ``slice_sum``."""
    m = a[0].copy()
    for row in a[1:]:
        np.maximum(m, row, out=m)
    finite = np.isfinite(m)
    e = a - np.where(finite, m, 0.0)
    s = slice_sum(np.exp(e, out=e))
    return m + np.log(s, out=s, where=finite)


class Evaluator:
    """The Tape's primitives, recording nothing.

    Models write their math once against an ``ops`` argument: a ``Tape``
    when gradients are needed, ``EVALUATOR`` otherwise. Both take and
    return the same ndarrays, parameters aside, and each primitive computes
    the same numpy expression as the Tape's primitive of the same name, so
    results match the taped forward bit for bit. ``mixture_log_prob`` is
    the exception: it computes the Tape's values in another layout, and a
    test keeps the two equal bit for bit. Shapes are not checked, so
    operands may broadcast where the Tape would reject them.
    """

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

    @staticmethod
    def mixture_log_prob(log_w, mu, log_std, y_z):
        """``Tape.mixture_log_prob``'s values, computed in a (D, K, targets)
        layout: the parameters may have one row, broadcast over the targets,
        or one row per target. Each term is formed with the Tape's association
        in one buffer, then summed over D and log-sum-exp'd over K slice by
        slice along the long target axis, in numpy's order for the Tape's
        short contiguous axes, so the two agree bit for bit."""
        k = log_w.shape[1]
        t, d = y_z.shape
        rows = log_w.shape[0]

        def layout(p):
            # (rows, K*D) component-major -> (D, K, rows), a view
            return p.T.reshape(k, d, rows).transpose(1, 0, 2)

        neg_ls = -log_std
        buf = np.empty((d, k, t))
        np.subtract(y_z.T[:, None, :], layout(mu), out=buf)
        buf *= layout(np.exp(neg_ls))
        np.multiply(buf, buf, out=buf)
        buf *= -0.5
        buf += layout(neg_ls)
        buf += -0.5 * LOG_2PI
        comp = slice_sum(buf)
        comp += log_w.T
        return slice_logsumexp(comp)[:, None]


EVALUATOR = Evaluator()


class ParamStore:
    """Named parameters as reshaped views into one contiguous float64 buffer,
    ``flat``, with Adam's two moment buffers in the same layout, so Adam moves
    every parameter at once. Write into a parameter's ``.data``, as ``load``
    does; never rebind it, which would detach it from the buffer."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.flat = np.zeros(0)
        self._m = np.zeros(0)
        self._v = np.zeros(0)
        self.step_count = 0

    def add(self, name: str, values) -> Tensor:
        if name in self._params:
            raise NdiffError(f"parameter {name!r} already registered")
        t = self._params[name] = Tensor(values)
        self.flat = np.concatenate([self.flat, t.data.ravel()])
        self._m = np.concatenate([self._m, np.zeros(t.data.size)])
        self._v = np.concatenate([self._v, np.zeros(t.data.size)])
        start = 0
        for p in self._params.values():
            p.data = self.flat[start:start + p.data.size].reshape(p.data.shape)
            start += p.data.size
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
                raise NdiffError(f"parameter {name!r} shape {arr.shape} != stored {t.data.shape}")
            t.data[...] = arr

    def adam_step(self, grads: Gradients, lr: float) -> None:
        """Bias-corrected Adam update on every registered parameter.

        Every gradient is gathered and checked first, so a step that raises
        leaves the parameters, both moments and ``step_count`` as they were.
        """
        t = self.step_count + 1
        g = np.empty_like(self.flat)
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
        self.flat -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        self.step_count = t
